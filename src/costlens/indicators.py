"""Analytical cost indicators computed from an architecture spec.

Everything here is a pure function of the spec (plus batch size), so the
numbers are hardware independent: parameter counts, FLOPs/MACs, activation
sizes, memory-access volume, and training/inference memory estimates.

All accumulators are checked against the 64-bit unsigned range and raise
:class:`OverflowError` beyond it, mirroring what a native implementation
could actually hold.

Each public indicator validates the spec, then evaluates it once with
:func:`costlens.trace.evaluate`, which trusts it; the ``*_of`` helpers fold
an already evaluated step list, so one evaluation serves several indicators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .archspec import ArchSpec, UINT64_MAX, check_value, ensure_valid
from .trace import Step, evaluate


def _checked(value: int, what: str) -> int:
    if value > UINT64_MAX:
        raise OverflowError(f"{what} exceeds the 64-bit unsigned range")
    return value


def _steps(spec: ArchSpec, batch: int = 1) -> list[Step]:
    """Check ``batch``, then the steps of ``spec``, validated and evaluated once."""
    check_value("batch", batch)
    ensure_valid(spec)
    return evaluate(spec)[0]


@dataclass(frozen=True)
class ParamCount:
    """Parameter totals with a per-node breakdown (stored parameters of
    every leaf and ``MoE`` node, times its stored copies).

    ``total`` counts each shared parameter group once; ``shared_savings``
    is how many parameters sharing avoided relative to the same stack with
    every repeat materialized separately.
    """

    total: int
    by_layer: tuple[tuple[str, int], ...]
    shared_savings: int

    @property
    def millions(self) -> float:
        return self.total / 1e6


@dataclass(frozen=True)
class FlopCount:
    """Forward-pass floating point work.

    ``flops`` counts multiplies and adds separately (one fused
    multiply-add = 2 FLOPs) and includes elementwise work; ``macs`` is the
    exact multiply-accumulate count of the matmul terms, which is the
    quantity most published "GFLOPs" tables actually report. ``by_layer``
    has one entry per leaf and ``MoE`` node, summed over its executions.
    """

    flops: int
    macs: int
    by_layer: tuple[tuple[str, int], ...]

    @property
    def gflops(self) -> float:
        """Matmul MAC count in units of 1e9 (decimal), the table convention."""
        return self.macs / 1e9


class OptimizerKind(enum.Enum):
    """Optimizer families, distinguished only by per-parameter state size."""

    SGD = "sgd"
    MOMENTUM = "momentum"
    ADAM = "adam"
    SAM = "sam"


#: Optimizer state in units of parameter copies. SAM keeps one momentum
#: state plus one extra transient gradient for the perturbation step.
OPTIMIZER_STATE_COPIES = {
    OptimizerKind.SGD: 0,
    OptimizerKind.MOMENTUM: 1,
    OptimizerKind.ADAM: 2,
    OptimizerKind.SAM: 2,
}


@dataclass(frozen=True)
class MemoryEstimate:
    parameter_bytes: int
    gradient_bytes: int
    optimizer_state_bytes: int
    activation_bytes: int
    peak_training_bytes: int
    peak_inference_bytes: int


# ---------------------------------------------------------------------------
# Parameters


def patch_embed_weight_params(patch: int, in_channels: int, embed_dim: int) -> int:
    """Closed form for the patch-embedding projection matrix alone:
    patch * patch * channels * embed_dim (bias, CLS and positional tables
    are counted separately)."""
    return patch * patch * in_channels * embed_dim


def count_params(spec: ArchSpec) -> ParamCount:
    """Parameter count; bodies of parameter-shared repeats count once."""
    return params_of(_steps(spec))


def params_of(steps: list[Step]) -> ParamCount:
    by_layer = tuple((s.path, s.unique_params * s.copies) for s in steps)
    total = _checked(sum(c for _, c in by_layer), "parameter count")
    unrolled = _checked(sum(s.params * s.count for s in steps), "parameter count")
    return ParamCount(
        total=total,
        by_layer=by_layer,
        shared_savings=unrolled - total,
    )


# ---------------------------------------------------------------------------
# FLOPs


def count_flops(spec: ArchSpec, batch: int = 1) -> FlopCount:
    """Forward-pass FLOPs for one batch; exactly linear in ``batch``.

    Parameter sharing never changes FLOPs: a shared repeat runs its body
    just as many times.
    """
    return flops_of(_steps(spec, batch), batch)


def flops_of(steps: list[Step], batch: int) -> FlopCount:
    by_layer = tuple((s.path, s.flops * s.count * batch) for s in steps)
    return FlopCount(
        flops=_checked(sum(s.flops * s.count for s in steps) * batch, "FLOP count"),
        macs=_checked(sum(s.matmul_macs * s.count for s in steps) * batch, "MAC count"),
        by_layer=by_layer,
    )


# ---------------------------------------------------------------------------
# Activations and memory traffic


def activation_size(spec: ArchSpec, batch: int = 1) -> int:
    """Total elements in every building-block output tensor, per batch."""
    return activation_of(_steps(spec, batch), batch)


def activation_of(steps: list[Step], batch: int) -> int:
    per_example = sum(s.out_elements * s.count for s in steps)
    return _checked(per_example * batch, "activation element count")


def memory_access_cost(spec: ArchSpec, batch: int = 1) -> int:
    """Bytes moved between memory and compute for one forward batch.

    Per executed layer and per example: parameters read once, input
    activations read, output activations written. Shared parameters are
    re-read on every repeat iteration -- sharing saves storage, not
    accesses -- so the total is exactly linear in batch and identical for
    shared and unshared repeats.
    """
    return traffic_of(_steps(spec, batch), spec.element_bytes, batch)


def traffic_of(steps: list[Step], element_bytes: int, batch: int) -> int:
    total = sum(layer_mac_bytes(s, element_bytes, batch) * s.count for s in steps)
    return _checked(total, "memory access volume")


def layer_mac_bytes(step: Step, element_bytes: int, batch: int) -> int:
    """Memory traffic of one execution of a step, same accounting as above."""
    return (step.params + step.in_elements + step.out_elements) * element_bytes * batch


# ---------------------------------------------------------------------------
# Memory estimates


def training_memory(spec: ArchSpec, batch: int = 1,
                    optimizer: OptimizerKind = OptimizerKind.ADAM) -> MemoryEstimate:
    """Peak device memory while training.

    Activations kept for the backward pass cover every building-block
    output, and they ignore parameter sharing entirely: a shared stack
    stores the same activations as its unshared twin, which is why sharing
    helps inference memory far more than training memory.
    """
    steps = _steps(spec, batch)
    return training_memory_of(steps, params_of(steps), spec.element_bytes, batch,
                              optimizer)


def training_memory_of(steps: list[Step], params: ParamCount, element_bytes: int,
                       batch: int, optimizer: OptimizerKind) -> MemoryEstimate:
    """``params`` is :func:`params_of` of ``steps``."""
    eb = element_bytes
    param_bytes = _checked(params.total * eb, "parameter bytes")
    grad_bytes = param_bytes
    opt_bytes = OPTIMIZER_STATE_COPIES[optimizer] * param_bytes
    act_bytes = _checked(activation_of(steps, batch) * eb, "activation bytes")
    peak_train = _checked(param_bytes + grad_bytes + opt_bytes + act_bytes,
                          "peak training bytes")
    return MemoryEstimate(
        parameter_bytes=param_bytes,
        gradient_bytes=grad_bytes,
        optimizer_state_bytes=opt_bytes,
        activation_bytes=act_bytes,
        peak_training_bytes=peak_train,
        peak_inference_bytes=_inference_peak(steps, eb, batch, param_bytes),
    )


def inference_memory(spec: ArchSpec, batch: int = 1) -> MemoryEstimate:
    """Peak device memory for a forward pass: weights plus the largest
    single-layer output working set. Gradient and optimizer fields are
    zero by construction."""
    steps = _steps(spec, batch)
    eb = spec.element_bytes
    param_bytes = _checked(params_of(steps).total * eb, "parameter bytes")
    working = _inference_peak(steps, eb, batch, param_bytes) - param_bytes
    return MemoryEstimate(
        parameter_bytes=param_bytes,
        gradient_bytes=0,
        optimizer_state_bytes=0,
        activation_bytes=working,
        peak_training_bytes=param_bytes + working,
        peak_inference_bytes=param_bytes + working,
    )


def _inference_peak(steps: list[Step], element_bytes: int, batch: int,
                    param_bytes: int) -> int:
    # Repetition does not change the largest single output.
    largest = max((s.out_elements for s in steps), default=0)
    return _checked(param_bytes + largest * element_bytes * batch,
                    "peak inference bytes")
