"""Analytical cost indicators computed from an architecture spec.

Everything here is a pure function of the spec (plus batch size), so the
numbers are hardware independent: parameter counts, FLOPs/MACs, activation
sizes, memory-access volume, and training/inference memory estimates.

All accumulators are checked against the 64-bit unsigned range and raise
:class:`OverflowError` beyond it, mirroring what a native implementation
could actually hold.

Each public indicator reads its totals from :func:`_totals`, which checks
``batch``, evaluates the spec once with :func:`costlens.trace.evaluate`
(which validates it) and sums its steps with :func:`costlens.trace._sums`.
``compute_profile`` reads every total from that same pass, and ``trace``
costs an ``MoE`` node from the sums of its expert's steps, so each count has
one summation path, and an indicator returns totals only, never steps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .archspec import ArchSpec, UINT64_MAX, check_value
from .trace import _Sums, _sums, evaluate


def _checked(value: int, what: str) -> int:
    if value > UINT64_MAX:
        raise OverflowError(f"{what} exceeds the 64-bit unsigned range")
    return value


def _totals(spec: ArchSpec, batch: int = 1, pad_multiple: int | None = None,
            seconds=None) -> tuple[_Sums, float | None]:
    """Check ``batch``, the one batch check before a fold, then :func:`evaluate`:
    the sums of its steps and its time."""
    check_value("batch", batch)
    steps, time = evaluate(spec, pad_multiple, seconds)
    return _sums(steps), time


def _params(sums: _Sums) -> int:
    """The stored parameter count, checked through the unrolled one, never below it."""
    _checked(sums.unrolled, "parameter count")
    return sums.params


@dataclass(frozen=True)
class ParamCount:
    """Parameter totals.

    ``total`` counts each shared parameter group once; ``shared_savings``
    is how many parameters sharing avoided relative to the same stack with
    every repeat materialized separately.
    """

    total: int
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
    quantity most published "GFLOPs" tables actually report.
    """

    flops: int
    macs: int

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


def count_params(spec: ArchSpec) -> ParamCount:
    """Parameter count; bodies of parameter-shared repeats count once."""
    total = _params(sums := _totals(spec)[0])
    return ParamCount(total, sums.unrolled - total)


# ---------------------------------------------------------------------------
# FLOPs


def count_flops(spec: ArchSpec, batch: int = 1) -> FlopCount:
    """Forward-pass FLOPs for one batch; exactly linear in ``batch``.

    Parameter sharing never changes FLOPs: a shared repeat runs its body
    just as many times.
    """
    sums = _totals(spec, batch)[0]
    return FlopCount(_checked(sums.flops * batch, "FLOP count"),
                     _checked(sums.macs * batch, "MAC count"))


# ---------------------------------------------------------------------------
# Activations and memory traffic


def activation_size(spec: ArchSpec, batch: int = 1) -> int:
    """Total elements in every building-block output tensor, per batch."""
    return _checked(_totals(spec, batch)[0].out_elements * batch,
                    "activation element count")


def memory_access_cost(spec: ArchSpec, batch: int = 1) -> int:
    """Bytes moved between memory and compute for one forward batch.

    Per executed layer and per example: parameters read once, input
    activations read, output activations written. Shared parameters are
    re-read on every repeat iteration -- sharing saves storage, not
    accesses -- so the total is exactly linear in batch and identical for
    shared and unshared repeats.
    """
    moved = _totals(spec, batch)[0].moved_elements
    return _checked(moved * spec.element_bytes * batch, "memory access volume")


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
    sums = _totals(spec, batch)[0]
    return MemoryEstimate(*_memory(_params(sums), sums, spec.element_bytes, batch, optimizer))


def _memory(params: int, sums: _Sums, eb: int, batch: int,
            optimizer: OptimizerKind) -> tuple[int, int, int, int, int, int]:
    """Training memory from the checked ``params`` and the other ``sums``, as
    the fields of a ``MemoryEstimate`` in order."""
    check_value("optimizer", optimizer, OptimizerKind)
    param_bytes = _checked(params * eb, "parameter bytes")
    opt_bytes = OPTIMIZER_STATE_COPIES[optimizer] * param_bytes
    activations = _checked(sums.out_elements * batch, "activation element count")
    act_bytes = _checked(activations * eb, "activation bytes")
    peak_train = _checked(2 * param_bytes + opt_bytes + act_bytes, "peak training bytes")
    return (param_bytes, param_bytes, opt_bytes, act_bytes, peak_train,
            _peak_inference(param_bytes, sums, eb, batch))


def _peak_inference(param_bytes: int, sums: _Sums, eb: int, batch: int) -> int:
    """The weights plus the largest single output of a batch, checked."""
    return _checked(param_bytes + sums.largest_out * eb * batch, "peak inference bytes")


def inference_memory(spec: ArchSpec, batch: int = 1) -> MemoryEstimate:
    """Peak device memory for a forward pass: weights plus the largest
    single-layer output working set. Gradient and optimizer fields are
    zero by construction."""
    sums = _totals(spec, batch)[0]
    eb = spec.element_bytes
    param_bytes = _checked(_params(sums) * eb, "parameter bytes")
    peak = _peak_inference(param_bytes, sums, eb, batch)
    return MemoryEstimate(param_bytes, 0, 0, peak - param_bytes, peak, peak)
