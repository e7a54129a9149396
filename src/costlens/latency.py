"""Roofline-style latency and throughput estimates.

The hardware model is deliberately small: a peak compute rate, a memory
bandwidth, a fixed dispatch overhead per sequential op, a device count,
and an optional sequence-length padding rule. Each executed layer costs

    per_op_overhead + max(flops / (peak * devices), bytes / bandwidth)

and sequential layers add up, a repeat takes ``times`` x its body, and
parallel branches take the slowest branch. That is enough to capture the
effects the pure FLOP count hides: a deep narrow stack and a shallow wide
stack with identical FLOPs get different latencies because they dispatch
different numbers of sequential ops.

Absolute numbers from any real machine are not reproduction targets; the
model is for orderings and what-if comparisons under a documented preset.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib import resources

from .archspec import _FLOAT_MAX, ArchSpec, _echo, _read_document, check_fields, check_value
from .indicators import _totals
from .trace import Step, _Sums


@dataclass(frozen=True)
class HardwareModel:
    """Parameterized device abstraction for the roofline estimates."""

    peak_flops_per_sec: float
    mem_bandwidth_bytes_per_sec: float
    per_op_overhead_sec: float
    num_devices: int = 1
    length_pad_multiple: int | None = None
    name: str = "custom"
    notes: str = ""

    def __post_init__(self):
        check_fields(self)
        for name in ("peak_flops_per_sec", "mem_bandwidth_bytes_per_sec"):
            if getattr(self, name) == 0:
                raise ValueError(f"{name} must be > 0")
        # A finite compute rate, so no device count makes an op free.
        if self.num_devices > _FLOAT_MAX or self.peak_flops_per_sec * self.num_devices == math.inf:
            raise ValueError(f"num_devices x peak_flops_per_sec must be within the float "
                             f"range, got {_echo(self.num_devices)} x {self.peak_flops_per_sec}")


#: Environment variable naming a directory of extra hardware preset JSONs.
HW_PRESET_DIR_ENV = "COSTLENS_HW_DIR"


def preset_names() -> list[str]:
    """Names of the hardware presets shipped with the package."""
    root = resources.files("costlens").joinpath("data/hardware")
    return sorted(
        p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json")
    )


#: Shipped presets parsed so far, by name: each is parsed once per process.
_SHIPPED: dict[str, HardwareModel] = {}


def load_hardware(name_or_path: str) -> HardwareModel:
    """Load a hardware model by preset name or JSON file path.

    Lookup order: an existing file, then ``$COSTLENS_HW_DIR``, then the
    presets shipped with the package. Only a bare name (no path separator,
    no ``..``) is looked up in those two directories. Files and
    ``$COSTLENS_HW_DIR`` are read on every call; a shipped preset is
    parsed once per process. A file that cannot be read or parsed, or whose
    fields are refused, raises ``InputFileError`` naming it.
    """
    check_value("name_or_path", name_or_path, (str, os.PathLike))
    candidates = [name_or_path]
    bare = os.path.basename(name_or_path) == name_or_path and ".." not in name_or_path
    env_dir = os.environ.get(HW_PRESET_DIR_ENV)
    if bare and env_dir:
        candidates.append(os.path.join(env_dir, name_or_path + ".json"))
    for candidate in candidates:
        if os.path.isfile(candidate):
            return _read_document(HardwareModel, candidate)
    # Known names only, so a typo never grows the cache nor reaches the file system.
    if bare and name_or_path not in _SHIPPED and name_or_path in preset_names():
        shipped = resources.files("costlens").joinpath(f"data/hardware/{name_or_path}.json")
        with resources.as_file(shipped) as path:  # a real file, wherever the package ships
            _SHIPPED[name_or_path] = _read_document(HardwareModel, path)
    if name_or_path in _SHIPPED:
        return _SHIPPED[name_or_path]
    raise FileNotFoundError(
        f"no hardware preset or file named {_echo(name_or_path)} "
        f"(shipped presets: {', '.join(preset_names())})"
    )


@dataclass(frozen=True)
class SpeedEstimate:
    latency_sec: float
    throughput_examples_per_sec: float


def estimate_latency(spec: ArchSpec, hw: HardwareModel, batch: int = 1) -> SpeedEstimate:
    """Forward-pass time for one batch under the roofline model.

    With ``length_pad_multiple`` set on the hardware, all shape-dependent
    costs are evaluated at the padded sequence length. The per-node costs
    behind the total are the steps of :func:`costlens.trace.evaluate`.
    Raises OverflowError unless latency and throughput are finite floats
    (a spec without layers has no finite throughput).
    """
    return SpeedEstimate(*_speed(_roofline(spec, hw, batch)[1], batch))


def _roofline(spec: ArchSpec, hw: HardwareModel, batch: int) -> tuple[_Sums, float]:
    """Check ``hw``, then fold the spec once with ``indicators._totals``: the
    sums of its steps at the true length, and the latency of a batch at the
    hardware's padded length, which every latency figure reads."""
    check_value("hardware", hw, HardwareModel)
    bandwidth, overhead = hw.mem_bandwidth_bytes_per_sec, hw.per_op_overhead_sec
    rate = hw.peak_flops_per_sec * hw.num_devices  # finite, as HardwareModel checks

    def op_seconds(step: Step) -> float:  # runs after _totals has validated the spec
        moved = (step.params + step.in_elements + step.out_elements) * spec.element_bytes
        try:
            compute, memory = step.flops * batch / rate, moved * batch / bandwidth
        except OverflowError:  # past the float range: no finite latency
            return math.inf
        return overhead + (compute if compute >= memory else memory)  # max(), minus a call

    return _totals(spec, batch, hw.length_pad_multiple, op_seconds)


def _speed(latency: float, batch: int) -> tuple[float, float]:
    # The latency is inf for a batch past the float range: batch / inf overflows.
    throughput = batch / latency if 0 < latency < math.inf else math.inf
    if not math.isfinite(throughput) or not math.isfinite(latency):
        raise OverflowError(
            f"latency {_echo(latency)} s at batch {_echo(batch)} gives no finite throughput"
        )
    return latency, throughput
