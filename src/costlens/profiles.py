"""One-stop cost profile: every indicator a given set of inputs permits.

A :class:`CostProfile` bundles the hardware-independent counts with the
optional hardware-, energy- and pricing-dependent estimates. Count-style
fields (params, flops, macs, activation, memory traffic) are reported per
example so they can be compared across batch settings; memory, latency
and throughput are reported at the requested batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import ModelRecord
from .archspec import (
    ArchSpec, check_value, ensure_valid, input_sequence_length, to_document
)
from .footprint import (
    EnergyProfile,
    PricingProfile,
    carbon_footprint,
    monetary_cost,
)
from .indicators import (
    OptimizerKind,
    activation_of,
    flops_of,
    params_of,
    traffic_of,
    training_memory_of,
)
from .latency import HardwareModel, _roofline, _speed
from .trace import _pad_length, evaluate


@dataclass(frozen=True)
class CostProfile:
    name: str
    batch: int
    element_bytes: int
    optimizer: str
    params: int
    params_million: float
    flops: int
    macs: int
    gflops: float
    activation_elements: int
    mac_bytes: int
    parameter_bytes: int
    activation_bytes: int
    peak_training_bytes: int
    peak_inference_bytes: int
    latency_sec: float | None = None
    throughput_examples_per_sec: float | None = None
    hardware: str | None = None
    carbon_kg_co2e: float | None = None
    monetary_cost: float | None = None

    def to_dict(self) -> dict:
        return to_document(self)


def compute_profile(spec: ArchSpec, batch: int = 1,
                    hardware: HardwareModel | None = None,
                    optimizer: OptimizerKind = OptimizerKind.ADAM,
                    energy: EnergyProfile | None = None,
                    pricing: PricingProfile | None = None) -> CostProfile:
    """Evaluate every indicator the inputs permit.

    Latency and throughput require ``hardware``; carbon and monetary cost
    require their respective profiles. Everything else is always computed.
    The spec is validated once. It is folded once, for the counts and the
    latency together, unless the hardware pads the sequence to a new
    length: then once for the counts and once more at the padded length.
    """
    check_value("batch", batch)
    ensure_valid(spec)
    length = input_sequence_length(spec)
    pads = hardware is not None and (
        _pad_length(length, hardware.length_pad_multiple) != length)
    if hardware is None or pads:
        steps, _ = evaluate(spec)
    if hardware is not None:
        timed, latency, per_layer = _roofline(spec, hardware, batch)
        steps = steps if pads else timed
    eb = spec.element_bytes
    params = params_of(steps)
    flops = flops_of(steps, 1)
    train = training_memory_of(steps, params, eb, batch, optimizer)
    # Checked after the counts, so a count past 64 bits is the error reported.
    speed = None if hardware is None else _speed(latency, batch, per_layer)

    return CostProfile(
        name=spec.name,
        batch=batch,
        element_bytes=eb,
        optimizer=optimizer.value,
        params=params.total,
        params_million=params.millions,
        flops=flops.flops,
        macs=flops.macs,
        gflops=flops.gflops,
        activation_elements=activation_of(steps, 1),
        mac_bytes=traffic_of(steps, eb, 1),
        parameter_bytes=train.parameter_bytes,
        activation_bytes=train.activation_bytes,
        peak_training_bytes=train.peak_training_bytes,
        peak_inference_bytes=train.peak_inference_bytes,
        latency_sec=None if speed is None else speed.latency_sec,
        throughput_examples_per_sec=(None if speed is None
                                     else speed.throughput_examples_per_sec),
        hardware=hardware.name if hardware is not None else None,
        carbon_kg_co2e=carbon_footprint(energy) if energy is not None else None,
        monetary_cost=monetary_cost(pricing) if pricing is not None else None,
    )


def record_from_profile(profile_dict: dict) -> ModelRecord:
    """Re-ingest an emitted profile as an analysis record.

    The indicator values are taken verbatim from the profile fields, so a
    JSON profile round-trips exactly. Quality is not part of a cost
    profile; the record carries ``quality=None``.
    """
    mapping = {
        "params": "params",
        "flops": "flops",
        "activation": "activation_elements",
        "mac": "mac_bytes",
        "memory": "peak_training_bytes",
        "latency": "latency_sec",
        "throughput": "throughput_examples_per_sec",
        "carbon": "carbon_kg_co2e",
        "cost": "monetary_cost",
    }
    indicators = {}
    for indicator, field_name in mapping.items():
        value = profile_dict.get(field_name)
        if value is not None:
            indicators[indicator] = float(value)
    return ModelRecord(name=str(profile_dict["name"]), indicators=indicators)
