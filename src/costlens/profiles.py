"""One-stop cost profile: every indicator a given set of inputs permits.

A :class:`CostProfile` bundles the hardware-independent counts with the
optional hardware-, energy- and pricing-dependent estimates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .analysis import PROFILE_FIELDS, InputFileError, ModelRecord, _load_json, _read_document
from .archlib import build_from_reference
from .archspec import (
    ArchSpec, InvalidSpecError, _echo, check_schema_version, check_value, ensure_valid,
    from_document, spec_from_dict, to_document,
)
from .footprint import (
    EnergyProfile,
    PricingProfile,
    carbon_footprint,
    monetary_cost,
)
from .indicators import OptimizerKind, _checked, _memory, _params, _steps
from .latency import HardwareModel, _roofline, _speed, load_hardware
from .trace import _sums


@dataclass(frozen=True)
class CostProfile:
    """Every cost indicator of one spec; immutable once built.

    The counts (``params``, ``flops``, ``macs``, ``gflops``,
    ``activation_elements``, ``mac_bytes``) are per example, so they compare
    across batch settings; memory, latency and throughput are at ``batch``.
    ``None`` marks an indicator the inputs do not permit: latency and
    throughput without hardware, carbon without an energy profile, cost
    without pricing.
    """

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


_FIELDS = tuple(f.name for f in fields(CostProfile))


def _profile(*values) -> CostProfile:
    """The ``CostProfile`` of ``values`` in field order, its ``__dict__``
    filled at once; it has no ``__post_init__``, so no check is skipped."""
    profile = object.__new__(CostProfile)
    profile.__dict__.update(zip(_FIELDS, values))
    return profile


def compute_profile(spec: ArchSpec, batch: int = 1,
                    hardware: HardwareModel | None = None,
                    optimizer: OptimizerKind = OptimizerKind.ADAM,
                    energy: EnergyProfile | None = None,
                    pricing: PricingProfile | None = None) -> CostProfile:
    """Evaluate every indicator the inputs permit.

    Latency and throughput require ``hardware``; carbon and monetary cost
    require their respective profiles. Everything else is always computed.
    The spec is folded once, for the counts and the latency together;
    :func:`costlens.trace.evaluate` validates it first, and hardware that
    pads the sequence is timed at the padded length within that fold.
    Every count is read from one pass over the steps.
    """
    steps, latency = (_steps(spec, batch) if hardware is None
                      else _roofline(spec, hardware, batch))
    eb = spec.element_bytes
    sums = _sums(steps)
    params = _params(sums)
    flops = _checked(sums.flops, "FLOP count")
    macs = _checked(sums.macs, "MAC count")
    param_bytes, _, _, act_bytes, peak_train, peak_inference = _memory(
        params, sums, eb, batch, optimizer)
    # Checked after the counts, so a count past 64 bits is the error reported.
    latency, throughput = (None, None) if latency is None else _speed(latency, batch)

    return _profile(
        spec.name, batch, eb, optimizer.value, params, params / 1e6, flops, macs,
        macs / 1e9, sums.out_elements,
        _checked(sums.moved_elements * eb, "memory access volume"), param_bytes, act_bytes,
        peak_train, peak_inference, latency, throughput,
        hardware.name if hardware is not None else None,
        carbon_footprint(energy) if energy is not None else None,
        monetary_cost(pricing) if pricing is not None else None,
    )


def record_from_profile(profile_dict: dict) -> ModelRecord:
    """Re-ingest an emitted profile as an analysis record.

    The name and the indicator values, taken from the fields
    ``PROFILE_FIELDS`` names, go to ``ModelRecord`` as they are, so a JSON
    profile round-trips exactly and a value it refuses is named. Quality is
    not part of a cost profile; the record carries ``quality=None``.
    """
    check_value("profile_dict", profile_dict, dict)
    if "name" not in profile_dict:
        raise ValueError("profile_dict: missing field 'name'")
    return ModelRecord(name=profile_dict["name"], indicators={
        indicator: v for indicator, key in PROFILE_FIELDS.items()
        if (v := profile_dict.get(key)) is not None})


def _hardware(hw) -> HardwareModel:
    """A hardware preset name, a JSON path or an inline object, which no refusal echoes."""
    try:
        return load_hardware(hw) if isinstance(hw, str) else from_document(HardwareModel, hw)
    except (OSError, ValueError) as exc:  # keeps a file's name and offset
        what = f"hardware {_echo(hw)}" if isinstance(hw, str) else "inline hardware"
        raise InputFileError(f"bad {what}: {exc}", **getattr(exc, "detail", {}))


def _rates(cls, path: str, what: str):
    """An energy or pricing profile read from a JSON file."""
    return _read_document(cls, path, f"{path}: bad {what}: ")


#: Keys of a spec file; anything else is refused.
_SPEC_FILE_KEYS = {"schema_version", "name", "arch", "builder", "hardware", "batch", "notes"}


def read_spec_file(path: str) -> tuple[ArchSpec, HardwareModel | None, int | None]:
    """Parse a spec file (format in docs/file-formats.md) into (validated
    architecture, optional hardware, batch); a bad file raises ``InputFileError``,
    which names every violation of an invalid architecture."""
    check_value("path", path, (str, os.PathLike))
    doc = _load_json(path)
    try:
        if not isinstance(doc, dict):
            raise ValueError("spec file must be a JSON object")
        check_schema_version(doc.get("schema_version"))
        if ("arch" in doc) == ("builder" in doc):
            raise ValueError("exactly one of 'arch' or 'builder' is required")
        unknown = sorted(doc.keys() - _SPEC_FILE_KEYS)
        if unknown:
            raise ValueError("; ".join(f"unknown field {_echo(k)}" for k in unknown))
        batch = doc.get("batch")
        for key, kind in (("batch", int), ("name", str), ("notes", str)):
            if key in doc:  # so a null is refused, not read as the key left out
                check_value(key, doc[key], kind)
        if "arch" in doc:
            spec = spec_from_dict(doc["arch"])
        else:
            check_value("builder", doc["builder"], dict)
            builder = dict(doc["builder"])
            family = builder.pop("family", None)
            if family is None:
                raise ValueError("builder reference requires a 'family' field")
            spec = build_from_reference(family, builder)
        ensure_valid(spec)
        hardware = doc.get("hardware")
        if isinstance(hardware, str):  # a file beside the spec file comes first
            beside = os.path.join(os.path.dirname(path), hardware)
            hardware = beside if os.path.isfile(beside) else hardware
        # Inside the try, so a refused hardware names the spec file.
        hardware = _hardware(hardware) if "hardware" in doc else None
    except InvalidSpecError as exc:
        raise InputFileError(f"{path}: {exc}", file=path, **exc.detail)
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}", file=path)
    if "name" in doc:  # after validation, so a bad name inside "arch" is still refused
        spec = replace(spec, name=doc["name"])
    return spec, hardware, batch
