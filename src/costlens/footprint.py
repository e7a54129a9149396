"""Carbon-footprint and monetary-cost estimators.

Energy and pricing numbers are user inputs; nothing here measures
anything. Both estimators are plain products/sums and are linear in every
argument, which the tests exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .archspec import check_fields, check_value


@dataclass(frozen=True)
class EnergyProfile:
    """Electrical energy picture of a model's lifecycle.

    ``ee_train_kwh``: energy to train once. ``ee_inference_kwh`` is per
    query, multiplied by ``queries``. ``co2e_per_kwh`` converts energy to
    kg of CO2 equivalent for the datacenter's grid mix. A document may
    leave out ``ee_inference_kwh`` and ``queries`` (0.0 each).
    """

    ee_train_kwh: float
    ee_inference_kwh: float = field(metadata={"document_default": 0.0})
    queries: float = field(metadata={"document_default": 0.0})
    co2e_per_kwh: float

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class PricingProfile:
    total_train_hours: float
    num_chips: float
    price_per_chip_hour: float

    def __post_init__(self):
        check_fields(self)


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise OverflowError(f"{what} exceeds the floating-point range")
    return value


def carbon_footprint(e: EnergyProfile) -> float:
    """kg CO2e: (train energy + queries * per-query energy) * grid factor."""
    check_value("energy", e, EnergyProfile)
    return _finite((e.ee_train_kwh + e.queries * e.ee_inference_kwh) * e.co2e_per_kwh,
                   "carbon footprint")


def monetary_cost(p: PricingProfile) -> float:
    """Currency units: train hours * chips * price per chip-hour."""
    check_value("pricing", p, PricingProfile)
    return _finite(p.total_train_hours * p.num_chips * p.price_per_chip_hour,
                   "monetary cost")


def train_energy_kwh(device_watts: float, wall_clock_hours: float,
                     num_devices: int = 1) -> float:
    """Back-of-envelope bridge from power draw to ``ee_train_kwh``.

    A rough estimate (ignores PUE, idle draw, host machines); use measured
    energy when available.
    """
    check_value("device_watts", device_watts, float)
    check_value("wall_clock_hours", wall_clock_hours, float)
    check_value("num_devices", num_devices)
    return _finite(device_watts * wall_clock_hours * num_devices / 1000.0,
                   "train energy")
