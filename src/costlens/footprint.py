"""Carbon-footprint and monetary-cost estimators.

Energy and pricing numbers are user inputs; nothing here measures
anything. Both estimators are plain products/sums and are linear in every
argument, which the tests exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class EnergyProfile:
    """Electrical energy picture of a model's lifecycle.

    ``ee_train_kwh``: energy to train once. ``ee_inference_kwh`` is per
    query, multiplied by ``queries``. ``co2e_per_kwh`` converts energy to
    kg of CO2 equivalent for the datacenter's grid mix.
    """

    ee_train_kwh: float
    ee_inference_kwh: float
    queries: float
    co2e_per_kwh: float

    def __post_init__(self):
        for name in ("ee_train_kwh", "ee_inference_kwh", "queries", "co2e_per_kwh"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "EnergyProfile":
        return cls(
            ee_train_kwh=float(d["ee_train_kwh"]),
            ee_inference_kwh=float(d.get("ee_inference_kwh", 0.0)),
            queries=float(d.get("queries", 0.0)),
            co2e_per_kwh=float(d["co2e_per_kwh"]),
        )


@dataclass(frozen=True)
class PricingProfile:
    total_train_hours: float
    num_chips: float
    price_per_chip_hour: float

    def __post_init__(self):
        for name in ("total_train_hours", "num_chips", "price_per_chip_hour"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "PricingProfile":
        return cls(
            total_train_hours=float(d["total_train_hours"]),
            num_chips=float(d["num_chips"]),
            price_per_chip_hour=float(d["price_per_chip_hour"]),
        )


def carbon_footprint(e: EnergyProfile) -> float:
    """kg CO2e: (train energy + queries * per-query energy) * grid factor."""
    return (e.ee_train_kwh + e.queries * e.ee_inference_kwh) * e.co2e_per_kwh


def monetary_cost(p: PricingProfile) -> float:
    """Currency units: train hours * chips * price per chip-hour."""
    return p.total_train_hours * p.num_chips * p.price_per_chip_hour


def train_energy_kwh(device_watts: float, wall_clock_hours: float,
                     num_devices: int = 1) -> float:
    """Back-of-envelope bridge from power draw to ``ee_train_kwh``.

    A rough estimate (ignores PUE, idle draw, host machines); use measured
    energy when available.
    """
    if device_watts < 0 or wall_clock_hours < 0:
        raise ValueError("power and time must be >= 0")
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    return device_watts * wall_clock_hours * num_devices / 1000.0
