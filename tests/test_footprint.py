import math
import random
from fractions import Fraction

import pytest

from costlens import (
    EnergyProfile,
    PricingProfile,
    carbon_footprint,
    monetary_cost,
    train_energy_kwh,
)


class TestCarbon:
    def test_train_only(self):
        e = EnergyProfile(100.0, 0.0, 0.0, 0.5)
        assert carbon_footprint(e) == 50.0

    def test_inference_only(self):
        e = EnergyProfile(0.0, 0.001, 1e6, 0.4)
        assert carbon_footprint(e) == pytest.approx(400.0)

    def test_all_zero(self):
        assert carbon_footprint(EnergyProfile(0, 0, 0, 0)) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EnergyProfile(-1.0, 0, 0, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for field in range(4):
            args = [1.0, 0.0, 0.0, 0.5]
            args[field] = bad
            with pytest.raises(ValueError, match="finite"):
                EnergyProfile(*args)

    def test_additive_in_energy_at_fixed_grid_factor(self):
        a = EnergyProfile(10.0, 0.25, 8.0, 0.5)
        b = EnergyProfile(4.0, 0.25, 16.0, 0.5)
        ab = EnergyProfile(14.0, 0.25, 24.0, 0.5)
        assert carbon_footprint(a) + carbon_footprint(b) == carbon_footprint(ab)


class TestMonetary:
    def test_cloud_run(self):
        assert monetary_cost(PricingProfile(100, 64, 2.0)) == 12_800.0

    def test_zero_time(self):
        assert monetary_cost(PricingProfile(0, 64, 2.0)) == 0.0

    def test_unit(self):
        assert monetary_cost(PricingProfile(1, 1, 1.0)) == 1.0

    def test_linear_in_each_argument(self):
        base = monetary_cost(PricingProfile(3, 5, 7.0))
        assert monetary_cost(PricingProfile(6, 5, 7.0)) == 2 * base
        assert monetary_cost(PricingProfile(3, 10, 7.0)) == 2 * base
        assert monetary_cost(PricingProfile(3, 5, 14.0)) == 2 * base

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PricingProfile(1, -2, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for field in range(3):
            args = [1.0, 2.0, 3.0]
            args[field] = bad
            with pytest.raises(ValueError, match="finite"):
                PricingProfile(*args)


class TestEnergyBridge:
    def test_power_times_time(self):
        assert train_energy_kwh(300, 10, 4) == 12.0

    def test_validation(self):
        with pytest.raises(ValueError):
            train_energy_kwh(-1, 1)
        with pytest.raises(ValueError):
            train_energy_kwh(1, 1, 0)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError, match="train energy"):
            train_energy_kwh(1e308, 1e308)


def dyadic(rng, scale=2**12, denom=16):
    """Random non-negative multiples of 1/16: exact in binary floating
    point through products of three factors, so a Fraction oracle must
    match bit for bit."""
    return rng.randrange(0, scale * denom) / denom


class TestExactRecomputation:
    def test_carbon_matches_fraction_oracle(self):
        rng = random.Random(20240)
        for _ in range(25):
            train, per_query, queries, grid = (dyadic(rng) for _ in range(4))
            got = carbon_footprint(EnergyProfile(train, per_query, queries, grid))
            oracle = (Fraction(train) + Fraction(queries) * Fraction(per_query)) \
                * Fraction(grid)
            assert Fraction(got) == oracle

    def test_monetary_matches_fraction_oracle(self):
        rng = random.Random(20241)
        for _ in range(25):
            hours, chips, price = (dyadic(rng) for _ in range(3))
            got = monetary_cost(PricingProfile(hours, chips, price))
            assert Fraction(got) == Fraction(hours) * Fraction(chips) * Fraction(price)
