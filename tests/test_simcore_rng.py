"""Tests for the seeded randomness helpers."""

import random

import pytest

from repro.simcore.rng import lognormal_from_median


@pytest.fixture
def rng():
    return random.Random(42)


class TestLognormal:
    def test_median_anchored(self, rng):
        samples = sorted(lognormal_from_median(rng, 40e-3, 0.5)
                         for _ in range(20_001))
        median = samples[len(samples) // 2]
        assert median == pytest.approx(40e-3, rel=0.05)

    def test_positive_median_required(self, rng):
        with pytest.raises(ValueError):
            lognormal_from_median(rng, -1.0, 0.5)
