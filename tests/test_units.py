"""Unit helpers: the DGEMM work count."""

import math

import pytest

from repro import units


class TestDgemmMflop:
    def test_square(self):
        # 2 * n^3 flops.
        assert units.dgemm_mflop(100) == pytest.approx(2.0)

    def test_paper_sizes(self):
        assert units.dgemm_mflop(10) == pytest.approx(2e-3)
        assert units.dgemm_mflop(310) == pytest.approx(2 * 310**3 / 1e6)
        assert units.dgemm_mflop(1000) == pytest.approx(2000.0)

    def test_rectangular(self):
        assert units.dgemm_mflop(10, 20, 30) == pytest.approx(
            2 * 10 * 20 * 30 / 1e6
        )

    def test_defaults_fill_square(self):
        assert units.dgemm_mflop(50) == units.dgemm_mflop(50, 50, 50)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            units.dgemm_mflop(0)
        with pytest.raises(ValueError):
            units.dgemm_mflop(10, -1)

    def test_monotone_in_size(self):
        values = [units.dgemm_mflop(n) for n in (10, 100, 310, 1000)]
        assert values == sorted(values)
        assert math.isclose(values[-1] / values[0], 1e6)
