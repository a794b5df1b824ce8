"""Tests for the stochastic fill-in analysis (Appendix B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    empirical_union_density,
    expected_density_of_sum,
    expected_union_size,
    expected_union_size_inclusion_exclusion,
    monte_carlo_union_size,
    union_density_curve,
)


class TestClosedForm:
    def test_single_rank(self):
        assert expected_union_size(100, 1000, 1) == pytest.approx(100.0)

    def test_zero_nnz(self):
        assert expected_union_size(0, 1000, 8) == 0.0

    def test_full_density(self):
        assert expected_union_size(1000, 1000, 3) == pytest.approx(1000.0)

    def test_union_bound(self):
        # E[K] <= P * k always
        for k, n, p in [(10, 1000, 8), (100, 512, 4), (1, 10, 10)]:
            assert expected_union_size(k, n, p) <= p * k + 1e-9

    def test_bounded_by_dimension(self):
        assert expected_union_size(400, 512, 64) <= 512.0

    def test_matches_inclusion_exclusion(self):
        """The paper's alternating-sum form equals the closed form."""
        for k, n, p in [(5, 64, 3), (10, 128, 5), (30, 512, 8)]:
            closed = expected_union_size(k, n, p)
            incl = expected_union_size_inclusion_exclusion(k, n, p)
            assert closed == pytest.approx(incl, rel=1e-9)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            expected_union_size(-1, 100, 2)
        with pytest.raises(ValueError):
            expected_union_size(101, 100, 2)
        with pytest.raises(ValueError):
            expected_union_size(10, 100, -1)

    def test_monte_carlo_agreement(self):
        gen = np.random.default_rng(42)
        k, n, p = 20, 256, 6
        mc = monte_carlo_union_size(k, n, p, gen, trials=200)
        expected = expected_union_size(k, n, p)
        assert mc == pytest.approx(expected, rel=0.05)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=5000),
        data=st.data(),
    )
    def test_property_monotone_in_p(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        sizes = [expected_union_size(k, n, p) for p in (1, 2, 4, 8, 16)]
        assert all(a <= b + 1e-9 for a, b in zip(sizes, sizes[1:]))


class TestDensityCurves:
    def test_expected_density_figure1_shape(self):
        """Fig. 1: 10% per-node density at 64 nodes is essentially dense."""
        assert expected_density_of_sum(0.10, 64) > 0.99
        assert expected_density_of_sum(0.001, 4) < 0.005

    def test_vectorised_curve(self):
        nodes = np.array([1, 2, 4, 8])
        curve = union_density_curve(0.05, nodes)
        assert curve.shape == (4,)
        assert np.all(np.diff(curve) > 0)
        assert curve[0] == pytest.approx(0.05)

    def test_bounds(self):
        assert expected_density_of_sum(0.0, 100) == 0.0
        assert expected_density_of_sum(1.0, 1) == 1.0
        with pytest.raises(ValueError):
            expected_density_of_sum(1.5, 2)

    def test_empirical_union_density(self):
        supports = [np.array([0, 1]), np.array([1, 2])]
        assert empirical_union_density(supports, 10) == pytest.approx(0.3)

    def test_empirical_empty(self):
        assert empirical_union_density([], 10) == 0.0
        assert empirical_union_density([np.array([0])], 0) == 0.0


class TestSelectorCoupling:
    def test_fill_in_drives_dsar_choice(self):
        """The Fig. 1 effect: the same per-node density becomes a dynamic
        (dense) instance as P grows."""
        from repro.costmodel import CostModel, Instance

        n = 100_000
        k = int(n * 0.05)
        choose = CostModel.default().choose
        assert choose(Instance(n, 2, k)) != "dsar_split_ag"
        assert choose(Instance(n, 64, k)) == "dsar_split_ag"
