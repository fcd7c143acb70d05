"""Tests for the primary-link water-filled SVD design."""

import math

import numpy as np
import pytest

from oia.errors import InvalidInputError, RedrawError
from oia.kernels import herm
from oia.primary import design_primary, primary_rate

from oracles import complex_gaussian, log2_det_id_plus


def random_design(seed, n=3, p_max=1.0):
    rng = np.random.default_rng(seed)
    h11 = complex_gaussian(n, n, rng)
    return h11, design_primary(h11, p_max)


class TestDesignPrimary:
    def test_diagonal_low_budget(self):
        d = design_primary(np.diag([2.0, 1.0]), p_max=0.5)
        assert np.allclose(d.p1.powers, [0.5, 0.0], atol=1e-15)
        assert abs(d.p1.water_level - 0.75) < 1e-15
        assert np.allclose(d.p1_bar, [0.0, 0.25], atol=1e-15)
        assert d.unused_count == 1

    def test_diagonal_full_budget(self):
        d = design_primary(np.diag([2.0, 1.0]), p_max=1.0)
        assert np.allclose(d.p1.powers, [0.875, 0.125], atol=1e-15)
        assert d.unused_count == 0
        # water level is kept so the complementary allocation is defined (all zero here)
        assert np.all(d.p1_bar == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_vanishing_budget_keeps_best_mode_only(self, seed):
        h11, d = random_design(seed, n=4, p_max=1e-9)
        assert np.count_nonzero(d.p1.powers > 0) == 1
        assert d.p1.powers[0] > 0.0
        assert d.unused_count == 3

    @pytest.mark.parametrize("seed", range(10))
    def test_complement_supports_are_disjoint(self, seed):
        _, d = random_design(seed, n=4, p_max=float(np.exp(seed - 4)))
        assert np.all(d.p1.powers * d.p1_bar == 0.0)
        assert d.unused_count == int(np.count_nonzero(d.p1.powers == 0.0))
        # for generic channels the complement is strictly positive on every unused mode
        assert int(np.count_nonzero(d.p1_bar > 0.0)) == d.unused_count

    @pytest.mark.parametrize("seed", range(8))
    def test_rate_matches_log_det_form(self, seed):
        h11, d = random_design(seed, n=3, p_max=2.0)
        covariance = (d.svd.v * d.p1.powers) @ herm(d.svd.v)
        m = h11 @ covariance @ herm(h11)
        assert abs(primary_rate(d) - log2_det_id_plus(m)) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_unused_count_monotone_in_budget(self, seed):
        rng = np.random.default_rng(seed)
        h11 = complex_gaussian(4, 4, rng)
        counts = [design_primary(h11, b).unused_count
                  for b in np.logspace(-2, 4, 20)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("seed", range(5))
    def test_svd_diagonalizes_channel(self, seed):
        h11, d = random_design(seed, n=4)
        diagonalized = herm(d.svd.u) @ h11 @ d.svd.v
        off = diagonalized - np.diag(np.diag(diagonalized))
        assert np.max(np.abs(off)) <= 1e-10 * d.svd.sigma[0]
        assert np.allclose(np.diag(diagonalized).real, d.svd.sigma, atol=1e-10)

    def test_wide_channel_allocates_min_modes(self):
        rng = np.random.default_rng(3)
        h11 = complex_gaussian(2, 3, rng)
        d = design_primary(h11, 1.0)
        assert d.p1.powers.shape == (2,)
        assert d.p1_bar.shape == (2,)
        assert 0 <= d.unused_count <= 2

    def test_zero_channel_rejected(self):
        with pytest.raises(RedrawError) as info:
            design_primary(np.zeros((2, 2)), 1.0)
        assert info.value.reason == "direct"

    def test_rank_deficient_channel_rejected(self):
        with pytest.raises(RedrawError) as info:
            design_primary(np.diag([2.0, 0.0]), 1.0)
        assert info.value.reason == "direct"

    def test_rank_deficient_trial_of_a_stack_marked(self):
        stack = np.stack([np.eye(2), np.diag([2.0, 0.0]), np.diag([1.0, 3.0])])
        with pytest.raises(RedrawError) as info:
            design_primary(stack, 1.0)
        assert info.value.reason == "direct"
        assert list(info.value.rejected) == [False, True, False]

    @pytest.mark.parametrize("p_max,gain", [(0.0, 1.0), (-1.0, 1.0), (np.inf, 1.0)])
    def test_bad_parameters_rejected(self, p_max, gain):
        with pytest.raises(InvalidInputError, match="p_max"):
            design_primary(gain * np.eye(2), p_max)


class TestPrimaryRate:
    def test_diagonal_full_budget_rate(self):
        d = design_primary(np.diag([2.0, 1.0]), p_max=1.0)
        expected = math.log2(4.5) + math.log2(1.125)
        assert abs(primary_rate(d) - expected) < 1e-12
        assert abs(primary_rate(d) - 2.33985) < 1e-5

    def test_diagonal_single_mode_rate(self):
        d = design_primary(np.diag([2.0, 1.0]), p_max=0.5)
        assert abs(primary_rate(d) - math.log2(3.0)) < 1e-12

    def test_rate_vanishes_with_budget(self):
        d = design_primary(np.diag([2.0, 1.0]), p_max=1e-12)
        assert primary_rate(d) < 1e-10
