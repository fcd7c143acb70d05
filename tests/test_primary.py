"""Tests for the primary-link water-filled SVD design and its SVD accuracy contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oia.errors import InvalidInputError, RedrawError
from oia.experiments import snr_to_power
from oia.primary import design_primary

from oracles import complex_gaussian, herm, log2_det_id_plus


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
        covariance = (d.v * d.p1.powers) @ herm(d.v)
        m = h11 @ covariance @ herm(h11)
        assert abs(d.rate - log2_det_id_plus(m)) <= 1e-9

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
        diagonalized = herm(d.u) @ h11 @ d.v
        off = diagonalized - np.diag(np.diag(diagonalized))
        assert np.max(np.abs(off)) <= 1e-10 * d.sigma[0]
        assert np.allclose(np.diag(diagonalized).real, d.sigma, atol=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([(n, n) for n in range(2, 21)] + [(5, 3), (4, 2), (10, 5), (3, 5)]),
           st.floats(-30.0, 58.0), st.integers(0, 2**32 - 1))
    def test_active_columns_are_a_suffix(self, shape, snr_db, seed):
        """A row's positive p1_bar entries end it: max(0, 1/sigma^2 - level) grows as sigma falls.

        ``design_secondary`` groups sending trials by their active count on
        this, and refuses a design that breaks it.
        """
        rng = np.random.default_rng(seed)
        h11 = np.stack([complex_gaussian(*shape, rng) for _ in range(16)])
        active = design_primary(h11, snr_to_power(snr_db)).p1_bar > 0.0
        assert np.all(active[:, :-1] <= active[:, 1:])

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

    @pytest.mark.parametrize("h11", [np.diag([1.0, 1e-200]), np.diag([1e200, 1.0]),
                                     np.diag([1e-160, 1e-160]), np.diag([1e-154, 1e-154])],
                             ids=["square-underflows", "square-overflows",
                                  "inverse-overflows", "inverse-sum-overflows"])
    def test_out_of_range_singular_values_name_h11(self, h11):
        """Squares, inverse squares or the water level's sum out of float range: h11 is named."""
        with pytest.raises(InvalidInputError, match="^h11 "):
            design_primary(h11, 0.01)

    @pytest.mark.parametrize("p_max,gain", [(0.0, 1.0), (-1.0, 1.0), (np.inf, 1.0)])
    def test_bad_parameters_rejected(self, p_max, gain):
        with pytest.raises(InvalidInputError, match="p_max"):
            design_primary(gain * np.eye(2), p_max)


class TestPrimaryRate:
    def test_diagonal_full_budget_rate(self):
        d = design_primary(np.diag([2.0, 1.0]), p_max=1.0)
        expected = math.log2(4.5) + math.log2(1.125)
        assert abs(d.rate - expected) < 1e-12
        assert abs(d.rate - 2.33985) < 1e-5

    def test_diagonal_single_mode_rate(self):
        d = design_primary(np.diag([2.0, 1.0]), p_max=0.5)
        assert abs(d.rate - math.log2(3.0)) < 1e-12

    def test_rate_vanishes_with_budget(self):
        d = design_primary(np.diag([2.0, 1.0]), p_max=1e-12)
        assert d.rate < 1e-10


class TestSvd:
    """The SVD factors ``design_primary`` carries, and their accuracy contract."""

    def test_diagonal_already_sorted(self):
        f = design_primary(np.diag([2.0, 1.0]), 1.0)
        assert np.allclose(f.u, np.eye(2), atol=1e-14)
        assert np.allclose(f.v, np.eye(2), atol=1e-14)
        assert np.allclose(f.sigma, [2.0, 1.0])

    def test_diagonal_permuted(self):
        f = design_primary(np.diag([1.0, 3.0]), 1.0)
        assert np.allclose(f.sigma, [3.0, 1.0])
        rebuilt = f.u @ np.diag(f.sigma) @ herm(f.v)
        assert np.linalg.norm(rebuilt - np.diag([1.0, 3.0])) <= 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_random_reconstruction_and_unitarity(self, seed):
        rng = np.random.default_rng(seed)
        a = complex_gaussian(4, 4, rng)
        f = design_primary(a, 1.0)
        norm = np.linalg.norm(a)
        rebuilt = f.u @ np.diag(f.sigma) @ herm(f.v)
        assert np.linalg.norm(rebuilt - a) <= 1e-10 * max(1.0, norm)
        assert np.linalg.norm(herm(f.u) @ f.u - np.eye(4)) <= 1e-10 * 4
        assert np.linalg.norm(herm(f.v) @ f.v - np.eye(4)) <= 1e-10 * 4
        assert np.all(np.diff(f.sigma) <= 0)
        assert np.all(f.sigma >= 0)

    def test_rectangular_shapes(self):
        rng = np.random.default_rng(0)
        a = complex_gaussian(5, 3, rng)
        f = design_primary(a, 1.0)
        assert f.u.shape == (5, 5)
        assert f.v.shape == (3, 3)
        assert f.sigma.shape == (3,)
        padded = np.zeros((5, 3))
        np.fill_diagonal(padded, f.sigma)
        assert np.linalg.norm(f.u @ padded @ herm(f.v) - a) <= 1e-10 * max(1.0, np.linalg.norm(a))

    def test_deterministic_for_fixed_input(self):
        rng = np.random.default_rng(11)
        a = complex_gaussian(4, 4, rng)
        f1, f2 = design_primary(a, 1.0), design_primary(a, 1.0)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.v, f2.v)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError, match="h11 contains non-finite"):
            design_primary(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1.0)
        with pytest.raises(InvalidInputError, match="h11 contains non-finite"):
            design_primary(np.array([[np.nan + 0j, 0.0], [0.0, 1.0]]), 1.0)

    @pytest.mark.parametrize("shape", [(), (3,), (0, 2), (4, 2, 0)],
                             ids=["scalar", "vector", "no-rows", "no-columns"])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(InvalidInputError, match=r"h11 must be a matrix.*got shape"):
            design_primary(np.ones(shape), 1.0)


class TestStacks:
    """A stack is factored matrix by matrix: each result equals the one-at-a-time result bitwise."""

    @pytest.mark.parametrize("nr,nt", [(1, 1), (2, 2), (3, 3), (8, 8), (20, 20), (5, 3)])
    def test_stack_equals_one_at_a_time(self, nr, nt):
        rng = np.random.default_rng(nr * 31 + nt)
        stack = np.stack([complex_gaussian(nr, nt, rng) for _ in range(5)])
        f = design_primary(stack, 1.0)
        for k in range(5):
            one = design_primary(stack[k], 1.0)
            assert f.u[k].tobytes() == one.u.tobytes()
            assert f.sigma[k].tobytes() == one.sigma.tobytes()
            assert f.v[k].tobytes() == one.v.tobytes()
