"""Tests for the complex-matrix primitives and their accuracy contracts."""

import math

import numpy as np
import pytest

from oia.errors import InvalidInputError, RedrawError
from oia.kernels import herm, svd, undecided_sigma
from oia.secondary import build_precoder

from oracles import (EIGENVALUE_SLACK, NotPositiveDefiniteError, complex_gaussian,
                     hermitian_inv_sqrt)


def random_unitary(n, rng):
    return svd(complex_gaussian(n, n, rng)).u


class TestSvd:
    def test_diagonal_already_sorted(self):
        f = svd(np.diag([2.0, 1.0]))
        assert np.allclose(f.u, np.eye(2), atol=1e-14)
        assert np.allclose(f.v, np.eye(2), atol=1e-14)
        assert np.allclose(f.sigma, [2.0, 1.0])

    def test_diagonal_permuted(self):
        f = svd(np.diag([1.0, 3.0]))
        assert np.allclose(f.sigma, [3.0, 1.0])
        rebuilt = f.u @ np.diag(f.sigma) @ herm(f.v)
        assert np.linalg.norm(rebuilt - np.diag([1.0, 3.0])) <= 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_random_reconstruction_and_unitarity(self, seed):
        rng = np.random.default_rng(seed)
        a = complex_gaussian(4, 4, rng)
        f = svd(a)
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
        f = svd(a)
        assert f.u.shape == (5, 5)
        assert f.v.shape == (3, 3)
        assert f.sigma.shape == (3,)
        padded = np.zeros((5, 3))
        np.fill_diagonal(padded, f.sigma)
        assert np.linalg.norm(f.u @ padded @ herm(f.v) - a) <= 1e-10 * max(1.0, np.linalg.norm(a))

    def test_deterministic_for_fixed_input(self):
        rng = np.random.default_rng(11)
        a = complex_gaussian(4, 4, rng)
        f1, f2 = svd(a), svd(a)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.v, f2.v)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            svd(np.array([[np.nan + 0j, 0.0], [0.0, 1.0]]))


class TestHermitianInvSqrt:
    """The eigendecomposition root that the optimal-scheme reference ``gram_inv_sqrt`` uses."""

    def test_scalar_matrix(self):
        w = hermitian_inv_sqrt(4.0 * np.eye(2), floor=1.0)
        assert np.allclose(w, 0.5 * np.eye(2), atol=1e-14)

    def test_diagonal(self):
        w = hermitian_inv_sqrt(np.diag([1.5, 1.0]), floor=0.5)
        assert np.allclose(np.diag(w), [1.0 / math.sqrt(1.5), 1.0], atol=1e-14)
        assert abs(w[0, 0] - 0.8164965809) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_random_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        u = random_unitary(n, rng)
        spectrum = rng.uniform(0.5, 100.0, n)
        m = (u * spectrum) @ herm(u)
        w = hermitian_inv_sqrt(m, floor=0.4)
        assert np.linalg.norm(w @ m @ w - np.eye(n)) <= 1e-9 * n
        assert np.linalg.norm(w - herm(w)) <= 1e-12

    def test_eigenvalue_below_floor(self):
        with pytest.raises(NotPositiveDefiniteError):
            hermitian_inv_sqrt(np.diag([0.3, 1.0]), floor=0.5)

    def test_floor_eigenvalue_within_rounding_clamped(self):
        """An eigenvalue below the floor by less than the eigensolver's error counts as on it."""
        top, floor = 1e12, 1.0 - 1e-10
        tolerance = EIGENVALUE_SLACK * 3 * np.finfo(float).eps * top
        low = floor - 0.5 * tolerance
        assert low < floor
        u = random_unitary(3, np.random.default_rng(4))
        w = hermitian_inv_sqrt(np.diag([low, 2.0, top]), floor=floor)
        assert np.allclose(np.diag(w), 1.0 / np.sqrt([floor, 2.0, top]), rtol=1e-14, atol=0.0)
        rotated = hermitian_inv_sqrt((u * [low, low, top]) @ herm(u), floor=floor)
        assert np.all(np.isfinite(rotated))
        assert np.linalg.norm(rotated - herm(rotated)) <= 1e-12
        assert np.linalg.eigvalsh(rotated)[-1] <= 1.0 / np.sqrt(floor) * (1.0 + 1e-12)

    @pytest.mark.parametrize("low", [-1.0, 0.5])
    def test_eigenvalue_beyond_rounding_rejected(self, low):
        """A large spectrum widens the tolerance by n * eps * lambda_max only."""
        u = random_unitary(3, np.random.default_rng(5))
        m = (u * [low, 3.0, 1e12]) @ herm(u)
        with pytest.raises(NotPositiveDefiniteError):
            hermitian_inv_sqrt(m, floor=1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            hermitian_inv_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]), floor=0.1)

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(InvalidInputError):
            hermitian_inv_sqrt(np.eye(2), floor=0.0)


class TestUndecidedSigma:
    def test_certified_matrices_read_nan(self):
        stack = np.stack([np.diag([3.0, 1.0]), np.diag([2.0, 5.0])])
        sigma = undecided_sigma(stack, [True, False])
        assert np.all(np.isnan(sigma[0]))
        assert sigma[1].tolist() == [5.0, 2.0]
        assert np.all(np.isnan(undecided_sigma(stack, [True, True])))

    def test_single_matrix(self):
        assert undecided_sigma(np.diag([1.0, 4.0]), False).tolist() == [4.0, 1.0]
        assert np.all(np.isnan(undecided_sigma(np.diag([1.0, 4.0]), True)))

    def test_matches_numpy_bitwise(self):
        rng = np.random.default_rng(3)
        stack = np.stack([complex_gaussian(5, 3, rng) for _ in range(4)])
        sigma = undecided_sigma(stack, [False, True, False, False])
        for k in (0, 2, 3):
            assert sigma[k].tobytes() == np.linalg.svd(stack[k], compute_uv=False).tobytes()


class TestPinvTall:
    """The tall pseudo-inverse, formed from QR factors inside ``build_precoder``.

    With an all-ones complement and a column-selecting ``u1``, the unscaled
    precoder is a block of columns of ``h12^+``; ``tall_pinv`` stitches the
    blocks back into the whole pseudo-inverse.
    """

    @staticmethod
    def tall_pinv(h):
        nr, nt = h.shape
        blocks = []
        for start in range(0, nr, nt):
            u1 = np.eye(nr)[:, [(start + k) % nr for k in range(nr)]]
            blocks.append(build_precoder(h, u1, np.ones(nt))[0])
        return np.hstack(blocks)[:, :nr]

    def test_identity(self):
        assert np.allclose(self.tall_pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_all_ones_column(self):
        p = self.tall_pinv(np.array([[1.0], [1.0]]))
        assert np.allclose(p, [[0.5, 0.5]], atol=1e-14)

    def test_rejects_wide(self):
        with pytest.raises(InvalidInputError, match="nr=1 < nt=2"):
            self.tall_pinv(np.ones((1, 2)))

    def test_rejects_rank_deficient(self):
        with pytest.raises(RedrawError):
            self.tall_pinv(np.ones((3, 2)))
        with pytest.raises(RedrawError):
            self.tall_pinv(np.zeros((3, 2)))


class TestStacks:
    """A stack is factored matrix by matrix: each result equals the one-at-a-time result bitwise."""

    @pytest.mark.parametrize("nr,nt", [(1, 1), (2, 2), (3, 3), (8, 8), (20, 20), (5, 3)])
    def test_stack_equals_one_at_a_time(self, nr, nt):
        rng = np.random.default_rng(nr * 31 + nt)
        stack = np.stack([complex_gaussian(nr, nt, rng) for _ in range(5)])
        f = svd(stack)
        for k in range(5):
            one = svd(stack[k])
            assert f.u[k].tobytes() == one.u.tobytes()
            assert f.sigma[k].tobytes() == one.sigma.tobytes()
            assert f.v[k].tobytes() == one.v.tobytes()

    def test_one_bad_matrix_rejects_the_stack(self):
        """A non-finite matrix left to the guard fails the call; a certified one is never read."""
        stack = np.stack([np.eye(2), np.diag([np.nan, 1.0])])
        with pytest.raises(InvalidInputError):
            undecided_sigma(stack, [False, False])
        assert undecided_sigma(stack, [False, True])[0].tolist() == [1.0, 1.0]

