"""Complex-matrix numerical primitives with explicit accuracy contracts.

The module has two operations, and their tolerances are pinned here:

- ``svd``: reconstruction to 1e-10 relative. It diagonalizes the primary
  channel and inverts the cross channel for the precoder.
- ``hermitian_inv_sqrt``: round trip to 1e-9 per dimension, with a computed
  eigenvalue allowed below the caller's floor by
  ``EIGENVALUE_SLACK * n * eps * lambda_max``. It whitens the interference
  and takes the optimal scheme's precoder gram root, and it holds the
  package's only eigendecomposition.

Rates need neither: each is a sum of ``log2(1 + g * p)`` over squared
singular values (``waterfill.sum_rate``), which are nonnegative, so no
positive-semidefinite check or clamp is needed.

Every operation takes one matrix ``(m, n)`` or a stack ``(..., m, n)`` of
them and treats each matrix of a stack on its own: LAPACK runs once per
matrix, on the same numbers, so a stacked result equals the one-at-a-time
results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotPositiveDefiniteError

# Multiple of n * eps * lambda_max by which a computed eigenvalue of an n x n
# Hermitian matrix may sit below the true one. The interference-plus-noise
# covariances of 2000 trials each of 1x3, 2x4, 3x5, 4x9, 5x10 and 3x3 at
# 20-60 dB fell at most 0.82 of that below their noise floor.
EIGENVALUE_SLACK = 4.0


def herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _as_finite_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2] < 1 or a.shape[-1] < 1:
        raise InvalidInputError(f"{name} must be a matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdFactors:
    """Factorization a = u @ diag(sigma) @ v^H, per matrix of a stack.

    u and v are square unitary matrices; sigma holds the min(rows, cols)
    singular values sorted descending.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(a) -> SvdFactors:
    """Full singular value decomposition of a complex matrix or stack.

    Parameters
    ----------
    a : array_like
        Finite complex matrix of any shape, or a stack ``(..., m, n)``.

    Returns
    -------
    SvdFactors
        Factors satisfying ``a = u @ diag(sigma) @ v^H`` with Frobenius
        residual at most 1e-10 * max(1, ||a||_F), sigma descending, and
        u, v unitary to 1e-10 per dimension, for every matrix.

    Raises
    ------
    InvalidInputError
        If the input contains NaN or infinite entries.
    """
    a = _as_finite_matrix(a, "a")
    u, sigma, vh = np.linalg.svd(a, full_matrices=True)
    return SvdFactors(u=u, sigma=sigma, v=herm(vh))


def hermitian_inv_sqrt(m, floor: float) -> np.ndarray:
    """Inverse principal square root of a Hermitian positive definite matrix.

    Parameters
    ----------
    m : array_like
        Hermitian matrix (to 1e-10 relative) with all eigenvalues >= floor,
        or a stack of them.
    floor : float
        Positive lower bound the spectrum must respect. A computed eigenvalue
        may fall below it by ``EIGENVALUE_SLACK * n * eps * lambda_max``, the
        rounding error of the eigendecomposition of an n x n matrix; such an
        eigenvalue is taken to be the floor before the root.

    Returns
    -------
    numpy.ndarray
        Hermitian W with ``W @ m @ W = I`` to 1e-9 per dimension, per matrix,
        wherever no eigenvalue needed that clamp.

    Raises
    ------
    NotPositiveDefiniteError
        If any eigenvalue of any matrix falls below ``floor`` by more than
        the rounding tolerance.
    InvalidInputError
        For non-Hermitian, non-square, or non-finite input, or floor <= 0.
    """
    m = _as_finite_matrix(m, "m")
    if m.shape[-2] != m.shape[-1]:
        raise InvalidInputError(f"m must be square, got shape {m.shape}")
    if not floor > 0:
        raise InvalidInputError("floor must be positive")
    # Both sides of the symmetry check compare largest entry magnitudes,
    # which neither over- nor underflow where the entries themselves do not.
    asym = np.abs(m - herm(m)).max(axis=(-2, -1))
    bad = asym > 1e-10 * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if bad.any():
        raise InvalidInputError(f"m is not Hermitian (asymmetry {asym[bad].max():.3e})")
    w, vecs = np.linalg.eigh(0.5 * (m + herm(m)))
    tolerance = EIGENVALUE_SLACK * w.shape[-1] * np.finfo(float).eps * w[..., -1]
    below = w[..., 0] < floor - tolerance
    if below.any():
        raise NotPositiveDefiniteError(
            f"eigenvalue {w[..., 0][below].min():.6e} below floor {floor:.6e}")
    root = (vecs * (1.0 / np.sqrt(np.maximum(w, floor)))[..., None, :]) @ herm(vecs)
    return 0.5 * (root + herm(root))

