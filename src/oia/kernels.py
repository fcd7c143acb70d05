"""Complex-matrix numerical primitives with explicit accuracy contracts.

The module has two operations:

- ``svd``: reconstruction to 1e-10 relative. It diagonalizes the primary
  channel.
- ``undecided_sigma``: singular values for a guard, of the matrices whose
  Frobenius-norm certificate was inconclusive; the precoder's rank guard and
  the optimal scheme's gram guard use it.

Rates need neither: each is a sum of ``log2(1 + g * p)`` over squared
singular values (``waterfill.sum_rate``), which are nonnegative, so no
positive-semidefinite check or clamp is needed. The package holds no
eigendecomposition.

Every operation takes one matrix ``(m, n)`` or a stack ``(..., m, n)`` of
them and treats each matrix of a stack on its own: LAPACK runs once per
matrix, on the same numbers, so a stacked result equals the one-at-a-time
results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


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


def undecided_sigma(a, certified) -> np.ndarray:
    """Singular values, descending, of the matrices of a stack a cheaper bound left undecided.

    ``certified`` holds one flag per matrix of ``a`` (shape ``(...)``), True
    where a sufficient bound has already passed the matrix. Its rows of the
    result ``(..., min(m, n))`` are NaN, so any comparison a guard makes on
    them is False. Raises InvalidInputError if an uncertified matrix is not
    finite.
    """
    a = np.asarray(a, dtype=np.complex128)
    certified = np.asarray(certified, dtype=bool)
    sigma = np.full(a.shape[:-2] + (min(a.shape[-2:]),), np.nan)
    if not certified.all():
        todo = ~certified
        sigma[todo] = np.linalg.svd(_as_finite_matrix(a[todo], "a"), compute_uv=False)
    return sigma
