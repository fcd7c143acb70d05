"""Complex-matrix numerical primitives with explicit accuracy contracts.

Everything downstream (precoder construction, whitening, rate evaluation)
is built on the three operations in this module, so their tolerances are
pinned here: SVD reconstruction to 1e-10 relative and inverse square root
round trip to 1e-9 per dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotPositiveDefiniteError


def herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def _as_finite_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def _symmetrized(m: np.ndarray, name: str) -> np.ndarray:
    """Check Hermitian symmetry to 1e-10 relative and strip rounding asymmetry."""
    asym = np.linalg.norm(m - herm(m))
    if asym > 1e-10 * max(1.0, np.linalg.norm(m)):
        raise InvalidInputError(f"{name} is not Hermitian (asymmetry {asym:.3e})")
    return 0.5 * (m + herm(m))


@dataclass(frozen=True)
class SvdFactors:
    """Factorization a = u @ diag(sigma) @ v^H.

    u and v are square unitary matrices; sigma holds the min(rows, cols)
    singular values sorted descending.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(a) -> SvdFactors:
    """Full singular value decomposition of a complex matrix.

    Parameters
    ----------
    a : array_like
        Finite complex matrix, any shape.

    Returns
    -------
    SvdFactors
        Factors satisfying ``a = u @ diag(sigma) @ v^H`` with Frobenius
        residual at most 1e-10 * max(1, ||a||_F), sigma descending, and
        u, v unitary to 1e-10 per dimension.

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
        Hermitian matrix (to 1e-10 relative) with all eigenvalues >= floor.
    floor : float
        Positive lower bound the spectrum must respect. Callers whitening an
        interference-plus-noise covariance pass (almost exactly) the noise
        variance, since that covariance dominates sigma2 * I by construction.

    Returns
    -------
    numpy.ndarray
        Hermitian W with ``W @ m @ W = I`` to 1e-9 per dimension.

    Raises
    ------
    NotPositiveDefiniteError
        If any eigenvalue falls below ``floor``.
    InvalidInputError
        For non-Hermitian, non-square, or non-finite input, or floor <= 0.
    """
    m = _as_finite_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"m must be square, got shape {m.shape}")
    if not floor > 0:
        raise InvalidInputError("floor must be positive")
    w, vecs = np.linalg.eigh(_symmetrized(m, "m"))
    if w[0] < floor:
        raise NotPositiveDefiniteError(
            f"eigenvalue {w[0]:.6e} below floor {floor:.6e}")
    root = (vecs * (1.0 / np.sqrt(w))) @ herm(vecs)
    return 0.5 * (root + herm(root))


def log2_det_id_plus(m) -> float:
    """log2 determinant of (I + m) for a Hermitian positive semidefinite m.

    Evaluated as a sum of log1p over eigenvalues, which is stable for both
    tiny and huge spectra. Eigenvalues in [-1e-9 * ||m||_F, 0) are rounding
    artifacts and are clamped to zero; anything more negative means the
    caller's matrix is not PSD and is rejected.
    """
    m = _as_finite_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"m must be square, got shape {m.shape}")
    mu = np.linalg.eigvalsh(_symmetrized(m, "m"))
    scale = np.linalg.norm(m)
    if mu[0] < -1e-9 * scale:
        raise InvalidInputError(
            f"m is not positive semidefinite (eigenvalue {mu[0]:.6e})")
    mu = np.maximum(mu, 0.0)
    return float(np.sum(np.log1p(mu)) / np.log(2.0))
