"""Secondary-link design: zero-interference precoder, whitening, power allocation.

The opportunistic transmitter aims its signal at the spatial modes the
primary left unused. The unscaled precoder is
``pinv(h12) @ u1[:, :nt] @ diag(p1_bar)``, with the pseudo-inverse taken from
one SVD of the cross channel. With square channels the pseudo-inverse is the
inverse: after the primary's receive filter, the secondary's transmission
lands exactly on the unused-mode diagonal and the active modes see nothing.
With more receive than transmit antennas the same expression uses the left
pseudo-inverse, which does not in general clear the active modes, since
``u1[:, :nt]^H @ h12 @ pinv(h12) @ u1[:, :nt]`` is then a projection, not the
identity. Column n is exactly zero whenever ``p1_bar[n]`` is zero, so the
precoder spans only the free dimensions.

The secondary receiver whitens the primary's interference (covariance q)
with ``q^{-1/2}``, computed once per trial by ``whitener``, and then either
splits power uniformly or water-fills an equivalent whitened channel
restricted to the active columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInvariantError,
    InvalidInputError,
    RedrawError,
    UnsupportedGeometryError,
)
from .kernels import herm, hermitian_inv_sqrt, log2_det_id_plus, svd
from .waterfill import waterfill

# Smallest/largest singular-value ratio of the cross channel below which it is
# treated as rank deficient. Below this, inverting would amplify noise past
# the point where the zero-interference guarantee is numerically meaningful.
RANK_GUARD = 1e-10

# The interference-plus-noise covariance dominates sigma2 * I by
# construction; this slack absorbs eigenvalue rounding when whitening.
NOISE_FLOOR_SLACK = 1e-10


@dataclass(frozen=True)
class SecondaryDesign:
    """One power-allocation scheme's full outcome for a trial.

    ``v2`` is the transmitted precoder, zero outside the active columns.
    ``p2`` is the final Hermitian PSD input covariance, full size, and
    ``trace(v2 @ p2 @ v2^H)`` meets the power budget with equality whenever
    any column is active.
    """

    v2: np.ndarray
    p2: np.ndarray
    rate: float


def build_precoder(h12, u1, p1_bar) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled zero-interference precoder and its active column indices.

    Parameters
    ----------
    h12 : array_like
        Cross channel from the secondary transmitter to the primary receiver,
        nr x nt with nr >= nt and full column rank.
    u1 : array_like
        Left singular vectors of the primary's direct channel (nr x nr); only
        the first nt columns, the ones paired with singular values, are used.
    p1_bar : array_like
        Complementary primary allocation over the nt allocatable modes.

    Returns
    -------
    (v2_raw, active_columns)
        nt x nt precoder with scale deferred to the power scheme, and the
        indices of its nonzero columns (the primary's unused modes).

    Raises
    ------
    UnsupportedGeometryError
        If nr < nt; no precoder construction exists for that shape.
    RedrawError
        With reason ``"cross"`` if h12 fails the rank guard; the trial
        should be redrawn.
    """
    h12 = np.asarray(h12, dtype=np.complex128)
    u1 = np.asarray(u1, dtype=np.complex128)
    nr, nt = h12.shape
    if nr < nt:
        raise UnsupportedGeometryError(
            f"no precoder for nr={nr} < nt={nt}; need at least as many receive antennas")
    p1_bar = np.asarray(p1_bar, dtype=float)
    if p1_bar.shape != (nt,):
        raise InvalidInputError(f"p1_bar must have {nt} entries, got shape {p1_bar.shape}")
    f = svd(h12)
    s = f.sigma
    if s[0] == 0.0 or s[-1] < RANK_GUARD * s[0]:
        ratio = 0.0 if s[0] == 0.0 else s[-1] / s[0]
        raise RedrawError("cross", f"rank guard failed (singular-value ratio {ratio:.3e})")
    steered = (f.v / s[None, :]) @ (herm(f.u[:, :nt]) @ u1[:, :nt])
    v2_raw = steered * p1_bar[None, :]
    active_columns = np.flatnonzero(p1_bar > 0.0)
    return v2_raw, active_columns


def interference_covariance(h21, v1, p1, sigma2: float) -> np.ndarray:
    """Covariance of the primary's interference plus noise at the secondary receiver.

    ``h21 @ v1 @ diag(p1) @ v1^H @ h21^H + sigma2 * I``, symmetrized. The
    result is Hermitian with spectrum at or above sigma2. ``p1`` may be
    shorter than nt (min(nr, nt) allocatable modes); the surplus transmit
    dimensions carry zero power.
    """
    h21 = np.asarray(h21, dtype=np.complex128)
    v1 = np.asarray(v1, dtype=np.complex128)
    p = np.asarray(p1, dtype=float)
    nt = v1.shape[0]
    diag = np.zeros(nt)
    diag[:p.size] = p
    cov = h21 @ ((v1 * diag[None, :]) @ herm(v1)) @ herm(h21)
    q = cov + sigma2 * np.eye(h21.shape[0])
    return 0.5 * (q + herm(q))


def whitener(q, sigma2: float) -> np.ndarray:
    """Whitening filter ``q^{-1/2}`` of an interference-plus-noise covariance.

    ``q`` must dominate ``sigma2 * I``, as ``interference_covariance``
    guarantees; both power schemes of a trial share the one filter.
    """
    return hermitian_inv_sqrt(q, floor=sigma2 * (1.0 - NOISE_FLOOR_SLACK))


def uniform_secondary(v2_raw, active_columns, f2, h22, p_max: float) -> SecondaryDesign:
    """Uniform power scheme: identity input covariance, scale tuned to the budget.

    ``f2`` is the trial's whitening filter. The precoder is scaled so that
    ``trace(v2 @ v2^H) = p_max`` exactly. With no active column there is
    nothing to transmit on: the precoder is zero and the rate 0.
    """
    if not (np.isfinite(p_max) and p_max > 0):
        raise InvalidInputError("p_max must be positive and finite")
    v2_raw = np.asarray(v2_raw, dtype=np.complex128)
    h22 = np.asarray(h22, dtype=np.complex128)
    nt = v2_raw.shape[1]
    p2 = np.eye(nt)
    if len(active_columns) == 0:
        return SecondaryDesign(v2=np.zeros_like(v2_raw), p2=p2, rate=0.0)
    total = float(np.sum(np.abs(v2_raw) ** 2))
    v2 = float(np.sqrt(p_max / total)) * v2_raw
    whitened = f2 @ h22 @ v2
    rate = log2_det_id_plus(whitened @ herm(whitened))
    return SecondaryDesign(v2=v2, p2=p2, rate=rate)


def optimal_secondary(v2_raw, active_columns, f2, h22, p_max: float) -> SecondaryDesign:
    """Rate-maximizing power scheme via water-filling on an equivalent channel.

    The full-size precoder gram matrix is singular whenever some columns are
    zero, so the transform runs on the active columns only. With
    ``vt = v2_raw[:, active]`` and ``m = (vt^H vt)^{1/2}``, the equivalent
    whitened channel is ``g = f2 @ h22 @ vt @ m^{-1}``, where ``f2`` is the
    trial's whitening filter ``q^{-1/2}``; water-filling its squared singular
    values under the budget gives the diagonal allocation, which is
    conjugated back through the right singular vectors and ``m^{-1}`` and
    embedded at the active rows and columns. The budget is then met with
    equality: ``trace(vt @ p2_reduced @ vt^H) = p_max``.

    The precoder is ``v2_raw`` unscaled: the transformed trace constraint
    already absorbs all scaling, and any nonzero scale yields the same
    transmitted covariance.
    """
    if not (np.isfinite(p_max) and p_max > 0):
        raise InvalidInputError("p_max must be positive and finite")
    v2_raw = np.asarray(v2_raw, dtype=np.complex128)
    h22 = np.asarray(h22, dtype=np.complex128)
    active = np.asarray(active_columns, dtype=int)
    nt = v2_raw.shape[1]
    if active.size == 0:
        return SecondaryDesign(v2=v2_raw, p2=np.zeros((nt, nt)), rate=0.0)
    vt = v2_raw[:, active]
    # Column equilibration: complementary-allocation entries can differ by
    # many orders of magnitude, which would wreck the gram eigendecomposition
    # (small eigenvalues only carry absolute accuracy). The optimum depends
    # only on the precoder's column space, so solve in normalized columns and
    # undo the rescale on the output covariance.
    norms = np.linalg.norm(vt, axis=0)
    if norms.min() == 0.0:
        raise InternalInvariantError("an active precoder column is exactly zero")
    vn = vt / norms[None, :]
    gram = herm(vn) @ vn
    w, basis = np.linalg.eigh(0.5 * (gram + herm(gram)))
    if w[0] <= 0.0 or w[0] < 1e-12 * w[-1]:
        raise InternalInvariantError(
            "active precoder columns are numerically dependent; "
            "this cannot happen for a full-rank cross channel")
    m_inv = (basis * (1.0 / np.sqrt(w))) @ herm(basis)
    g = f2 @ h22 @ vn @ m_inv
    _, eta, zh = np.linalg.svd(g, full_matrices=False)
    z = herm(zh)
    with np.errstate(divide="ignore"):
        alloc = waterfill(1.0 / eta**2, p_max)
    p_reduced = m_inv @ ((z * alloc.powers[None, :]) @ herm(z)) @ m_inv
    p_reduced = (p_reduced / norms[:, None]) / norms[None, :]
    p_reduced = 0.5 * (p_reduced + herm(p_reduced))
    p2 = np.zeros((nt, nt), dtype=np.complex128)
    p2[np.ix_(active, active)] = p_reduced
    rate = float(np.sum(np.log1p(eta**2 * alloc.powers)) / np.log(2.0))
    return SecondaryDesign(v2=v2_raw, p2=p2, rate=rate)


def residual_interference(u1, h12, v2, p2, active_primary_modes) -> float:
    """Largest per-mode interference amplitude the primary receiver sees.

    After the primary's receive filter, mode n observes row n of
    ``u1^H @ h12 @ v2 @ p2^{1/2}``. Returns the maximum Euclidean row norm
    over the primary's active modes; the alignment construction keeps this at
    rounding level.
    """
    u1 = np.asarray(u1, dtype=np.complex128)
    h12 = np.asarray(h12, dtype=np.complex128)
    v2 = np.asarray(v2, dtype=np.complex128)
    p2 = np.asarray(p2, dtype=np.complex128)
    active = np.asarray(active_primary_modes, dtype=int)
    if active.size == 0:
        return 0.0
    w, vecs = np.linalg.eigh(0.5 * (p2 + herm(p2)))
    root = (vecs * np.sqrt(np.maximum(w, 0.0))) @ herm(vecs)
    seen = herm(u1) @ h12 @ v2 @ root
    return float(np.max(np.linalg.norm(seen[active, :], axis=1)))
