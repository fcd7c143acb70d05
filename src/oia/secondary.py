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
restricted to the active columns. Both power schemes take only trials with
at least one active column; a trial without one has nothing to transmit.

Both rates come from singular values through ``waterfill.sum_rate``: the
uniform rate ``log2 det(I + W W^H)`` of the whitened channel ``W`` is the
sum over its squared singular values at unit power, and the optimal rate the
sum over the equivalent channel's at the water-filled powers. The two
inverse square roots, ``q^{-1/2}`` and the precoder gram root, both come
from ``kernels.hermitian_inv_sqrt``.

Every design function takes one trial's matrices or stacks of them with the
same leading axes, one trial per entry, and gives each trial of a stack the
result it would get on its own, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, InvalidInputError, RedrawError
from .kernels import herm, hermitian_inv_sqrt, svd
from .waterfill import positive_budget, sum_rate, waterfill

# Smallest/largest singular-value ratio of the cross channel below which it is
# treated as rank deficient. Below this, inverting would amplify noise past
# the point where the zero-interference guarantee is numerically meaningful.
RANK_GUARD = 1e-10

# The interference-plus-noise covariance dominates the unit noise covariance
# I by construction; this slack absorbs eigenvalue rounding when whitening.
NOISE_FLOOR_SLACK = 1e-10

# Floor on the eigenvalues of the optimal scheme's precoder gram matrix. Its
# columns are normalized to unit norm, so its largest eigenvalue lies in
# [1, k] for k active columns; below this floor the columns are numerically
# dependent and the gram root does not exist.
GRAM_FLOOR = 1e-12


@dataclass(frozen=True)
class SecondaryDesign:
    """One power-allocation scheme's full outcome for a trial.

    ``v2`` is the transmitted precoder, zero outside the active columns.
    ``p2`` is the final Hermitian PSD input covariance, full size, and
    ``trace(v2 @ p2 @ v2^H)`` meets the power budget with equality.
    """

    v2: np.ndarray
    p2: np.ndarray
    rate: float


def build_precoder(h12, u1, p1_bar) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled zero-interference precoder and its active columns.

    Every argument may carry leading stack axes, one trial per entry.

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
    (v2_raw, active)
        nt x nt precoder with scale deferred to the power scheme, and the
        boolean mask of its nonzero columns (the primary's unused modes).

    Raises
    ------
    InvalidInputError
        If nr < nt; no precoder construction exists for that shape.
    RedrawError
        With reason ``"cross"`` if h12 fails the rank guard; ``rejected``
        marks the trials that should be redrawn.
    """
    h12 = np.asarray(h12, dtype=np.complex128)
    u1 = np.asarray(u1, dtype=np.complex128)
    nr, nt = h12.shape[-2:]
    if nr < nt:
        raise InvalidInputError(
            f"no precoder for nr={nr} < nt={nt}; need at least as many receive antennas")
    p1_bar = np.asarray(p1_bar, dtype=float)
    if p1_bar.shape != h12.shape[:-2] + (nt,):
        raise InvalidInputError(f"p1_bar must have {nt} entries per trial, "
                                f"got shape {p1_bar.shape}")
    f = svd(h12)
    s = f.sigma
    top, bottom = s[..., 0], s[..., -1]
    rejected = (top == 0.0) | (bottom < RANK_GUARD * top)
    if rejected.any():
        ratio = np.divide(bottom, top, out=np.zeros_like(top), where=top > 0.0)
        raise RedrawError("cross", "rank guard failed "
                          f"(singular-value ratio {ratio[rejected].min():.3e})", rejected)
    steered = (f.v / s[..., None, :]) @ (herm(f.u[..., :nt]) @ u1[..., :nt])
    v2_raw = steered * p1_bar[..., None, :]
    return v2_raw, p1_bar > 0.0


def interference_covariance(h21, v1, p1) -> np.ndarray:
    """Covariance of the primary's interference plus noise at the secondary receiver.

    ``h21 @ v1 @ diag(p1) @ v1^H @ h21^H + I``, symmetrized, per trial of a
    stack. The result is Hermitian with spectrum at or above the unit noise
    variance. ``p1`` may be shorter than nt (min(nr, nt) allocatable modes);
    the surplus transmit dimensions carry zero power.
    """
    h21 = np.asarray(h21, dtype=np.complex128)
    v1 = np.asarray(v1, dtype=np.complex128)
    p = np.asarray(p1, dtype=float)
    diag = np.zeros(p.shape[:-1] + v1.shape[-1:])
    diag[..., :p.shape[-1]] = p
    cov = h21 @ ((v1 * diag[..., None, :]) @ herm(v1)) @ herm(h21)
    q = cov + np.eye(h21.shape[-2])
    return 0.5 * (q + herm(q))


def whitener(q) -> np.ndarray:
    """Whitening filter ``q^{-1/2}`` of an interference-plus-noise covariance.

    ``q`` must dominate ``I``, as ``interference_covariance`` guarantees;
    both power schemes of a trial share the one filter.
    """
    return hermitian_inv_sqrt(q, floor=1.0 - NOISE_FLOOR_SLACK)


def _check_scheme_inputs(active, p_max) -> np.ndarray:
    if not np.asarray(active, dtype=bool).any(axis=-1).all():
        raise InvalidInputError("every trial needs at least one active column")
    return positive_budget(p_max, "p_max")


def uniform_secondary(v2_raw, active, f2, h22, p_max) -> SecondaryDesign:
    """Uniform power scheme: identity input covariance, scale tuned to the budget.

    ``active`` is the boolean column mask from ``build_precoder``, with at
    least one active column per trial, and ``f2`` the trial's whitening
    filter; all arguments may carry leading stack axes. ``p_max`` is the
    budget, one value for the whole stack or one per trial. The
    precoder is scaled so that ``trace(v2 @ v2^H) = p_max`` exactly. The
    rate is ``log2 det(I + W W^H)`` of the whitened channel
    ``W = f2 @ h22 @ v2``, summed over its squared singular values.
    """
    p_max = _check_scheme_inputs(active, p_max)
    v2_raw = np.asarray(v2_raw, dtype=np.complex128)
    h22 = np.asarray(h22, dtype=np.complex128)
    total = np.sum(np.abs(v2_raw) ** 2, axis=(-2, -1))
    v2 = np.sqrt(p_max / total)[..., None, None] * v2_raw
    sigma = np.linalg.svd(f2 @ h22 @ v2, compute_uv=False)
    p2 = np.broadcast_to(np.eye(v2.shape[-1]), v2.shape)
    return SecondaryDesign(v2=v2, p2=p2, rate=sum_rate(sigma**2, 1.0))


def optimal_secondary(v2_raw, active, f2, h22, p_max) -> SecondaryDesign:
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

    All arguments may carry leading stack axes, and every trial needs at
    least one active column; ``p_max`` is the budget, one value for the
    whole stack or one per trial. The trials of a stack are grouped by
    their active-column mask, and each group is solved as one stack.

    The precoder is ``v2_raw`` unscaled: the transformed trace constraint
    already absorbs all scaling, and any nonzero scale yields the same
    transmitted covariance.
    """
    p_max = _check_scheme_inputs(active, p_max)
    v2_raw, f2, h22 = (np.asarray(a, dtype=np.complex128) for a in (v2_raw, f2, h22))
    active = np.asarray(active, dtype=bool)
    batch, nt = active.shape[:-1], active.shape[-1]
    flat_v2, flat_f2, flat_h22 = (a.reshape(-1, *a.shape[-2:]) for a in (v2_raw, f2, h22))
    flat_p = np.broadcast_to(p_max, batch).reshape(-1)
    p2 = np.zeros((flat_v2.shape[0], nt, nt), dtype=np.complex128)
    rate = np.empty(flat_v2.shape[0])
    patterns, group = np.unique(active.reshape(-1, nt), axis=0, return_inverse=True)
    for number, pattern in enumerate(patterns):
        cols = np.flatnonzero(pattern)
        trials = np.flatnonzero(group.ravel() == number)
        p2[np.ix_(trials, cols, cols)], rate[trials] = _optimal_allocation(
            flat_v2[trials][..., cols], flat_f2[trials], flat_h22[trials], flat_p[trials])
    return SecondaryDesign(v2=v2_raw, p2=p2.reshape(batch + (nt, nt)),
                           rate=rate.reshape(batch)[()])


def _optimal_allocation(vt, f2, h22, p_max):
    """Reduced covariance and rate of a stack of trials sharing their active columns."""
    # Column equilibration: complementary-allocation entries can differ by
    # many orders of magnitude, which would wreck the gram eigendecomposition
    # (small eigenvalues only carry absolute accuracy). The optimum depends
    # only on the precoder's column space, so solve in normalized columns and
    # undo the rescale on the output covariance.
    norms = np.linalg.norm(vt, axis=-2)
    if norms.min() == 0.0:
        raise InternalInvariantError("an active precoder column is exactly zero")
    vn = vt / norms[..., None, :]
    m_inv = hermitian_inv_sqrt(herm(vn) @ vn, floor=GRAM_FLOOR)
    g = f2 @ h22 @ vn @ m_inv
    _, eta, zh = np.linalg.svd(g, full_matrices=False)
    z = herm(zh)
    with np.errstate(divide="ignore"):
        alloc = waterfill(1.0 / eta**2, p_max)
    p_reduced = m_inv @ ((z * alloc.powers[..., None, :]) @ herm(z)) @ m_inv
    p_reduced = (p_reduced / norms[..., :, None]) / norms[..., None, :]
    p_reduced = 0.5 * (p_reduced + herm(p_reduced))
    return p_reduced, sum_rate(eta**2, alloc.powers)
