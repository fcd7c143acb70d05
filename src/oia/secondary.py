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

One call, ``design_secondary``, designs the whole secondary link of a
stack of trials: the precoder, the receiver that whitens the primary's
interference (covariance q) with ``q^{-1/2}``, and both power schemes. Only
trials with at least one active column transmit; a trial without one has
nothing to send and gets a zero precoder and rate 0. The sending trials are
grouped by their active columns, and each trial's whitened active block
``f2 @ h22 @ v2_raw[:, active]`` is formed once. The uniform scheme splits
power evenly over the precoder, and the optimal scheme water-fills an
equivalent whitened channel restricted to the active columns.

Both rates come from singular values through ``waterfill.sum_rate``: the
uniform rate ``log2 det(I + W W^H)`` of the whitened channel ``W`` is the
sum over the squared singular values of the active block at the uniform
power, and the optimal rate the sum over the equivalent channel's at the
water-filled powers. The two inverse square roots, ``q^{-1/2}`` and the
precoder gram root, both come from ``kernels.hermitian_inv_sqrt``.

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
    ``p2`` is the final Hermitian PSD input covariance, full size. On a
    trial with an active column ``trace(v2 @ p2 @ v2^H)`` meets the power
    budget with equality; a trial without one sends nothing, with
    ``v2 = 0`` and rate 0.
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
    variance.
    """
    h21 = np.asarray(h21, dtype=np.complex128)
    v1 = np.asarray(v1, dtype=np.complex128)
    p = np.asarray(p1, dtype=float)
    cov = h21 @ ((v1 * p[..., None, :]) @ herm(v1)) @ herm(h21)
    q = cov + np.eye(h21.shape[-2])
    return 0.5 * (q + herm(q))


def design_secondary(primary, h12, h21, h22, p_max) -> tuple[SecondaryDesign, SecondaryDesign]:
    """The secondary link of a trial or a stack of trials: ``(uniform, optimal)``.

    ``primary`` is the trials' ``PrimaryDesign``. ``h12`` is the cross
    channel to the primary receiver, ``h21`` the primary's channel to the
    secondary receiver and ``h22`` the secondary's direct channel, each
    nr x nt with the primary's leading stack axes. ``p_max`` is the budget,
    one value for the whole stack or one per trial.

    The precoder ``v2_raw`` and its active columns come from
    ``build_precoder``, whose ``"cross"`` ``RedrawError`` passes through.
    Only trials with an active column transmit; a trial without one gets
    ``v2 = 0`` and rate 0 in both schemes. A sending trial's receiver
    whitens the primary's interference with ``f2 = q^{-1/2}``, ``q`` from
    ``interference_covariance``. The sending trials are grouped by their
    active-column mask, and each group is solved as one stack. With
    ``vt = v2_raw[:, active]``, both schemes start from the whitened active
    block ``a = f2 @ h22 @ vt``.

    Uniform scheme: identity input covariance, with the precoder scaled so
    that ``trace(v2 @ v2^H) = p_max`` exactly. Its rate is
    ``log2 det(I + W W^H)`` of the whitened channel ``W = f2 @ h22 @ v2``,
    whose nonzero columns are ``a`` scaled by ``(p_max / ||vt||_F^2)^{1/2}``:
    a sum over the squared singular values of ``a`` at that power.

    Optimal scheme: water-filling on an equivalent channel. The full-size
    precoder gram matrix is singular whenever some columns are zero, so the
    transform runs on the active columns only. With ``m = (vt^H vt)^{1/2}``
    the equivalent whitened channel is ``g = a @ m^{-1}``; water-filling its
    squared singular values under the budget gives the diagonal allocation,
    which is conjugated back through the right singular vectors and
    ``m^{-1}`` and embedded at the active rows and columns. The budget is
    then met with equality: ``trace(vt @ p2_reduced @ vt^H) = p_max``. The
    precoder is ``v2_raw`` unscaled: the transformed trace constraint
    already absorbs all scaling, and any nonzero scale yields the same
    transmitted covariance.
    """
    p_max = positive_budget(p_max, "p_max")
    v2_raw, active = build_precoder(h12, primary.svd.u, primary.p1_bar)
    batch, nt = active.shape[:-1], active.shape[-1]
    flat_v2, flat_active = v2_raw.reshape(-1, nt, nt), active.reshape(-1, nt)
    flat_p = np.broadcast_to(p_max, batch).reshape(-1)
    # Inactive columns are exactly zero, so this is ||vt||_F^2 of every trial.
    total = np.sum(np.abs(flat_v2) ** 2, axis=(-2, -1))
    scale, rate_uniform, rate_optimal = (np.zeros(total.size) for _ in range(3))
    p2 = np.zeros(flat_v2.shape, dtype=np.complex128)
    sends = np.flatnonzero(flat_active.any(axis=-1))
    if sends.size:
        h21, v1, p1, h22 = (x.reshape(total.size, *x.shape[len(batch):])[sends] for x in
                            map(np.asarray, (h21, primary.svd.v, primary.p1.powers, h22)))
        f2 = hermitian_inv_sqrt(interference_covariance(h21, v1, p1),
                                floor=1.0 - NOISE_FLOOR_SLACK)
        scale[sends] = np.sqrt(flat_p[sends] / total[sends])
        patterns, group = np.unique(flat_active[sends], axis=0, return_inverse=True)
        for number, pattern in enumerate(patterns):
            cols = np.flatnonzero(pattern)
            members = np.flatnonzero(group.ravel() == number)
            trials = sends[members]
            vt = flat_v2[trials][..., cols]
            a = f2[members] @ (h22[members] @ vt)
            sigma = np.linalg.svd(a, compute_uv=False)
            rate_uniform[trials] = sum_rate(sigma**2, (flat_p[trials] / total[trials])[:, None])
            # Column equilibration: complementary-allocation entries can differ by
            # many orders of magnitude, which would wreck the gram eigendecomposition
            # (small eigenvalues only carry absolute accuracy). The optimum depends
            # only on the precoder's column space, so solve in normalized columns
            # and undo the rescale on the output covariance.
            norms = np.linalg.norm(vt, axis=-2)
            if norms.min() == 0.0:
                raise InternalInvariantError("an active precoder column is exactly zero")
            vn = vt / norms[..., None, :]
            m_inv = hermitian_inv_sqrt(herm(vn) @ vn, floor=GRAM_FLOOR)
            _, eta, zh = np.linalg.svd((a / norms[..., None, :]) @ m_inv, full_matrices=False)
            z = herm(zh)
            with np.errstate(divide="ignore"):
                alloc = waterfill(1.0 / eta**2, flat_p[trials])
            reduced = m_inv @ ((z * alloc.powers[..., None, :]) @ herm(z)) @ m_inv
            reduced = (reduced / norms[..., :, None]) / norms[..., None, :]
            p2[np.ix_(trials, cols, cols)] = 0.5 * (reduced + herm(reduced))
            rate_optimal[trials] = sum_rate(eta**2, alloc.powers)
    uniform = SecondaryDesign(v2=scale.reshape(batch)[..., None, None] * v2_raw,
                              p2=np.broadcast_to(np.eye(nt), v2_raw.shape),
                              rate=rate_uniform.reshape(batch)[()])
    optimal = SecondaryDesign(v2=v2_raw, p2=p2.reshape(v2_raw.shape),
                              rate=rate_optimal.reshape(batch)[()])
    return uniform, optimal
