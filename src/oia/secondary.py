"""Secondary-link design: zero-interference precoder, whitening, power allocation.

The opportunistic transmitter aims its signal at the spatial modes the
primary left unused. The unscaled precoder is
``pinv(h12) @ u1[:, :nt] @ diag(p1_bar)``, with the pseudo-inverse
``solve(r, q^H)`` taken from the reduced QR factors ``h12 = q r``. With
square channels the pseudo-inverse is the inverse: after the primary's
receive filter, the secondary's transmission lands exactly on the
unused-mode diagonal and the active modes see nothing. With more receive
than transmit antennas the same expression uses the left pseudo-inverse,
which does not in general clear the active modes, since
``u1[:, :nt]^H @ h12 @ pinv(h12) @ u1[:, :nt]`` is then a projection, not the
identity. Column n is exactly zero whenever ``p1_bar[n]`` is zero, so the
precoder spans only the free dimensions.

One call, ``design_secondary``, designs the whole secondary link of a
stack of trials: the precoder, the receiver that whitens the primary's
interference, and both power schemes. Only trials with at least one active
column transmit; a trial without one has nothing to send and gets a zero
precoder and rate 0. The sending trials are grouped by their active
columns, and each trial's whitened active block is formed once. The uniform
scheme splits power evenly over the precoder, and the optimal scheme
water-fills an equivalent whitened channel restricted to the active
columns.

Both rates are sums over squared singular values (``waterfill.sum_rate``):
the uniform rate ``log2 det(I + W W^H)`` of the whitened channel ``W`` over
the active block's at the uniform power, the optimal rate over the
equivalent channel's at the water-filled powers. Both, and the optimal
covariance, depend on the interference covariance q only through ``q^{-1}``
and on the precoder only through its column span, so the whitener and the
gram root are R factors of QR decompositions and no q, gram matrix or
eigendecomposition is formed. Both guards take exact singular values only
where a Frobenius-norm certificate is inconclusive (``kernels.undecided_sigma``).

Every design function takes one trial's matrices or stacks of them with the
same leading axes, one trial per entry, and gives each trial of a stack the
result it would get on its own, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InternalInvariantError, InvalidInputError, NotPositiveDefiniteError,
                     RedrawError)
from .kernels import herm, undecided_sigma
from .waterfill import positive_budget, sum_rate, waterfill

# Smallest/largest singular-value ratio of the cross channel below which it is
# treated as rank deficient. Below this, inverting would amplify noise past
# the point where the zero-interference guarantee is numerically meaningful.
# A trial passes at once where ||h12||_F ||pinv||_F <= 0.5 / RANK_GUARD: the
# product bounds sigma_max / sigma_min from above, with a factor 2 for rounding.
RANK_GUARD = 1e-10

# Floor on the eigenvalues of the optimal scheme's precoder gram matrix, the
# squared singular values of its unit-norm active columns: the largest lies
# in [1, k] for k columns, and below the floor they are numerically dependent.
# A trial passes at once where ||m^{-1}||_F^{-2} >= 2 * GRAM_FLOOR.
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
    q, r = np.linalg.qr(h12)
    pinv, singular = _solve_upper(r, herm(q))
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.linalg.norm(h12, axis=(-2, -1)) * np.linalg.norm(pinv, axis=(-2, -1))
    s = undecided_sigma(h12, ~singular & (bound <= 0.5 / RANK_GUARD))
    top, bottom = s[..., 0], s[..., -1]
    rejected = (top == 0.0) | (bottom < RANK_GUARD * top)
    if rejected.any():
        ratio = np.divide(bottom, top, out=np.zeros_like(top), where=top > 0.0)
        raise RedrawError("cross", "rank guard failed "
                          f"(singular-value ratio {ratio[rejected].min():.3e})", rejected)
    v2_raw = (pinv @ u1[..., :nt]) * p1_bar[..., None, :]
    return v2_raw, p1_bar > 0.0


def _solve_upper(r, b) -> tuple[np.ndarray, np.ndarray]:
    """``r^{-1} @ b`` per trial for upper-triangular r, and the trials with a singular r.

    Those get I in place of r, so one cannot fail the whole stack's solve;
    their guard decides them from exact singular values.
    """
    singular = np.any(np.diagonal(r, axis1=-2, axis2=-1) == 0.0, axis=-1)
    if singular.any():
        r = np.where(singular[..., None, None], np.eye(r.shape[-1]), r)
    return np.linalg.solve(r, b), singular


def whitened_direct(h21, v1, p1, h22) -> np.ndarray:
    """h22 through a filter that whitens the primary's interference at the secondary receiver.

    That interference plus unit noise has covariance ``q = I + b b^H``, with
    ``b = h21 @ v1 @ diag(p1)^{1/2}``. The R factor of ``[b, I]^H`` has
    ``r^H r = q``, so ``solve(r^H, h22)`` is h22 through ``r^{-H}``, which
    turns q into I. q is never formed, and r's singular values are >= 1.
    """
    b = h21 @ (v1 * np.sqrt(p1)[..., None, :])
    eye = np.broadcast_to(np.eye(b.shape[-2]), b.shape[:-2] + (b.shape[-2],) * 2)
    r = np.linalg.qr(np.concatenate([herm(b), eye], axis=-2), mode="r")
    return np.linalg.solve(herm(r), h22)


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
    whitens the primary's interference with a filter ``f2`` that has
    ``f2^H f2 = q^{-1}`` (``whitened_direct`` gives ``f2 @ h22``). The
    sending trials are grouped by their active-column mask, and each group
    is solved as one stack. With ``vt = v2_raw[:, active]``, both schemes
    start from the whitened active block ``a = f2 @ h22 @ vt``.

    Uniform scheme: identity input covariance, with the precoder scaled so
    that ``trace(v2 @ v2^H) = p_max`` exactly. Its rate is
    ``log2 det(I + W W^H)`` of the whitened channel ``W = f2 @ h22 @ v2``,
    whose nonzero columns are ``a`` scaled by ``(p_max / ||vt||_F^2)^{1/2}``:
    a sum over the squared singular values of ``a`` at that power.

    Optimal scheme: water-filling on an equivalent channel, over the active
    columns only, since the full-size precoder gram matrix is singular
    whenever a column is zero. With m the R factor of ``vt = Q m`` (any root
    of the gram matrix ``vt^H vt = m^H m`` gives the same result), the
    equivalent whitened channel is ``g = a @ m^{-1}``; water-filling its
    squared singular values under the budget gives the diagonal allocation,
    which is conjugated back through the right singular vectors and
    ``m^{-1}`` and embedded at the active rows and columns. The budget is
    then met with equality: ``trace(vt @ p2_reduced @ vt^H) = p_max``. The
    precoder is ``v2_raw`` unscaled: the transformed trace constraint
    already absorbs all scaling, and any nonzero scale yields the same
    transmitted covariance. Numerically dependent active columns, whose
    normalized gram matrix has an eigenvalue below ``GRAM_FLOOR``, raise
    ``NotPositiveDefiniteError``.
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
        white = whitened_direct(h21, v1, p1, h22)
        scale[sends] = np.sqrt(flat_p[sends] / total[sends])
        # One byte string per mask row: unique on it is far cheaper than on rows.
        keys = np.ascontiguousarray(flat_active[sends]).view(np.dtype((np.void, nt)))
        patterns, group = np.unique(keys.ravel(), return_inverse=True)
        for number, pattern in enumerate(patterns.view(bool).reshape(-1, nt)):
            cols = np.flatnonzero(pattern)
            members = np.flatnonzero(group.ravel() == number)
            trials = sends[members]
            vt = flat_v2[trials][..., cols]
            a = white[members] @ vt
            sigma = np.linalg.svd(a, compute_uv=False)
            rate_uniform[trials] = sum_rate(sigma**2, (flat_p[trials] / total[trials])[:, None])
            # Column equilibration: complementary-allocation entries can differ by many
            # orders of magnitude, and small singular values of the gram root carry only
            # absolute accuracy. The optimum depends only on the precoder's column space,
            # so solve in normalized columns and undo the rescale on the output covariance.
            norms = np.linalg.norm(vt, axis=-2)
            if norms.min() == 0.0:
                raise InternalInvariantError("an active precoder column is exactly zero")
            vn = vt / norms[..., None, :]
            m = np.linalg.qr(vn, mode="r")
            m_inv, singular = _solve_upper(m, np.eye(cols.size))
            certified = ~singular & (np.linalg.norm(m_inv, axis=(-2, -1))
                                     <= (2.0 * GRAM_FLOOR) ** -0.5)
            low = undecided_sigma(m, certified)[..., -1] ** 2
            if np.any(low < GRAM_FLOOR):
                raise NotPositiveDefiniteError(f"precoder gram eigenvalue {np.nanmin(low):.6e} "
                                               f"below floor {GRAM_FLOOR:.6e}")
            _, eta, zh = np.linalg.svd((a / norms[..., None, :]) @ m_inv, full_matrices=False)
            with np.errstate(divide="ignore"):
                alloc = waterfill(1.0 / eta**2, flat_p[trials])
            z = m_inv @ herm(zh)
            reduced = (z * alloc.powers[..., None, :]) @ herm(z)
            reduced = (reduced / norms[..., :, None]) / norms[..., None, :]
            p2[np.ix_(trials, cols, cols)] = 0.5 * (reduced + herm(reduced))
            rate_optimal[trials] = sum_rate(eta**2, alloc.powers)
    uniform = SecondaryDesign(v2=scale.reshape(batch)[..., None, None] * v2_raw,
                              p2=np.broadcast_to(np.eye(nt), v2_raw.shape),
                              rate=rate_uniform.reshape(batch)[()])
    optimal = SecondaryDesign(v2=v2_raw, p2=p2.reshape(v2_raw.shape),
                              rate=rate_optimal.reshape(batch)[()])
    return uniform, optimal
