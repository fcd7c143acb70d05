"""Secondary-link design: zero-interference precoder, whitening, power allocation.

The opportunistic transmitter aims its signal at the spatial modes the
primary left unused. The unscaled precoder is
``pinv(h12) @ u1[:, :nt] @ diag(p1_bar)``, and the input's shape picks how
it is formed. With square channels the pseudo-inverse is the inverse, so
the steer is ``cross^{-1}`` of the cross channel seen after the primary's
receive filter, ``cross = u1^H @ h12``, from one LU solve: the secondary's
transmission lands exactly on the unused-mode diagonal and the active modes
see nothing. With more receive than transmit antennas the steer is
``solve(r, q^H) @ u1[:, :nt]`` from the reduced QR factors ``h12 = q r``,
the left pseudo-inverse, which does not in general clear the active modes,
since ``u1[:, :nt]^H @ h12 @ pinv(h12) @ u1[:, :nt]`` is then a projection,
not the identity. Column n is exactly zero whenever ``p1_bar[n]`` is zero,
so the precoder spans only the free dimensions.

One call, ``design_secondary``, designs the whole secondary link of a
stack of trials: the precoder, the receiver that whitens the primary's
interference, and both power schemes. Only trials with at least one active
column transmit; a trial without one has nothing to send and gets a zero
precoder and rate 0 without any precoder work, so the cross channel's rank
guard discards only trials that invert h12. The sending trials are grouped
by their active columns, and each trial's whitened active block is formed
once. The uniform
scheme splits power evenly over the precoder, and the optimal scheme
water-fills an equivalent whitened channel restricted to the active
columns.

A trial with one free mode needs no factorization past the precoder and
the whitener: water-filling gives that mode the whole budget, so both
schemes put ``p_max / ||vt||^2`` on it and share the rate
``log2(1 + p_max ||a||^2 / ||vt||^2)``, with ``vt`` the active column and
``a`` its whitened image.

Otherwise both rates are sums over squared singular values
(``waterfill.sum_rate``): the uniform rate ``log2 det(I + W W^H)`` of the
whitened channel ``W`` over the active block's at the uniform power, the
optimal rate over the equivalent channel's at the water-filled powers. Both, and the optimal
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

from .errors import InternalInvariantError, InvalidInputError, RedrawError
from .kernels import herm, undecided_sigma
from .waterfill import positive_budget, sum_rate, waterfill

# Smallest/largest singular-value ratio of the cross channel below which it is
# treated as rank deficient. Below this, inverting would amplify noise past
# the point where the zero-interference guarantee is numerically meaningful.
# A trial passes at once where ||h12||_F ||pinv||_F <= 0.5 / RANK_GUARD, with
# ||cross^{-1}||_F standing in for ||pinv||_F when h12 is square: the product
# bounds sigma_max / sigma_min from above, with a factor 2 for rounding.
RANK_GUARD = 1e-10

# Floor on the eigenvalues of the optimal scheme's precoder gram matrix, the
# squared singular values of its unit-norm active columns: the largest lies
# in [1, k] for k columns, and below the floor they are numerically dependent.
# A trial passes at once where ||m^{-1}||_F^{-2} >= 2 * GRAM_FLOOR.
GRAM_FLOOR = 1e-12

_ZERO_COLUMN = "an active precoder column is exactly zero"


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
        A square h12 gives ``solve(u1^H @ h12, I) @ diag(p1_bar)``, a tall
        one ``solve(r, q^H) @ u1[:, :nt] @ diag(p1_bar)`` with ``h12 = q r``.

    Raises
    ------
    InvalidInputError
        If nr < nt; no precoder construction exists for that shape.
    RedrawError
        With reason ``"cross"`` if h12 fails the rank guard; ``rejected``
        marks the trials that should be redrawn. ``design_secondary`` calls
        this on the sending trials alone, so only they meet the guard.
    """
    h12, p1_bar = _precoder_inputs(h12, p1_bar)
    nr, nt = h12.shape[-2:]
    u1 = np.asarray(u1, dtype=np.complex128)
    if nr == nt:
        # u1 is unitary, so cross^{-1} = h12^{-1} @ u1 is the steer and has h12^{-1}'s norm.
        steer, singular = _inverse(herm(u1) @ h12)
        del u1
    else:
        q, r = np.linalg.qr(h12)
        steer, singular = _solve_upper(r, herm(q))
        del q, r
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.linalg.norm(h12, axis=(-2, -1)) * np.linalg.norm(steer, axis=(-2, -1))
    s = undecided_sigma(h12, ~singular & (bound <= 0.5 / RANK_GUARD))
    top, bottom = s[..., 0], s[..., -1]
    rejected = (top == 0.0) | (bottom < RANK_GUARD * top)
    if rejected.any():
        ratio = np.divide(bottom, top, out=np.zeros_like(top), where=top > 0.0)
        raise RedrawError("cross", "rank guard failed "
                          f"(singular-value ratio {ratio[rejected].min():.3e})", rejected)
    if nr > nt:
        steer = steer @ u1[..., :nt]
    steer *= p1_bar[..., None, :]
    return steer, p1_bar > 0.0


def _precoder_inputs(h12, p1_bar) -> tuple[np.ndarray, np.ndarray]:
    """h12 and p1_bar as arrays, checked for a shape that has a precoder."""
    h12 = np.asarray(h12, dtype=np.complex128)
    nr, nt = h12.shape[-2:]
    if nr < nt:
        raise InvalidInputError(
            f"no precoder for nr={nr} < nt={nt}; need at least as many receive antennas")
    p1_bar = np.asarray(p1_bar, dtype=float)
    if p1_bar.shape != h12.shape[:-2] + (nt,):
        raise InvalidInputError(f"p1_bar must have {nt} entries per trial, "
                                f"got shape {p1_bar.shape}")
    return h12, p1_bar


def _solve_upper(r, b) -> tuple[np.ndarray, np.ndarray]:
    """``r^{-1} @ b`` per trial for upper-triangular r, and the trials with a singular r.

    Those get I in place of r, so one cannot fail the whole stack's solve;
    their guard decides them from exact singular values.
    """
    singular = np.any(np.diagonal(r, axis1=-2, axis2=-1) == 0.0, axis=-1)
    if singular.any():
        r = np.where(singular[..., None, None], np.eye(r.shape[-1]), r)
    return np.linalg.solve(r, b), singular


def _inverse(a) -> tuple[np.ndarray, np.ndarray]:
    """``a^{-1}`` per trial by LU, and the trials whose LU has an exactly zero pivot.

    Those get I in place of a, so one cannot fail the whole stack's
    inversion; their guard decides them from exact singular values.
    """
    try:
        return np.linalg.inv(a), np.zeros(a.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        # slogdet runs the same LU as inv and reports a zero pivot as sign 0.
        singular = np.linalg.slogdet(a)[0] == 0.0
        a = np.where(singular[..., None, None], np.eye(a.shape[-1]), a)
        return np.linalg.inv(a), singular


def _rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``x[rows]`` for sorted distinct ``rows``, without a copy when they are all of x's."""
    return x if rows.size == x.shape[0] else x[rows]


def _scatter(x: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """``count`` rows, x's at sorted distinct ``rows`` and zeros elsewhere; x if rows are all."""
    if rows.size == count:
        return x
    out = np.zeros((count,) + x.shape[1:], dtype=x.dtype)
    out[rows] = x
    return out


def whitened_direct(h21, v1, p1, h22) -> np.ndarray:
    """h22 through a filter that whitens the primary's interference at the secondary receiver.

    That interference plus unit noise has covariance ``q = I + b b^H``, with
    ``b = h21 @ v1 @ diag(p1)^{1/2}``. The R factor of ``[b, I]^H`` has
    ``r^H r = q``, so ``solve(r^H, h22)`` is h22 through ``r^{-H}``, which
    turns q into I. q is never formed, and r's singular values are >= 1.
    """
    b = h21 @ (v1 * np.sqrt(p1)[..., None, :])
    # The caller may pass row copies that nothing else holds: let them go before the QR.
    del h21, v1, p1
    nr, nt = b.shape[-2:]
    stacked = np.empty(b.shape[:-2] + (nt + nr, nr), dtype=np.complex128)
    np.conjugate(b.swapaxes(-1, -2), out=stacked[..., :nt, :])
    del b
    stacked[..., nt:, :] = np.eye(nr)
    r = np.linalg.qr(stacked, mode="r")
    return np.linalg.solve(herm(r), h22)


def design_secondary(primary, h12, h21, h22, p_max) -> tuple[SecondaryDesign, SecondaryDesign]:
    """The secondary link of a trial or a stack of trials: ``(uniform, optimal)``.

    ``primary`` is the trials' ``PrimaryDesign``. ``h12`` is the cross
    channel to the primary receiver, ``h21`` the primary's channel to the
    secondary receiver and ``h22`` the secondary's direct channel, each
    nr x nt with the primary's leading stack axes. ``p_max`` is the budget,
    one value for the whole stack or one per trial.

    Only trials with an active column (``p1_bar > 0`` somewhere) transmit;
    a trial without one gets ``v2 = 0`` and rate 0 in both schemes, with no
    precoder work, whatever its cross channel. The input checks (``nr >=
    nt``, the shape of ``p1_bar`` and the budget) still cover every trial.
    The sending trials' precoder ``v2_raw`` comes from ``build_precoder``;
    its ``"cross"`` ``RedrawError`` passes through with ``rejected`` over
    the whole stack, so only a sending trial is ever discarded by the cross
    channel's rank guard. A sending trial's receiver
    whitens the primary's interference with a filter ``f2`` that has
    ``f2^H f2 = q^{-1}`` (``whitened_direct`` gives ``f2 @ h22``). The
    sending trials are grouped by their active-column mask, and each group
    is solved as one stack. With ``vt = v2_raw[:, active]``, both schemes
    start from the whitened active block ``a = f2 @ h22 @ vt``. A trial
    with one active column gets both schemes in closed form, from the norms
    of ``vt`` and ``a``: the two below coincide there.

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
    ``RedrawError("gram")``, whose ``rejected`` marks them in the whole stack.
    """
    p_max = positive_budget(p_max, "p_max")
    h12, p1_bar = _precoder_inputs(h12, primary.p1_bar)
    batch, nt = p1_bar.shape[:-1], p1_bar.shape[-1]
    flat_active = p1_bar.reshape(-1, nt) > 0.0
    flat_p = np.broadcast_to(p_max, batch).reshape(-1)
    count = flat_p.size
    sends = np.flatnonzero(flat_active.any(axis=-1))

    def senders(x):
        x = np.asarray(x)
        return _rows(x.reshape((count,) + x.shape[len(batch):]), sends)

    v2s = np.zeros((0, nt, nt), dtype=np.complex128)
    if sends.size:
        # Row copies go in as bare arguments, so that each one goes when its
        # callee is done with it. The whitener runs first: its QR is the
        # call's peak, which the precoder's output would otherwise raise.
        white = whitened_direct(senders(h21), senders(primary.svd.v),
                                senders(primary.p1.powers), senders(h22))
        try:
            v2s = build_precoder(senders(h12), senders(primary.svd.u), senders(p1_bar))[0]
        except RedrawError as exc:
            rejected = _scatter(exc.rejected, sends, count).reshape(batch)
            raise RedrawError(exc.reason, exc.args[1], rejected) from None
    p2 = np.zeros((count, nt, nt), dtype=np.complex128)
    # Inactive columns are exactly zero, so this is ||vt||_F^2 of every sending trial.
    total = np.sum(np.abs(v2s) ** 2, axis=(-2, -1))
    scale = _scatter(np.sqrt(flat_p[sends] / total), sends, count)
    rate_uniform, rate_optimal = np.zeros(count), np.zeros(count)
    # One byte string per mask row: unique on it is far cheaper than on rows.
    keys = np.ascontiguousarray(flat_active[sends]).view(np.dtype((np.void, nt)))
    patterns, group = np.unique(keys.ravel(), return_inverse=True)
    # Large intermediates go as soon as they are used, so that no group's
    # working set outgrows the whitener's peak.
    for number, pattern in enumerate(patterns.view(bool).reshape(-1, nt)):
        cols = np.flatnonzero(pattern)
        members = np.flatnonzero(group.ravel() == number)
        trials = sends[members]
        vt = _rows(v2s, members)[..., cols]
        a = _rows(white, members) @ vt
        if number == patterns.shape[0] - 1:
            del white
        if cols.size == 1:
            # Water-filling gives a lone mode the whole budget, so both schemes put
            # p_max / ||vt||^2 on it and share one rate, found from norms alone.
            if total[members].min() == 0.0:
                raise InternalInvariantError(_ZERO_COLUMN)
            power = flat_p[trials] / total[members]
            rate_uniform[trials] = rate_optimal[trials] = sum_rate(
                np.sum(np.abs(a) ** 2, axis=(-2, -1))[:, None], power[:, None])
            p2[trials, cols[0], cols[0]] = power
            continue
        sigma = np.linalg.svd(a, compute_uv=False)
        rate_uniform[trials] = sum_rate(sigma**2, (flat_p[trials] / total[members])[:, None])
        # Column equilibration: complementary-allocation entries can differ by many
        # orders of magnitude, and small singular values of the gram root carry only
        # absolute accuracy. The optimum depends only on the precoder's column space,
        # so solve in normalized columns and undo the rescale on the output covariance.
        norms = np.linalg.norm(vt, axis=-2)
        if norms.min() == 0.0:
            raise InternalInvariantError(_ZERO_COLUMN)
        vt /= norms[..., None, :]
        m = np.linalg.qr(vt, mode="r")
        m_inv, singular = _solve_upper(m, np.eye(cols.size))
        certified = ~singular & (np.linalg.norm(m_inv, axis=(-2, -1))
                                 <= (2.0 * GRAM_FLOOR) ** -0.5)
        low = undecided_sigma(m, certified)[..., -1] ** 2
        if np.any(low < GRAM_FLOOR):
            raise RedrawError("gram", f"eigenvalue {np.nanmin(low):.6e} below {GRAM_FLOOR:.0e}",
                              _scatter(low < GRAM_FLOOR, trials, count).reshape(batch))
        a /= norms[..., None, :]
        g = a @ m_inv
        del a
        eta, zh = np.linalg.svd(g, full_matrices=False)[1:]
        del g
        with np.errstate(divide="ignore"):
            alloc = waterfill(1.0 / eta**2, flat_p[trials])
        z = m_inv @ herm(zh)
        del m_inv, zh
        reduced = (z * alloc.powers[..., None, :]) @ herm(z)
        del z
        reduced /= norms[..., :, None]
        reduced /= norms[..., None, :]
        p2[np.ix_(trials, cols, cols)] = 0.5 * (reduced + herm(reduced))
        rate_optimal[trials] = sum_rate(eta**2, alloc.powers)
    v2_raw = _scatter(v2s, sends, count).reshape(batch + (nt, nt))
    uniform = SecondaryDesign(v2=scale.reshape(batch)[..., None, None] * v2_raw,
                              p2=np.broadcast_to(np.eye(nt), v2_raw.shape),
                              rate=rate_uniform.reshape(batch)[()])
    optimal = SecondaryDesign(v2=v2_raw, p2=p2.reshape(v2_raw.shape),
                              rate=rate_optimal.reshape(batch)[()])
    return uniform, optimal
