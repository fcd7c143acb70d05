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
guard discards only trials that invert h12. The active columns are a
suffix of the modes, since ``p1_bar`` grows as the singular values fall, so
the sending trials are grouped by their active count, and each trial's
whitened active block is formed once. The uniform scheme splits power
evenly over the precoder, and the optimal scheme water-fills an equivalent
whitened channel restricted to the active columns.

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
gram root are R factors of QR decompositions and no q or
eigendecomposition is formed. Both guards take exact singular values only
where a Frobenius-norm certificate is inconclusive (``undecided_sigma``).

A trial with two free modes needs no factorization either: its squared
singular values are the eigenvalues of 2 x 2 Hermitian forms
(``_gram_eig``), and the gram root of its unit active columns ``u0, u1``
is ``[[1, beta], [0, gamma]]``, with ``beta = u0^H u1`` and ``gamma =
||u1 - beta u0||``; its guard reads ``gamma^2 / (1 + |beta|)``.

Every design function takes one trial's matrices or stacks of them with the
same leading axes, one trial per entry, and gives each trial of a stack the
result it would get on its own, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, InvalidInputError, RedrawError
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


def herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


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
        todo = a[~certified]
        if not np.all(np.isfinite(todo)):
            raise InvalidInputError("a contains non-finite entries")
        sigma[~certified] = np.linalg.svd(todo, compute_uv=False)
    return sigma


def build_precoder(h12, u1, p1_bar) -> np.ndarray:
    """Unscaled zero-interference precoder, nonzero only on the primary's unused modes.

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
    v2_raw
        nt x nt precoder with scale deferred to the power scheme; column n
        is zero exactly where ``p1_bar[n]`` is. A square h12 gives
        ``solve(u1^H @ h12, I) @ diag(p1_bar)``, a tall one
        ``solve(r, q^H) @ u1[:, :nt] @ diag(p1_bar)`` with ``h12 = q r``.

    Raises
    ------
    InvalidInputError
        If nr < nt, for which no precoder construction exists, if h12 is
        not finite, or if p1_bar is not finite and nonnegative.
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
        steer, singular = _solve(herm(u1) @ h12, np.eye(nt))
        del u1
    else:
        q, r = np.linalg.qr(h12)
        steer, singular = _solve(r, herm(q))
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
    return steer


def _precoder_inputs(h12, p1_bar) -> tuple[np.ndarray, np.ndarray]:
    """h12 and p1_bar as arrays, checked for a shape that has a precoder and for finite values."""
    h12 = np.asarray(h12, dtype=np.complex128)
    nr, nt = h12.shape[-2:]
    if nr < nt:
        raise InvalidInputError(
            f"no precoder for nr={nr} < nt={nt}; need at least as many receive antennas")
    if not np.all(np.isfinite(h12)):
        raise InvalidInputError("h12 contains non-finite entries")
    p1_bar = np.asarray(p1_bar, dtype=float)
    if p1_bar.shape != h12.shape[:-2] + (nt,):
        raise InvalidInputError(f"p1_bar must have {nt} entries per trial, "
                                f"got shape {p1_bar.shape}")
    if not np.all((p1_bar >= 0.0) & (p1_bar < np.inf)):
        raise InvalidInputError("p1_bar must be finite and nonnegative")
    return h12, p1_bar


def _solve(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``a^{-1} @ b`` per trial by LU, and the trials whose LU has an exactly zero pivot.

    Those get I in place of a, so one cannot fail the whole stack's solve;
    their guard decides them from exact singular values. On an
    upper-triangular a the zero pivots are the zeros of its diagonal.
    """
    try:
        return np.linalg.solve(a, b), np.zeros(a.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        # slogdet runs the same LU as solve and reports a zero pivot as sign 0.
        singular = np.linalg.slogdet(a)[0] == 0.0
        a = np.where(singular[..., None, None], np.eye(a.shape[-1]), a)
        return np.linalg.solve(a, b), singular


def _gram_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, descending, and unit eigenvectors, as columns, of ``a^H a`` for n x 2 ``a``.

    The determinant is ``||a_0||^2`` times the squared norm of ``a_1``
    projected off ``a_0``, never a difference of products, so the smaller
    eigenvalue ``det / top`` is as accurate as an SVD's. The top eigenvector
    comes from the row of ``a^H a - top I`` whose diagonal entry cancels
    least, and is ``e_0`` where ``a^H a`` is a multiple of I.
    """
    a0, a1 = a[..., 0], a[..., 1]
    d0 = np.sum((a0.conj() * a0).real, axis=-1)
    d1 = np.sum((a1.conj() * a1).real, axis=-1)
    c = np.sum(a0.conj() * a1, axis=-1)
    rest = a1 - np.divide(c, d0, out=np.zeros_like(c), where=d0 > 0.0)[:, None] * a0
    det = d0 * np.sum((rest.conj() * rest).real, axis=-1)
    split = np.hypot(d0 - d1, 2.0 * np.abs(c))
    top = 0.5 * (d0 + d1 + split)
    low = np.divide(det, top, out=np.zeros_like(top), where=top > 0.0)
    # gap is 0 only where a^H a is a multiple of I: there the vector is e_0.
    gap = 0.5 * (np.abs(d0 - d1) + split)
    gap += gap == 0.0
    first = d0 >= d1
    x = np.stack((np.where(first, gap, c), np.where(first, c.conj(), gap)), axis=-1)
    x /= np.hypot(gap, np.abs(c))[:, None]
    other = np.stack((-x[:, 1].conj(), x[:, 0].conj()), axis=-1)
    return np.stack((top, low), axis=-1), np.stack((x, other), axis=-1)


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
    nt``, finite channels, the shape of ``p1_bar``, its positive entries
    forming a suffix of the modes, as ``design_primary``'s do, and the
    budget) still cover every trial.
    The sending trials' precoder ``v2_raw`` comes from ``build_precoder``;
    its ``"cross"`` ``RedrawError`` passes through with ``rejected`` over
    the whole stack, so only a sending trial is ever discarded by the cross
    channel's rank guard. A sending trial's receiver
    whitens the primary's interference with a filter ``f2`` that has
    ``f2^H f2 = q^{-1}`` (``whitened_direct`` gives ``f2 @ h22``). The
    sending trials are grouped by their active-column count, and each group
    is solved as one stack. With ``vt = v2_raw[:, active]``, both schemes
    start from the whitened active block ``a = f2 @ h22 @ vt``. A trial
    with one active column gets both schemes in closed form, from the norms
    of ``vt`` and ``a``: the two below coincide there. A trial with two gets
    the singular values, gram root and singular vectors below from 2 x 2
    Hermitian forms. Neither calls ``np.linalg``.

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
    for name, h in (("h21", h21), ("h22", h22)):
        if not np.all(np.isfinite(h)):
            raise InvalidInputError(f"{name} contains non-finite entries")
    batch, nt = p1_bar.shape[:-1], p1_bar.shape[-1]
    flat_active = p1_bar.reshape(-1, nt) > 0.0
    if np.any(flat_active[:, :-1] > flat_active[:, 1:]):
        raise InvalidInputError("p1_bar must be positive on a suffix of the modes, "
                                "as design_primary's complement is")
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
        white = whitened_direct(senders(h21), senders(primary.v),
                                senders(primary.p1.powers), senders(h22))
        try:
            v2s = build_precoder(senders(h12), senders(primary.u), senders(p1_bar))
        except RedrawError as exc:
            rejected = _scatter(exc.rejected, sends, count).reshape(batch)
            raise RedrawError(exc.reason, exc.args[1], rejected) from None
    p2 = np.zeros((count, nt, nt), dtype=np.complex128)
    # Inactive columns are exactly zero, so this is ||vt||_F^2 of every sending trial.
    total = np.sum(np.abs(v2s) ** 2, axis=(-2, -1))
    scale = _scatter(np.sqrt(flat_p[sends] / total), sends, count)
    rate_uniform, rate_optimal = np.zeros(count), np.zeros(count)
    # The active columns are a suffix, so a trial's active count names its
    # columns. bincount lists the counts present, ascending, without the hash
    # table an integer np.unique builds, which raised the peak RSS of a sweep.
    width = np.count_nonzero(flat_active[sends], axis=-1)
    sizes = np.flatnonzero(np.bincount(width))
    # Large intermediates go as soon as they are used, so that no group's
    # working set outgrows the whitener's peak.
    for k in sizes:
        cols = slice(nt - k, nt)
        members = np.flatnonzero(width == k)
        trials = sends[members]
        # Indexing by members copies, so rescaling vt in place leaves v2s alone.
        vt = v2s[members, :, cols]
        a = _rows(white, members) @ vt
        if k == sizes[-1]:
            del white
        if k == 1:
            # Water-filling gives a lone mode the whole budget, so both schemes put
            # p_max / ||vt||^2 on it and share one rate, found from norms alone.
            if total[members].min() == 0.0:
                raise InternalInvariantError(_ZERO_COLUMN)
            power = flat_p[trials] / total[members]
            rate_uniform[trials] = rate_optimal[trials] = sum_rate(
                np.sum(np.abs(a) ** 2, axis=(-2, -1))[:, None], power[:, None])
            p2[trials, -1, -1] = power
            continue
        # Column equilibration: complementary-allocation entries can differ by many
        # orders of magnitude, and small singular values of the gram root carry only
        # absolute accuracy. The optimum depends only on the precoder's column space,
        # so solve in normalized columns and undo the rescale on the output covariance.
        norms = np.sqrt(np.sum((vt.conj() * vt).real, axis=-2))
        if norms.min() == 0.0:
            raise InternalInvariantError(_ZERO_COLUMN)
        vt /= norms[..., None, :]
        if k == 2:
            sigma2 = _gram_eig(a)[0]
            beta = np.sum(vt[..., 0].conj() * vt[..., 1], axis=-1)
            gamma2 = np.sum(np.abs(vt[..., 1] - beta[:, None] * vt[..., 0]) ** 2, axis=-1)
            low = gamma2 / (1.0 + np.abs(beta))
        else:
            sigma2 = np.linalg.svd(a, compute_uv=False) ** 2
            m = np.linalg.qr(vt, mode="r")
            m_inv, singular = _solve(m, np.eye(k))
            certified = ~singular & (np.linalg.norm(m_inv, axis=(-2, -1))
                                     <= (2.0 * GRAM_FLOOR) ** -0.5)
            low = undecided_sigma(m, certified)[..., -1] ** 2
        rate_uniform[trials] = sum_rate(sigma2, (flat_p[trials] / total[members])[:, None])
        if np.any(low < GRAM_FLOOR):
            raise RedrawError("gram", f"eigenvalue {np.nanmin(low):.6e} below {GRAM_FLOOR:.0e}",
                              _scatter(low < GRAM_FLOOR, trials, count).reshape(batch))
        a /= norms[..., None, :]
        if k == 2:
            gamma = np.sqrt(gamma2)
            m_inv = np.zeros((members.size, 2, 2), dtype=np.complex128)
            m_inv[:, 0, 0], m_inv[:, 0, 1], m_inv[:, 1, 1] = 1.0, -beta / gamma, 1.0 / gamma
            a[..., 1] = (a[..., 1] - beta[:, None] * a[..., 0]) / gamma[:, None]  # a @ m_inv
            eta2, basis = _gram_eig(a)
        else:
            a = a @ m_inv  # the old a goes before the SVD
            eta, zh = np.linalg.svd(a, full_matrices=False)[1:]
            eta2, basis = eta**2, herm(zh)
            del zh
        del a
        with np.errstate(divide="ignore"):
            alloc = waterfill(1.0 / eta2, flat_p[trials])
        z = m_inv @ basis
        del m_inv, basis
        reduced = (z * alloc.powers[..., None, :]) @ herm(z)
        del z
        reduced /= norms[..., :, None]
        reduced /= norms[..., None, :]
        p2[trials, cols, cols] = 0.5 * (reduced + herm(reduced))
        rate_optimal[trials] = sum_rate(eta2, alloc.powers)
    v2_raw = _scatter(v2s, sends, count).reshape(batch + (nt, nt))
    uniform = SecondaryDesign(v2=scale.reshape(batch)[..., None, None] * v2_raw,
                              p2=np.broadcast_to(np.eye(nt), v2_raw.shape),
                              rate=rate_uniform.reshape(batch)[()])
    optimal = SecondaryDesign(v2=v2_raw, p2=p2.reshape(v2_raw.shape),
                              rate=rate_optimal.reshape(batch)[()])
    return uniform, optimal
