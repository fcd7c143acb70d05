"""Secondary-link design: zero-interference precoder, whitening, power allocation.

The opportunistic transmitter aims its signal at the spatial modes the
primary left unused, its receiver whitens the primary's interference, and
it splits its budget either evenly or by water-filling the whitened
channel. ``design_secondary`` designs all of it in one call, for one
trial's matrices or stacks of them with the same leading axes, and gives
each trial of a stack the result it would get on its own, bit for bit; its
docstring gives the construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, RedrawError
from .waterfill import positive_budget, sum_rate, waterfill

# Smallest/largest singular-value ratio of the cross channel below which it is
# treated as rank deficient. Below this, inverting would amplify noise past
# the point where the zero-interference guarantee is numerically meaningful.
RANK_GUARD = 1e-10

# Floor on the eigenvalues of the optimal scheme's precoder gram matrix, the
# squared singular values of its unit-norm active columns: the largest lies
# in [1, k] for k columns, and below the floor they are numerically dependent.
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


def herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _guarded_solve(a, b, size, limit, of) -> tuple[np.ndarray, np.ndarray]:
    """``x = a^{-1} @ b`` per trial by LU, and the singular values, descending, of ``of``.

    ``x`` is ``of``'s inverse or left pseudo-inverse up to a unitary factor,
    so ``1 / ||x||_F`` bounds ``of``'s smallest singular value from below. A
    trial is certified where ``size * ||x||_F <= limit``, each guard setting
    these so that it passes with a factor 2 to spare for rounding; its row of
    singular values is NaN, so no comparison a guard makes on it holds. Every
    other row holds ``np.linalg.svd``'s exact values. A trial whose LU meets
    an exactly zero pivot is among those, and gets I in place of ``a`` so
    that it cannot fail the whole stack's solve.
    """
    try:
        x, singular = np.linalg.solve(a, b), np.zeros(a.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        # slogdet runs the same LU as solve and reports a zero pivot as sign 0.
        singular = np.linalg.slogdet(a)[0] == 0.0
        x = np.linalg.solve(np.where(singular[..., None, None], np.eye(a.shape[-1]), a), b)
    with np.errstate(over="ignore", invalid="ignore"):
        undecided = singular | ~(size * np.linalg.norm(x, axis=(-2, -1)) <= limit)
    sigma = np.full(of.shape[:-2] + (min(of.shape[-2:]),), np.nan)
    if undecided.any():
        sigma[undecided] = np.linalg.svd(of[undecided], compute_uv=False)
    return x, sigma


def _precoder(h12, u1, p1_bar) -> np.ndarray:
    """Unscaled zero-interference precoder of checked trials, zero where ``p1_bar`` is.

    A square h12 steers by ``(u1^H @ h12)^{-1}``, a tall one by the left
    pseudo-inverse ``r^{-1} q^H @ u1[:, :nt]`` with ``h12 = q r``, which
    does not in general clear the active modes; column n is then scaled by
    ``p1_bar[n]``. A trial whose h12 has a smallest-to-largest singular-value
    ratio below ``RANK_GUARD`` fails the rank guard: ``RedrawError("cross")``
    marks those trials in its ``rejected``.
    """
    nr, nt = h12.shape[-2:]
    with np.errstate(over="ignore"):
        size = np.linalg.norm(h12, axis=(-2, -1))
    if nr == nt:
        # u1 is unitary, so cross^{-1} = h12^{-1} @ u1 is the steer and has h12^{-1}'s norm.
        steer, s = _guarded_solve(herm(u1) @ h12, np.eye(nt), size, 0.5 / RANK_GUARD, h12)
        del u1
    else:
        q, r = np.linalg.qr(h12)
        steer, s = _guarded_solve(r, herm(q), size, 0.5 / RANK_GUARD, h12)
        del q, r
    top, bottom = s[..., 0], s[..., -1]
    rejected = (top == 0.0) | (bottom < RANK_GUARD * top)
    if rejected.any():
        ratio = np.divide(bottom, top, out=np.zeros_like(top), where=top > 0.0)
        raise RedrawError("cross", "rank guard failed "
                          f"(singular-value ratio {ratio[rejected].min():.3e})", rejected)
    if nr > nt:
        steer = steer @ u1[..., :nt]
    # An overflow here shows as a non-finite norm, which design_secondary refuses.
    with np.errstate(over="ignore"):
        steer *= p1_bar[..., None, :]
    return steer


def _channel(name, h, shape) -> np.ndarray:
    """``h`` as a complex array, refused by name unless it has ``shape`` and finite entries."""
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != shape:
        raise InvalidInputError(f"{name} must have shape {shape}, got {h.shape}")
    if not np.all(np.isfinite(h)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return h


def _in_band(a) -> tuple[np.ndarray, np.ndarray]:
    """``(a * 2^-s, s)`` per block, s = 0 where a block is in band; ``a`` itself where all are.

    In band, the largest entry lies in [2^-250, 2^250): squares of entries,
    and products of two squares, stay in float range.
    """
    _, shift = np.frexp(np.abs(a).max(axis=(-2, -1)))
    shift[(shift > -250) & (shift <= 250)] = 0
    if shift.any():
        a = a * np.ldexp(1.0, -shift)[:, None, None]
    return a, shift


def _gram_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, descending, and unit eigenvectors, as columns, of ``a^H a``.

    ``a`` is a stack of upper-triangular 2 x 2 blocks. The determinant is ``|a_00|^2 |a_11|^2``, never a difference of
    products, so the smaller eigenvalue ``det / top`` is as accurate as an
    SVD's. The top eigenvector comes from the row of ``a^H a - top I`` whose
    diagonal entry cancels least, and is ``e_0`` where ``a^H a`` is a
    multiple of I. Each block is first brought in band by ``_in_band``,
    which keeps that product in range, and its eigenvalues are scaled back.
    """
    a, shift = _in_band(a)
    a00, a01, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]
    d0 = (a00.conj() * a00).real
    e1 = (a11.conj() * a11).real
    d1 = (a01.conj() * a01).real + e1
    c = a00.conj() * a01
    split = np.hypot(d0 - d1, 2.0 * np.abs(c))
    top = 0.5 * (d0 + d1 + split)
    low = np.divide(d0 * e1, top, out=np.zeros_like(top), where=top > 0.0)
    # gap is 0 only where a^H a is a multiple of I: there the vector is e_0.
    gap = 0.5 * (np.abs(d0 - d1) + split)
    gap += gap == 0.0
    first = d0 >= d1
    x = np.stack((np.where(first, gap, c), np.where(first, c.conj(), gap)), axis=-1)
    x /= np.hypot(gap, np.abs(c))[:, None]
    other = np.stack((-x[:, 1].conj(), x[:, 0].conj()), axis=-1)
    values = np.ldexp(np.stack((top, low), axis=-1), 2 * shift[:, None])
    return values, np.stack((x, other), axis=-1)


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


def design_secondary(primary, h12, h21, h22, p_max) -> tuple[SecondaryDesign, SecondaryDesign]:
    """The secondary link of a trial or a stack of trials: ``(uniform, optimal)``.

    ``primary`` is the trials' ``PrimaryDesign``. ``h12`` is the cross
    channel to the primary receiver, ``h21`` the primary's channel to the
    secondary receiver and ``h22`` the secondary's direct channel, each
    nr x nt with the primary's leading stack axes. ``p_max`` is the budget,
    one value for the whole stack or one per trial.

    Only trials with an active column (``p1_bar > 0`` somewhere) transmit;
    a trial without one gets ``v2 = 0`` and rate 0 in both schemes, with no
    precoder work, whatever its cross channel. Every input is checked once,
    over every trial, in this order: ``nr >= nt``; the channels' shapes and
    finite entries; the shape of ``p1_bar``, its finite nonnegative entries,
    and its positive entries forming a suffix of the modes with a support
    disjoint from ``p1.powers``, as ``design_primary``'s do; the budget.
    The sending trials' precoder ``v2_raw`` comes from ``_precoder``;
    its ``"cross"`` ``RedrawError`` passes through with ``rejected`` over
    the whole stack, so only a sending trial is ever discarded by the cross
    channel's rank guard. A trial whose active squared column norms, their
    sum or ``p_max`` over it is zero or not finite is an InvalidInputError
    naming h12 and ``p1_bar``. The sending trials are grouped by their
    active-column count k, and each group is solved as one stack.

    A sending trial's receiver whitens the primary's interference, whose
    covariance with the unit noise is ``q = I + b b^H``, with ``b = h21 @ v1
    @ diag(p1)^{1/2}``. Both schemes see its whitened active block ``a``
    only through ``a^H a = c^H q^{-1} c``, with ``c = h22 @ vt`` and ``vt =
    v2_raw[:, active]``. That is the Schur complement of the leading block
    of ``x^H x`` for ``x = [[I, 0], [b_lead, c]]``, where ``b_lead`` holds
    b's first ``lead = nt - k`` columns: the primary powers no active mode,
    since ``p1.powers`` and ``p1_bar`` have disjoint supports. So ``a`` is
    the trailing k x k block of x's R factor, upper triangular, from one QR
    per group; no q, filter or inverse is formed. A trial with one active
    column gets both schemes in closed form, from the norms of ``vt`` and
    ``a``: the two below coincide there. A trial with two gets the singular
    values, gram root and singular vectors below from 2 x 2 Hermitian forms.
    Neither calls ``np.linalg`` past that QR.

    Uniform scheme: identity input covariance, with the precoder scaled so
    that ``trace(v2 @ v2^H) = p_max`` exactly. Its rate is
    ``log2 det(I + W^H W)`` of the whitened channel ``W = q^{-1/2} @ h22 @
    v2``, whose gram matrix on the active columns is ``a^H a`` scaled by
    ``p_max / ||vt||_F^2``: a sum over the squared singular values of ``a``
    at that power.

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
    A trial whose equivalent channel has no gain at all (``a = 0``, as with
    ``h22 = 0``) gets rate 0 in both schemes, and its optimal budget is
    split evenly over the equivalent channel's modes.
    """
    batch, nr, nt = primary.u.shape[:-2], primary.u.shape[-1], primary.v.shape[-1]
    if nr < nt:
        raise InvalidInputError(
            f"no precoder for nr={nr} < nt={nt}; need at least as many receive antennas")
    h12, h21, h22 = (_channel(name, h, batch + (nr, nt))
                     for name, h in (("h12", h12), ("h21", h21), ("h22", h22)))
    p1_bar = np.asarray(primary.p1_bar, dtype=float)
    if p1_bar.shape != batch + (nt,):
        raise InvalidInputError(f"p1_bar must have {nt} entries per trial, "
                                f"got shape {p1_bar.shape}")
    if not np.all((p1_bar >= 0.0) & (p1_bar < np.inf)):
        raise InvalidInputError("p1_bar must be finite and nonnegative")
    flat_active = p1_bar.reshape(-1, nt) > 0.0
    if np.any(flat_active[:, :-1] > flat_active[:, 1:]):
        raise InvalidInputError("p1_bar must be positive on a suffix of the modes, "
                                "as design_primary's complement is")
    flat_p1 = np.reshape(primary.p1.powers, flat_active.shape)
    if np.any(flat_active & (flat_p1 > 0.0)):
        raise InvalidInputError("p1.powers and p1_bar must have disjoint supports, "
                                "as design_primary's do")
    flat_p = np.broadcast_to(positive_budget(p_max, batch, "p_max"), batch).reshape(-1)
    count = flat_p.size
    sends = np.flatnonzero(flat_active.any(axis=-1))

    def flat(x):
        return np.reshape(x, (count,) + np.shape(x)[len(batch):])

    v2s = np.zeros((0, nt, nt), dtype=np.complex128)
    if sends.size:
        # Row copies go in as bare arguments, so that each one goes when the
        # precoder is done with it.
        try:
            v2s = _precoder(_rows(flat(h12), sends), _rows(flat(primary.u), sends),
                            _rows(flat(p1_bar), sends))
        except RedrawError as exc:
            rejected = _scatter(exc.rejected, sends, count).reshape(batch)
            raise RedrawError(exc.reason, exc.args[1], rejected) from None
    p2 = np.zeros((count, nt, nt), dtype=np.complex128)
    # Squared column norms; inactive columns are exactly zero, so total is ||vt||_F^2.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        columns = np.sum((v2s.conj() * v2s).real, axis=-2)
        total = columns.sum(axis=-1)
        power = flat_p[sends] / total
    if not np.all((total < np.inf) & (power > 0.0) & (power < np.inf)
                  & np.all(columns > 0.0, axis=-1, where=flat_active[sends])):
        raise InvalidInputError("h12 and p1_bar give a precoder too small or too large to scale")
    scale = _scatter(np.sqrt(power), sends, count)
    rate_uniform, rate_optimal = np.zeros(count), np.zeros(count)
    # The active columns are a suffix, so a trial's active count names its
    # columns. bincount lists the counts present, ascending, without the hash
    # table an integer np.unique builds, which raised the peak RSS of a sweep.
    width = np.count_nonzero(flat_active[sends], axis=-1)
    sizes = np.flatnonzero(np.bincount(width))
    # Large intermediates go as soon as they are used, so that no group's
    # working set outgrows its whitening QR.
    for k in sizes:
        lead = nt - k
        members = np.flatnonzero(width == k)
        trials = sends[members]
        # Indexing by members copies, so rescaling vt in place leaves v2s alone.
        vt = v2s[members, :, lead:]
        x = np.zeros((members.size, lead + nr, nt), dtype=np.complex128)
        x[:, :lead, :lead] = np.eye(lead)
        v1 = flat(primary.v)[trials, :, :lead]
        v1 *= np.sqrt(flat_p1[trials, None, :lead])
        np.matmul(_rows(flat(h21), trials), v1, out=x[:, lead:, :lead])
        del v1
        np.matmul(_rows(flat(h22), trials), vt, out=x[:, lead:, lead:])
        # The whitened active block. numpy's raw QR holds R transposed, and
        # reading the block from it skips mode "r"'s full-size triu copy.
        a = np.triu(np.linalg.qr(x, mode="raw")[0][:, lead:, lead:nt].swapaxes(-1, -2))
        del x
        norms = np.sqrt(columns[members, lead:])
        # |a|^2 can leave float range where the gains |a|^2 p_max / ||vt||^2 do
        # not, so the uniform rate squares a in band and scales the power back.
        band, shift = _in_band(a)
        band_power = np.ldexp(power[members, None], 2 * shift[:, None])
        if k == 1:
            # Water-filling gives a lone mode the whole budget, so both schemes put
            # p_max / ||vt||^2 on it and share one rate, found from norms alone.
            rate_uniform[trials] = rate_optimal[trials] = sum_rate(np.abs(band[:, 0]) ** 2,
                                                                   band_power)
            p2[trials, -1, -1] = power[members]
            continue
        # Column equilibration: complementary-allocation entries can differ by many
        # orders of magnitude, and small singular values of the gram root carry only
        # absolute accuracy. The optimum depends only on the precoder's column space,
        # so solve in normalized columns and undo the rescale on the output covariance.
        vt /= norms[..., None, :]
        if k == 2:
            sigma2 = _gram_eig(band)[0]
            beta = np.sum(vt[..., 0].conj() * vt[..., 1], axis=-1)
            gamma2 = np.sum(np.abs(vt[..., 1] - beta[:, None] * vt[..., 0]) ** 2, axis=-1)
            low = gamma2 / (1.0 + np.abs(beta))
        else:
            sigma2 = np.linalg.svd(band, compute_uv=False) ** 2
            m = np.linalg.qr(vt, mode="r")
            m_inv, s = _guarded_solve(m, np.eye(k), 1.0, (2.0 * GRAM_FLOOR) ** -0.5, m)
            low = s[..., -1] ** 2
        del band
        rate_uniform[trials] = sum_rate(sigma2, band_power)
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
        inverse = np.divide(1.0, eta2, out=np.full_like(eta2, np.inf), where=eta2 > 0.0)
        # A trial without any gain has rate 0 whatever it sends, as a lone
        # column with a = 0 does: equal inverse gains split its budget evenly.
        inverse[~np.any(eta2 > 0.0, axis=-1)] = 1.0
        alloc = waterfill(inverse, flat_p[trials])
        z = m_inv @ basis
        del m_inv, basis
        reduced = (z * alloc.powers[..., None, :]) @ herm(z)
        del z
        reduced /= norms[..., :, None]
        reduced /= norms[..., None, :]
        p2[trials, lead:, lead:] = 0.5 * (reduced + herm(reduced))
        rate_optimal[trials] = sum_rate(eta2, alloc.powers)
    v2_raw = _scatter(v2s, sends, count).reshape(batch + (nt, nt))
    uniform = SecondaryDesign(v2=scale.reshape(batch)[..., None, None] * v2_raw,
                              p2=np.broadcast_to(np.eye(nt), v2_raw.shape),
                              rate=rate_uniform.reshape(batch)[()])
    optimal = SecondaryDesign(v2=v2_raw, p2=p2.reshape(v2_raw.shape),
                              rate=rate_optimal.reshape(batch)[()])
    return uniform, optimal
