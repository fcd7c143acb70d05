"""Secondary-link design: zero-interference precoder, whitening, power allocation.

The opportunistic transmitter aims its signal at the spatial modes the
primary left unused, its receiver whitens the primary's interference, and
it splits its budget either evenly or by water-filling the whitened
channel. ``design_secondary`` designs both links in one call, from one
trial's four channels or a stack of them, and gives each trial of a stack
the result it would get on its own, bit for bit; its docstring gives the
contract. Past its whitening QR, each group of trials with the same
active-column count takes one gram-root step, ``_gram_root``, and one eigen
step, ``_gram_eig``. ``p1_bar``'s scale causes no refusal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, RedrawError
from .primary import PrimaryDesign, design_primary
from .waterfill import sum_rate, waterfill

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
    ``p1_bar[n]``, brought in band per trial by ``_in_band``. A trial whose
    h12 has a smallest-to-largest singular-value ratio below ``RANK_GUARD``
    fails the rank guard: ``RedrawError("cross")`` marks those trials in its
    ``rejected``.
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
    # Neither scheme sees the precoder's scale. An overflow left shows as a
    # non-finite norm, which design_secondary refuses.
    with np.errstate(over="ignore"):
        steer *= _in_band(p1_bar[..., None, :])[0]
    return steer


def _in_band(a) -> tuple[np.ndarray, np.ndarray]:
    """``(a * 2^-s, s)`` per block, s = 0 where a block is in band; ``a`` itself where all are.

    In band, the largest entry lies in [2^-250, 2^250): squares of entries,
    and products of two squares, stay in float range. ``s`` keeps both axes.
    """
    _, shift = np.frexp(np.abs(a).max(axis=(-2, -1), keepdims=True))
    shift[(shift > -250) & (shift <= 250)] = 0
    if shift.any():
        a = a * np.ldexp(1.0, -shift)
    return a, shift


def _gram_root(vt) -> tuple[np.ndarray, np.ndarray]:
    """``m^{-1}`` for a root ``m^H m`` of unit columns' ``vt^H vt``, and its least eigenvalue.

    Any root gives the optimal scheme the same equivalent channel ``g = a @
    m^{-1}``; here ``m`` is the R factor of ``vt = Q m``. Two columns have
    ``m = [[1, b], [0, c]]``, with ``b = vt_0^H vt_1`` and ``c = ||vt_1 - b
    vt_0||``, and least eigenvalue ``1 - |b| = c^2 / (1 + |b|)``, formed
    without cancellation. Past two, ``m`` comes from a QR, and the eigenvalue
    is NaN where ``_guarded_solve`` certifies it above ``GRAM_FLOOR``.
    """
    if vt.shape[-1] > 2:
        m = np.linalg.qr(vt, mode="r")
        m_inv, s = _guarded_solve(m, np.eye(vt.shape[-1]), 1.0, (2.0 * GRAM_FLOOR) ** -0.5, m)
        return m_inv, s[..., -1] ** 2
    beta = np.sum(vt[..., 0].conj() * vt[..., 1], axis=-1)
    gamma2 = np.sum(np.abs(vt[..., 1] - beta[:, None] * vt[..., 0]) ** 2, axis=-1)
    m_inv = np.zeros((len(vt), 2, 2), dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):  # c = 0 fails GRAM_FLOOR
        gamma = np.sqrt(gamma2)
        m_inv[:, 0, 0], m_inv[:, 0, 1], m_inv[:, 1, 1] = 1.0, -beta / gamma, 1.0 / gamma
    return m_inv, gamma2 / (1.0 + np.abs(beta))


def _gram_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, descending, and unit eigenvectors, as columns, of ``a^H a``.

    Past two columns these are ``np.linalg.svd``'s squared singular values
    and right singular vectors of ``a``. A 2 x 2 ``a`` is upper triangular,
    so the determinant is ``|a_00|^2 |a_11|^2``, never a difference of
    products, and the smaller eigenvalue ``det / top`` is as accurate as an
    SVD's. The top eigenvector comes from the row of ``a^H a - top I`` whose
    diagonal entry cancels least, and is ``e_0`` where ``a^H a`` is a
    multiple of I. Each block is first brought in band by ``_in_band``,
    which keeps that product in range, and its eigenvalues are scaled back.
    """
    if a.shape[-1] > 2:
        eta, zh = np.linalg.svd(a, full_matrices=False)[1:]
        return eta**2, herm(zh)
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
    values = np.ldexp(np.stack((top, low), axis=-1), 2 * shift[..., 0])
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


def design_secondary(channels, p_max) -> tuple[PrimaryDesign, SecondaryDesign, SecondaryDesign]:
    """Both links of a trial or a stack of trials: ``(primary, uniform, optimal)``.

    ``channels`` is ``(..., 4, nr, nt)``, as ``draw_trials`` returns it:
    h11, h12 (cross, to the primary receiver), h21 (primary to secondary
    receiver) and h22 (direct) along axis -3. ``p_max`` is one budget or one
    per trial. The stack's shape, ``nr >= nt`` and finite entries are
    checked, in this order, each once; a non-finite entry is refused naming
    its channel. ``design_primary`` then designs h11 and checks the budget,
    and the secondary link steers by that design's ``u1`` and ``p1_bar``.

    Only trials with an active column (``p1_bar > 0``) send; the others get
    ``v2 = 0`` and rate 0, whatever their cross channel. Three refusals
    discard trials, as a ``RedrawError`` whose ``rejected`` marks them in the
    whole stack: ``"direct"``, from ``design_primary``; ``"cross"``, from
    ``_precoder``'s rank guard on a sending trial; and ``"gram"``, where a
    sending trial's normalized active columns have a gram eigenvalue below
    ``GRAM_FLOOR``. Active squared column norms, their sum or ``p_max`` over
    it that are zero or not finite are an InvalidInputError naming h12 and
    ``p1_bar``.

    The uniform scheme sends an identity covariance through the precoder
    scaled to ``trace(v2 @ v2^H) = p_max``; the optimal one sends the
    unscaled ``v2_raw`` and water-fills the whitened equivalent channel of
    the active columns to ``trace(v2 @ p2 @ v2^H) = p_max``. A trial without
    any gain gets rate 0 in both, its optimal budget split evenly.
    """
    refusal = "channels must have shape (..., 4, nr, nt), h11, h12, h21 and h22 along axis -3"
    try:
        channels = np.asarray(channels, dtype=np.complex128)
    except ValueError:  # four channels given one by one, of unequal shapes
        raise InvalidInputError(refusal) from None
    if channels.ndim < 3 or channels.shape[-3] != 4:
        raise InvalidInputError(f"{refusal}, got shape {channels.shape}")
    batch, (nr, nt) = channels.shape[:-3], channels.shape[-2:]
    if nr < nt:
        raise InvalidInputError(
            f"no precoder for nr={nr} < nt={nt}; need at least as many receive antennas")
    finite = np.isfinite(channels).all(axis=(-2, -1)).reshape(-1, 4).all(axis=0)
    if not finite.all():
        raise InvalidInputError(f"{('h11', 'h12', 'h21', 'h22')[np.argmin(finite)]} "
                                "contains non-finite entries")
    primary = design_primary(channels[..., 0, :, :], p_max)
    p_max = np.broadcast_to(np.asarray(p_max, dtype=float), batch).reshape(-1)
    count = p_max.size
    _, h12, h21, h22 = np.moveaxis(channels.reshape(count, 4, nr, nt), 1, 0)
    u, v = primary.u.reshape(count, nr, nr), primary.v.reshape(count, nt, nt)
    p1_bar, p1 = primary.p1_bar.reshape(count, nt), primary.p1.powers.reshape(count, nt)
    active = p1_bar > 0.0
    sends = np.flatnonzero(active.any(axis=-1))
    v2s = np.zeros((0, nt, nt), dtype=np.complex128)
    if sends.size:
        # Row copies go in as bare arguments, so that each one goes when the
        # precoder is done with it.
        try:
            v2s = _precoder(_rows(h12, sends), _rows(u, sends), _rows(p1_bar, sends))
        except RedrawError as exc:
            rejected = _scatter(exc.rejected, sends, count).reshape(batch)
            raise RedrawError(exc.reason, exc.args[1], rejected) from None
    p2 = np.zeros((count, nt, nt), dtype=np.complex128)
    # Squared column norms; inactive columns are exactly zero, so total is ||vt||_F^2.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        columns = np.sum((v2s.conj() * v2s).real, axis=-2)
        total = columns.sum(axis=-1)
        power = p_max[sends] / total
    if not np.all((total < np.inf) & (power > 0.0) & (power < np.inf)
                  & np.all(columns > 0.0, axis=-1, where=active[sends])):
        raise InvalidInputError("h12 and p1_bar give a precoder too small or too large to scale")
    scale = _scatter(np.sqrt(power), sends, count)
    rate_uniform, rate_optimal = np.zeros(count), np.zeros(count)
    # The active columns are a suffix, so a trial's active count names its
    # columns. bincount lists the counts present, ascending, without the hash
    # table an integer np.unique builds, which raised the peak RSS of a sweep.
    width = np.count_nonzero(active[sends], axis=-1)
    sizes = np.flatnonzero(np.bincount(width))
    # Large intermediates go once used, so no group's working set outgrows its whitening QR.
    for k in sizes:
        lead = nt - k
        members = np.flatnonzero(width == k)
        trials = sends[members]
        # Indexing by members copies, so rescaling vt in place leaves v2s alone.
        vt = v2s[members, :, lead:]
        # The receiver whitens q = I + b b^H, b = h21 @ v1 @ diag(p1)^{1/2} on the lead
        # modes, where alone the primary sends. Both schemes see the whitened active block
        # a only through a^H a = c^H q^{-1} c, c = h22 @ vt: the Schur complement of x^H x's
        # leading block, x = [[I, 0], [b, c]], so a is x's trailing k x k R block.
        x = np.zeros((members.size, lead + nr, nt), dtype=np.complex128)
        x[:, :lead, :lead] = np.eye(lead)
        v1 = v[trials, :, :lead]
        v1 *= np.sqrt(p1[trials, None, :lead])
        np.matmul(_rows(h21, trials), v1, out=x[:, lead:, :lead])
        del v1
        np.matmul(_rows(h22, trials), vt, out=x[:, lead:, lead:])
        # numpy's raw QR holds R transposed, and reading the block from it
        # skips mode "r"'s full-size triu copy.
        a = np.triu(np.linalg.qr(x, mode="raw")[0][:, lead:, lead:nt].swapaxes(-1, -2))
        del x
        norms = np.sqrt(columns[members, lead:])
        # The uniform rate takes a^H a's eigenvalues at power p_max / ||vt||^2: a squared
        # in band, and the power scaled back, kept normal by ||vt||^2's exponent.
        band, shift = _in_band(a)
        frac, exponent = np.frexp(total[members, None])
        band_power = np.ldexp(p_max[trials, None] / frac, 2 * shift[..., 0] - exponent)
        if k == 1:
            # Water-filling gives a lone mode the whole budget, so both schemes put
            # p_max / ||vt||^2 on it and share one rate, found from norms alone.
            rate_uniform[trials] = rate_optimal[trials] = sum_rate(np.abs(band[:, 0]) ** 2,
                                                                   band_power)
            p2[trials, -1, -1] = power[members]
            continue
        # Column equilibration: p1_bar's entries can differ by orders of magnitude, and
        # the gram root's small singular values carry only absolute accuracy. The optimum
        # depends only on the column space: solve in unit columns, undo it on p2.
        vt /= norms[..., None, :]
        m_inv, low = _gram_root(vt)
        sigma2 = _gram_eig(band)[0] if k == 2 else np.linalg.svd(band, compute_uv=False) ** 2
        del band
        rate_uniform[trials] = sum_rate(sigma2, band_power)
        if np.any(low < GRAM_FLOOR):
            raise RedrawError("gram", f"eigenvalue {np.nanmin(low):.6e} below {GRAM_FLOOR:.0e}",
                              _scatter(low < GRAM_FLOOR, trials, count).reshape(batch))
        a = (a / norms[..., None, :]) @ m_inv  # the old a goes before the eigen step
        eta2, basis = _gram_eig(a)
        del a
        # Water-fill g = a @ m_inv's eigenvalues eta2, and conjugate the allocation back
        # through g's right singular vectors and m_inv. A trial without any gain has rate
        # 0 whatever it sends, as a lone column with a = 0 does: it splits its budget evenly.
        inverse = np.divide(1.0, eta2, out=np.full_like(eta2, np.inf), where=eta2 > 0.0)
        inverse[~np.any(eta2 > 0.0, axis=-1)] = 1.0
        alloc = waterfill(inverse, p_max[trials])
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
    return primary, uniform, optimal
