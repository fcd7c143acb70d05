"""Reference implementations the fast closed forms are checked against.

These stay independent of the production solver paths: brute-force
maximizers enumerate feasible power allocations on a grid and evaluate the
objectives directly, ``loop_waterfill`` is the mode-by-mode loop the
vectorized water-filling must reproduce bit for bit,
``residual_interference`` measures the zero-interference guarantee,
``log2_det_id_plus`` evaluates a log-det rate from determinants alone,
``interference_covariance`` forms the covariance q that the secondary
receiver whitens, ``whiten`` filters a channel by a Cholesky factor of q
instead of the production QR factor, ``hermitian_inv_sqrt`` is the
eigendecomposition root the package once whitened and rooted with,
``gram_inv_sqrt`` roots a precoder gram matrix by it instead of a QR factor, and
``optimal_covariance`` builds the optimal scheme's transmit covariance from
those two, the way the package once did,
``derive_stream`` builds a trial's stream the documented way, one numpy
``SeedSequence`` and generator per trial, ``complex_gaussian`` draws one
channel matrix from it the way each trial's stacked draw must, and
``column_mean_stderr`` aggregates one CSV column at a time, the way the
vectorized cell aggregation must reproduce bit for bit.
``marchenko_pastur_primary`` is the large-system limit of the primary's
unused-mode fraction and rate per antenna. ``rows_numbered_from``
is not an oracle: it runs a grid's passes with its cells numbered from a
chosen grid index, as ``run_grid`` numbers a later grid of a sequence.
"""

import itertools
import math

import numpy as np

from oia import experiments
from oia.errors import InvalidInputError, OiaError
from oia.secondary import GRAM_FLOOR


def herm(a):
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return np.conj(a).swapaxes(-1, -2)


class NotPositiveDefiniteError(OiaError):
    """A matrix required to be positive definite has an eigenvalue below its floor."""


# Multiple of n * eps * lambda_max by which a computed eigenvalue of an n x n
# Hermitian matrix may sit below the true one. The interference-plus-noise
# covariances of 2000 trials each of 1x3, 2x4, 3x5, 4x9, 5x10 and 3x3 at
# 20-60 dB fell at most 0.82 of that below their noise floor.
EIGENVALUE_SLACK = 4.0


def derive_stream(master_seed, grid_index, trial_index):
    """A trial's stream: ``default_rng(SeedSequence((master_seed, grid_index, trial_index)))``.

    numpy builds that generator as ``PCG64`` on the SeedSequence; a negative
    entry raises ``ValueError``.
    """
    return np.random.default_rng(np.random.SeedSequence((master_seed, grid_index, trial_index)))


def complex_gaussian(nr, nt, stream):
    """One nr x nt matrix of unit-variance circular complex Gaussians from ``stream``.

    Entries are taken in row-major order, real part then imaginary part.
    """
    return stream.standard_normal((nr, nt, 2)).view(np.complex128)[..., 0] / np.sqrt(2.0)


def column_mean_stderr(values):
    """One CSV column's ``(avg, stderr)`` from its 1-D values, as Python floats.

    The standard error is ``std(ddof=1) / sqrt(n)`` of the values scaled by a
    power of two, so that squared deviations do not underflow, and 0 for a
    single value.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return float(values.mean()), 0.0
    _, exponent = np.frexp(np.abs(values).max())
    std = np.ldexp(np.ldexp(values, -exponent).std(ddof=1), exponent)
    return float(values.mean()), float(std / math.sqrt(values.size))


def rows_numbered_from(grid, first):
    """``run_grid([grid])``'s rows, but with cell c at grid index ``first + c``."""
    total, size = grid.trials * len(grid.snr_db_list), experiments._pass_size(grid)
    values = [experiments._run_pass(grid, first, start, min(start + size, total))
              for start in range(0, total, size)]
    return experiments._cell_rows(grid, 0, np.concatenate(values, axis=1))


def marchenko_pastur_primary(snr_db):
    """``(unused fraction, rate per antenna)`` of the primary link as n grows, at one SNR.

    For an n x n i.i.d. CN(0, 1) h11 the eigenvalues x of ``h11^H h11 / n``
    follow, as n grows, the Marchenko-Pastur law of ratio 1, density ``f(x)
    = sqrt((4 - x) x) / (2 pi x)`` on [0, 4] (Tulino and Verdu, *Random
    Matrix Theory and Wireless Communications*, 2004). With budget ``P =
    10^(snr_db / 10)``, the water level mu per antenna solves ``int (mu -
    1/x)^+ f(x) dx = P``; the unused fraction is the CDF at 1/mu, and the
    rate per antenna is ``int log2(mu x)^+ f(x) dx``. Neither depends on n.
    Under ``x = 4 sin^2(phi)`` the law is ``(4 / pi) cos^2(phi) dphi``, so
    the CDF and the water-filling integral have closed forms, and 1/mu is
    found by bisection on them; the rate, a smooth integral in phi, is a
    64-point Gauss-Legendre quadrature.
    """
    budget = 10.0 ** (snr_db / 10.0)

    def angle(t):
        return math.asin(math.sqrt(t) / 2.0)

    def cdf(t):
        phi = angle(t)
        return (2.0 / math.pi) * (phi + math.sin(phi) * math.cos(phi))

    def filled(t):  # int over x > t of (1/t - 1/x) f(x) dx, falling from +inf at 0 to 0 at 4
        phi = angle(t)
        return (1.0 - cdf(t)) / t - (1.0 / math.tan(phi) + phi - math.pi / 2.0) / math.pi

    low, high = 0.0, 4.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if filled(mid) > budget else (low, mid)
    t = 0.5 * (low + high)
    edge = angle(t)
    x, w = np.polynomial.legendre.leggauss(64)
    phi = edge + (math.pi / 2.0 - edge) * (x + 1.0) / 2.0
    integrand = np.log2(4.0 * np.sin(phi) ** 2 / t) * (4.0 / math.pi) * np.cos(phi) ** 2
    return cdf(t), float((math.pi / 2.0 - edge) / 2.0 * np.sum(w * integrand))


def log2_det_id_plus(m):
    """log2 det(I + m) of a Hermitian positive semidefinite m, or one value per matrix of a stack.

    This is ``slogdet(I + m) / ln 2`` with ``det(I + m)`` expanded as 1 plus
    the sum of all principal minors ``det(m[S, S])`` over nonempty index
    sets S, and the log taken by ``log1p``. Forming ``I + m`` would round
    away a spectrum far below 1 (rates below about 1e-6); the minors keep
    it, from -300 dB to +300 dB. Only LU determinants are used, no eigen- or
    singular-value solver. Costs 2^n determinants, so it is for small n.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[-1]
    minors = sum(np.linalg.det(m[..., list(s), :][..., :, list(s)]).real
                 for size in range(1, n + 1) for s in itertools.combinations(range(n), size))
    return np.log1p(minors) / np.log(2.0)


def interference_covariance(h21, v1, p1):
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


def whiten(q, m):
    """``L^{-1} @ m`` for the Cholesky factor ``q = L L^H``, per matrix of a stack.

    Any filter F with ``F^H F = q^{-1}`` turns the covariance q into I and
    gives the same log-det rates; this one needs no eigensolver.
    """
    return np.linalg.solve(np.linalg.cholesky(q), m)


def hermitian_inv_sqrt(m, floor):
    """Inverse principal square root of a Hermitian positive definite matrix, by ``eigh``.

    ``m`` is Hermitian (to 1e-10 relative) with all eigenvalues >= ``floor``
    > 0, or a stack of such matrices. A computed eigenvalue may fall below
    the floor by ``EIGENVALUE_SLACK * n * eps * lambda_max``, the rounding
    error of the eigendecomposition of an n x n matrix; such an eigenvalue is
    taken to be the floor before the root. Returns Hermitian W with
    ``W @ m @ W = I`` to 1e-9 per dimension wherever no eigenvalue needed
    that clamp. Raises ``NotPositiveDefiniteError`` if an eigenvalue falls
    below the floor by more, and ``InvalidInputError`` for non-Hermitian,
    non-square or non-finite input, or ``floor <= 0``.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1] or not np.all(np.isfinite(m)):
        raise InvalidInputError(f"m must be a finite square matrix or a stack of them, got shape {m.shape}")
    if not floor > 0:
        raise InvalidInputError("floor must be positive")
    asym = np.abs(m - herm(m)).max(axis=(-2, -1))
    bad = asym > 1e-10 * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if bad.any():
        raise InvalidInputError(f"m is not Hermitian (asymmetry {asym[bad].max():.3e})")
    w, vecs = np.linalg.eigh(0.5 * (m + herm(m)))
    tolerance = EIGENVALUE_SLACK * w.shape[-1] * np.finfo(float).eps * w[..., -1]
    below = w[..., 0] < floor - tolerance
    if below.any():
        raise NotPositiveDefiniteError(
            f"eigenvalue {w[..., 0][below].min():.6e} below floor {floor:.6e}")
    root = (vecs * (1.0 / np.sqrt(np.maximum(w, floor)))[..., None, :]) @ herm(vecs)
    return 0.5 * (root + herm(root))


def gram_inv_sqrt(vn):
    """``(vn^H vn)^{-1/2}``, the inverse principal root of a gram matrix, by ``hermitian_inv_sqrt``."""
    return hermitian_inv_sqrt(herm(vn) @ vn, floor=GRAM_FLOOR)


def optimal_covariance(v2_raw, active, q, h22, p_max):
    """The optimal scheme's transmit covariance, active block embedded in nt x nt.

    Normalized active columns ``vn`` are rooted by ``gram_inv_sqrt`` and the
    channel is whitened by ``whiten``; the equivalent channel's squared
    singular values are water-filled under ``p_max`` by ``loop_waterfill``,
    and the diagonal allocation is conjugated back through the right
    singular vectors and the root.
    """
    cols = np.flatnonzero(np.asarray(active, dtype=bool))
    vt = np.asarray(v2_raw, dtype=complex)[:, cols]
    norms = np.linalg.norm(vt, axis=0)
    vn = vt / norms[None, :]
    m_inv = gram_inv_sqrt(vn)
    _, eta, zh = np.linalg.svd(whiten(q, h22 @ vn) @ m_inv, full_matrices=False)
    with np.errstate(divide="ignore"):
        powers, _, _ = loop_waterfill(1.0 / eta**2, p_max)
    z = m_inv @ herm(zh)
    reduced = (z * powers) @ herm(z) / np.outer(norms, norms)
    nt = np.asarray(v2_raw).shape[1]
    p2 = np.zeros((nt, nt), dtype=complex)
    p2[np.ix_(cols, cols)] = 0.5 * (reduced + herm(reduced))
    return p2


def allocation_rate(powers, inverse_gains):
    """sum_n log2(1 + powers[n] / inverse_gains[n])."""
    powers = np.asarray(powers, dtype=float)
    ig = np.asarray(inverse_gains, dtype=float)
    return float(np.sum(np.log1p(powers / ig)) / np.log(2.0))


def loop_waterfill(inverse_gains, budget):
    """Water-filling of one gain vector by including modes one at a time.

    Sort inverse gains ascending and include modes while the next one sits
    below the current level ``(budget + included sum) / count``. Each
    included mode gets ``level - inverse_gain`` in the form
    ``(budget - (count * inverse_gain - included sum)) / count``, which keeps
    a budget below the level's rounding error. Returns
    ``(powers, water_level, active_count)`` in the input's mode order;
    tests compare ``active_count``, the number of included modes, with the
    closed form's ``np.count_nonzero(powers > 0)``.
    """
    ig = np.asarray(inverse_gains, dtype=float)
    order = np.argsort(ig, kind="stable")
    sorted_ig = ig[order]
    n_finite = int(np.isfinite(ig).sum())
    active = 1
    included = sorted_ig[0]
    level = budget + included
    while active < n_finite and sorted_ig[active] < level:
        included += sorted_ig[active]
        active += 1
        level = (budget + included) / active
    powers_sorted = np.zeros(ig.size)
    powers_sorted[:active] = (budget - (active * sorted_ig[:active] - included)) / active
    powers = np.zeros(ig.size)
    powers[order] = powers_sorted
    return powers, float(level), active


def _axis_grid(limit, step):
    grid = np.arange(0.0, limit + 0.5 * step, step)
    if grid[-1] < limit:
        grid = np.append(grid, limit)
    return grid


def _simplex_eval(ig, budget, p0, p1, p2):
    p3 = budget - p0 - p1 - p2
    ok = p3 >= -1e-12 * budget
    rate = (np.log1p(p0 / ig[0]) + np.log1p(p1 / ig[1])
            + np.log1p(p2 / ig[2]) + np.log1p(np.maximum(p3, 0.0) / ig[3]))
    return np.where(ok, rate, -np.inf)


def _box_best(ig, budget, lows, highs, step):
    axes = [np.clip(_axis_grid(hi - lo, step) + lo, 0.0, budget)
            for lo, hi in zip(lows, highs)]
    p0, p1, p2 = np.meshgrid(*axes, indexing="ij")
    rate = _simplex_eval(ig, budget, p0, p1, p2)
    k = np.unravel_index(np.argmax(rate), rate.shape)
    point = np.array([p0[k], p1[k], p2[k], 0.0])
    point[3] = max(budget - point[:3].sum(), 0.0)
    return point


def _pairwise_polish(ig, budget, point, step, sweeps=3):
    point = np.array(point, dtype=float)
    n = point.size
    for _ in range(sweeps):
        for i, j in itertools.combinations(range(n), 2):
            total = point[i] + point[j]
            if total == 0.0:
                continue
            t = _axis_grid(total, step)
            rest = sum(np.log1p(point[k] / ig[k]) for k in range(n) if k not in (i, j))
            rate = np.log1p(t / ig[i]) + np.log1p((total - t) / ig[j]) + rest
            best = int(np.argmax(rate))
            point[i], point[j] = t[best], total - t[best]
    return point


def grid_search_rate(inverse_gains, budget, step_frac=1e-3):
    """Grid-search maximum of allocation_rate over the budget simplex.

    Exhaustive at resolution step_frac * budget for up to three modes. Four
    modes use a coarse exhaustive pass, window refinement down to the same
    resolution, and pairwise-transfer polishing sweeps; the objective is
    concave, so the refinement windows bracket the maximum.
    """
    ig = np.asarray(inverse_gains, dtype=float)
    n = ig.size
    step = step_frac * budget
    if n == 1:
        return allocation_rate([budget], ig)
    if n == 2:
        p0 = _axis_grid(budget, step)
        rate = np.log1p(p0 / ig[0]) + np.log1p((budget - p0) / ig[1])
        return float(rate.max() / np.log(2.0))
    if n == 3:
        best = -np.inf
        for p0 in _axis_grid(budget, step):
            rem = budget - p0
            p1 = _axis_grid(rem, step) if rem > 0 else np.array([0.0])
            rate = (np.log1p(p0 / ig[0]) + np.log1p(p1 / ig[1])
                    + np.log1p(np.maximum(rem - p1, 0.0) / ig[2]))
            best = max(best, float(rate.max()))
        return best / np.log(2.0)
    if n != 4:
        raise ValueError("grid search oracle supports at most 4 modes")

    coarse = budget / 25.0
    point = _box_best(ig, budget, lows=(0.0,) * 3, highs=(budget,) * 3, step=coarse)
    step_now = coarse
    while step_now > step:
        step_now = max(step, step_now / 5.0)
        lows = point[:3] - 5.0 * step_now
        highs = point[:3] + 5.0 * step_now
        point = _box_best(ig, budget, lows, highs, step_now)
    point = _pairwise_polish(ig, budget, point, step)
    return allocation_rate(point, ig)


def secondary_split_oracle(v2_raw, active, q, h22, p_max, steps=1000):
    """Best direct-objective rate over two-mode power splits for the secondary.

    Candidates are diagonal allocations diag(t, p_max - t) in the whitened
    equivalent channel's right-singular basis, conjugated back through the
    active-column gram root and evaluated against the raw whitened log-det
    objective. Exactly budget-feasible by construction.
    """
    active = np.flatnonzero(np.asarray(active, dtype=bool))
    assert active.size == 2, "split oracle is for two active columns"
    vt = np.asarray(v2_raw, dtype=complex)[:, active]
    # normalized columns span the same space and keep the gram well scaled
    vn = vt / np.linalg.norm(vt, axis=0)[None, :]
    m_inv = gram_inv_sqrt(vn)
    through = whiten(q, h22 @ vn)
    _, _, zh = np.linalg.svd(through @ m_inv, full_matrices=False)
    z = herm(zh)
    k = np.arange(steps + 1)
    splits = np.stack([p_max * k / steps, p_max * (steps - k) / steps], axis=-1)
    p_reduced = m_inv @ ((z * splits[:, None, :]) @ herm(z)) @ m_inv
    candidates = through @ p_reduced @ herm(through)
    return float(log2_det_id_plus(0.5 * (candidates + herm(candidates))).max())


def residual_interference(u1, h12, v2, p2, primary_active) -> float:
    """Largest per-mode interference amplitude the primary receiver sees.

    After the primary's receive filter, mode n observes row n of
    ``u1^H @ h12 @ v2 @ p2^{1/2}``. Returns the maximum Euclidean row norm
    over the modes marked by the boolean mask ``primary_active`` (the
    primary's ``p1 > 0``); the alignment construction keeps this at
    rounding level.
    """
    active = np.asarray(primary_active, dtype=bool)
    if not active.any():
        return 0.0
    p2 = np.asarray(p2, dtype=complex)
    w, vecs = np.linalg.eigh(0.5 * (p2 + herm(p2)))
    root = (vecs * np.sqrt(np.maximum(w, 0.0))) @ herm(vecs)
    seen = herm(np.asarray(u1, dtype=complex)) @ h12 @ v2 @ root
    return float(np.max(np.linalg.norm(seen[:active.size][active], axis=1)))
