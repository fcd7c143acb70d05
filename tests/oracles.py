"""Reference implementations the fast closed forms are checked against.

These stay independent of the production solver paths: brute-force
maximizers enumerate feasible power allocations on a grid and evaluate the
objectives directly, ``loop_waterfill`` is the mode-by-mode loop the
vectorized water-filling must reproduce bit for bit,
``residual_interference`` measures the zero-interference guarantee,
``log2_det_id_plus`` evaluates a log-det rate from determinants alone,
``whiten`` filters a channel by a Cholesky factor instead of ``q^{-1/2}``,
``derive_stream`` builds a trial's stream the documented way, one numpy
``SeedSequence`` and generator per trial, and ``complex_gaussian`` draws one
channel matrix from it the way each trial's stacked draw must.
"""

import itertools

import numpy as np

from oia.kernels import herm, hermitian_inv_sqrt


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


def whiten(q, m):
    """``L^{-1} @ m`` for the Cholesky factor ``q = L L^H``, per matrix of a stack.

    Any filter F with ``F^H F = q^{-1}`` turns the covariance q into I and
    gives the same log-det rates; this one needs no eigensolver.
    """
    return np.linalg.solve(np.linalg.cholesky(q), m)


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
    gram = herm(vn) @ vn
    w, basis = np.linalg.eigh(0.5 * (gram + herm(gram)))
    m_inv = (basis * (1.0 / np.sqrt(w))) @ herm(basis)
    f2 = hermitian_inv_sqrt(q, floor=1.0 - 1e-10)
    g = f2 @ h22 @ vn @ m_inv
    _, _, zh = np.linalg.svd(g, full_matrices=False)
    z = herm(zh)
    through = f2 @ h22 @ vn
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
    primary's ``p1.powers > 0``); the alignment construction keeps this at
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
