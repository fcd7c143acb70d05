"""Exact water-filling power allocation over parallel channel gains."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class PowerAllocation:
    """Nonnegative per-mode powers plus the Lagrangian water level.

    ``powers`` is in the same mode order as the inverse gains it was computed
    from; excluded modes hold exact zeros, so counting unused modes needs no
    epsilon. For a stack of gain vectors ``(..., n)``, ``water_level`` has
    the stack's shape ``(...)``.
    """

    powers: np.ndarray
    water_level: float | np.ndarray


def positive_budget(budget, shape: tuple, name: str = "budget") -> np.ndarray:
    """A power budget, one value or one per trial of a stack of ``shape``, as a float array.

    Raises InvalidInputError, naming the parameter ``name``, unless the
    budget has one of those shapes and every entry is positive and finite.
    """
    budget = np.asarray(budget, dtype=float)
    if budget.shape not in ((), shape):
        raise InvalidInputError(f"{name} must be one value or have the stack's shape {shape}, "
                                f"got shape {budget.shape}")
    if not (np.isfinite(budget).all() and (budget > 0).all()):
        raise InvalidInputError(f"{name} must be positive and finite")
    return budget


def waterfill(inverse_gains, budget) -> PowerAllocation:
    """Maximize sum_n log2(1 + powers[n] / inverse_gains[n]) under a power budget.

    Closed-form active-set solution of the KKT conditions: sort inverse gains
    ascending and let ``level_k = (budget + sum of the k smallest) / k``.
    Modes are included greedily in that order; the active count is the first
    k at which the next candidate's inverse gain is at or above ``level_k``
    (or all finite gains). With S_k the sum of the k included inverse gains,
    included mode j gets ``(budget - (k * inverse_gain_j - S_k)) / k``, which
    is ``level - inverse_gain_j`` without losing a budget far below the
    level to its rounding; everything else gets an exact zero. The sum of
    powers equals the budget to rounding. The running sums are sequential,
    so every level is the one a mode-by-mode loop computes, bit for bit.

    Parameters
    ----------
    inverse_gains : array_like
        Positive per-mode costs (e.g. noise variance over squared channel
        gain), shape ``(n,)`` or a stack ``(..., n)`` solved row by row.
        ``+inf`` marks a mode that can never be used.
    budget : float or array_like
        Total power to distribute in each row, > 0: one value for every row,
        or one per row with the stack's shape ``(...)``. Each row's result
        is the same, bit for bit, either way.

    Raises
    ------
    InvalidInputError
        Empty gain list, a budget of another shape or with an entry that is
        not positive and finite,
        nonpositive or NaN gains, or a row without any finite gain.
    """
    ig = np.asarray(inverse_gains, dtype=float)
    if ig.ndim == 0 or ig.size == 0:
        raise InvalidInputError("inverse_gains must be a nonempty sequence or stack of them")
    if np.isnan(ig).any() or (ig <= 0).any():
        raise InvalidInputError("inverse gains must be positive (or +inf)")
    stack = ig.shape[:-1]
    budget = positive_budget(budget, stack)
    if not np.isfinite(ig).any(axis=-1).all():
        raise InvalidInputError("need at least one finite inverse gain")

    # Row by row on a 2-D view: (rows, n) gains, one (rows, 1) budget column.
    ig = ig.reshape(-1, ig.shape[-1])
    budget = np.broadcast_to(budget, stack).reshape(-1, 1)
    rows = np.arange(ig.shape[0])[:, None]
    order = np.argsort(ig, axis=-1, kind="stable")
    sorted_ig = ig[rows, order]
    count = np.arange(1, ig.shape[-1] + 1)
    cumsum = np.cumsum(sorted_ig, axis=-1)
    level = (budget + cumsum) / count
    # Candidate k joins while it sits below the level of the k modes before
    # it; an infinite gain never does, so only finite modes can be active.
    joins = sorted_ig[:, 1:] < level[:, :-1]
    stops = np.concatenate([joins, np.zeros((ig.shape[0], 1), dtype=bool)], axis=-1)
    k = np.argmin(stops, axis=-1)[:, None] + 1
    water_level = level[rows, k - 1]
    total = cumsum[rows, k - 1]
    powers_sorted = np.where(count <= k, (budget - (k * sorted_ig - total)) / k, 0.0)
    powers = np.empty_like(powers_sorted)
    powers[rows, order] = powers_sorted
    return PowerAllocation(powers=powers.reshape(stack + ig.shape[-1:]),
                           water_level=water_level.reshape(stack)[()])


def sum_rate(gains, powers):
    """Rate ``sum_n log2(1 + gains[n] * powers[n])`` over the last axis, in bits/s/Hz.

    The objective ``waterfill`` maximizes, with gains the reciprocals of its
    inverse gains. Every rate of the package is this sum over the squared
    singular values of a diagonalized channel. A stack ``(..., n)`` gives one
    value per row, shape ``(...)``.
    """
    return (np.sum(np.log1p(gains * powers), axis=-1) / np.log(2.0))[()]
