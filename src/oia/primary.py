"""Primary-link design: SVD diagonalization and water-filled power allocation.

The primary pair ignores the opportunistic link entirely. It precodes with
the right singular vectors of its direct channel, filters with the conjugate
transposed left singular vectors, and water-fills its budget over the
resulting parallel modes. The complementary allocation marks how far below
the water level each unused mode sits; the secondary precoder is built on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, RedrawError
from .kernels import SvdFactors, svd
from .waterfill import PowerAllocation, waterfill


@dataclass(frozen=True)
class PrimaryDesign:
    """Everything the primary link commits to for one channel realization or a stack.

    The precoder is ``svd.v``; the receive filter is ``svd.u`` conjugate
    transposed. ``p1.powers`` and ``p1_bar`` have disjoint supports by
    construction (they share the same water level), so their elementwise
    product is exactly zero. ``unused_count`` is the number of allocatable
    modes carrying zero power, i.e. the dimensions left free for the
    opportunistic link. For a stack of channels every field gains the
    stack's leading axes.
    """

    svd: SvdFactors
    p1: PowerAllocation
    p1_bar: np.ndarray
    unused_count: int | np.ndarray


def design_primary(h11, p_max: float) -> PrimaryDesign:
    """Water-filled single-user design over the direct channel's singular modes.

    ``h11`` is one nr x nt channel or a stack ``(..., nr, nt)``, designed
    matrix by matrix. Inverse gain of mode n is 1 / lambda_n^2 over the
    min(nr, nt) allocatable modes; the complementary allocation is
    ``max(0, inverse_gain - water_level)`` per mode. When nt > nr the surplus
    transmit dimensions are nullspace directions, not water-filling
    decisions: they carry no power and are not counted as unused modes.

    Raises
    ------
    RedrawError
        With reason ``"direct"`` if any allocatable singular value is exactly
        zero; ``rejected`` marks the affected matrices of the stack. The
        complementary allocation divides by lambda_n^2, so an exactly
        rank-deficient channel has no finite design; callers discard the
        trial and redraw.
    InvalidInputError
        If p_max is not positive and finite.
    """
    if not (np.isfinite(p_max) and p_max > 0):
        raise InvalidInputError("p_max must be positive and finite")
    factors = svd(h11)
    lam = factors.sigma
    rejected = lam[..., -1] == 0.0
    if rejected.any():
        raise RedrawError("direct", "rank deficient, complementary allocation undefined",
                          rejected)
    inverse_gains = 1.0 / lam**2
    p1 = waterfill(inverse_gains, p_max)
    p1_bar = np.maximum(0.0, inverse_gains - np.expand_dims(p1.water_level, -1))
    unused = np.count_nonzero(p1.powers == 0.0, axis=-1)
    return PrimaryDesign(svd=factors, p1=p1, p1_bar=p1_bar, unused_count=unused)


def primary_rate(design: PrimaryDesign):
    """Achieved primary rate in bits/s/Hz, summed over the diagonalized modes.

    One value per channel: a float, or an array of the stack's shape.
    """
    lam = design.svd.sigma
    return (np.sum(np.log1p(lam**2 * design.p1.powers), axis=-1) / np.log(2.0))[()]
