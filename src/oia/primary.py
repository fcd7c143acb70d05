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
from .waterfill import PowerAllocation, positive_budget, sum_rate, waterfill


@dataclass(frozen=True)
class PrimaryDesign:
    """Everything the primary link commits to for one channel realization or a stack.

    ``h11 = u @ diag(sigma) @ v^H``: the precoder is ``v`` and the receive
    filter is ``u`` conjugate transposed, both square unitary, with
    ``sigma`` the min(nr, nt) singular values, descending. ``p1.powers`` and
    ``p1_bar`` have disjoint supports by construction (they share the same
    water level), so their elementwise product is exactly zero.
    ``unused_count`` is the number of allocatable modes carrying zero power,
    i.e. the dimensions left free for the opportunistic link, and ``rate``
    the achieved rate in bits/s/Hz, summed over the diagonalized modes. For a
    stack of channels every field gains the stack's leading axes.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    p1: PowerAllocation
    p1_bar: np.ndarray
    unused_count: int | np.ndarray
    rate: float | np.ndarray


def design_primary(h11, p_max) -> PrimaryDesign:
    """Water-filled single-user design over the direct channel's singular modes.

    ``h11`` is one nr x nt channel or a stack ``(..., nr, nt)``, designed
    matrix by matrix. ``p_max`` is the transmit budget, one value for the
    whole stack or one per matrix, with the stack's shape ``(...)``.
    Inverse gain of mode n is 1 / lambda_n^2 over the
    min(nr, nt) allocatable modes; the complementary allocation is
    ``max(0, inverse_gain - water_level)`` per mode. When nt > nr the surplus
    transmit dimensions are nullspace directions, not water-filling
    decisions: they carry no power and are not counted as unused modes.

    The SVD's factors reconstruct each h11 with Frobenius residual at most
    1e-10 * max(1, ||h11||_F) and are unitary to 1e-10 per dimension. LAPACK
    runs once per matrix, so a stacked design equals the one-at-a-time
    designs bit for bit.

    Raises
    ------
    RedrawError
        With reason ``"direct"`` if any allocatable singular value is exactly
        zero; ``rejected`` marks the affected matrices of the stack. The
        complementary allocation divides by lambda_n^2, so an exactly
        rank-deficient channel has no finite design; callers discard the
        trial and redraw.
    InvalidInputError
        If h11 is not a matrix or has a NaN or infinite entry, or p_max has
        neither of its shapes or an entry that is not positive and finite.
    """
    h11 = np.asarray(h11, dtype=np.complex128)
    if h11.ndim < 2 or h11.shape[-2] < 1 or h11.shape[-1] < 1:
        raise InvalidInputError(f"h11 must be a matrix or a stack of them, got shape {h11.shape}")
    if not np.all(np.isfinite(h11)):
        raise InvalidInputError("h11 contains non-finite entries")
    p_max = positive_budget(p_max, h11.shape[:-2], "p_max")
    u, lam, vh = np.linalg.svd(h11, full_matrices=True)
    rejected = lam[..., -1] == 0.0
    if rejected.any():
        raise RedrawError("direct", "rank deficient, complementary allocation undefined",
                          rejected)
    inverse_gains = 1.0 / lam**2
    p1 = waterfill(inverse_gains, p_max)
    p1_bar = np.maximum(0.0, inverse_gains - np.expand_dims(p1.water_level, -1))
    unused = np.count_nonzero(p1.powers == 0.0, axis=-1)
    return PrimaryDesign(u=u, sigma=lam, v=vh.conj().swapaxes(-1, -2), p1=p1, p1_bar=p1_bar,
                         unused_count=unused, rate=sum_rate(lam**2, p1.powers))
