"""Metamorphic tests from the model's exact symmetries, which need no oracle.

With W, V (nr x nr) and X, Y (nt x nt) unitary, each of these leaves every
trial's primary rate, both secondary rates and unused-mode count unchanged:

- the secondary receiver rotates: ``(W h21, W h22)``;
- the secondary transmitter rotates: ``(h12 Y, h22 Y)``;
- the primary transmitter rotates: ``(h11 X, h21 X)``;
- the primary receiver rotates: ``(V h11, V h12)``;
- all four channels scale by alpha and the budget by 1 / alpha^2.

Rounding differs between the two designs, so rates are compared to
``RTOL`` relative plus ``ATOL`` absolute: 1e-12 is about 5,000 units in the
last place of a rate, and the floor, in bits/s/Hz, covers rates near 0. A
conjugate-for-transpose slip, a whitening on the wrong side or a mode-order
mix-up in a numerical path moves rates by far more.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oia.channel import draw_trials
from oia.secondary import design_secondary

from oracles import complex_gaussian

RTOL, ATOL = 1e-12, 1e-13
TRIALS = 16
SYMMETRY = settings(max_examples=15, deadline=None, derandomize=True, database=None)


def unitary(n, rng):
    return np.linalg.qr(complex_gaussian(n, n, rng))[0]


def rotate(chans, symmetry, rng):
    """``chans`` with one side of one link rotated by a random unitary."""
    nr, nt = chans.shape[-2:]
    out = chans.copy()
    if symmetry == "secondary receiver":
        out[:, 2:] = unitary(nr, rng) @ chans[:, 2:]
    elif symmetry == "secondary transmitter":
        out[:, 1::2] = chans[:, 1::2] @ unitary(nt, rng)
    elif symmetry == "primary transmitter":
        out[:, 0::2] = chans[:, 0::2] @ unitary(nt, rng)
    else:
        out[:, :2] = unitary(nr, rng) @ chans[:, :2]
    return out


def figures(chans, p_max):
    """Unused-mode counts, and the primary, uniform and optimal rates, of each trial."""
    primary, uniform, optimal = design_secondary(chans, p_max)
    return primary.unused_count, np.stack((primary.rate, uniform.rate, optimal.rate))


def assert_same_figures(chans, p_max, changed, changed_p_max):
    unused, rates = figures(chans, p_max)
    changed_unused, changed_rates = figures(changed, changed_p_max)
    assert np.array_equal(changed_unused, unused)
    assert np.all(np.abs(changed_rates - rates) <= RTOL * np.abs(rates) + ATOL)


SHAPES = st.sampled_from([(2, 2), (3, 3), (6, 6), (5, 3), (4, 2)])  # (nr, nt)
SNR_DB = st.floats(-10.0, 20.0)
SEED = st.integers(0, 2**64 - 1)


@pytest.mark.parametrize("symmetry", ["secondary receiver", "secondary transmitter",
                                      "primary transmitter", "primary receiver"])
@SYMMETRY
@given(SHAPES, SNR_DB, SEED)
def test_rotation_keeps_figures(symmetry, shape, snr_db, seed):
    chans = draw_trials(*shape, seed, 0, range(TRIALS))
    p_max = 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    assert_same_figures(chans, p_max, rotate(chans, symmetry, rng), p_max)


@SYMMETRY
@given(SHAPES, SNR_DB, SEED, st.floats(-3.0, 3.0))
def test_scaling_with_budget_keeps_figures(shape, snr_db, seed, log_alpha):
    chans = draw_trials(*shape, seed, 0, range(TRIALS))
    p_max = 10.0 ** (snr_db / 10.0)
    alpha = 10.0**log_alpha
    assert_same_figures(chans, p_max, alpha * chans, p_max / alpha**2)
