"""Property tests for the paper's SNR limits on seeded square trials.

At very high SNR the primary water-fills every mode, so the secondary has no
free dimension and no rate. At very low SNR the primary puts its whole
budget on its strongest mode, leaving n - 1 modes to the secondary, where
water-filling does at least as well as the uniform split. At both extremes
the secondary adds no interference on the primary's active modes, and the
uniform rate, a sum over squared singular values, matches an independent
log-det oracle across the whole SNR range. Any subset of the four channels,
each scaled by its own factor from 1e-150 to 1e150, and cross or secondary
channels that are zero or of rank one at any normal budget up to 1e300, give
finite rates or a refusal that names the matrix at fault.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oia.channel import draw_trials
from oia.errors import InvalidInputError, RedrawError
from oia.experiments import ExperimentGrid, _run_pass, snr_to_power
from oia.secondary import design_secondary

from oracles import (complex_gaussian, herm, interference_covariance, log2_det_id_plus,
                     residual_interference, whiten)

TRIALS = 8
ANTENNAS = st.integers(2, 6)
SEED = st.integers(0, 2**64 - 1)
LIMITS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def records(n, seed, snr_db):
    """Unused modes and both secondary rates of TRIALS trials of one cell."""
    grid = ExperimentGrid(nt=n, nr=n, snr_db_list=(snr_db,), trials=TRIALS, master_seed=seed)
    unused, _, uniform, optimal, _ = _run_pass(grid, 0, 0, TRIALS)
    return unused, uniform, optimal


@LIMITS
@given(ANTENNAS, SEED, st.floats(150.0, 300.0))
def test_high_snr_leaves_no_mode_unused(n, seed, snr_db):
    unused, uniform, optimal = records(n, seed, snr_db)
    assert np.all(unused == 0)
    assert np.all(uniform == 0.0)
    assert np.all(optimal == 0.0)


@LIMITS
@given(ANTENNAS, SEED, st.floats(-300.0, -150.0))
def test_low_snr_leaves_all_but_one_mode_unused(n, seed, snr_db):
    unused, uniform, optimal = records(n, seed, snr_db)
    assert np.all(unused == n - 1)
    # C04's tolerance, relative to rates of 1e-15 and below: with n = 2 both
    # schemes use the one free mode in full and differ only by rounding
    assert np.all(optimal >= uniform * (1.0 - 1e-9))
    assert np.all(uniform > 0.0)


@LIMITS
@given(ANTENNAS, SEED, st.sampled_from([-300.0, 300.0]))
def test_extreme_snr_keeps_zero_interference(n, seed, snr_db):
    p_max = snr_to_power(snr_db)
    chans = draw_trials(n, n, seed, 0, range(TRIALS))
    primary, *designs = design_secondary(chans, p_max)
    # Every trial has a free mode at -300 dB, none at +300 dB.
    assert np.count_nonzero(primary.unused_count) == (TRIALS if snr_db < 0 else 0)
    bound = 1e-9 * math.sqrt(p_max)  # the bound of acceptance criterion C01
    for design in designs:
        for k in range(TRIALS):
            assert residual_interference(primary.u[k], chans[k, 1], design.v2[k], design.p2[k],
                                         primary.p1.powers[k] > 0.0) <= bound


@pytest.mark.parametrize("snr_db", [-300.0, -150.0, -60.0, -20.0, 0.0, 10.0, 20.0, 30.0, 300.0])
@settings(LIMITS, max_examples=10)
@given(ANTENNAS, st.integers(0, 3), SEED)
def test_uniform_rate_matches_log_det_oracle(snr_db, nt, extra_rows, seed):
    """The uniform rate is log2 det(I + W W^H) of the whitened channel W, square or tall.

    The oracle takes ``W^H W``, whose log-det is the same (Sylvester's
    determinant identity) and which has full rank nt, and whitens with a
    Cholesky factor of q. Trials without a free mode have rate 0.
    """
    p_max = snr_to_power(snr_db)
    nr = nt + extra_rows
    chans = draw_trials(nr, nt, seed, 0, range(TRIALS))
    primary, design, _ = design_secondary(chans, p_max)
    h21, h22 = chans[:, 2], chans[:, 3]
    sends = primary.unused_count > 0
    assert np.all(design.rate[~sends] == 0.0)
    q = interference_covariance(h21[sends], primary.v[sends], primary.p1.powers[sends])
    whitened = whiten(q, h22[sends] @ design.v2[sends])
    reference = log2_det_id_plus(herm(whitened) @ whitened)
    assert np.all(np.abs(design.rate[sends] - reference) <= 1e-9 * reference)


def scaled_design(n, seed, scales):
    """Both schemes of one n x n trial at budget 0.01, each channel j in ``scales`` scaled
    by ``scales[j]``.

    Seed None gives ``h11 = diag([10, 1, ...])`` and identity h12, h21 and
    h22; a seed draws all four as Gaussians. Unscaled, the primary nearly
    always water-fills its strongest mode alone, leaving n - 1 free modes.
    """
    if seed is None:
        chans = [np.diag([10.0] + [1.0] * (n - 1))] + [np.eye(n)] * 3
    else:
        rng = np.random.default_rng(seed)
        chans = [complex_gaussian(n, n, rng) for _ in range(4)]
    for which, scale in scales.items():
        chans[which] = scale * chans[which]
    return design_secondary(np.stack(chans, axis=-3), 0.01)[1:]


@LIMITS
@given(st.integers(2, 4), st.none() | st.integers(0, 2**32 - 1),
       st.dictionaries(st.integers(0, 3), st.integers(-150, 150), min_size=1))
# h12 small and h22 large squared the whitened block past float range; the
# other way round, its square underflowed to a uniform rate of 0.
@example(2, None, {3: 150, 1: -150})
@example(2, None, {3: -130, 1: 130})
@example(4, 7, {1: -150, 2: 150, 3: -150})
@example(3, 0, {0: -100, 1: 40, 2: 120, 3: 60})
def test_scaled_channels_give_finite_rates_or_a_named_refusal(n, seed, exponents):
    """Any nonempty subset of the channels, channel j scaled by 10^x_j, |x_j| <= 150:
    finite rates or a named refusal.

    ``exponents`` maps a channel's position in (h11, h12, h21, h22) to its
    x_j; one, two, three or all four channels are scaled at once. Any
    RuntimeWarning fails the test too. Where h12 is one of the scaled
    channels and both calls return, both rates match, within 1e-12 relative,
    the call that scales only the others, since neither scheme depends on
    h12's scale.
    """
    scales = {which: 10.0**exponent for which, exponent in exponents.items()}
    try:
        designs = scaled_design(n, seed, scales)
    except (InvalidInputError, RedrawError):
        return
    for design in designs:
        assert np.isfinite(design.rate) and np.all(np.isfinite(design.v2))
    if 1 not in scales:
        return
    del scales[1]
    try:
        references = scaled_design(n, seed, scales)
    except (InvalidInputError, RedrawError):
        return  # the others alone may be refused where h12's scale with them is not
    for scaled, reference in zip(designs, references):
        assert abs(scaled.rate - reference.rate) <= 1e-12 * reference.rate


@LIMITS
@given(ANTENNAS, SEED, st.dictionaries(st.sampled_from([1, 2, 3]),
                                       st.sampled_from(["zero", "rank one"]), min_size=1),
       st.floats(np.finfo(float).tiny, 1e300))
@example(2, 0, {1: "rank one", 2: "zero", 3: "rank one"}, np.finfo(float).tiny)
@example(3, 0, {2: "rank one", 3: "zero"}, 1e300)
def test_degenerate_channels_give_finite_rates_or_a_named_refusal(n, seed, degenerate, p_max):
    """h12, h21 or h22 zero or of rank one, at a budget from the smallest normal to 1e300.

    ``degenerate`` maps a channel's position in (h11, h12, h21, h22) to what
    it becomes: zero, or the rank-one product of its first column and first
    row. Both designs return finite, nonnegative rates and a finite p2, or
    the call raises InvalidInputError or RedrawError.
    """
    chans = draw_trials(n, n, seed, 0, range(TRIALS))
    for which, kind in degenerate.items():
        h = chans[:, which]
        chans[:, which] = 0.0 if kind == "zero" else h[..., :, :1] @ h[..., :1, :]
    try:
        primary, *designs = design_secondary(chans, p_max)
    except (InvalidInputError, RedrawError):
        return
    assert np.all(np.isfinite(primary.rate)) and np.all(primary.rate >= 0.0)
    for design in designs:
        assert np.all(np.isfinite(design.rate)) and np.all(design.rate >= 0.0)
        assert np.all(np.isfinite(design.p2))
