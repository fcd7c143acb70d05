"""Property tests for the paper's SNR limits on seeded square trials.

At very high SNR the primary water-fills every mode, so the secondary has no
free dimension and no rate. At very low SNR the primary puts its whole
budget on its strongest mode, leaving n - 1 modes to the secondary, where
water-filling does at least as well as the uniform split. At both extremes
the secondary adds no interference on the primary's active modes.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oia.channel import draw_trials
from oia.experiments import ExperimentGrid, run_trials, snr_to_power
from oia.primary import design_primary
from oia.secondary import (
    build_precoder,
    interference_covariance,
    optimal_secondary,
    uniform_secondary,
    whitener,
)

from oracles import residual_interference

TRIALS = 8
ANTENNAS = st.integers(2, 6)
SEED = st.integers(0, 2**64 - 1)
LIMITS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def records(n, seed, snr_db):
    grid = ExperimentGrid(nt=n, nr=n, snr_db_list=(snr_db,), trials=TRIALS, master_seed=seed)
    return run_trials(grid, 0, snr_db, range(TRIALS))


@LIMITS
@given(ANTENNAS, SEED, st.floats(150.0, 300.0))
def test_high_snr_leaves_no_mode_unused(n, seed, snr_db):
    rec = records(n, seed, snr_db)
    assert np.all(rec.unused_modes == 0)
    assert np.all(rec.rate_secondary_uniform == 0.0)
    assert np.all(rec.rate_secondary_optimal == 0.0)


@LIMITS
@given(ANTENNAS, SEED, st.floats(-300.0, -150.0))
def test_low_snr_leaves_all_but_one_mode_unused(n, seed, snr_db):
    rec = records(n, seed, snr_db)
    assert np.all(rec.unused_modes == n - 1)
    # C04's tolerance, relative to rates of 1e-15 and below: with n = 2 both
    # schemes use the one free mode in full and differ only by rounding
    assert np.all(rec.rate_secondary_optimal >= rec.rate_secondary_uniform * (1.0 - 1e-9))
    assert np.all(rec.rate_secondary_uniform > 0.0)


@LIMITS
@given(ANTENNAS, SEED, st.sampled_from([-300.0, 300.0]))
def test_extreme_snr_keeps_zero_interference(n, seed, snr_db):
    p_max = snr_to_power(snr_db)
    h11, h12, h21, h22 = np.moveaxis(draw_trials(n, n, seed, 0, range(TRIALS)), 1, 0)
    primary = design_primary(h11, p_max)
    v2_raw, active = build_precoder(h12, primary.svd.u, primary.p1_bar)
    f2 = whitener(interference_covariance(h21, primary.svd.v, primary.p1.powers))
    bound = 1e-9 * math.sqrt(p_max)  # the bound of acceptance criterion C01
    for scheme in (uniform_secondary, optimal_secondary):
        design = scheme(v2_raw, active, f2, h22, p_max)
        for k in range(TRIALS):
            assert residual_interference(primary.svd.u[k], h12[k], design.v2[k], design.p2[k],
                                         primary.p1.powers[k] > 0.0) <= bound
