"""Property tests for the paper's SNR limits on seeded square trials.

At very high SNR the primary water-fills every mode, so the secondary has no
free dimension and no rate. At very low SNR the primary puts its whole
budget on its strongest mode, leaving n - 1 modes to the secondary, where
water-filling does at least as well as the uniform split. At both extremes
the secondary adds no interference on the primary's active modes, and the
uniform rate, a sum over squared singular values, matches an independent
log-det oracle across the whole SNR range.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oia.channel import draw_trials
from oia.experiments import ExperimentGrid, run_trials, snr_to_power
from oia.kernels import herm
from oia.primary import design_primary
from oia.secondary import design_secondary

from oracles import interference_covariance, log2_det_id_plus, residual_interference, whiten

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
    # Every trial has a free mode at -300 dB, none at +300 dB.
    assert np.count_nonzero(primary.unused_count) == (TRIALS if snr_db < 0 else 0)
    bound = 1e-9 * math.sqrt(p_max)  # the bound of acceptance criterion C01
    for design in design_secondary(primary, h12, h21, h22, p_max):
        for k in range(TRIALS):
            assert residual_interference(primary.svd.u[k], h12[k], design.v2[k], design.p2[k],
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
    h11, h12, h21, h22 = np.moveaxis(draw_trials(nr, nt, seed, 0, range(TRIALS)), 1, 0)
    primary = design_primary(h11, p_max)
    design, _ = design_secondary(primary, h12, h21, h22, p_max)
    sends = primary.unused_count > 0
    assert np.all(design.rate[~sends] == 0.0)
    q = interference_covariance(h21[sends], primary.svd.v[sends], primary.p1.powers[sends])
    whitened = whiten(q, h22[sends] @ design.v2[sends])
    reference = log2_det_id_plus(herm(whitened) @ whitened)
    assert np.all(np.abs(design.rate[sends] - reference) <= 1e-9 * reference)
