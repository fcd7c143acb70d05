"""Tests for the secondary precoder, whitening, and both power schemes."""

import itertools
import math

import numpy as np
import pytest

from oia.channel import draw_channel
from oia.errors import InvalidInputError, RedrawError
from oia.kernels import herm, log2_det_id_plus
from oia.primary import design_primary
from oia.secondary import (
    RANK_GUARD,
    build_precoder,
    interference_covariance,
    optimal_secondary,
    uniform_secondary,
    whitener,
)

from oracles import residual_interference, secondary_split_oracle

EYE2 = np.eye(2, dtype=complex)


def random_trial(seed, n=3, p_max=1.0, nr=None):
    """Full design chain on one random channel realization, n x n or nr x n."""
    rng = np.random.default_rng(seed)
    chans = [draw_channel(nr or n, n, rng) for _ in range(4)]
    h11, h12, h21, h22 = chans
    primary = design_primary(h11, p_max)
    v2_raw, active = build_precoder(h12, primary.svd.u, primary.p1_bar)
    q = interference_covariance(h21, primary.svd.v, primary.p1.powers)
    f2 = whitener(q)
    uni = uniform_secondary(v2_raw, active, f2, h22, p_max)
    opt = optimal_secondary(v2_raw, active, f2, h22, p_max)
    return dict(h11=h11, h12=h12, h21=h21, h22=h22, primary=primary,
                v2_raw=v2_raw, active=active, q=q, f2=f2, uni=uni, opt=opt,
                p_max=p_max)


def conditioned_channel(nr, nt, ratio, rng):
    """Random nr x nt channel whose singular values span [ratio, 1] log-evenly."""
    left = np.linalg.qr(draw_channel(nr, nr, rng))[0][:, :nt]
    right = np.linalg.qr(draw_channel(nt, nt, rng))[0]
    sigma = np.logspace(0.0, np.log10(ratio), nt)
    return (left * sigma[None, :]) @ herm(right)


class TestBuildPrecoder:
    def test_identity_channel(self):
        v2_raw, active = build_precoder(EYE2, EYE2, [0.0, 0.25])
        assert np.allclose(v2_raw, np.diag([0.0, 0.25]), atol=1e-15)
        assert np.all(v2_raw[:, 0] == 0.0)
        assert list(active) == [False, True]

    def test_all_modes_used_gives_zero_precoder(self):
        v2_raw, active = build_precoder(EYE2, EYE2, [0.0, 0.0])
        assert np.all(v2_raw == 0.0)
        assert not active.any()

    @pytest.mark.parametrize("seed", range(10))
    def test_alignment_identity_square(self, seed):
        trial = random_trial(seed, n=3, p_max=0.8)
        primary = trial["primary"]
        aligned = herm(primary.svd.u) @ trial["h12"] @ trial["v2_raw"]
        target = np.diag(primary.p1_bar)
        scale = max(np.linalg.norm(primary.p1_bar), 1e-30)
        assert np.linalg.norm(aligned - target) <= 1e-9 * scale
        # rows of modes the primary actually uses are clean
        for n_active in np.flatnonzero(primary.p1.powers > 0.0):
            assert np.linalg.norm(aligned[n_active]) <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_column_count_matches_unused_modes(self, seed):
        trial = random_trial(seed, n=4, p_max=1.5)
        nonzero_columns = int(np.count_nonzero(np.abs(trial["v2_raw"]).sum(axis=0) > 0))
        assert nonzero_columns == trial["primary"].unused_count
        assert nonzero_columns == int(np.count_nonzero(trial["active"]))

    def test_tall_geometry_uses_pseudo_inverse(self):
        rng = np.random.default_rng(0)
        h12 = draw_channel(4, 2, rng)
        u1 = np.linalg.qr(draw_channel(4, 4, rng))[0]
        v2_raw, active = build_precoder(h12, u1, [0.0, 0.3])
        assert v2_raw.shape == (2, 2)
        assert np.all(v2_raw[:, 0] == 0.0)
        assert list(active) == [False, True]

    @pytest.mark.parametrize("seed", range(6))
    def test_tall_steer_matches_pseudo_inverse(self, seed):
        rng = np.random.default_rng(seed)
        nt = 2 + seed % 3
        h12 = draw_channel(nt + 1 + seed % 2, nt, rng)
        u1 = np.linalg.qr(draw_channel(h12.shape[0], h12.shape[0], rng))[0]
        p1_bar = rng.uniform(0.0, 1.0, nt)
        v2_raw, _ = build_precoder(h12, u1, p1_bar)
        reference = np.linalg.pinv(h12) @ u1[:, :nt] * p1_bar[None, :]
        assert np.linalg.norm(v2_raw - reference) <= 1e-9 * np.linalg.norm(reference)

    @pytest.mark.parametrize("nr,nt", [(3, 3), (20, 20), (5, 3), (8, 4)])
    def test_near_guard_cross_channel(self, nr, nt):
        """Just above the rank guard the precoder is finite or the trial is redrawn."""
        rng = np.random.default_rng(nr * 100 + nt)
        u1 = np.linalg.qr(draw_channel(nr, nr, rng))[0]
        for _ in range(200):
            h12 = conditioned_channel(nr, nt, 10.0 * RANK_GUARD, rng)
            try:
                v2_raw, _ = build_precoder(h12, u1, rng.uniform(0.0, 1.0, nt))
            except RedrawError:
                continue
            assert np.all(np.isfinite(v2_raw))

    def test_more_transmit_than_receive_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InvalidInputError, match="nr=2 < nt=3"):
            build_precoder(draw_channel(2, 3, rng), np.eye(2), [0.1, 0.1, 0.1])

    def test_singular_cross_channel_rejected(self):
        with pytest.raises(RedrawError) as info:
            build_precoder(np.ones((2, 2)), EYE2, [0.0, 0.1])
        assert info.value.reason == "cross"

    def test_singular_trial_of_a_stack_marked(self):
        h12 = np.stack([EYE2, np.ones((2, 2)), EYE2])
        u1 = np.broadcast_to(EYE2, h12.shape)
        with pytest.raises(RedrawError) as info:
            build_precoder(h12, u1, np.full((3, 2), 0.1))
        assert info.value.reason == "cross"
        assert list(info.value.rejected) == [False, True, False]

    def test_wrong_complement_length_rejected(self):
        with pytest.raises(InvalidInputError):
            build_precoder(EYE2, EYE2, [0.1])


class TestInterferenceCovariance:
    def test_silent_primary(self):
        q = interference_covariance(EYE2, EYE2, [0.0, 0.0])
        assert np.allclose(q, np.eye(2), atol=1e-15)

    def test_diagonal_analytic(self):
        q = interference_covariance(EYE2, EYE2, [0.5, 0.0])
        assert np.allclose(q, np.diag([1.5, 1.0]), atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_spectrum_floor(self, seed):
        trial = random_trial(seed, n=3, p_max=2.0)
        eigenvalues = np.linalg.eigvalsh(trial["q"])
        assert eigenvalues[0] >= 1.0 - 1e-10
        assert np.linalg.norm(trial["q"] - herm(trial["q"])) <= 1e-12

    def test_short_power_vector_embedded(self):
        rng = np.random.default_rng(5)
        h21 = draw_channel(2, 3, rng)
        v1 = np.linalg.qr(draw_channel(3, 3, rng))[0]
        q = interference_covariance(h21, v1, [0.7, 0.3])
        assert q.shape == (2, 2)
        assert np.linalg.eigvalsh(q)[0] >= 1.0 - 1e-10


class TestUniformScheme:
    def test_walkthrough(self):
        v2_raw = np.diag([0.0, 0.25]).astype(complex)
        f2 = whitener(np.diag([1.5, 1.0]))
        design = uniform_secondary(v2_raw, [False, True], f2, EYE2, p_max=0.5)
        assert np.allclose(design.v2, math.sqrt(8.0) * v2_raw, rtol=1e-12, atol=0.0)
        assert abs(design.v2[1, 1] - math.sqrt(0.5)) < 1e-12
        assert abs(design.rate - math.log2(1.5)) < 1e-12

    def test_no_active_columns(self):
        design = uniform_secondary(np.zeros((2, 2)), [False, False], np.eye(2), EYE2, 1.0)
        assert np.all(design.v2 == 0.0)
        assert design.rate == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_power_constraint_met_with_equality(self, seed):
        trial = random_trial(seed, n=3, p_max=0.7)
        design = trial["uni"]
        if not trial["active"].any():
            return
        spent = np.trace(design.v2 @ design.p2 @ herm(design.v2)).real
        assert abs(spent - trial["p_max"]) <= 1e-9 * trial["p_max"]

    @pytest.mark.parametrize("seed", range(10))
    def test_whitening_filter_flattens_covariance(self, seed):
        trial = random_trial(seed, n=4, p_max=3.0)
        f2, q = trial["f2"], trial["q"]
        assert np.linalg.norm(f2 @ q @ herm(f2) - np.eye(4)) <= 1e-9 * 4


class TestOptimalScheme:
    def test_single_active_column_walkthrough(self):
        v2_raw = np.diag([0.0, 0.25]).astype(complex)
        f2 = whitener(np.diag([1.5, 1.0]))
        design = optimal_secondary(v2_raw, [False, True], f2, EYE2, p_max=0.5)
        assert abs(design.rate - math.log2(1.5)) < 1e-12
        uniform = uniform_secondary(v2_raw, [False, True], f2, EYE2, p_max=0.5)
        assert abs(design.rate - uniform.rate) < 1e-12
        spent = np.trace(design.v2 @ design.p2 @ herm(design.v2)).real
        assert abs(spent - 0.5) <= 1e-12

    def test_no_active_columns(self):
        design = optimal_secondary(np.zeros((2, 2)), [False, False], np.eye(2), EYE2, 1.0)
        assert design.rate == 0.0
        assert np.all(design.p2 == 0.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_power_constraint_and_psd(self, seed):
        trial = random_trial(seed, n=4, p_max=1.5)
        design = trial["opt"]
        if not trial["active"].any():
            return
        spent = np.trace(design.v2 @ design.p2 @ herm(design.v2)).real
        assert abs(spent - trial["p_max"]) <= 1e-9 * trial["p_max"]
        eigenvalues = np.linalg.eigvalsh(0.5 * (design.p2 + herm(design.p2)))
        assert eigenvalues[0] >= -1e-12 * max(eigenvalues[-1], 1.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_closed_form_matches_direct_objective(self, seed):
        trial = random_trial(seed, n=4, p_max=1.5)
        design = trial["opt"]
        whitened = trial["f2"] @ trial["h22"] @ design.v2
        direct = log2_det_id_plus(whitened @ design.p2 @ herm(whitened))
        assert abs(direct - design.rate) <= 1e-8

    @pytest.mark.parametrize("seed", range(12))
    def test_dominates_uniform(self, seed):
        trial = random_trial(seed, n=4, p_max=1.5)
        assert trial["opt"].rate >= trial["uni"].rate - 1e-9
        if trial["primary"].unused_count == 1:
            assert abs(trial["opt"].rate - trial["uni"].rate) <= 1e-6

    def test_two_active_columns_match_split_oracle(self):
        found = 0
        seed = 0
        while found < 3:
            trial = random_trial(seed, n=4, p_max=1.5)
            seed += 1
            if trial["primary"].unused_count != 2:
                continue
            found += 1
            reference = secondary_split_oracle(trial["v2_raw"], trial["active"],
                                               trial["q"], trial["h22"],
                                               trial["p_max"])
            assert abs(trial["opt"].rate - reference) <= 1e-3


class TestResidualInterference:
    def test_zero_precoder(self):
        assert residual_interference(EYE2, EYE2, np.zeros((2, 2)), np.eye(2),
                                     [True, False]) == 0.0

    def test_walkthrough_is_interference_free(self):
        primary = design_primary(np.diag([2.0, 1.0]), 0.5)
        v2_raw, active = build_precoder(EYE2, primary.svd.u, primary.p1_bar)
        q = interference_covariance(EYE2, primary.svd.v, primary.p1.powers)
        design = uniform_secondary(v2_raw, active, whitener(q), EYE2, 0.5)
        metric = residual_interference(primary.svd.u, EYE2, design.v2, design.p2,
                                       primary.p1.powers > 0.0)
        assert metric == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_square_trials_interference_free(self, seed):
        p_max = float(10.0 ** ((seed % 5) - 2))
        trial = random_trial(seed, n=2 + seed % 4, p_max=p_max)
        primary = trial["primary"]
        for design in (trial["uni"], trial["opt"]):
            metric = residual_interference(primary.svd.u, trial["h12"],
                                           design.v2, design.p2,
                                           primary.p1.powers > 0.0)
            assert metric <= 1e-9 * math.sqrt(p_max)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the pseudo-inverse steer leaks onto active primary modes "
                              "when nr > nt")
    @pytest.mark.parametrize("nr,nt", [(5, 3), (4, 2), (10, 5)])
    def test_tall_trials_interference_free(self, nr, nt):
        for seed, snr_db in itertools.product(range(4), (-10.0, 0.0)):
            p_max = 10.0 ** (snr_db / 10.0)
            trial = random_trial(seed, n=nt, nr=nr, p_max=p_max)
            primary = trial["primary"]
            for design in (trial["uni"], trial["opt"]):
                metric = residual_interference(primary.svd.u, trial["h12"],
                                               design.v2, design.p2,
                                               primary.p1.powers > 0.0)
                assert metric <= 1e-9 * math.sqrt(p_max)

    @pytest.mark.parametrize("seed", range(5))
    def test_primary_modes_keep_their_snr(self, seed):
        trial = random_trial(seed, n=3, p_max=2.0)
        primary = trial["primary"]
        design = trial["opt"]
        filtered = herm(primary.svd.u) @ trial["h12"] @ design.v2
        extra = filtered @ design.p2 @ herm(filtered)
        lam = primary.svd.sigma
        for mode in np.flatnonzero(primary.p1.powers > 0.0):
            clean = lam[mode] ** 2 * primary.p1.powers[mode]
            bled = lam[mode] ** 2 * primary.p1.powers[mode] / (1.0 + extra[mode, mode].real)
            assert abs(clean - bled) <= 1e-9 * clean
