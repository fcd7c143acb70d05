"""Tests for the secondary precoder, whitening, both power schemes and their guards.

Also tested here: the eigendecomposition root that the optimal-scheme
reference ``oracles.gram_inv_sqrt`` uses.
"""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oia import secondary
from oia.errors import InvalidInputError, RedrawError
from oia.primary import design_primary
from oia.secondary import GRAM_FLOOR, RANK_GUARD, design_secondary, undecided_sigma
from oia.waterfill import waterfill

from oracles import (
    EIGENVALUE_SLACK,
    NotPositiveDefiniteError,
    complex_gaussian,
    herm,
    hermitian_inv_sqrt,
    interference_covariance,
    log2_det_id_plus,
    optimal_covariance,
    residual_interference,
    secondary_split_oracle,
    whiten,
)

EYE2 = np.eye(2, dtype=complex)


def random_trial(seed, n=3, p_max=1.0, nr=None):
    """Both links of one random channel realization, n x n or nr x n.

    ``v2_raw`` is the optimal scheme's precoder, which is the unscaled one,
    ``active`` its nonzero columns (the primary's unused modes), and ``q``
    the interference covariance the secondary receiver whitens.
    """
    rng = np.random.default_rng(seed)
    h11, h12, h21, h22 = (complex_gaussian(nr or n, n, rng) for _ in range(4))
    primary = design_primary(h11, p_max)
    uni, opt = design_secondary(primary, h12, h21, h22, p_max)
    return dict(h11=h11, h12=h12, h21=h21, h22=h22, primary=primary,
                v2_raw=opt.v2, active=primary.p1_bar > 0.0,
                q=interference_covariance(h21, primary.v, primary.p1.powers),
                uni=uni, opt=opt, p_max=p_max)


def conditioned_channel(nr, nt, ratio, rng):
    """Random nr x nt channel whose singular values span [ratio, 1] log-evenly."""
    left = np.linalg.qr(complex_gaussian(nr, nr, rng))[0][:, :nt]
    right = np.linalg.qr(complex_gaussian(nt, nt, rng))[0]
    sigma = np.logspace(0.0, np.log10(ratio), nt)
    return (left * sigma[None, :]) @ herm(right)


class TestBuildPrecoder:
    """The precoder step of ``design_secondary``, ``_precoder``, on checked arrays."""

    def test_identity_channel(self):
        v2_raw = secondary._precoder(EYE2, EYE2, np.array([0.0, 0.25]))
        assert np.allclose(v2_raw, np.diag([0.0, 0.25]), atol=1e-15)
        assert np.all(v2_raw[:, 0] == 0.0)

    def test_all_modes_used_gives_zero_precoder(self):
        v2_raw = secondary._precoder(EYE2, EYE2, np.zeros(2))
        assert np.all(v2_raw == 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_alignment_identity_square(self, seed):
        trial = random_trial(seed, n=3, p_max=0.8)
        primary = trial["primary"]
        aligned = herm(primary.u) @ trial["h12"] @ trial["v2_raw"]
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
        h12 = complex_gaussian(4, 2, rng)
        u1 = np.linalg.qr(complex_gaussian(4, 4, rng))[0]
        v2_raw = secondary._precoder(h12, u1, np.array([0.0, 0.3]))
        assert v2_raw.shape == (2, 2)
        assert np.all(v2_raw[:, 0] == 0.0)
        assert np.any(v2_raw[:, 1] != 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_tall_steer_matches_pseudo_inverse(self, seed):
        rng = np.random.default_rng(seed)
        nt = 2 + seed % 3
        h12 = complex_gaussian(nt + 1 + seed % 2, nt, rng)
        u1 = np.linalg.qr(complex_gaussian(h12.shape[0], h12.shape[0], rng))[0]
        p1_bar = rng.uniform(0.0, 1.0, nt)
        v2_raw = secondary._precoder(h12, u1, p1_bar)
        reference = np.linalg.pinv(h12) @ u1[:, :nt] * p1_bar[None, :]
        assert np.linalg.norm(v2_raw - reference) <= 1e-9 * np.linalg.norm(reference)

    @pytest.mark.parametrize("n", [2, 3, 6, 10, 20])
    def test_square_steer_inverts_cross_channel(self, n):
        """``cross = u1^H h12`` takes the square steer to ``diag(p1_bar)``, zeros included."""
        rng = np.random.default_rng(n)
        h12 = np.stack([complex_gaussian(n, n, rng) for _ in range(20)])
        u1 = np.stack([np.linalg.qr(complex_gaussian(n, n, rng))[0] for _ in range(20)])
        p1_bar = rng.uniform(0.0, 1.0, (20, n)) * (rng.random((20, n)) < 0.6)
        v2_raw = secondary._precoder(h12, u1, p1_bar)
        assert np.all(v2_raw.swapaxes(-1, -2)[p1_bar == 0.0] == 0.0)
        error = np.linalg.norm(herm(u1) @ h12 @ v2_raw - p1_bar[:, None, :] * np.eye(n),
                               axis=(-2, -1))
        assert np.all(error <= 1e-12 * np.linalg.norm(p1_bar, axis=-1))

    @pytest.mark.parametrize("nr,nt", [(3, 3), (20, 20), (5, 3), (8, 4)])
    def test_near_guard_cross_channel(self, nr, nt):
        """Just above the rank guard the precoder is finite or the trial is redrawn."""
        rng = np.random.default_rng(nr * 100 + nt)
        u1 = np.linalg.qr(complex_gaussian(nr, nr, rng))[0]
        for _ in range(200):
            h12 = conditioned_channel(nr, nt, 10.0 * RANK_GUARD, rng)
            try:
                v2_raw = secondary._precoder(h12, u1, rng.uniform(0.0, 1.0, nt))
            except RedrawError:
                continue
            assert np.all(np.isfinite(v2_raw))

    def test_more_transmit_than_receive_rejected(self):
        rng = np.random.default_rng(1)
        primary = design_primary(complex_gaussian(2, 3, rng), 1.0)
        h = complex_gaussian(2, 3, rng)
        with pytest.raises(InvalidInputError, match="nr=2 < nt=3"):
            design_secondary(primary, h, h, h, 1.0)

    def test_singular_cross_channel_rejected(self):
        with pytest.raises(RedrawError) as info:
            secondary._precoder(np.ones((2, 2)), EYE2, np.array([0.0, 0.1]))
        assert info.value.reason == "cross"

    def test_singular_trial_of_a_stack_marked(self):
        h12 = np.stack([EYE2, np.ones((2, 2)), EYE2])
        u1 = np.broadcast_to(EYE2, h12.shape)
        with pytest.raises(RedrawError) as info:
            secondary._precoder(h12, u1, np.full((3, 2), 0.1))
        assert info.value.reason == "cross"
        assert list(info.value.rejected) == [False, True, False]

    def test_wrong_complement_length_rejected(self):
        primary = dataclasses.replace(walkthrough(), p1_bar=np.array([0.1]))
        with pytest.raises(InvalidInputError, match=r"^p1_bar must have 2 entries per trial, "
                                                    r"got shape \(1,\)$"):
            design_secondary(primary, EYE2, EYE2, EYE2, 0.5)


class TestNonFiniteChannels:
    """A NaN in any channel is refused at entry and named, whatever the trial sends."""

    @pytest.mark.parametrize("name", ["h12", "h21", "h22"])
    @pytest.mark.parametrize("h11,p_max,active", [
        (np.diag([1.0, 1e-3]), 1.0, 1), (np.diag([10.0, 1.0, 1.0]), 0.01, 2), (EYE2, 1.0, 0),
    ], ids=["one-column", "two-column", "silent"])
    def test_nan_channel_rejected(self, name, h11, p_max, active):
        primary = design_primary(h11, p_max)
        assert np.count_nonzero(primary.p1_bar > 0.0) == active
        rng = np.random.default_rng(3)
        chans = {key: complex_gaussian(*h11.shape, rng) for key in ("h12", "h21", "h22")}
        chans[name][0, -1] = np.nan
        with pytest.raises(InvalidInputError, match=f"^{name} contains non-finite entries$"):
            design_secondary(primary, p_max=p_max, **chans)


class TestChannelShapes:
    """A channel that is not nr x nt with the primary's stack axes is refused by name."""

    @pytest.mark.parametrize("name,shape", [
        pytest.param(name, shape, id=f"{name}-{'x'.join(map(str, shape))}")
        for name in ("h12", "h21", "h22")
        for shape in [(4, 3), (2, 3), (3,), (3, 4), (3, 2), (2, 3, 3)]
    ])
    def test_misshaped_channel_rejected(self, name, shape):
        """A stacked or narrower h12 is named too, not blamed on ``p1_bar``'s shape."""
        primary = design_primary(np.diag([10.0, 1.0, 1.0]), 0.01)
        chans = {key: np.eye(3) for key in ("h12", "h21", "h22")}
        chans[name] = np.ones(shape)
        with pytest.raises(InvalidInputError,
                           match=rf"^{name} must have shape \(3, 3\), got "):
            design_secondary(primary, p_max=0.01, **chans)

    def test_stack_axes_are_the_primary_s(self):
        primary = design_primary(np.broadcast_to(np.diag([10.0, 1.0, 1.0]), (2, 3, 3)), 0.01)
        eye = np.broadcast_to(np.eye(3), (2, 3, 3))
        design_secondary(primary, eye, eye, eye, 0.01)
        with pytest.raises(InvalidInputError, match=r"^h22 must have shape \(2, 3, 3\)"):
            design_secondary(primary, eye, eye, np.eye(3), 0.01)


class TestBadPrecoderInputs:
    """A non-finite or negative p1_bar is refused at entry and named."""

    def test_bad_complement_rejected_by_design_secondary(self):
        """A hand-built design with ``p1_bar = [bad, 5]`` is refused, not given NaN rates."""
        for bad in (np.nan, np.inf, -0.25):
            primary = dataclasses.replace(walkthrough(), p1_bar=np.array([bad, 5.0]))
            with pytest.raises(InvalidInputError,
                               match="^p1_bar must be finite and nonnegative$"):
                design_secondary(primary, EYE2, EYE2, EYE2, 0.5)


class TestSendersOnly:
    """Only trials with an active column reach the precoder and its rank guard."""

    def test_silent_trial_with_singular_cross_channel_gets_zero_design(self):
        """Trial 1's equal direct modes take the whole budget; its h12 is exactly singular."""
        primary = design_primary(np.stack([np.diag([1.0, 1e-3]), EYE2]), 1.0)
        assert primary.unused_count.tolist() == [1, 0]
        h12 = np.stack([EYE2, np.ones((2, 2))])
        with pytest.raises(RedrawError):  # where it would send, the guard rejects it
            secondary._precoder(h12[1], EYE2, np.array([0.0, 0.1]))
        eye = np.broadcast_to(EYE2, h12.shape)
        for design in design_secondary(primary, h12, eye, eye, 1.0):
            assert np.all(design.v2[1] == 0.0) and design.rate[1] == 0.0
            assert design.rate[0] > 0.0
        assert np.all(design.p2[1] == 0.0)
        silent = design_primary(EYE2, 1.0)
        for design in design_secondary(silent, np.ones((2, 2)), EYE2, EYE2, 1.0):
            assert np.all(design.v2 == 0.0) and design.rate == 0.0

    def test_rejected_mask_covers_the_whole_stack(self):
        """A sending trial's rejection is reported at its place among silent trials."""
        h11 = np.stack([EYE2, np.diag([1.0, 1e-3]), EYE2, np.diag([1.0, 1e-3])])
        primary = design_primary(h11, 1.0)
        h12 = np.stack([np.ones((2, 2)), EYE2, np.ones((2, 2)), np.ones((2, 2))])
        eye = np.broadcast_to(EYE2, h12.shape)
        with pytest.raises(RedrawError) as info:
            design_secondary(primary, h12, eye, eye, 1.0)
        assert info.value.reason == "cross"
        assert info.value.rejected.tolist() == [False, False, False, True]

    def test_singular_cross_channel_among_sending_square_trials(self):
        """An exactly singular h12 fails the LU of its cross channel: it alone is redrawn."""
        h11 = np.broadcast_to(np.diag([1.0, 1.0, 1e-3]), (4, 3, 3))
        primary = design_primary(h11, 1.0)
        assert np.all(primary.unused_count == 1)
        rng = np.random.default_rng(2)
        h12 = np.stack([complex_gaussian(3, 3, rng) for _ in range(4)])
        h12[2, :, 1] = 0.0
        with pytest.raises(RedrawError) as info:
            design_secondary(primary, h12, h12, h12, 1.0)
        assert info.value.reason == "cross"
        assert info.value.rejected.tolist() == [False, False, True, False]

    def test_input_checks_cover_silent_stacks(self):
        """With no trial sending, the geometry, the shapes and the budget are still checked."""
        silent = design_primary(np.broadcast_to(EYE2, (3, 2, 2)), 1.0)
        wide = design_primary(np.broadcast_to(np.eye(2, 3), (3, 2, 3)), 1.0)
        assert not np.any(silent.p1_bar > 0.0) and not np.any(wide.p1_bar > 0.0)
        eye = np.broadcast_to(EYE2, (3, 2, 2))
        with pytest.raises(InvalidInputError, match="nr=2 < nt=3"):
            design_secondary(wide, np.ones((3, 2, 3)), eye, eye, 1.0)
        with pytest.raises(InvalidInputError, match=r"^h12 must have shape \(3, 2, 2\)"):
            design_secondary(silent, eye[:2], eye, eye, 1.0)
        with pytest.raises(InvalidInputError):
            design_secondary(silent, eye, eye, eye, 0.0)

    def test_active_columns_off_a_suffix_rejected(self):
        """A hand-built design whose free modes are not the weakest ones is refused."""
        primary = design_primary(np.stack([np.diag([1.0, 1e-3, 1e-3]), np.eye(3)]), 1.0)
        rng = np.random.default_rng(4)
        h = np.stack([complex_gaussian(3, 3, rng) for _ in range(2)])
        design_secondary(primary, h, h, h, 1.0)
        p1_bar = primary.p1_bar.copy()
        p1_bar[0] = p1_bar[0, ::-1]
        assert (p1_bar[0] > 0.0).tolist() == [True, True, False]
        with pytest.raises(InvalidInputError, match="suffix"):
            design_secondary(dataclasses.replace(primary, p1_bar=p1_bar), h, h, h, 1.0)

    def test_overlapping_supports_rejected(self):
        """A hand-built design whose primary powers a free mode is refused.

        The whitening drops the primary's columns past the used modes, which is
        exact only where ``p1.powers`` and ``p1_bar`` have disjoint supports.
        """
        primary = design_primary(np.diag([10.0, 1.0, 1.0]), 0.01)
        powers = primary.p1.powers.copy()
        powers[-1] = 1e-3
        overlapping = dataclasses.replace(primary, p1=dataclasses.replace(primary.p1, powers=powers))
        eye = np.eye(3)
        design_secondary(primary, eye, eye, eye, 0.01)
        with pytest.raises(InvalidInputError, match="disjoint supports"):
            design_secondary(overlapping, eye, eye, eye, 0.01)


def free_mode_links(free, nr, nt, snr_db, rng):
    """A stack of random links, one per SNR, whose primary leaves exactly ``free`` modes free.

    h11 has singular values 1 (nt - free times) and 1e-6, 2e-6, ...: water-filling
    from -20 to 40 dB fills the equal modes and never the weak ones.
    """
    p_max = 10.0 ** (np.asarray(snr_db) / 10.0)
    sigma = np.r_[np.ones(nt - free), 1e-6 * np.arange(1, free + 1)]
    unitary = [np.linalg.qr(complex_gaussian(k, k, rng))[0] for k in (nr, nt) for _ in p_max]
    h11 = np.stack([(left[:, :nt] * sigma) @ right
                    for left, right in zip(unitary[:p_max.size], unitary[p_max.size:])])
    h12, h21, h22 = (np.stack([complex_gaussian(nr, nt, rng) for _ in p_max]) for _ in range(3))
    primary = design_primary(h11, p_max)
    assert np.all(primary.unused_count == free)
    return primary, h12, h21, h22, p_max


def check_oracle_path(primary, h12, h21, h22, p_max):
    """Rates, p2 and budgets of both schemes match the Cholesky-whitened, eigh-rooted path."""
    uniform, optimal = design_secondary(primary, h12, h21, h22, p_max)
    for k, budget in enumerate(p_max):
        q = interference_covariance(h21[k], primary.v[k], primary.p1.powers[k])
        w = whiten(q, h22[k] @ uniform.v2[k])
        rate = log2_det_id_plus(herm(w) @ w)
        assert abs(uniform.rate[k] - rate) <= 1e-12 * rate
        p2 = optimal_covariance(optimal.v2[k], primary.p1_bar[k] > 0.0, q, h22[k], budget)
        assert np.linalg.norm(optimal.p2[k] - p2) <= 1e-12 * np.linalg.norm(p2)
        w = whiten(q, h22[k] @ optimal.v2[k])
        rate = log2_det_id_plus(w @ p2 @ herm(w))
        assert abs(optimal.rate[k] - rate) <= 1e-12 * rate
        for design in (uniform, optimal):
            spent = np.trace(design.v2[k] @ design.p2[k] @ herm(design.v2[k])).real
            assert abs(spent - budget) <= 1e-12 * budget
    return uniform, optimal


class TestOneActiveColumn:
    """A trial with one free mode gets both schemes' designs in closed form, from norms."""

    @pytest.mark.parametrize("nr,nt", [(2, 2), (3, 3), (5, 5), (5, 3), (4, 2), (6, 4)])
    def test_matches_oracle_path(self, nr, nt):
        """Rates, p2 and budgets of the Cholesky-whitened, eigh-rooted reference path."""
        rng = np.random.default_rng(10 * nr + nt)
        links = free_mode_links(1, nr, nt, np.arange(-20.0, 41.0, 5.0), rng)
        uniform, optimal = check_oracle_path(*links)
        assert np.array_equal(uniform.rate, optimal.rate)

    def test_one_and_two_column_groups_call_only_their_qr(self, monkeypatch):
        """Past the precoder, a one- or two-column group makes one np.linalg call: its whitening QR.

        A 4 x 4 trial with three active columns still calls ``svd``, which
        shows the seam counts.
        """
        rng = np.random.default_rng(4)
        snr_db = np.arange(-20.0, 41.0, 5.0)
        one = free_mode_links(1, 3, 3, snr_db, rng)
        two = free_mode_links(2, 3, 3, snr_db, rng)
        three = free_mode_links(3, 4, 4, [0.0], rng)
        calls, counting = [], [True]

        def counted(name, real):
            def call(*args, **kwargs):
                if counting[0]:
                    calls.append(name)
                return real(*args, **kwargs)
            return call

        def uncounted(real):
            def call(*args):
                counting[0] = False
                try:
                    return real(*args)
                finally:
                    counting[0] = True
            return call

        for name in np.linalg.__all__:
            real = getattr(np.linalg, name)
            if callable(real) and not isinstance(real, type):
                monkeypatch.setattr(np.linalg, name, counted(name, real))
        monkeypatch.setattr(secondary, "_precoder", uncounted(secondary._precoder))
        for links in (one, two):
            design_secondary(*links)
            assert calls == ["qr"]
            calls.clear()
        design_secondary(*three)
        assert calls[0] == "qr" and "svd" in calls


class TestTwoActiveColumns:
    """A trial with two free modes gets both schemes' designs in closed form, from 2 x 2 forms."""

    @pytest.mark.parametrize("nr,nt", [(3, 3), (4, 4), (6, 6), (5, 3), (4, 3), (7, 5)])
    def test_matches_oracle_path(self, nr, nt):
        """Rates, p2 and budgets of the Cholesky-whitened, eigh-rooted reference path."""
        rng = np.random.default_rng(10 * nr + nt)
        check_oracle_path(*free_mode_links(2, nr, nt, np.arange(-20.0, 41.0, 5.0), rng))

    def test_scalar_equivalent_gram(self):
        """Orthonormal active columns seen through a unitary: ``g^H g`` is a multiple of I.

        Its eigenvectors are any basis, so water-filling splits the budget
        evenly and p2 is diagonal, finite and found without a warning.
        """
        primary = design_primary(np.diag([10.0, 1.0, 1.0]), 0.01)
        p1_bar = primary.p1_bar
        assert np.count_nonzero(p1_bar > 0.0) == 2
        # u1^H h12 = I steers each free mode onto its own column.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            uniform, optimal = design_secondary(primary, primary.u, np.eye(3), np.eye(3), 0.01)
        expected = np.diag(np.divide(0.005, p1_bar**2, out=np.zeros(3), where=p1_bar > 0.0))
        assert np.allclose(optimal.p2, expected, rtol=1e-12, atol=0.0)
        assert abs(optimal.rate - 2.0 * math.log2(1.005)) <= 1e-12
        assert abs(uniform.rate - optimal.rate) <= 1e-12


def rank_criterion(h12):
    """The rank guard's decision, per trial, from numpy's singular values alone."""
    s = np.linalg.svd(h12, compute_uv=False)
    return (s[..., 0] == 0.0) | (s[..., -1] < RANK_GUARD * s[..., 0])


def parallel_columns_primary(gap):
    """A primary with modes 1 and 2 free, and a cross channel that steers them near-parallel.

    The normalized active columns are e1 and (e1 + gap e2) / |.|, whose gram
    matrix has smallest eigenvalue ``1 - (1 + gap^2)^{-1/2}``, about gap^2 / 2.
    """
    primary = design_primary(np.diag([10.0, 1.0, 1.0]), 0.01)
    steer = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, gap]])
    return primary, primary.u @ np.linalg.inv(steer)  # so that v2_raw = steer @ diag(p1_bar)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestThreeOrMoreActiveColumns:
    """A trial with three or more free modes takes the LAPACK path past its whitening QR."""

    @pytest.mark.parametrize("nr,nt,free", [(4, 4, 3), (6, 6, 4), (7, 5, 3), (8, 8, 6)])
    def test_matches_oracle_path(self, nr, nt, free):
        """Rates, p2 and budgets of the Cholesky-whitened, eigh-rooted reference path."""
        rng = np.random.default_rng(10 * nr + nt)
        check_oracle_path(*free_mode_links(free, nr, nt, np.arange(-20.0, 41.0, 5.0), rng))


class TestZeroGain:
    """A trial whose active columns reach the secondary receiver with no gain sends at rate 0."""

    @pytest.mark.parametrize("active", [1, 2, 3])
    @pytest.mark.parametrize("h22", ["zero", "kills-active"])
    def test_rate_zero_and_budget_met(self, active, h22):
        """Both schemes get rate 0 and a finite p2 that spends the whole budget.

        ``u1^H h12 = I`` makes the precoder ``diag(p1_bar)``, so an h22 whose
        active columns are zero maps the active columns to exact zeros.
        """
        primary = design_primary(np.diag([10.0] * (4 - active) + [1.0] * active), 0.01)
        free = primary.p1_bar > 0.0
        assert np.count_nonzero(free) == active
        rng = np.random.default_rng(active)
        h21 = complex_gaussian(4, 4, rng)
        channel = np.zeros((4, 4), dtype=complex)
        if h22 == "kills-active":
            channel[:, ~free] = complex_gaussian(4, 4 - active, rng)
        uniform, optimal = design_secondary(primary, primary.u, h21, channel, 0.01)
        assert np.all(channel @ optimal.v2[:, free] == 0.0)
        for design in (uniform, optimal):
            assert design.rate == 0.0
            assert np.all(np.isfinite(design.p2))
            spent = np.trace(design.v2 @ design.p2 @ herm(design.v2)).real
            assert abs(spent - 0.01) <= 1e-12 * 0.01


class TestGuards:
    """The certified guards make the same decisions as their singular-value criteria."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([(2, 2), (3, 3), (8, 8), (20, 20), (4, 2), (5, 3), (10, 5)]),
           st.lists(st.floats(0.3, 3.0), min_size=1, max_size=6),
           st.lists(st.integers(0, 19), max_size=2), st.integers(0, 2**32 - 1))
    def test_rank_guard_matches_singular_values(self, shape, factors, zero_columns, seed):
        """Ratios 0.3x to 3x the guard; a trial may have an exact zero column."""
        nr, nt = shape
        rng = np.random.default_rng(seed)
        h12 = np.stack([conditioned_channel(nr, nt, f * RANK_GUARD, rng) for f in factors])
        for number, column in enumerate(zero_columns):
            h12[(number * 7 + column) % len(factors), :, column % nt] = 0.0
        u1 = np.linalg.qr(complex_gaussian(nr, nr, rng))[0]
        u1 = np.broadcast_to(u1, (len(factors), nr, nr))
        p1_bar = rng.uniform(0.0, 1.0, (len(factors), nt))
        expected = rank_criterion(h12)
        if expected.any():
            with pytest.raises(RedrawError) as info:
                secondary._precoder(h12, u1, p1_bar)
            assert info.value.reason == "cross"
            assert info.value.rejected.tolist() == expected.tolist()
        else:
            v2_raw = secondary._precoder(h12, u1, p1_bar)
            assert np.all(np.isfinite(v2_raw))

    def test_inconclusive_certificate_passes_on_singular_values(self, monkeypatch):
        """Above the guard but within the certificate's factor 2, the exact values decide."""
        h12 = np.diag([1.0, 1.5 * RANK_GUARD]).astype(complex)
        assert np.linalg.norm(h12) * np.linalg.norm(np.linalg.pinv(h12)) > 0.5 / RANK_GUARD
        assert not rank_criterion(h12)
        certified = []
        real = secondary.undecided_sigma
        monkeypatch.setattr(secondary, "undecided_sigma",
                            lambda a, ok: certified.append(np.asarray(ok).tolist()) or real(a, ok))
        v2_raw = secondary._precoder(h12, EYE2, np.array([0.0, 0.5]))
        assert certified == [False]
        assert np.all(np.isfinite(v2_raw))

    def test_exactly_singular_trial_of_a_stack(self):
        """A zero on R's diagonal, or a pseudo-inverse norm that overflows, marks one trial."""
        h12 = np.stack([EYE2, np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros((2, 2)),
                        np.diag([1.0, 1e-200]), EYE2])
        with pytest.raises(RedrawError) as info:
            secondary._precoder(h12, np.broadcast_to(EYE2, h12.shape), np.full((5, 2), 0.1))
        assert info.value.rejected.tolist() == [False, True, True, True, False]

    @pytest.mark.parametrize("multiple,rejected", [(0.5, True), (0.9, True), (1.5, False),
                                                   (4.0, False)])
    def test_gram_guard_either_side_of_floor(self, multiple, rejected):
        """Near-parallel active columns whose gram eigenvalue sits at ``multiple`` x the floor.

        At 1.5x the Frobenius certificate is inconclusive and the exact
        singular values pass the trial; at 4x the certificate passes it.
        """
        gap = math.sqrt(2.0 * multiple * GRAM_FLOOR)
        primary, h12 = parallel_columns_primary(gap)
        v2_raw = secondary._precoder(h12, primary.u, primary.p1_bar)
        active = primary.p1_bar > 0.0
        vn = v2_raw[:, active] / np.linalg.norm(v2_raw[:, active], axis=0)
        low = np.linalg.svd(vn, compute_uv=False)[-1] ** 2
        assert (low < GRAM_FLOOR) == rejected
        assert abs(low / (multiple * GRAM_FLOOR) - 1.0) < 1e-3
        if rejected:
            with pytest.raises(RedrawError) as info:
                design_secondary(primary, h12, np.eye(3), np.eye(3), 1.0)
            assert info.value.reason == "gram"
            assert info.value.rejected.shape == () and info.value.rejected
        else:
            _, optimal = design_secondary(primary, h12, np.eye(3), np.eye(3), 1.0)
            assert np.all(np.isfinite(optimal.p2)) and 0.0 < optimal.rate < math.inf


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


def walkthrough():
    """The analytic walkthrough's primary: mode 0 carries 0.5, mode 1 is free with p1_bar 0.25.

    With identity cross, interference and direct channels the precoder is
    ``diag(0, 0.25)`` and the secondary receiver sees ``q = diag(1.5, 1)``.
    """
    return design_primary(np.diag([2.0, 1.0]), 0.5)


class TestUniformScheme:
    def test_walkthrough(self):
        design, _ = design_secondary(walkthrough(), EYE2, EYE2, EYE2, p_max=0.5)
        v2_raw = np.diag([0.0, 0.25])
        assert np.allclose(design.v2, math.sqrt(8.0) * v2_raw, rtol=1e-12, atol=0.0)
        assert abs(design.v2[1, 1] - math.sqrt(0.5)) < 1e-12
        assert abs(design.rate - math.log2(1.5)) < 1e-12

    def test_no_active_columns(self):
        """With every primary mode in use the trial sends nothing: v2 = 0 and rate 0."""
        primary = design_primary(EYE2, 1.0)
        assert not np.any(primary.p1_bar > 0.0)
        for design in design_secondary(primary, EYE2, EYE2, EYE2, 1.0):
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
        """The rate is that of the channel seen through a filter that turns q into I."""
        trial = random_trial(seed, n=4, p_max=3.0)
        design = trial["uni"]
        w = whiten(trial["q"], trial["h22"] @ design.v2)
        assert abs(log2_det_id_plus(herm(w) @ w) - design.rate) <= 1e-9 * max(design.rate, 1.0)


class TestOptimalScheme:
    def test_single_active_column_walkthrough(self):
        uniform, design = design_secondary(walkthrough(), EYE2, EYE2, EYE2, p_max=0.5)
        assert abs(design.rate - math.log2(1.5)) < 1e-12
        assert abs(design.rate - uniform.rate) < 1e-12
        spent = np.trace(design.v2 @ design.p2 @ herm(design.v2)).real
        assert abs(spent - 0.5) <= 1e-12

    def test_no_active_columns(self):
        """A trial of a stack without an active column gets v2 = 0 and rate 0; the other sends."""
        primary = design_primary(np.stack([np.diag([2.0, 1.0]), EYE2]), 0.5)
        eye = np.broadcast_to(EYE2, (2, 2, 2))
        for design in design_secondary(primary, eye, eye, eye, 0.5):
            assert np.all(design.v2[1] == 0.0)
            assert design.rate[1] == 0.0
            assert abs(design.rate[0] - math.log2(1.5)) < 1e-12

    def test_parallel_active_columns_rejected(self):
        """Numerically dependent active columns have no gram root: that trial alone is redrawn.

        The stack's first trial sends nothing, so the rejected group member
        sits at a different place among the senders than in the stack.
        """
        gaps = [1.0, 0.5, 1e-7, 0.5]
        p_max = np.array([1e4, 0.01, 0.01, 0.01])
        primary = design_primary(np.broadcast_to(np.diag([10.0, 1.0, 1.0]), (4, 3, 3)), p_max)
        assert primary.p1_bar[0].max() == 0.0 and np.all(primary.p1_bar[1:, 1:] > 0.0)
        h12 = np.stack([parallel_columns_primary(gap)[1] for gap in gaps])
        eye = np.broadcast_to(np.eye(3), (4, 3, 3))
        with pytest.raises(RedrawError) as info:
            design_secondary(primary, h12, eye, eye, p_max)
        assert info.value.reason == "gram"
        assert info.value.rejected.tolist() == [False, False, True, False]
        assert str(info.value).startswith("precoder gram matrix rejected: eigenvalue ")

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
        whitened = whiten(trial["q"], trial["h22"] @ design.v2)
        direct = log2_det_id_plus(whitened @ design.p2 @ herm(whitened))
        assert abs(direct - design.rate) <= 1e-8

    @pytest.mark.parametrize("seed", range(12))
    def test_dominates_uniform(self, seed):
        trial = random_trial(seed, n=4, p_max=1.5)
        assert trial["opt"].rate >= trial["uni"].rate - 1e-9
        if trial["primary"].unused_count == 1:
            assert abs(trial["opt"].rate - trial["uni"].rate) <= 1e-6

    @pytest.mark.parametrize("nr,nt", [(2, 2), (3, 3), (4, 4), (6, 6), (5, 3), (4, 2), (8, 4)])
    def test_covariance_matches_eigh_gram_root(self, nr, nt):
        """p2 equals the eigendecomposition-rooted, Cholesky-whitened construction."""
        checked = 0
        for seed, snr_db in itertools.product(range(6), (-20.0, -5.0, 10.0, 25.0, 40.0)):
            p_max = 10.0 ** (snr_db / 10.0)
            trial = random_trial(1000 * nr + 10 * nt + seed, n=nt, nr=nr, p_max=p_max)
            if not trial["active"].any():
                assert np.all(trial["opt"].p2 == 0.0)
                continue
            checked += 1
            reference = optimal_covariance(trial["v2_raw"], trial["active"], trial["q"],
                                           trial["h22"], p_max)
            error = np.linalg.norm(trial["opt"].p2 - reference)
            assert error <= 1e-9 * np.linalg.norm(reference), (seed, snr_db)
        assert checked >= 6

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
        primary = walkthrough()
        design, _ = design_secondary(primary, EYE2, EYE2, EYE2, 0.5)
        metric = residual_interference(primary.u, EYE2, design.v2, design.p2,
                                       primary.p1.powers > 0.0)
        assert metric == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_square_trials_interference_free(self, seed):
        p_max = float(10.0 ** ((seed % 5) - 2))
        trial = random_trial(seed, n=2 + seed % 4, p_max=p_max)
        primary = trial["primary"]
        for design in (trial["uni"], trial["opt"]):
            metric = residual_interference(primary.u, trial["h12"],
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
                metric = residual_interference(primary.u, trial["h12"],
                                               design.v2, design.p2,
                                               primary.p1.powers > 0.0)
                assert metric <= 1e-9 * math.sqrt(p_max)

    @pytest.mark.parametrize("seed", range(5))
    def test_primary_modes_keep_their_snr(self, seed):
        trial = random_trial(seed, n=3, p_max=2.0)
        primary = trial["primary"]
        design = trial["opt"]
        filtered = herm(primary.u) @ trial["h12"] @ design.v2
        extra = filtered @ design.p2 @ herm(filtered)
        lam = primary.sigma
        for mode in np.flatnonzero(primary.p1.powers > 0.0):
            clean = lam[mode] ** 2 * primary.p1.powers[mode]
            bled = lam[mode] ** 2 * primary.p1.powers[mode] / (1.0 + extra[mode, mode].real)
            assert abs(clean - bled) <= 1e-9 * clean


def budget_stack(n=3, per_budget=2):
    """``per_budget`` random n x n trials per budget: the budgets and ``(h11, h12, h21, h22)``.

    The larger budgets leave some trials without a free mode.
    """
    rng = np.random.default_rng(8)
    budgets = np.repeat([1e-3, 0.3, 2.0, 40.0, 1e3], per_budget)
    chans = tuple(np.stack([complex_gaussian(n, n, rng) for _ in budgets]) for _ in range(4))
    return budgets, chans


def design_links(chans, p_max):
    """The primary design of ``chans`` and the secondary's ``(uniform, optimal)`` pair."""
    h11, h12, h21, h22 = chans
    primary = design_primary(h11, p_max)
    return primary, design_secondary(primary, h12, h21, h22, p_max)


def same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestPerTrialBudget:
    """A budget per trial gives each trial the result of its budget as a scalar, bit for bit."""

    def test_waterfill_and_primary(self):
        budgets, (h11, *_) = budget_stack()
        inverse_gains = 1.0 / np.linalg.svd(h11, compute_uv=False) ** 2
        per_trial = waterfill(inverse_gains, budgets)
        design = design_primary(h11, budgets)
        for budget in np.unique(budgets):
            rows = budgets == budget
            alone = waterfill(inverse_gains, budget)
            assert same_bytes(per_trial.powers[rows], alone.powers[rows])
            assert same_bytes(per_trial.water_level[rows], alone.water_level[rows])
            scalar = design_primary(h11, budget)
            for name in ("p1_bar", "unused_count"):
                assert same_bytes(getattr(design, name)[rows], getattr(scalar, name)[rows])
            assert same_bytes(design.p1.powers[rows], scalar.p1.powers[rows])

    @pytest.mark.parametrize("scheme", [0, 1], ids=["uniform_secondary", "optimal_secondary"])
    def test_power_schemes(self, scheme):
        """``scheme`` indexes the (uniform, optimal) pair that design_secondary returns."""
        budgets, chans = budget_stack()
        per_trial = design_links(chans, budgets)[1][scheme]
        for budget in np.unique(budgets):
            rows = budgets == budget
            scalar = design_links(chans, budget)[1][scheme]
            for name in ("v2", "p2", "rate"):
                assert same_bytes(getattr(per_trial, name)[rows], getattr(scalar, name)[rows])

    def test_stack_equals_one_at_a_time(self):
        """Mixed active patterns and budgets: each trial gets its own design, bit for bit.

        A trial without an active column sends nothing: v2 = 0 and rate 0 in both schemes.
        """
        budgets, chans = budget_stack(n=4, per_budget=6)
        primary, stacked = design_links(chans, budgets)
        active = primary.p1_bar > 0.0
        sends = active.any(axis=-1)
        assert len(np.unique(active[sends], axis=0)) >= 3 and len(np.unique(budgets[sends])) >= 3
        assert 0 < np.count_nonzero(~sends)
        for k, budget in enumerate(budgets):
            _, alone = design_links([h[k] for h in chans], budget)
            for scheme, (mixed, single) in enumerate(zip(stacked, alone)):
                for name in ("v2", "p2", "rate"):
                    assert same_bytes(getattr(mixed, name)[k], getattr(single, name)), \
                        (k, scheme, name)
        for design in stacked:
            assert np.all(design.v2[~sends] == 0.0)
            assert np.all(design.rate[~sends] == 0.0)

    @pytest.mark.parametrize("entry", ["waterfill", "design_primary", "design_secondary"])
    def test_misshaped_budget_rejected(self, entry):
        """A budget neither one value nor one per trial of the 3-stack is refused by name."""
        eye = np.broadcast_to(EYE2, (3, 2, 2))
        primary = design_primary(np.broadcast_to(np.diag([2.0, 1.0]), (3, 2, 2)), 0.5)
        call = {"waterfill": lambda p: waterfill(np.ones((3, 2)), p),
                "design_primary": lambda p: design_primary(eye, p),
                "design_secondary": lambda p: design_secondary(primary, eye, eye, eye, p)}[entry]
        name = "budget" if entry == "waterfill" else "p_max"
        for bad in ([0.01, 0.02], np.full((3, 1), 0.01)):
            with pytest.raises(InvalidInputError, match=rf"^{name} must be one value or have "
                                                        r"the stack's shape \(3,\), got shape "):
                call(bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_bad_entry_rejected(self, bad):
        budgets = np.array([1.0, bad, 2.0])
        eye = np.broadcast_to(EYE2, (3, 2, 2))
        primary = design_primary(np.broadcast_to(np.diag([2.0, 1.0]), (3, 2, 2)), 0.5)
        with pytest.raises(InvalidInputError):
            waterfill(np.ones((3, 2)), budgets)
        with pytest.raises(InvalidInputError):
            design_primary(eye, budgets)
        with pytest.raises(InvalidInputError):
            design_secondary(primary, eye, eye, eye, budgets)


class TestUndecidedSigma:
    def test_certified_matrices_read_nan(self):
        stack = np.stack([np.diag([3.0, 1.0]), np.diag([2.0, 5.0])])
        sigma = undecided_sigma(stack, [True, False])
        assert np.all(np.isnan(sigma[0]))
        assert sigma[1].tolist() == [5.0, 2.0]
        assert np.all(np.isnan(undecided_sigma(stack, [True, True])))

    def test_single_matrix(self):
        assert undecided_sigma(np.diag([1.0, 4.0]), False).tolist() == [4.0, 1.0]
        assert np.all(np.isnan(undecided_sigma(np.diag([1.0, 4.0]), True)))

    def test_matches_numpy_bitwise(self):
        rng = np.random.default_rng(3)
        stack = np.stack([complex_gaussian(5, 3, rng) for _ in range(4)])
        sigma = undecided_sigma(stack, [False, True, False, False])
        for k in (0, 2, 3):
            assert sigma[k].tobytes() == np.linalg.svd(stack[k], compute_uv=False).tobytes()

    def test_one_bad_matrix_rejects_the_stack(self):
        """A non-finite matrix left to the guard fails the call; a certified one is never read."""
        stack = np.stack([np.eye(2), np.diag([np.nan, 1.0])])
        with pytest.raises(InvalidInputError):
            undecided_sigma(stack, [False, False])
        assert undecided_sigma(stack, [False, True])[0].tolist() == [1.0, 1.0]


class TestPinvTall:
    """The tall pseudo-inverse, formed from QR factors by the precoder step ``_precoder``.

    With an all-ones complement and a column-selecting ``u1``, the unscaled
    precoder is a block of columns of ``h12^+``; ``tall_pinv`` stitches the
    blocks back into the whole pseudo-inverse.
    """

    @staticmethod
    def tall_pinv(h):
        nr, nt = h.shape
        blocks = []
        for start in range(0, nr, nt):
            u1 = np.eye(nr)[:, [(start + k) % nr for k in range(nr)]]
            blocks.append(secondary._precoder(h, u1, np.ones(nt)))
        return np.hstack(blocks)[:, :nr]

    def test_identity(self):
        assert np.allclose(self.tall_pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_all_ones_column(self):
        p = self.tall_pinv(np.array([[1.0], [1.0]]))
        assert np.allclose(p, [[0.5, 0.5]], atol=1e-14)

    def test_rejects_wide(self):
        """A wide primary has no precoder; it is refused before any channel is read."""
        primary = design_primary(np.ones((1, 2)), 1.0)
        with pytest.raises(InvalidInputError, match="nr=1 < nt=2"):
            design_secondary(primary, np.ones(3), np.ones(3), np.ones(3), 1.0)

    def test_rejects_rank_deficient(self):
        with pytest.raises(RedrawError):
            self.tall_pinv(np.ones((3, 2)))
        with pytest.raises(RedrawError):
            self.tall_pinv(np.zeros((3, 2)))


def random_unitary(n, rng):
    return design_primary(complex_gaussian(n, n, rng), 1.0).u


class TestHermitianInvSqrt:
    """The eigendecomposition root that the optimal-scheme reference ``gram_inv_sqrt`` uses."""

    def test_scalar_matrix(self):
        w = hermitian_inv_sqrt(4.0 * np.eye(2), floor=1.0)
        assert np.allclose(w, 0.5 * np.eye(2), atol=1e-14)

    def test_diagonal(self):
        w = hermitian_inv_sqrt(np.diag([1.5, 1.0]), floor=0.5)
        assert np.allclose(np.diag(w), [1.0 / math.sqrt(1.5), 1.0], atol=1e-14)
        assert abs(w[0, 0] - 0.8164965809) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_random_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        u = random_unitary(n, rng)
        spectrum = rng.uniform(0.5, 100.0, n)
        m = (u * spectrum) @ herm(u)
        w = hermitian_inv_sqrt(m, floor=0.4)
        assert np.linalg.norm(w @ m @ w - np.eye(n)) <= 1e-9 * n
        assert np.linalg.norm(w - herm(w)) <= 1e-12

    def test_eigenvalue_below_floor(self):
        with pytest.raises(NotPositiveDefiniteError):
            hermitian_inv_sqrt(np.diag([0.3, 1.0]), floor=0.5)

    def test_floor_eigenvalue_within_rounding_clamped(self):
        """An eigenvalue below the floor by less than the eigensolver's error counts as on it."""
        top, floor = 1e12, 1.0 - 1e-10
        tolerance = EIGENVALUE_SLACK * 3 * np.finfo(float).eps * top
        low = floor - 0.5 * tolerance
        assert low < floor
        u = random_unitary(3, np.random.default_rng(4))
        w = hermitian_inv_sqrt(np.diag([low, 2.0, top]), floor=floor)
        assert np.allclose(np.diag(w), 1.0 / np.sqrt([floor, 2.0, top]), rtol=1e-14, atol=0.0)
        rotated = hermitian_inv_sqrt((u * [low, low, top]) @ herm(u), floor=floor)
        assert np.all(np.isfinite(rotated))
        assert np.linalg.norm(rotated - herm(rotated)) <= 1e-12
        assert np.linalg.eigvalsh(rotated)[-1] <= 1.0 / np.sqrt(floor) * (1.0 + 1e-12)

    @pytest.mark.parametrize("low", [-1.0, 0.5])
    def test_eigenvalue_beyond_rounding_rejected(self, low):
        """A large spectrum widens the tolerance by n * eps * lambda_max only."""
        u = random_unitary(3, np.random.default_rng(5))
        m = (u * [low, 3.0, 1e12]) @ herm(u)
        with pytest.raises(NotPositiveDefiniteError):
            hermitian_inv_sqrt(m, floor=1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            hermitian_inv_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]), floor=0.1)

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(InvalidInputError):
            hermitian_inv_sqrt(np.eye(2), floor=0.0)
