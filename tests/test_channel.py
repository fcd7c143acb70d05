"""Tests for seeded channel generation: determinism, moments, independence."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oia.channel import derive_stream, draw_trials
from oia.errors import InvalidInputError

from oracles import complex_gaussian

NAMES = ("h11", "h12", "h21", "h22")


def channel_for(master, grid, trial, nr=2, nt=2):
    """One trial's four channels, drawn as a stack of one and unstacked."""
    return dict(zip(NAMES, draw_trials(nr, nt, master, grid, [trial])[0]))


class TestStreamDerivation:
    def test_identical_inputs_identical_draws(self):
        a = derive_stream(42, 0, 0).standard_normal(10)
        b = derive_stream(42, 0, 0).standard_normal(10)
        assert np.array_equal(a, b)

    def test_distinct_trials_separate_streams(self):
        a = derive_stream(42, 0, 0).standard_normal(4)
        b = derive_stream(42, 0, 1).standard_normal(4)
        c = derive_stream(42, 1, 0).standard_normal(4)
        d = derive_stream(43, 0, 0).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_negative_master_seed_rejected(self):
        # SeedSequence takes nonnegative entropy only; the CLI rejects such seeds first
        with pytest.raises(ValueError):
            derive_stream(-5, 0, 0)
        with pytest.raises(ValueError):
            draw_trials(2, 2, -5, 0, [0])

    def test_negative_indices_rejected(self):
        with pytest.raises(InvalidInputError):
            draw_trials(2, 2, 1, -1, [0])
        with pytest.raises(InvalidInputError):
            draw_trials(2, 2, 1, 0, [3, -1, 4])

    def test_scheduling_independence(self):
        seeds = [(42, 3, t) for t in range(40)]
        serial = [channel_for(*s) for s in seeds]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda s: channel_for(*s), seeds))
        shuffled_order = np.random.default_rng(0).permutation(len(seeds))
        out_of_order = [None] * len(seeds)
        for k in shuffled_order:
            out_of_order[k] = channel_for(*seeds[k])
        for a, b, c in zip(serial, parallel, out_of_order):
            for name in NAMES:
                assert np.array_equal(a[name], b[name])
                assert np.array_equal(a[name], c[name])


class TestDrawChannel:
    """Entry order and distribution of one trial's draw."""

    def test_deterministic_repeat(self):
        a = draw_trials(3, 2, 1, 0, [0])
        b = draw_trials(3, 2, 1, 0, [0])
        assert a.shape == (1, 4, 3, 2)
        assert np.array_equal(a, b)

    def test_row_major_prefix_consumption(self):
        # a smaller draw from an identical fresh stream is a prefix of a larger one
        small = draw_trials(1, 1, 9, 0, [0])
        large = draw_trials(1, 2, 9, 0, [0])
        # the 1x1 h11 and h12 are the two row-major entries of the 1x2 h11
        assert np.array_equal(large[0, 0, 0], small[0, :2, 0, 0])

    def test_moments(self):
        # 1e5 entries; bounds are ~5 sigma for unit-variance entries
        h = draw_trials(500, 200, 123, 0, [0])[0, 0].ravel()
        assert abs(h.mean()) < 0.02
        assert 0.98 <= np.mean(np.abs(h) ** 2) <= 1.02
        # circular symmetry: the unconjugated second moment vanishes
        assert abs(np.mean(h**2)) < 0.02
        # real and imaginary parts each carry half the power
        assert 0.47 <= np.mean(h.real**2) <= 0.53
        assert 0.47 <= np.mean(h.imag**2) <= 0.53

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidInputError):
            draw_trials(0, 2, 0, 0, [0])
        with pytest.raises(InvalidInputError):
            draw_trials(2, 0, 0, 0, [0])


class TestDrawChannelSet:
    def test_shapes_and_distinctness(self):
        cs = channel_for(1, 0, 0, nr=2, nt=2)
        mats = [cs[name] for name in NAMES]
        assert all(m.shape == (2, 2) for m in mats)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(mats[i], mats[j])

    def test_deterministic(self):
        a = channel_for(77, 2, 5)
        b = channel_for(77, 2, 5)
        assert all(np.array_equal(a[n], b[n]) for n in NAMES)

    def test_trial_stack_matches_per_trial_draws(self):
        trials = [0, 5, 3, 7 + 2**31]
        stack = draw_trials(3, 2, 42, 6, trials)
        assert stack.shape == (len(trials), 4, 3, 2)
        for k, trial in enumerate(trials):
            stream = derive_stream(42, 6, trial)
            for matrix in stack[k]:
                assert np.array_equal(matrix, complex_gaussian(3, 2, stream))

    def test_one_call_matches_four_matrix_draws(self):
        one_call = channel_for(8, 1, 2, nr=3, nt=2)
        stream = derive_stream(8, 1, 2)
        for name in NAMES:
            assert np.array_equal(one_call[name], complex_gaussian(3, 2, stream))

    def test_cross_channel_independence(self):
        cs = draw_trials(2, 2, 5, 0, range(10_000))
        a, b = cs[:, 0].ravel(), cs[:, 1].ravel()
        rho = abs(np.vdot(a, b)) / np.sqrt(np.vdot(a, a).real * np.vdot(b, b).real)
        assert rho < 0.05
