"""Tests for seeded channel generation: determinism, moments, independence."""

import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oia
from oia.channel import draw_trials
from oia.errors import InvalidInputError
from oia.experiments import REPLACEMENT_BASE

from oracles import complex_gaussian, derive_stream

NAMES = ("h11", "h12", "h21", "h22")
# One- and two-word entropy edges of SeedSequence, and redraw indices (some
# past 2^32, where a trial index takes two words).
EDGES = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**33, 2**64 - 1])
REPLACEMENTS = st.builds(lambda t, k: t + k * REPLACEMENT_BASE,
                         st.integers(0, 2**20), st.integers(1, 100))


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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    # One stack of 4-, 5- and 6-word entropies: words past the pool are mixed
    # into the trials that have them only.
    @example(master=2**32 + 5, draws=[(0, 0), (2**33, 0), (0, 2**40), (2**33, 2**40)],
             per_trial=True, shape=(2, 2))
    @given(master=st.one_of(EDGES, st.integers(0, 2**64 - 1)),
           draws=st.lists(st.tuples(st.one_of(EDGES, st.integers(0, 2**40)),
                                    st.one_of(EDGES, REPLACEMENTS, st.integers(0, 2**33))),
                          min_size=1, max_size=5),
           per_trial=st.booleans(),
           shape=st.sampled_from([(1, 1), (2, 3), (3, 3)]))
    def test_stack_matches_seedsequence_streams(self, master, draws, per_trial, shape):
        """The whole-stack seeding gives each trial numpy's own SeedSequence/PCG64 stream.

        The grid index is one for the stack or one per trial, so one- and
        two-word grid indices mix with one- and two-word trial indices.
        """
        nr, nt = shape
        if not per_trial:
            draws = [(draws[0][0], trial) for _, trial in draws]
        grids, trials = (list(column) for column in zip(*draws))
        expected = np.empty((len(trials), 4, nr, nt, 2))
        for row, grid, trial in zip(expected, grids, trials):
            derive_stream(master, grid, trial).standard_normal(out=row)
        expected = expected.view(np.complex128)[..., 0] / np.sqrt(2.0)
        stacked = draw_trials(nr, nt, master, grids if per_trial else grids[0], trials)
        assert np.array_equal(stacked, expected)

    def test_start_up_leaves_numpy_random_unloaded(self):
        """Importing the CLI and building its parser leave numpy.random to the first draw."""
        src = str(Path(oia.__file__).resolve().parents[1])
        script = ("import sys\n"
                  "import oia.cli\n"
                  "oia.cli.build_parser()\n"
                  "print('numpy.random' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True,
                              text=True, timeout=120, env={"PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_negative_master_seed_rejected(self):
        # SeedSequence takes nonnegative entropy only; the CLI rejects such seeds first
        with pytest.raises(ValueError):
            derive_stream(-5, 0, 0)
        with pytest.raises(ValueError):
            draw_trials(2, 2, -5, 0, [0])

    @pytest.mark.parametrize("seed", [1.5, True, 2**64, -1, [1, 2]],
                             ids=["float", "bool", "2^64", "negative", "list"])
    def test_master_seed_refused_by_name(self, seed):
        with pytest.raises(InvalidInputError, match="^master_seed "):
            draw_trials(2, 2, seed, 0, [0, 1])

    @pytest.mark.parametrize("grid", [[0, 1, 2], [[0]], np.zeros((2, 1), dtype=int)],
                             ids=["too-long", "nested", "column"])
    def test_grid_index_of_wrong_shape_refused_by_name(self, grid):
        """The grid index is one index or one per trial, not anything numpy broadcasts."""
        with pytest.raises(InvalidInputError, match="^grid_index must be one index or one per trial"):
            draw_trials(2, 2, 1, grid, [0, 1])

    def test_negative_indices_rejected(self):
        with pytest.raises(InvalidInputError):
            draw_trials(2, 2, 1, -1, [0])
        with pytest.raises(InvalidInputError):
            draw_trials(2, 2, 1, 0, [3, -1, 4])
        with pytest.raises(InvalidInputError):
            draw_trials(2, 2, 1, [0, -1], [3, 4])

    def test_indices_past_64_bits_rejected(self):
        with pytest.raises(InvalidInputError):
            draw_trials(2, 2, 1, 2**64, [0])
        with pytest.raises(InvalidInputError):
            draw_trials(2, 2, 1, [0, 2**64], [3, 4])
        with pytest.raises(InvalidInputError):
            draw_trials(2, 2, 1, 0, [2**64 - 1, 2**64])

    @pytest.mark.parametrize("grid,trials", [(0, [0.5]), (0.5, [0]), (0, np.array([0.5]))],
                             ids=["float-list", "float-grid-scalar", "float-array"])
    def test_float_indices_rejected(self, grid, trials):
        """A float index is refused, not truncated to the stream of its integer part."""
        with pytest.raises(InvalidInputError, match="integers"):
            draw_trials(2, 2, 1, grid, trials)

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
        # Stacks drawn from 8 threads at once, each mixing one- and two-word
        # trial indices, equal the same stacks drawn serially.
        stacks = [(7 + k, k, [k, 2**32 + k, 5 * k + 1, 2**40 + k, 2**31 + k] * 40)
                  for k in range(16)]
        serial = [draw_trials(3, 2, *stack) for stack in stacks]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda stack: draw_trials(3, 2, *stack), stacks))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)


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

    @pytest.mark.parametrize("nr,nt,name", [
        (2.5, 2, "nr"), (True, 2, "nr"), ("3", 2, "nr"), (2, np.float64(2.0), "nt"),
        (2, None, "nt"), (2, False, "nt")])
    def test_rejects_non_integer_antenna_counts_by_name(self, nr, nt, name):
        """By ``ExperimentGrid``'s rule: an int or numpy integer, and not a bool."""
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer, got "):
            draw_trials(nr, nt, 0, 0, [0])


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
