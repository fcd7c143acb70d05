"""Tests for the closed-form water-filling solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oia.errors import InvalidInputError
from oia.waterfill import sum_rate, waterfill

from oracles import allocation_rate, grid_search_rate, loop_waterfill

# Inverse gains over twelve decades, plus a few exact values so that ties
# and never-usable (+inf) modes come up often.
GAIN = st.one_of(st.floats(1e-6, 1e6), st.sampled_from([0.25, 0.5, 1.0, 2.0, math.inf]))
BUDGET = st.one_of(st.floats(1e-6, 1e6), st.sampled_from([0.5, 1.0, 3.0]))


def usable(gains):
    return any(math.isfinite(g) for g in gains)


@st.composite
def gain_stacks(draw):
    n = draw(st.integers(1, 8))
    row = st.lists(GAIN, min_size=n, max_size=n).filter(usable)
    return np.array(draw(st.lists(row, min_size=1, max_size=6)))


def assert_matches_loop(alloc, gains, budget):
    powers, level, active = loop_waterfill(gains, budget)
    assert alloc.powers.tobytes() == powers.tobytes()
    assert np.float64(alloc.water_level).tobytes() == np.float64(level).tobytes()
    assert np.count_nonzero(alloc.powers > 0) == active


def random_problem(rng):
    n = int(rng.integers(1, 5))
    ig = np.exp(rng.normal(0.0, 1.2, n))
    budget = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
    return ig, budget


class TestAnalyticCases:
    def test_two_modes_both_active(self):
        alloc = waterfill([0.25, 1.0], 1.0)
        assert np.allclose(alloc.powers, [0.875, 0.125], atol=1e-15)
        assert abs(alloc.water_level - 1.125) < 1e-15
        assert np.count_nonzero(alloc.powers > 0) == 2

    def test_two_modes_one_drops(self):
        alloc = waterfill([0.25, 1.0], 0.5)
        assert np.allclose(alloc.powers, [0.5, 0.0], atol=1e-15)
        assert alloc.powers[1] == 0.0
        assert abs(alloc.water_level - 0.75) < 1e-15
        assert np.count_nonzero(alloc.powers > 0) == 1

    def test_symmetric_modes_split_evenly(self):
        alloc = waterfill([1.0, 1.0, 1.0], 3.0)
        assert np.allclose(alloc.powers, [1.0, 1.0, 1.0])
        assert abs(alloc.water_level - 2.0) < 1e-15

    def test_infinite_gain_excluded(self):
        alloc = waterfill([0.5, np.inf], 1.0)
        assert alloc.powers[1] == 0.0
        assert abs(alloc.powers[0] - 1.0) < 1e-15
        assert np.count_nonzero(alloc.powers > 0) == 1

    def test_unsorted_input_keeps_mode_order(self):
        alloc = waterfill([1.0, 0.25], 1.0)
        assert np.allclose(alloc.powers, [0.125, 0.875], atol=1e-15)

    @pytest.mark.parametrize("budget", [1e-300, 1e-200, 1e-100, 1e-16, 1e-15, 1e-12])
    def test_budget_far_below_level_met_exactly(self, budget):
        """The level 1 + budget rounds to 1, yet the strongest mode gets the whole budget."""
        alloc = waterfill([1.0, 2.0], budget)
        assert alloc.powers.sum() == budget
        assert np.count_nonzero(alloc.powers > 0) == 1


class TestSumRate:
    """``sum_rate``, the log-det rate of a diagonalized channel."""

    def test_zero_gains(self):
        assert sum_rate(np.zeros(3), 1.0) == 0.0

    def test_diagonal_analytic(self):
        got = sum_rate(np.array([3.5, 0.125]), 1.0)
        assert abs(got - (math.log2(4.5) + math.log2(1.125))) < 1e-12
        assert abs(got - 2.33985) < 1e-5

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_identity(self, n):
        assert abs(sum_rate(np.ones(n), 1.0) - n) < 1e-12

    def test_monotone_in_gains(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            gains, extra, powers = rng.exponential(size=(3, n))
            assert sum_rate(gains + extra, powers) >= sum_rate(gains, powers)

    def test_stack_gives_one_rate_per_row(self):
        gains = np.array([[3.5, 0.125], [1.0, 1.0]])
        rates = sum_rate(gains, 2.0)
        assert rates.shape == (2,)
        assert abs(rates[1] - 2.0 * math.log2(3.0)) < 1e-12


class TestClosedFormMatchesLoop:
    """The closed form computes the loop's own levels and stopping rule, bit for bit."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.lists(GAIN, min_size=1, max_size=8).filter(usable), BUDGET)
    def test_one_vector(self, gains, budget):
        assert_matches_loop(waterfill(gains, budget), gains, budget)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(gain_stacks(), BUDGET)
    def test_stack(self, stack, budget):
        alloc = waterfill(stack, budget)
        assert alloc.powers.shape == stack.shape
        for row, gains in enumerate(stack):
            one = type(alloc)(alloc.powers[row], alloc.water_level[row])
            assert_matches_loop(one, gains, budget)


class TestValidation:
    def test_empty_gains(self):
        with pytest.raises(InvalidInputError):
            waterfill([], 1.0)

    @pytest.mark.parametrize("budget", [0.0, -1.0, np.inf, np.nan])
    def test_bad_budget(self, budget):
        with pytest.raises(InvalidInputError):
            waterfill([1.0], budget)

    def test_all_infinite_gains(self):
        with pytest.raises(InvalidInputError):
            waterfill([np.inf, np.inf], 1.0)
        with pytest.raises(InvalidInputError):
            waterfill([[1.0, np.inf], [np.inf, np.inf]], 1.0)

    @pytest.mark.parametrize("gains", [[0.0, 1.0], [-1.0], [np.nan]])
    def test_bad_gains(self, gains):
        with pytest.raises(InvalidInputError):
            waterfill(gains, 1.0)


class TestKktProperties:
    def test_budget_conservation_and_slackness(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            ig, budget = random_problem(rng)
            alloc = waterfill(ig, budget)
            assert abs(alloc.powers.sum() - budget) <= 1e-9 * budget
            level = alloc.water_level
            for power, gain in zip(alloc.powers, ig):
                if power > 0:
                    assert abs(power - (level - gain)) <= 1e-9 * level
                else:
                    assert power == 0.0
                    assert gain >= level - 1e-9 * level

    def test_active_count_monotone_in_budget(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ig = np.exp(rng.normal(0.0, 1.0, 4))
            counts = [np.count_nonzero(waterfill(ig, b).powers > 0)
                      for b in np.logspace(-3, 3, 25)]
            assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            ig, budget = random_problem(rng)
            alloc = waterfill(ig, budget)
            fast = allocation_rate(alloc.powers, ig)
            reference = grid_search_rate(ig, budget)
            assert abs(fast - reference) <= 1e-4
