"""Tests for the statistics helpers, cross-checked against numpy."""

import math

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.stats import (
    ccdf,
    ccdf_at_fractions,
    ccdf_fraction_above,
    five_number,
    mean_stderr,
    quantile,
)

from tests.conftest import examples

floats = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


def test_quantile_matches_numpy():
    samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    for q in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
        assert quantile(samples, q) == pytest.approx(
            float(numpy.quantile(samples, q)))


def test_quantile_single_sample():
    assert quantile([7.0], 0.5) == 7.0


def test_quantile_validates_inputs():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


def test_five_number_summary():
    samples = list(range(1, 101))
    summary = five_number([float(v) for v in samples])
    assert summary.minimum == 1.0
    assert summary.maximum == 100.0
    assert summary.median == pytest.approx(50.5)
    assert summary.q1 == pytest.approx(numpy.quantile(samples, 0.25))
    assert summary.q3 == pytest.approx(numpy.quantile(samples, 0.75))
    assert summary.count == 100


def test_mean_stderr_matches_numpy():
    samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    mean, stderr = mean_stderr(samples)
    assert mean == pytest.approx(float(numpy.mean(samples)))
    assert stderr == pytest.approx(
        float(numpy.std(samples, ddof=1)) / math.sqrt(len(samples)))


def test_mean_stderr_single_sample():
    assert mean_stderr([3.0]) == (3.0, 0.0)


def test_mean_stderr_empty_rejected():
    with pytest.raises(ValueError):
        mean_stderr([])


def test_ccdf_points():
    points = ccdf([1.0, 1.0, 2.0, 3.0])
    assert points == [(1.0, 0.5), (2.0, 0.25), (3.0, 0.0)]


def test_ccdf_empty():
    assert ccdf([]) == []


def test_ccdf_fraction_above():
    samples = [0.1, 0.2, 0.3, 0.4]
    assert ccdf_fraction_above(samples, 0.25) == 0.5
    assert ccdf_fraction_above(samples, 1.0) == 0.0
    assert ccdf_fraction_above([], 0.5) == 0.0


def test_ccdf_at_fractions_inverse_view():
    samples = [float(v) for v in range(1, 101)]
    pairs = ccdf_at_fractions(samples, [0.5, 0.1])
    assert pairs[0][1] == pytest.approx(quantile(samples, 0.5))
    assert pairs[1][1] == pytest.approx(quantile(samples, 0.9))


def test_ccdf_at_fractions_empty_gives_nan():
    pairs = ccdf_at_fractions([], [0.5])
    assert math.isnan(pairs[0][1])


def test_jain_fairness_values():
    from repro.experiments.stats import jain_fairness
    assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    assert jain_fairness([10.0, 0.0]) == pytest.approx(0.5)
    assert jain_fairness([1.0]) == pytest.approx(1.0)
    assert jain_fairness([0.0, 0.0]) == 1.0
    # Mild imbalance stays near 1.
    assert 0.9 < jain_fairness([4.0, 6.0]) < 1.0


def test_jain_fairness_validates():
    from repro.experiments.stats import jain_fairness
    with pytest.raises(ValueError):
        jain_fairness([])
    with pytest.raises(ValueError):
        jain_fairness([-1.0, 2.0])


def test_confidence_interval_contains_mean():
    from repro.experiments.stats import confidence_interval_95
    samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    low, high = confidence_interval_95(samples)
    mean, _ = mean_stderr(samples)
    assert low < mean < high
    # Known value: mean 5.0, sd 2.138, stderr 0.7559, t(7)=2.365.
    assert low == pytest.approx(5.0 - 2.365 * 0.7559, rel=1e-3)


def test_confidence_interval_narrows_with_samples():
    from repro.experiments.stats import confidence_interval_95
    narrow = confidence_interval_95([1.0, 2.0] * 15)
    wide = confidence_interval_95([1.0, 2.0])
    assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])


def test_confidence_interval_needs_two_samples():
    from repro.experiments.stats import confidence_interval_95
    with pytest.raises(ValueError):
        confidence_interval_95([1.0])


@settings(max_examples=examples(100))
@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
def test_property_jain_bounds(allocations):
    from repro.experiments.stats import jain_fairness
    value = jain_fairness(allocations)
    assert 1.0 / len(allocations) - 1e-9 <= value <= 1.0 + 1e-9


@settings(max_examples=examples(100))
@given(st.lists(floats, min_size=1, max_size=100))
def test_property_five_number_is_ordered(samples):
    summary = five_number(samples)
    assert (summary.minimum <= summary.q1 <= summary.median
            <= summary.q3 <= summary.maximum)


@settings(max_examples=examples(100))
@given(st.lists(floats, min_size=2, max_size=100))
def test_property_mean_within_range(samples):
    mean, stderr = mean_stderr(samples)
    assert min(samples) - 1e-9 <= mean <= max(samples) + 1e-9
    assert stderr >= 0.0


@settings(max_examples=examples(100))
@given(st.lists(floats, min_size=1, max_size=60))
def test_property_ccdf_is_monotone_decreasing(samples):
    points = ccdf(samples)
    fractions = [fraction for _, fraction in points]
    assert fractions == sorted(fractions, reverse=True)
    assert points[-1][1] == 0.0
    values = [value for value, _ in points]
    assert values == sorted(values)


@settings(max_examples=examples(60))
@given(st.lists(floats, min_size=1, max_size=60),
       st.floats(min_value=0.0, max_value=1.0))
def test_property_quantile_brackets_samples(samples, q):
    value = quantile(samples, q)
    assert min(samples) - 1e-9 <= value <= max(samples) + 1e-9
