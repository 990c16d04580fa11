"""Unit and property tests for the statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics.stats import jain_fairness, mean, percentile, summarize_tail


def test_percentile_nearest_rank():
    data = list(range(1, 101))  # 1..100
    assert percentile(data, 50) == 50
    assert percentile(data, 95) == 95
    assert percentile(data, 99) == 99
    assert percentile(data, 100) == 100
    assert percentile(data, 1) == 1


def test_percentile_small_sample_clamps_to_max():
    assert percentile([5.0, 7.0], 99.99) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_percentile_unsorted_input():
    assert percentile([9, 1, 5], 50) == 5


def test_mean():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    with pytest.raises(ValueError):
        mean([])


def test_summarize_tail_keys():
    summary = summarize_tail([float(i) for i in range(1000)])
    assert set(summary) == {"mean", "p95", "p99", "p99.9", "p99.99"}
    assert summary["p95"] <= summary["p99"] <= summary["p99.9"] <= summary["p99.99"]


def test_jain_fairness_bounds():
    assert jain_fairness([1, 1, 1, 1]) == pytest.approx(1.0)
    assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_fairness([0, 0]) == 1.0  # degenerate all-zero case
    with pytest.raises(ValueError):
        jain_fairness([])


@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1, max_size=200))
def test_property_percentile_is_element_and_monotone(values):
    previous = None
    for p in (10, 50, 90, 99, 100):
        result = percentile(values, p)
        assert result in values
        if previous is not None:
            assert result >= previous
        previous = result


@given(st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=1, max_size=50))
def test_property_jain_in_unit_interval(rates):
    index = jain_fairness(rates)
    assert 1.0 / len(rates) - 1e-9 <= index <= 1.0 + 1e-9
