"""Discounting analyses and series metrics: NPV, TTT, PIV, histograms."""

import functools
import math
import operator
import random

import pytest

from culturesim.analysis import (
    HIST_BINS,
    RunSeries,
    average_series,
    discount_rate,
    is_censored,
    npv,
    p_create_histogram,
    piv,
    segregation_stats,
    sum_floats,
    summarize_cell,
    time_to_threshold,
)


def left_to_right(values):
    return functools.reduce(operator.add, values, 0)


def test_float_means_sum_left_to_right():
    # Each input sums differently with compensation (math.fsum, and the
    # built-in sum from Python 3.12), so a compensated mean fails here.
    big = [1e16, 1.0, -1e16]
    logs = [math.log10(t) for t in (2, 4, 7)]
    hists = [
        (1, 4, 0, 0, 0, 0, 0, 0, 0, 2),
        (4, 6, 0, 0, 0, 0, 0, 0, 0, 1),
        (4, 5, 0, 0, 0, 0, 0, 0, 0, 2),
    ]
    fracs = list(zip(*(segregation_stats(h) for h in hists)))
    for values in (big, logs, *fracs):
        assert left_to_right(values) != math.fsum(values)
        assert sum_floats(values) == left_to_right(values)

    assert npv(big, 1.0) == left_to_right(big)
    cell = summarize_cell(0.5, 0.5, [2, 4, 7], big, horizon=10)
    assert cell.mean_ttt_log10 == left_to_right(logs) / 3
    assert cell.mean_piv == left_to_right(big) / 3
    runs = [RunSeries([f], [1], [h]) for f, h in zip(big, hists)]
    avg = average_series(runs)
    assert avg["mean_fitness"] == [left_to_right(big) / 3]
    low, high, mid = fracs
    assert avg["frac_low"] == [left_to_right(low) / 3]
    assert avg["frac_mid"] == [left_to_right(mid) / 3]
    assert avg["frac_high"] == [left_to_right(high) / 3]


def test_npv_discounts_geometrically():
    assert npv([1.0, 1.0, 1.0], 0.5) == pytest.approx(1 + 0.5 + 0.25)
    assert npv([10.0], 0.9) == 10.0
    # r = 1 is the undiscounted sum.
    assert npv([1.0, 2.0, 3.0], 1.0) == 6.0


def test_npv_rejects_bad_rates():
    with pytest.raises(ValueError):
        npv([1.0], 0.0)
    with pytest.raises(ValueError):
        npv([1.0], 1.5)


def test_discount_rate_from_interest_percent():
    assert discount_rate(0.0) == 1.0
    assert discount_rate(100.0) == pytest.approx(0.5)
    assert discount_rate(5.0) == pytest.approx(100.0 / 105.0)


def test_time_to_threshold_is_one_based():
    assert time_to_threshold([1.0, 5.0, 9.0], 5.0) == 2
    assert time_to_threshold([9.0], 5.0) == 1


def test_time_to_threshold_censored_sentinel():
    series = [1.0, 2.0, 3.0]
    ttt = time_to_threshold(series, 99.0)
    assert ttt == 4
    assert is_censored(ttt, horizon=3)
    assert not is_censored(3, horizon=3)


def test_piv_of_baseline_against_itself_is_zero():
    series = [3.0, 4.0, 5.0]
    assert piv(series, series) == pytest.approx(0.0)


def test_piv_skips_zero_baseline_iterations():
    series = [7.0, 2.0, 4.0]
    baseline = [0.0, 1.0, 2.0]
    # Only the last two iterations count: 2/1 + 4/2 - 2 = 2.
    assert piv(series, baseline) == pytest.approx(2.0)


def test_piv_requires_matching_horizons():
    with pytest.raises(ValueError):
        piv([1.0], [1.0, 2.0])


def test_histogram_top_bin_includes_one():
    hist = p_create_histogram([0.0, 0.05, 0.95, 1.0, 0.5])
    assert len(hist) == 10
    assert hist[0] == 2
    assert hist[9] == 2
    assert hist[5] == 1
    assert sum(hist) == 5


def reference_histogram(values):
    """p_create_histogram before its bin lost the ``min`` call, verbatim."""
    counts = [0] * HIST_BINS
    for v in values:
        idx = min(int(v * HIST_BINS), HIST_BINS - 1)
        counts[idx] += 1
    return tuple(counts)


def test_histogram_matches_the_min_form_out_of_range_too():
    rng = random.Random(79)
    values = [rng.random() for _ in range(2000)] + [
        0.0, -0.0, 5e-324, 0.1, 0.9, math.nextafter(1.0, 0.0), 1.0, 1.5, 1e300,
        -0.05, -0.35, -1.0,
    ]
    assert p_create_histogram(values) == reference_histogram(values)
    for bad in (-2.0, -1e300, math.nan, math.inf, -math.inf):
        with pytest.raises(Exception) as got:
            p_create_histogram([0.5, bad])
        with pytest.raises(Exception) as want:
            reference_histogram([0.5, bad])
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def test_segregation_stats():
    hist = (60, 0, 0, 0, 5, 5, 0, 0, 0, 30)
    lo, hi, mid = segregation_stats(hist)
    assert lo == pytest.approx(0.60)
    assert hi == pytest.approx(0.30)
    assert mid == pytest.approx(0.10)
    with pytest.raises(ValueError):
        segregation_stats((0,) * 10)


def test_summarize_cell_excludes_censored_from_log_mean():
    horizon = 100
    ttts = [10, 100, 101]  # the 101 is censored
    cell = summarize_cell(0.4, 1.0, ttts, [1.0, 2.0, 3.0], horizon)
    assert cell.censored_count == 1
    assert cell.mean_ttt_log10 == pytest.approx(
        (math.log10(10) + math.log10(100)) / 2
    )
    assert cell.mean_piv == pytest.approx(2.0)


def test_summarize_cell_all_censored_is_nan():
    cell = summarize_cell(0.2, 0.2, [101, 101], [0.0, 0.0], horizon=100)
    assert math.isnan(cell.mean_ttt_log10)
    assert cell.censored_count == 2


def mk_series(fit, div, hist=None):
    if hist is None:
        hist = [(0,) * 9 + (4,)] * len(fit)
    return RunSeries(
        mean_fitness=list(fit),
        diversity=list(div),
        p_create_hist=list(hist),
    )


def test_average_series_is_per_iteration_mean():
    runs = [
        mk_series([1.0, 3.0], [1, 3]),
        mk_series([3.0, 5.0], [3, 5]),
    ]
    avg = average_series(runs)
    assert avg["mean_fitness"] == [2.0, 4.0]
    assert avg["diversity"] == [2.0, 4.0]
    assert avg["frac_high"] == [1.0, 1.0]
    assert avg["frac_low"] == [0.0, 0.0]


def test_average_series_rejects_mixed_horizons():
    with pytest.raises(ValueError):
        average_series([mk_series([1.0], [1]), mk_series([1.0, 2.0], [1, 2])])
    with pytest.raises(ValueError):
        average_series([])
