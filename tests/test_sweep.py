from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefetchlab.predictors import PredictorConfig, train
from prefetchlab.engine import run_test_engine
from prefetchlab.sweep import (
    DEFAULT_WINDOW_SIZES,
    SlidingWindowSpec,
    build_sweep_result,
    cutoff_scan,
    enumerate_windows,
    run_sweep,
    sweep_user,
)
from prefetchlab.traces import UserTrace


def _trace(user_id, urls):
    return UserTrace.build(user_id, list(range(len(urls))), urls)


def _urls(n, distinct=4):
    return [f"https://site.example/p{i % distinct}" for i in range(n)]


# ---------------------------------------------------------------- enumerate_windows

def test_enumerate_windows_examples():
    assert enumerate_windows(10, 5, 1) == [(i, i + 5) for i in range(6)]
    assert enumerate_windows(4, 5, 1) == []
    assert enumerate_windows(10, 5, 5) == [(0, 5), (5, 10)]


def test_enumerate_windows_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        enumerate_windows(10, 1, 1)
    with pytest.raises(ValueError):
        enumerate_windows(10, 5, 0)


@given(st.integers(0, 200), st.integers(2, 50), st.integers(1, 50))
def test_enumerate_windows_count_formula(n, x, y):
    windows = enumerate_windows(n, x, y)
    expected = (n - x) // y + 1 if n >= x else 0
    assert len(windows) == expected
    assert all(end - start == x and 0 <= start and end <= n for start, end in windows)


@given(st.integers(2, 100), st.integers(2, 20))
def test_adjacent_windows_cover_when_distance_within_size(n, x):
    # with y <= x consecutive windows overlap or abut: no request between
    # the first and last window is skipped
    y = max(1, x // 2)
    windows = enumerate_windows(n, x, y)
    for (s1, e1), (s2, _) in zip(windows, windows[1:]):
        assert s2 <= e1


# ---------------------------------------------------------------- spec validation

def test_sliding_window_spec_validation():
    with pytest.raises(ValueError):
        SlidingWindowSpec(window_sizes=())
    with pytest.raises(ValueError):
        SlidingWindowSpec(window_sizes=(1,))
    with pytest.raises(ValueError):
        SlidingWindowSpec(window_sizes=(2,), training_ratio=0.3)  # floor(0.6) == 0
    with pytest.raises(ValueError):
        SlidingWindowSpec(training_ratio=1.0)
    with pytest.raises(ValueError):
        SlidingWindowSpec(sliding_distance=0)
    with pytest.raises(ValueError):
        SlidingWindowSpec(sliding_distance=2.5)


def test_spec_training_length_and_distance():
    spec = SlidingWindowSpec(window_sizes=(5, 10), training_ratio=0.8)
    assert spec.training_length(5) == 4
    assert spec.training_length(10) == 8
    assert spec.distance_for(5) == 1   # auto = test-slice length
    assert spec.distance_for(10) == 2
    fixed = SlidingWindowSpec(window_sizes=(5,), sliding_distance=3)
    assert fixed.distance_for(5) == 3


def test_default_sizes_run_50_to_1000():
    assert DEFAULT_WINDOW_SIZES[0] == 50
    assert DEFAULT_WINDOW_SIZES[-1] == 1000
    assert len(DEFAULT_WINDOW_SIZES) == 11


# ---------------------------------------------------------------- sweep_user

def test_sweep_user_emits_one_record_per_window():
    trace = _trace("u1", _urls(10))
    spec = SlidingWindowSpec(window_sizes=(5,))
    config = PredictorConfig(algorithm="naive")
    result = sweep_user(trace, config, spec)
    assert len(result.records) == 6
    assert [r.window_index for r in result.records] == list(range(6))
    assert all(r.window_size == 5 and r.user_id == "u1" for r in result.records)
    assert result.skipped_sizes == ()


def test_sweep_user_records_match_fresh_per_window_models():
    trace = _trace("u1", _urls(12, distinct=3))
    spec = SlidingWindowSpec(window_sizes=(5,))
    config = PredictorConfig(algorithm="dg")
    result = sweep_user(trace, config, spec)
    keys = trace.url_keys
    record = result.records[2]
    start, cut = 2, spec.training_length(5)
    training, test = keys[start:start + cut], keys[start + cut:start + 5]
    model = train(config, training)
    expected = run_test_engine(model, test, training[-1:], 1)
    assert record.outcome == expected


@pytest.mark.parametrize("algorithm", ["dg", "ppm", "mp", "naive"])
def test_auto_distance_records_equal_fresh_training_at_that_distance(algorithm):
    # "auto" slides one model per size; an explicit distance trains every
    # window afresh, so at the same distance it is the slid path's oracle
    trace = _trace("u1", [f"https://site.example/p{(i * i + i // 3) % 7}" for i in range(60)])
    config = PredictorConfig(algorithm=algorithm, lookahead_window=3, ppm_order=3)
    auto = SlidingWindowSpec(window_sizes=(3, 5, 12, 40), training_ratio=0.7)
    slid = sweep_user(trace, config, auto)
    assert slid.records
    for size in auto.window_sizes:
        fixed = SlidingWindowSpec(window_sizes=(size,), training_ratio=0.7,
                                  sliding_distance=auto.distance_for(size))
        fresh = sweep_user(trace, config, fixed)
        got = [(r.window_index, r.outcome, r.metrics)
               for r in slid.records if r.window_size == size]
        assert got == [(r.window_index, r.outcome, r.metrics) for r in fresh.records]


def test_sweep_user_skips_sizes_longer_than_trace():
    trace = _trace("u1", _urls(6))
    spec = SlidingWindowSpec(window_sizes=(5, 50))
    result = sweep_user(trace, PredictorConfig(algorithm="naive"), spec)
    assert result.skipped_sizes == (50,)
    assert {r.window_size for r in result.records} == {5}


def test_constant_trace_gets_perfect_dynamic_recall():
    trace = _trace("u1", ["https://a.example/only"] * 20)
    spec = SlidingWindowSpec(window_sizes=(5, 10))
    result = sweep_user(trace, PredictorConfig(algorithm="naive"), spec)
    assert result.records
    assert all(r.metrics.dynamic_recall == 1.0 for r in result.records)


# ---------------------------------------------------------------- aggregation

def test_build_sweep_result_is_user_order_invariant():
    spec = SlidingWindowSpec(window_sizes=(5,))
    config = PredictorConfig(algorithm="dg")
    sweeps = [sweep_user(_trace(f"u{i}", _urls(10 + i, distinct=3)), config, spec)
              for i in range(3)]
    forward = build_sweep_result("dg", sweeps, spec)
    backward = build_sweep_result("dg", list(reversed(sweeps)), spec)
    assert forward.records == backward.records
    assert forward.means == backward.means
    assert forward.model_count == backward.model_count


def test_sweep_result_records_sorted_and_counted():
    traces = {u: _trace(u, _urls(11)) for u in ("u2", "u1")}
    spec = SlidingWindowSpec(window_sizes=(10, 5))
    result = run_sweep(traces, PredictorConfig(algorithm="naive"), spec)
    keys = [r.sort_key() for r in result.records]
    assert keys == sorted(keys)
    assert result.model_count == len(result.records)
    # size 5: 7 windows per trace; size 10: 1 window per trace
    assert result.model_count == 2 * (7 + 1)
    assert result.skipped == {10: 0, 5: 0}


def test_skipped_users_tallied_per_size():
    traces = {"short": _trace("short", _urls(4)), "long": _trace("long", _urls(12))}
    spec = SlidingWindowSpec(window_sizes=(5, 12))
    result = run_sweep(traces, PredictorConfig(algorithm="naive"), spec)
    assert result.skipped == {5: 1, 12: 1}
    sizes_present = {r.window_size for r in result.records}
    assert sizes_present == {5, 12}


def test_means_keyed_by_size_with_counts():
    traces = {"u1": _trace("u1", _urls(10))}
    spec = SlidingWindowSpec(window_sizes=(5, 40))
    result = run_sweep(traces, PredictorConfig(algorithm="naive"), spec)
    five = result.means[5]["dynamic_recall"]
    assert five["count"] + five["excluded"] == 6
    empty = result.means[40]["dynamic_recall"]
    assert empty == {"mean": None, "count": 0, "excluded": 0}


# ---------------------------------------------------------------- cutoff_scan

def test_cutoff_scan_rising_then_flat():
    means = {50: 0.2, 100: 0.3, 200: 0.4, 300: 0.4, 400: 0.4}
    assert cutoff_scan(means, epsilon=0.01) == (200, "positive")


def test_cutoff_scan_decreasing_never_settles():
    assert cutoff_scan({50: 0.5, 100: 0.4, 200: 0.3}, epsilon=0.01) == (200, "negative")


def test_cutoff_scan_flat_series():
    assert cutoff_scan({50: 0.3, 100: 0.3, 200: 0.3}, epsilon=0.01) == (50, "flat")


def test_cutoff_scan_drops_undefined_means():
    means = {50: 0.2, 100: None, 200: 0.21}
    assert cutoff_scan(means, epsilon=0.05) == (50, "flat")


def test_cutoff_scan_needs_two_defined_points():
    with pytest.raises(ValueError):
        cutoff_scan({50: None, 100: 0.2})
    with pytest.raises(ValueError):
        cutoff_scan({50: 0.2})


def test_cutoff_scan_accepts_pair_iterable():
    assert cutoff_scan([(100, 0.3), (50, 0.2), (200, 0.4)], epsilon=0.5) == (50, "flat")


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=8),
       st.floats(0.001, 0.2))
def test_cutoff_scan_cutoff_is_a_scanned_size(values, epsilon):
    means = {50 * (i + 1): v for i, v in enumerate(values)}
    cutoff, trend = cutoff_scan(means, epsilon=epsilon)
    assert cutoff in means
    assert trend in ("positive", "negative", "flat")
    # every delta past the cutoff stays within epsilon
    sizes = sorted(means)
    idx = sizes.index(cutoff)
    tail = [means[s] for s in sizes[idx:]]
    assert all(abs(b - a) <= epsilon for a, b in zip(tail, tail[1:]))
