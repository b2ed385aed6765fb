from __future__ import annotations

import collections
import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prefetchlab import cli, sweep
from prefetchlab.predictors import ALGORITHMS, PredictorConfig, train
from prefetchlab.engine import run_test_engine
from prefetchlab.metrics import metrics_report
from prefetchlab.sweep import (
    DEFAULT_WINDOW_SIZES,
    SlidingWindowSpec,
    build_sweep_result,
    cutoff_scan,
    enumerate_windows,
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


def test_sliding_window_spec_rejects_a_repeated_size():
    # a repeated size would run its windows twice and double its means' count
    with pytest.raises(ValueError, match="window size 50 is given twice"):
        SlidingWindowSpec(window_sizes=(50, 100, 50))


def test_spec_training_length_and_distance():
    spec = SlidingWindowSpec(window_sizes=(5, 10), training_ratio=0.8)
    assert spec.training_length(5) == 4
    assert spec.training_length(10) == 8
    # windows slide by the test-slice length: 1 for size 5, 2 for size 10
    records = sweep_user(_trace("u1", _urls(14)), [PredictorConfig(algorithm="naive")], spec)[0]
    assert [(r.window_size, r.window_index) for r in records] == (
        [(5, i) for i in range(10)] + [(10, i) for i in range(3)])


def test_default_sizes_run_50_to_1000():
    assert DEFAULT_WINDOW_SIZES[0] == 50
    assert DEFAULT_WINDOW_SIZES[-1] == 1000
    assert len(DEFAULT_WINDOW_SIZES) == 11


# ---------------------------------------------------------------- sweep_user

def test_sweep_user_emits_one_record_per_window():
    trace = _trace("u1", _urls(10))
    spec = SlidingWindowSpec(window_sizes=(5,))
    config = PredictorConfig(algorithm="naive")
    records = sweep_user(trace, [config], spec)[0]
    assert len(records) == 6
    assert [r.window_index for r in records] == list(range(6))
    assert all(r.window_size == 5 and r.metrics.user_id == "u1" for r in records)
    assert build_sweep_result([records], spec).skipped == {5: 0}


def test_sweep_user_records_match_fresh_per_window_models():
    trace = _trace("u1", _urls(12, distinct=3))
    spec = SlidingWindowSpec(window_sizes=(5,))
    config = PredictorConfig(algorithm="dg")
    records = sweep_user(trace, [config], spec)[0]
    keys = trace.url_keys
    record = records[2]
    start, cut = 2, spec.training_length(5)
    training, test = keys[start:start + cut], keys[start + cut:start + 5]
    model = train(config, training)
    expected = run_test_engine(model, test, training[-1:], 1)
    assert record.metrics == metrics_report("u1", "dg", expected)


@pytest.mark.parametrize("algorithm", ["dg", "ppm", "mp", "naive"])
def test_auto_distance_records_equal_fresh_training_at_that_distance(algorithm):
    # sweep_user slides one model per size; the reference trains a model
    # afresh on every window, stepping by the test-slice length
    trace = _trace("u1", [f"https://site.example/p{(i * i + i // 3) % 7}" for i in range(60)])
    keys = trace.url_keys
    config = PredictorConfig(algorithm=algorithm, lookahead_window=3, ppm_order=3)
    depth = 3 if algorithm == "ppm" else 1
    spec = SlidingWindowSpec(window_sizes=(3, 5, 12, 40), training_ratio=0.7)
    slid = sweep_user(trace, [config], spec)[0]
    for size in spec.window_sizes:
        cut = math.floor(0.7 * size)
        fresh = []
        for index, start in enumerate(range(0, len(keys) - size + 1, size - cut)):
            training, test = keys[start:start + cut], keys[start + cut:start + size]
            outcome = run_test_engine(train(config, training), test, training[-depth:], depth)
            fresh.append((index, metrics_report("u1", algorithm, outcome)))
        assert fresh
        assert [(r.window_index, r.metrics) for r in slid if r.window_size == size] == fresh


# a PPM node "p0" of count 8 whose children are p2 4, p1 2 and p3 1: p1's share is 1/4,
# the threshold, which 1 / 8 does not reach, so the per-child test decides
TWO_OF_EIGHT = [0, 2] * 4 + [0, 1] * 2 + [0, 3, 0]
# a node "p0" of count 25 whose child p1 has 7: 7 / 25 reaches 0.28, though 7 >= 0.28 * 25
# fails, since 0.28 * 25 is 7.000000000000001
SEVEN_OF_TWENTY_FIVE = [0, 2] * 17 + [0, 1] * 7 + [0]


@settings(max_examples=150)
@given(st.lists(st.integers(0, 5), min_size=2, max_size=70),
       st.lists(st.integers(2, 30), min_size=1, max_size=3, unique=True),
       st.sampled_from([0.3, 0.5, 0.75, 0.8, 0.95]),
       st.integers(1, 3),
       st.sampled_from([0.0, 0.1, 0.25, 0.28, 1.0]))
@example(TWO_OF_EIGHT + [1, 3, 4, 0, 2], [20], 0.75, 1, 0.25)  # the first test request is p1
@example(SEVEN_OF_TWENTY_FIVE + [1, 2, 1], [52], 0.95, 1, 0.28)
def test_ppm_sweep_records_equal_fresh_replays_of_each_window(pages, sizes, ratio, order,
                                                              threshold):
    # sweep_user replays PPM windows through run_ppm_pass; the reference trains
    # a model afresh on every window and replays it through run_test_engine
    assume(all(math.floor(ratio * size) >= 1 for size in sizes))
    spec = SlidingWindowSpec(window_sizes=sizes, training_ratio=ratio)
    trace = _trace("u1", [f"https://site.example/p{page}" for page in pages])
    keys = trace.url_keys
    config = PredictorConfig("ppm", confidence_threshold=threshold, ppm_order=order)
    fresh = []
    for size in sizes:
        cut = spec.training_length(size)
        for index, (start, end) in enumerate(enumerate_windows(len(keys), size, size - cut)):
            training, test = keys[start:start + cut], keys[start + cut:end]
            outcome = run_test_engine(train(config, training), test, training[-order:], order)
            fresh.append(("u1", size, index, metrics_report("u1", "ppm", outcome)))
    assert _without_time(sweep_user(trace, [config], spec)[0]) == fresh


def test_sweep_user_skips_sizes_longer_than_trace():
    trace = _trace("u1", _urls(6))
    spec = SlidingWindowSpec(window_sizes=(5, 50))
    records = sweep_user(trace, [PredictorConfig(algorithm="naive")], spec)[0]
    assert build_sweep_result([records], spec).skipped == {5: 0, 50: 1}
    assert {r.window_size for r in records} == {5}


def test_constant_trace_gets_perfect_dynamic_recall():
    trace = _trace("u1", ["https://a.example/only"] * 20)
    spec = SlidingWindowSpec(window_sizes=(5, 10))
    records = sweep_user(trace, [PredictorConfig(algorithm="naive")], spec)[0]
    assert records
    assert all(r.metrics.dynamic_recall == 1.0 for r in records)


# ---------------------------------------------------------------- DG and MP in one pass

def _without_time(records):
    return [(r.metrics.user_id, r.window_size, r.window_index, r.metrics) for r in records]


@settings(max_examples=150)
@given(st.lists(st.integers(0, 5), min_size=2, max_size=70),
       st.lists(st.integers(2, 30), min_size=1, max_size=4, unique=True),
       st.sampled_from([0.3, 0.5, 0.7, 0.8, 0.95]),
       st.integers(1, 5),
       st.sampled_from([None, 0.0, 0.3, 1.0]),
       st.integers(1, 6),
       st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=len(ALGORITHMS),
                unique=True))
# a DG weight lands on the default threshold, 1/4: the cut keeps it
@example([1, 3, 1, 1, 0, 1, 1], [7], 0.8, 2, None, 6, ["dg"])
def test_dg_and_mp_in_one_pass_equal_their_own_sweeps(pages, sizes, ratio, window,
                                                       threshold, top_n, algorithms):
    # six pages, so a request repeats inside the lookahead window; a weight
    # can equal 0.3 or 1, and the ranked row is often longer than top_n
    assume(all(math.floor(ratio * size) >= 1 for size in sizes))
    spec = SlidingWindowSpec(window_sizes=sizes, training_ratio=ratio)
    trace = _trace("u1", [f"https://site.example/p{page}" for page in pages])
    configs = {a: PredictorConfig(a, lookahead_window=window, confidence_threshold=threshold,
                                  top_n=top_n) for a in ALGORITHMS}
    alone = {a: _without_time(sweep_user(trace, [config], spec)[0])
             for a, config in configs.items()}
    # any subset in any order, and the shared passes of DG and MP, with and
    # without Naive, whose seen set is the DG model's node-count keys
    for chosen in (algorithms, ["dg", "mp"], ["mp", "naive", "dg"], ALGORITHMS):
        assert [_without_time(s) for s in sweep_user(trace, [configs[a] for a in chosen],
                                                     spec)] == [alone[a] for a in chosen]


def test_unequal_lookahead_windows_sweep_dg_and_mp_apart():
    trace = _trace("u1", [f"https://site.example/p{(i * i + i // 3) % 7}" for i in range(60)])
    spec = SlidingWindowSpec(window_sizes=(5, 12), training_ratio=0.7)
    configs = [PredictorConfig("dg", lookahead_window=1, confidence_threshold=0.0),
               PredictorConfig("naive"), PredictorConfig("mp", lookahead_window=3, top_n=1)]
    assert [_without_time(s) for s in sweep_user(trace, configs, spec)] == [
        _without_time(sweep_user(trace, [config], spec)[0]) for config in configs]


def test_a_window_s_time_is_split_evenly_over_the_records_of_its_pass(monkeypatch):
    # each window reads the clock twice, one tick apart
    ticks = itertools.count()
    monkeypatch.setattr(sweep.time, "perf_counter", lambda: float(next(ticks)))
    trace = _trace("u1", _urls(20, distinct=3))
    spec = SlidingWindowSpec(window_sizes=(5, 10))
    dg, mp, naive, ppm = (PredictorConfig(a) for a in ("dg", "mp", "naive", "ppm"))
    for configs, share in (([dg, mp], 0.5), ([dg, mp, naive], 1 / 3), ([ppm], 1.0)):
        for records in sweep_user(trace, configs, spec):
            assert records
            assert {r.elapsed_s for r in records} == {share}


def test_each_window_replays_through_the_pass_its_model_serves(monkeypatch):
    # DG and MP sharing a window share the table pass, PPM takes its own pass,
    # and a DG, MP or Naive model alone replays through the engine
    calls = collections.Counter()
    for name in ("run_test_engine", "run_ppm_pass", "run_dg_table_engine"):
        def counted(*args, name=name, original=getattr(sweep, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(sweep, name, counted)
    trace = _trace("u1", [f"https://site.example/p{(i * i + i // 3) % 7}" for i in range(60)])
    spec = SlidingWindowSpec(window_sizes=(5, 12), training_ratio=0.7)
    windows = sum(len(enumerate_windows(60, size, size - spec.training_length(size)))
                  for size in spec.window_sizes)

    def replays(*configs):
        calls.clear()
        sweep_user(trace, configs, spec)
        return dict(calls)

    assert replays(*(PredictorConfig(a) for a in ALGORITHMS)) == {
        "run_dg_table_engine": windows, "run_ppm_pass": windows}
    assert replays(PredictorConfig("mp"), PredictorConfig("dg")) == {
        "run_dg_table_engine": windows}
    assert replays(PredictorConfig("ppm")) == {"run_ppm_pass": windows}
    for algorithm in ("dg", "mp", "naive"):
        assert replays(PredictorConfig(algorithm)) == {"run_test_engine": windows}
    assert replays(PredictorConfig("dg", lookahead_window=1),
                   PredictorConfig("mp", lookahead_window=3)) == {"run_test_engine": 2 * windows}


def test_sweep_user_rejects_two_configs_for_one_algorithm():
    # a second DG config must not silently get the first one's sweep
    configs = [PredictorConfig("dg"), PredictorConfig("mp"),
               PredictorConfig("dg", confidence_threshold=0.5)]
    with pytest.raises(ValueError, match=r"one config per algorithm, got \['dg', 'mp', 'dg'\]"):
        sweep_user(_trace("u1", _urls(10)), configs, SlidingWindowSpec(window_sizes=(5,)))


def test_sweep_user_rejects_an_empty_config_list():
    with pytest.raises(ValueError, match="at least one config is required"):
        sweep_user(_trace("u1", _urls(10)), [], SlidingWindowSpec(window_sizes=(5,)))


def test_default_sweep_trains_one_dg_and_one_ppm_model_per_size(monkeypatch):
    # DG, MP and Naive share the DG model's pass; only PPM sweeps on its own
    trained = []

    def counting_train(config, training):
        trained.append((config.algorithm, len(training)))
        return train(config, training)

    monkeypatch.setattr(sweep, "train", counting_train)
    spec = SlidingWindowSpec(window_sizes=(5, 12, 30), training_ratio=0.7)
    configs = [PredictorConfig(algorithm) for algorithm in ALGORITHMS]
    trace = _trace("u1", [f"https://site.example/p{(i * i) % 7}" for i in range(40)])
    user_sweeps = sweep_user(trace, configs, spec)
    assert [build_sweep_result([s], spec).skipped for s in user_sweeps] == (
        [dict.fromkeys(spec.window_sizes, 0)] * len(configs))
    # the first window of each size is trained, so its training length names the size
    assert sorted(trained) == sorted((algorithm, spec.training_length(size))
                                     for algorithm in ("dg", "ppm")
                                     for size in spec.window_sizes)


# ---------------------------------------------------------------- aggregation

def test_build_sweep_result_is_user_order_invariant():
    spec = SlidingWindowSpec(window_sizes=(5,))
    config = PredictorConfig(algorithm="dg")
    sweeps = [sweep_user(_trace(f"u{i}", _urls(10 + i, distinct=3)), [config], spec)[0]
              for i in range(3)]
    forward = build_sweep_result(sweeps, spec)
    backward = build_sweep_result(list(reversed(sweeps)), spec)
    assert forward.records == backward.records
    assert forward.means == backward.means
    assert forward.skipped == backward.skipped


def test_sweep_result_records_sorted_and_counted():
    traces = {u: _trace(u, _urls(11)) for u in ("u2", "u1")}
    spec = SlidingWindowSpec(window_sizes=(10, 5))
    _, (result,) = cli.sweep(traces, [PredictorConfig(algorithm="naive")], spec)
    keys = [r.sort_key() for r in result.records]
    assert keys == sorted(keys)
    # size 5: 7 windows per trace; size 10: 1 window per trace
    assert len(result.records) == 2 * (7 + 1)
    assert result.skipped == {10: 0, 5: 0}


def test_skipped_users_tallied_per_size():
    traces = {"short": _trace("short", _urls(4)), "long": _trace("long", _urls(12))}
    spec = SlidingWindowSpec(window_sizes=(5, 12))
    _, (result,) = cli.sweep(traces, [PredictorConfig(algorithm="naive")], spec)
    assert result.skipped == {5: 1, 12: 1}
    sizes_present = {r.window_size for r in result.records}
    assert sizes_present == {5, 12}


# lengths from 1 to 40 against sizes from 2 to 30: users shorter than every size,
# longer than every size, and between
@settings(max_examples=60)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=5),
       st.lists(st.integers(2, 30), min_size=1, max_size=4, unique=True))
@example([1, 3, 40], [4, 30])
def test_skipped_counts_the_users_shorter_than_each_size(lengths, sizes):
    spec = SlidingWindowSpec(window_sizes=sizes)
    traces = [_trace(f"u{i}", _urls(n, distinct=3)) for i, n in enumerate(lengths)]
    expected = {size: sum(n < size for n in lengths) for size in sizes}
    # DG, MP and Naive share the DG model's pass; PPM slides its own model
    for algorithms in (("dg", "mp", "naive"), ("ppm",)):
        configs = [PredictorConfig(a) for a in algorithms]
        per_user = [sweep_user(trace, configs, spec) for trace in traces]
        for i in range(len(configs)):
            result = build_sweep_result([sweeps[i] for sweeps in per_user], spec)
            assert result.skipped == expected


def test_means_keyed_by_size_with_counts():
    traces = {"u1": _trace("u1", _urls(10))}
    spec = SlidingWindowSpec(window_sizes=(5, 40))
    _, (result,) = cli.sweep(traces, [PredictorConfig(algorithm="naive")], spec)
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


@pytest.mark.parametrize("epsilon", [-0.01, -math.inf, math.nan])
def test_cutoff_scan_rejects_a_negative_or_nan_epsilon(epsilon):
    # a series that never moves has no trend: below 0, or as NaN, every total
    # would fail the flat test, and equal means read as falling
    with pytest.raises(ValueError, match="epsilon"):
        cutoff_scan({50: 0.5, 100: 0.5}, epsilon=epsilon)
    assert cutoff_scan({50: 0.5, 100: 0.5}, epsilon=0.0) == (50, "flat")


def test_cutoff_scan_needs_two_defined_points():
    with pytest.raises(ValueError):
        cutoff_scan({50: None, 100: 0.2})
    with pytest.raises(ValueError):
        cutoff_scan({50: 0.2})


def _cutoff_by_definition(means, epsilon):
    """(cutoff, trend) read off ``cutoff_scan``'s docstring, by brute force; None if undefined."""
    points = sorted((size, value) for size, value in means.items() if value is not None)
    if len(points) < 2:
        return None
    sizes = [size for size, _ in points]
    values = [value for _, value in points]
    # the smallest size after which every successive delta is within epsilon
    cutoff = next(sizes[i] for i in range(len(points))
                  if all(abs(b - a) <= epsilon for a, b in zip(values[i:], values[i + 1:])))
    total = values[-1] - values[0]
    trend = "flat" if abs(total) <= epsilon else "positive" if total > 0 else "negative"
    return cutoff, trend


# means are multiples of 1/64 and epsilon is 1/32, so deltas equal to epsilon occur exactly;
# a band of nine means makes them common
@given(st.dictionaries(st.integers(1, 1000),
                       st.none() | st.integers(28, 36).map(lambda k: k / 64), max_size=8))
@example({50: 0.5, 100: 0.5 + 1 / 32})  # one delta, and the trend, exactly at epsilon
@example({50: 0.0, 100: 0.5, 150: 0.25})  # last minus second falls, last minus first rises
def test_cutoff_scan_equals_its_definition(means):
    expected = _cutoff_by_definition(means, 1 / 32)
    if expected is None:
        with pytest.raises(ValueError):
            cutoff_scan(means, epsilon=1 / 32)
    else:
        assert cutoff_scan(means, epsilon=1 / 32) == expected


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
