from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefetchlab.engine import (SplitSpec, TestOutcome, TraceTooShortError,
                                run_test_engine, run_user, split)
from prefetchlab.oracle import oracle_run
from prefetchlab.predictors import ALGORITHMS, PredictorConfig, train
from prefetchlab.traces import UserTrace

A, B, C = "A", "B", "C"


def _trace(keys):
    return UserTrace.build("u", list(range(len(keys))), keys)


# ---------------------------------------------------------------- split

def test_split_80_20():
    training, test = split(_trace([str(i) for i in range(10)]), SplitSpec())
    assert len(training) == 8 and len(test) == 2


def test_split_keeps_order_and_concatenation():
    trace = _trace([A, B, C, A, B])
    training, test = split(trace, SplitSpec(training_ratio=0.8))
    assert len(training) == 4 and len(test) == 1
    assert training + test == trace.url_keys


def test_split_too_short_raises():
    with pytest.raises(TraceTooShortError):
        split(_trace([A]), SplitSpec())


def test_split_spec_validates_ratio():
    with pytest.raises(ValueError):
        SplitSpec(training_ratio=1.0)
    with pytest.raises(ValueError):
        SplitSpec(training_ratio=0.0)


def test_trigger_depth_resolution():
    assert SplitSpec().resolve_trigger_depth(PredictorConfig("dg")) == 1
    assert SplitSpec().resolve_trigger_depth(PredictorConfig("naive")) == 1
    assert SplitSpec().resolve_trigger_depth(PredictorConfig("ppm", ppm_order=3)) == 3
    assert SplitSpec(trigger_depth=2).resolve_trigger_depth(PredictorConfig("ppm")) == 2


# ---------------------------------------------------------------- replay

def test_naive_replay_all_hits():
    model = train(PredictorConfig("naive"), [A, B])
    outcome = run_test_engine(model, [A, B, A], pre_context=[B], trigger_depth=1)
    assert outcome == TestOutcome(
        cache_size=2, hit_set=frozenset({A, B}), miss_set=frozenset(),
        prefetch_count=2, hit_count=3, miss_count=0)


def test_naive_replay_unseen_request_misses():
    model = train(PredictorConfig("naive"), [A])
    outcome = run_test_engine(model, [C], pre_context=[A], trigger_depth=1)
    assert outcome.prefetch_count == 1
    assert outcome.hit_count == 0 and outcome.miss_count == 1
    assert outcome.miss_set == frozenset({C})
    assert outcome.cache_size == 1  # only the prefetched A is cached


def test_empty_test_sequence_is_all_zero():
    model = train(PredictorConfig("dg"), [A, B])
    outcome = run_test_engine(model, [], pre_context=[B], trigger_depth=1)
    assert outcome == TestOutcome(0, frozenset(), frozenset(), 0, 0, 0)


def test_same_key_can_hit_and_miss():
    # C is missed on first sight, cached via the dynamic update's influence
    # on later predictions, then hit on its second occurrence
    model = train(PredictorConfig("naive"), [A])
    outcome = run_test_engine(model, [C, A, C], pre_context=[A], trigger_depth=1)
    assert C in outcome.miss_set and C in outcome.hit_set


def test_same_step_prefetch_counts_as_hit():
    # DG predicts B from A's arc; B is prefetched and hit within one step
    model = train(PredictorConfig("dg", lookahead_window=1), [A, B, A])
    outcome = run_test_engine(model, [B], pre_context=[A], trigger_depth=1)
    assert outcome.hit_count == 1 and outcome.miss_count == 0


def test_model_updates_expand_cache_over_replay():
    # the B->C arc exists only in the test slice; the dynamic update learns it
    model = train(PredictorConfig("dg", lookahead_window=1), [A, B])
    outcome = run_test_engine(model, [B, C, B, C], pre_context=[B], trigger_depth=1)
    assert C in outcome.hit_set  # second C predicted from updated model


def test_run_user_returns_timing_and_outcome():
    result = run_user(_trace([A, B] * 10), PredictorConfig("naive"), SplitSpec())
    assert result.elapsed_s >= 0
    assert result.outcome.hit_count + result.outcome.miss_count == 4  # 20 -> 16/4


# ---------------------------------------------------------------- properties

keys_st = st.lists(st.sampled_from([f"k{i}" for i in range(8)]), min_size=2, max_size=60)
algo_st = st.sampled_from(ALGORITHMS)


@given(keys_st, algo_st)
def test_prefetch_count_equals_cache_size(keys, algorithm):
    result = run_user(_trace(keys), PredictorConfig(algorithm), SplitSpec())
    assert result.outcome.prefetch_count == result.outcome.cache_size


@given(keys_st, algo_st)
def test_counts_match_test_slice_length(keys, algorithm):
    trace = _trace(keys)
    _, test = split(trace, SplitSpec())
    outcome = run_user(trace, PredictorConfig(algorithm), SplitSpec()).outcome
    assert outcome.hit_count + outcome.miss_count == len(test)
    assert outcome.hit_set <= frozenset(test)


@given(keys_st, algo_st)
@settings(max_examples=50)
def test_replay_prefix_consistency(keys, algorithm):
    # counts over a test prefix are never larger than over the full test
    config = PredictorConfig(algorithm)
    trace = _trace(keys)
    training, test = split(trace, SplitSpec())
    depth = SplitSpec().resolve_trigger_depth(config)

    full = run_test_engine(train(config, training), test, training[-depth:], depth)
    prefix = run_test_engine(train(config, training), test[:-1], training[-depth:], depth)
    assert prefix.hit_count <= full.hit_count
    assert prefix.miss_count <= full.miss_count
    assert prefix.prefetch_count <= full.prefetch_count
    assert prefix.hit_set <= full.hit_set
    assert prefix.miss_set <= full.miss_set


@given(keys_st, algo_st)
@settings(max_examples=60)
def test_engine_matches_reference_replay(keys, algorithm):
    config = PredictorConfig(algorithm)
    trace = _trace(keys)
    training, test = split(trace, SplitSpec())
    expected = oracle_run(config, training, test)
    assert run_user(trace, config, SplitSpec()).outcome == expected
