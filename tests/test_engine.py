from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefetchlab.engine import (SplitSpec, TestOutcome, TraceTooShortError,
                                run_dg_table_engine, run_test_engine, run_user, split)
from prefetchlab.oracle import oracle_run
from prefetchlab.predictors import ALGORITHMS, PredictorConfig, model_to_json, train
from prefetchlab.pruning import STRATEGIES, PruneSpec, prune
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


@given(st.integers(2, 10_000),
       st.one_of(st.sampled_from([math.nextafter(1.0, 0.0), math.nextafter(0.0, 1.0)]),
                 st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
def test_split_leaves_a_test_slice_at_every_length_and_ratio(n, ratio):
    training, test = split(_trace([str(i % 7) for i in range(n)]), SplitSpec(ratio))
    assert test and len(training) + len(test) == n


def test_split_spec_validates_ratio():
    with pytest.raises(ValueError):
        SplitSpec(training_ratio=1.0)
    with pytest.raises(ValueError):
        SplitSpec(training_ratio=0.0)


def test_trigger_depth_resolution():
    assert PredictorConfig("dg").trigger_depth == 1
    assert PredictorConfig("mp", ppm_order=3).trigger_depth == 1
    assert PredictorConfig("naive", ppm_order=3).trigger_depth == 1
    assert PredictorConfig("ppm").trigger_depth == 2
    assert PredictorConfig("ppm", ppm_order=3).trigger_depth == 3
    with pytest.raises(AttributeError):  # read-only: it follows from the algorithm
        PredictorConfig("ppm").trigger_depth = 1


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
    result = run_user(_trace([A, B] * 10), [PredictorConfig("naive")], SplitSpec())[0]
    assert result.elapsed_s >= 0
    assert result.outcome.hit_count + result.outcome.miss_count == 4  # 20 -> 16/4


@settings(max_examples=150)
@given(st.lists(st.sampled_from([f"https://{host}.example/{page}" for host in "ab"
                                 for page in range(4)]), min_size=2, max_size=40),
       st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=len(ALGORITHMS),
                unique=True),
       st.sampled_from([0.3, 0.5, 0.8]),
       st.one_of(st.none(), st.builds(PruneSpec, st.sampled_from(STRATEGIES),
                                      st.sampled_from([0.2, 0.5, 1.0]))))
# pruning drops the training slice's last request, a3: DG triggered from the
# pruned tail, a2, would prefetch a2, and from the unpruned tail nothing
@example([f"https://a.example/{page}" for page in (2, 2, 3, 1)], ["dg"], 0.8,
         PruneSpec("mor", 0.2))
def test_run_user_prunes_once_and_runs_each_config_on_the_pruned_input(keys, algorithms,
                                                                       ratio, prune_spec):
    # a ratio of 0.3 leaves an empty training slice for 2 or 3 requests
    configs = [PredictorConfig(a, lookahead_window=2, ppm_order=3) for a in algorithms]
    trace = _trace(keys)
    spec = SplitSpec(ratio)
    training, test = split(trace, spec)
    results = run_user(trace, configs, spec, prune_spec)
    assert len(results) == len(configs)
    pruned = prune(training, prune_spec) if prune_spec and training else None
    model_input = pruned.kept_training if pruned else training
    for config, result in zip(configs, results):
        depth = config.trigger_depth
        assert result.outcome == run_test_engine(train(config, model_input), test,
                                                 training[-depth:], depth)
        assert result.prune_result is results[0].prune_result
    assert results[0].prune_result == pruned


pages_st = st.lists(st.sampled_from([f"p{i}" for i in range(6)]), max_size=40)


@settings(max_examples=150)
@given(pages_st, st.lists(st.sampled_from(["p0", "p1", "p9"]), max_size=2), pages_st,
       st.integers(1, 4), st.sampled_from([None, 0.0, 0.3, 0.5, 1.0]), st.integers(1, 6))
# p0 occurs four times, and each of its successors weighs 1/4, the default threshold
@example(["p0", "p1", "p0", "p2", "p0", "p3", "p0", "p4"], ["p0"], ["p1", "p5"], 1, None, 2)
# no pre_context: the first test request is predicted from nothing
@example(["p0", "p1", "p0"], [], ["p1", "p0", "p1"], 1, None, 1)
def test_dg_table_pass_equals_dg_mp_and_naive_each_replayed_alone(training, pre_context, test,
                                                                  window, threshold, top_n):
    configs = [PredictorConfig("dg", window, threshold),
               PredictorConfig("mp", window, top_n=top_n), PredictorConfig("naive")]
    alone = tuple(run_test_engine(train(config, training), test, pre_context, 1)
                  for config in configs)
    assert run_dg_table_engine(train(configs[0], training), top_n, test, pre_context) == alone


# ---------------------------------------------------------------- properties

keys_st = st.lists(st.sampled_from([f"k{i}" for i in range(8)]), min_size=2, max_size=60)
algo_st = st.sampled_from(ALGORITHMS)


@given(keys_st, algo_st)
def test_prefetch_count_equals_cache_size(keys, algorithm):
    result = run_user(_trace(keys), [PredictorConfig(algorithm)], SplitSpec())[0]
    assert result.outcome.prefetch_count == result.outcome.cache_size


@given(keys_st, algo_st)
def test_counts_match_test_slice_length(keys, algorithm):
    trace = _trace(keys)
    _, test = split(trace, SplitSpec())
    outcome = run_user(trace, [PredictorConfig(algorithm)], SplitSpec())[0].outcome
    assert outcome.hit_count + outcome.miss_count == len(test)
    assert outcome.hit_set <= frozenset(test)


@given(keys_st, algo_st)
@settings(max_examples=50)
def test_replay_prefix_consistency(keys, algorithm):
    # counts over a test prefix are never larger than over the full test
    config = PredictorConfig(algorithm)
    trace = _trace(keys)
    training, test = split(trace, SplitSpec())
    depth = config.trigger_depth

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
    assert run_user(trace, [config], SplitSpec())[0].outcome == expected


def _copying_predict(model, calls):
    """Wrap ``model.predict`` on the instance, as the benchmark's tracer does,
    returning a fresh copy of each prediction and counting the calls."""
    predict = model.predict

    def wrapped(context):
        calls.append(None)
        return list(predict(context))
    model.predict = wrapped


@given(keys_st, st.data(), algo_st, st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=150)
def test_replay_does_not_depend_on_the_identity_of_predictions(keys, data, algorithm, order,
                                                               window, depth):
    # the engine skips re-adding a list it added last; a model whose every
    # prediction is a new list must score the same, with predict called once
    # per test request, on fresh and on slid models. A depth other than PPM's
    # order sends its predict down the root-lookup path.
    config = PredictorConfig(algorithm, lookahead_window=window, ppm_order=order)
    trace = _trace(keys)
    training, test = split(trace, SplitSpec())
    dropped = data.draw(st.integers(0, len(training)))

    def trained():
        model = train(config, training)
        model.forget(training, dropped)  # a no-op for dropped == 0
        return model

    plain, copying, calls = trained(), trained(), []
    _copying_predict(copying, calls)
    assert (run_test_engine(plain, test, training[-depth:], depth)
            == run_test_engine(copying, test, training[-depth:], depth))
    assert len(calls) == len(test)
    assert model_to_json(plain) == model_to_json(copying)
