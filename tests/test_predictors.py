from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefetchlab.engine import run_test_engine
from prefetchlab.predictors import (ALGORITHMS, PredictorConfig, empty_model,
                                    model_to_json, train)

KEYS = [f"https://k{i}.example/p" for i in range(6)]
A, B, C = "A", "B", "C"


def _config(algorithm, **overrides):
    return PredictorConfig(algorithm=algorithm, **overrides)


# ---------------------------------------------------------------- config

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        PredictorConfig("markov")
    with pytest.raises(ValueError):
        PredictorConfig("dg", lookahead_window=0)
    with pytest.raises(ValueError):
        PredictorConfig("dg", confidence_threshold=1.5)
    with pytest.raises(ValueError):
        PredictorConfig("ppm", ppm_order=0)
    with pytest.raises(ValueError):
        PredictorConfig("mp", top_n=0)


def test_config_defaults_per_algorithm():
    assert PredictorConfig("dg").effective_threshold == 0.25
    assert PredictorConfig("ppm").effective_threshold == 0.1
    assert PredictorConfig("dg", confidence_threshold=0.4).effective_threshold == 0.4
    assert PredictorConfig("DG").algorithm == "dg"  # case-insensitive


# ---------------------------------------------------------------- dg

def test_dg_train_window_2_abc():
    model = train(_config("dg", lookahead_window=2), [A, B, C])
    assert model.node_counts == {A: 1, B: 1, C: 1}
    assert model.arc_counts == {A: {B: 1, C: 1}, B: {C: 1}}


def test_dg_predict_ties_break_lexicographically():
    model = train(_config("dg", lookahead_window=2), [A, B, C])
    assert model.predict([A]) == [B, C]  # both weight 1.0


def test_dg_weight_can_exceed_one():
    # [A,B,B] window 2: both B occurrences fall inside A's window
    model = train(_config("dg", lookahead_window=2), [A, B, B])
    assert model.arc_counts[A][B] == 2
    assert model.node_counts[A] == 1  # weight A->B = 2.0
    assert model.predict([A]) == [B]


def test_dg_threshold_filters():
    # weights from A: B=2/3, C=1/3
    model = train(_config("dg", lookahead_window=1, confidence_threshold=0.5),
                  [A, B, A, B, A, C])
    assert model.predict([A]) == [B]
    at_third = train(_config("dg", lookahead_window=1, confidence_threshold=1 / 3),
                     [A, B, A, B, A, C])
    assert at_third.predict([A]) == [B, C]  # threshold comparison is inclusive


def test_dg_unknown_context_predicts_nothing():
    model = train(_config("dg"), [A, B])
    assert model.predict(["never-seen"]) == []
    assert model.predict([]) == []


def test_dg_update_adds_arcs_from_window():
    model = train(_config("dg", lookahead_window=2), [A, B])
    model.update(C)
    assert model.arc_counts[A] == {B: 1, C: 1}
    assert model.arc_counts[B] == {C: 1}


@given(st.lists(st.sampled_from(KEYS[:4]), min_size=1, max_size=60),
       st.integers(min_value=1, max_value=4))
def test_dg_weights_bounded_by_window(keys, window):
    model = train(_config("dg", lookahead_window=window, confidence_threshold=0.0), keys)
    for source, targets in model.arc_counts.items():
        for target, count in targets.items():
            weight = count / model.node_counts[source]
            assert 0 < weight <= window


# ---------------------------------------------------------------- mp

def test_mp_train_window_2():
    model = train(_config("mp", lookahead_window=2), [A, B, A, B, A])
    assert model.successor_lists[A] == {B: 2, A: 2}
    assert model.successor_lists[B] == {A: 2, B: 1}


def test_mp_top_n_and_tie_break():
    model = train(_config("mp", lookahead_window=2, top_n=1), [A, B, A, B, A])
    assert model.predict([A]) == [A]  # A ties B at 2; lexicographic


def test_mp_never_exceeds_top_n():
    model = train(_config("mp", lookahead_window=4, top_n=2), [A, B, C, A, B, C, A])
    assert len(model.predict([A])) <= 2


# ---------------------------------------------------------------- ppm

def test_ppm_order_1_deterministic_successor():
    model = train(_config("ppm", ppm_order=1), [A, B, A, B])
    root = model.root
    assert root.count == 4
    assert root.children[A].count == 2
    assert root.children[A].children[B].count == 2  # P(B|A) = 1.0
    assert model.predict([A]) == [B]


def test_ppm_update_extends_all_context_paths():
    # order 2: train [A], then feed B and A
    model = train(_config("ppm", ppm_order=2), [A])
    model.update(B)
    model.update(A)
    state = model.state_dict()
    trie = state["trie"]
    assert trie["count"] == 3
    assert trie["children"][A]["count"] == 2
    assert trie["children"][A]["children"][B]["count"] == 1
    assert trie["children"][A]["children"][B]["children"][A]["count"] == 1
    assert trie["children"][B]["children"][A]["count"] == 1
    assert state["recent_context"] == [B, A]


def test_ppm_longest_suffix_wins():
    # context [B, A]: suffix [B,A] is always followed by C, bare [A] mostly by B
    model = train(_config("ppm", ppm_order=2), [B, A, C, A, B, A, C])
    assert model.predict([B, A]) == [C]


def test_ppm_falls_back_on_unknown_prefix():
    model = train(_config("ppm", ppm_order=2), [A, B, A, B])
    assert model.predict(["never-seen", A]) == [B]


def test_ppm_childless_suffix_falls_through_to_empty():
    model = train(_config("ppm", ppm_order=1), [A, B])
    assert model.predict([B]) == []  # B only ever ends the sequence


def test_ppm_probabilities_at_most_one():
    model = train(_config("ppm", ppm_order=2, confidence_threshold=0.0),
                  [A, B, A, C, A, B, B])
    for context in ([A], [B], [A, B], [C, A]):
        node = model._lookup(context[-1:])
        if node is None:
            continue
        for child in node.children.values():
            assert 0 < child.count <= node.count


# ---------------------------------------------------------------- naive

def test_naive_first_seen_order():
    model = train(_config("naive"), [B, A, B, C, A])
    assert model.predict([]) == [B, A, C]
    model.update("D")
    assert model.predict([A]) == [B, A, C, "D"]


def test_naive_train_example():
    model = train(_config("naive"), [A, B, A])
    assert list(model.seen) == [A, B]


# ---------------------------------------------------------------- shared properties

sequences = st.lists(st.sampled_from(KEYS), min_size=0, max_size=50)


@given(sequences, st.sampled_from(ALGORITHMS))
def test_train_equals_folded_updates(keys, algorithm):
    config = _config(algorithm)
    batch = train(config, keys)
    folded = empty_model(config)
    for key in keys:
        folded.update(key)
    assert model_to_json(batch) == model_to_json(folded)


@given(sequences, st.sampled_from(ALGORITHMS))
def test_predictions_unique_and_deterministic(keys, algorithm):
    config = _config(algorithm)
    model = train(config, keys)
    context = keys[-config.ppm_order:] if keys else []
    first = model.predict(context)
    assert len(first) == len(set(first))
    assert first == model.predict(context)


def test_serialization_is_canonical():
    model = train(_config("dg"), [C, A, B, A])
    again = train(_config("dg"), [C, A, B, A])
    assert model_to_json(model) == model_to_json(again)
    assert '"format"' in model_to_json(model)


# ---------------------------------------------------------------- forget

@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_forget_everything_leaves_an_empty_model(algorithm):
    config = _config(algorithm)
    keys = [A, B, A, C, A, B]
    model = train(config, keys)
    model.forget(keys, len(keys))
    assert model_to_json(model) == model_to_json(empty_model(config))


def test_dg_forget_trims_window_to_retained_stream():
    # 4-key window, 1 key retained: a fresh model on [C] remembers only C
    model = train(_config("dg", lookahead_window=4), [A, B, C])
    model.forget([A, B, C], 2)
    assert list(model.pending_window) == [C]
    assert model.node_counts == {C: 1}
    assert model.arc_counts == {}


def test_mp_forget_drops_emptied_successor_lists():
    model = train(_config("mp", lookahead_window=2), [A, B, C, B])
    model.forget([A, B, C, B], 1)
    assert model.successor_lists == {B: {C: 1, B: 1}, C: {B: 1}}
    assert list(model.pending_window) == [C, B]


def test_ppm_forget_removes_paths_that_began_in_the_prefix():
    model = train(_config("ppm", ppm_order=2), [A, B, A, C])
    model.forget([A, B, A, C], 1)
    assert model_to_json(model) == model_to_json(train(_config("ppm", ppm_order=2), [B, A, C]))
    assert model.root.count == 3
    assert B not in model.root.children[A].children  # [A,B] began only at 0
    assert list(model.recent_context) == [A, C]


def test_naive_forget_rebuilds_first_seen_order():
    model = train(_config("naive"), [A, B, C, A])
    model.forget([A, B, C, A], 1)
    assert list(model.seen) == [B, C, A]


@st.composite
def sliding_cases(draw):
    alphabet = draw(st.integers(1, 6))
    keys = draw(st.lists(st.sampled_from(KEYS[:alphabet]), min_size=2, max_size=60))
    size = draw(st.integers(2, len(keys)))
    return (keys, size, draw(st.floats(0.5, 0.9)),
            draw(st.integers(1, 5)), draw(st.integers(1, 4)))


@given(sliding_cases())
def test_sliding_with_forget_equals_fresh_training(case):
    # the sweep's "auto" protocol: replaying window k folds its test slice
    # into the model, and forgetting one test slice gives window k+1's model
    keys, size, ratio, window, order = case
    cut = math.floor(ratio * size)
    distance = size - cut
    for algorithm in ALGORITHMS:
        config = _config(algorithm, lookahead_window=window, ppm_order=order)
        depth = order if algorithm == "ppm" else 1
        slid = None
        for start in range(0, len(keys) - size + 1, distance):
            training, test = keys[start:start + cut], keys[start + cut:start + size]
            fresh = train(config, training)
            if slid is None:
                slid = train(config, training)
            else:
                slid.forget(keys[start - distance:start - distance + size], distance)
            assert model_to_json(slid) == model_to_json(fresh)
            assert (run_test_engine(slid, test, training[-depth:], depth)
                    == run_test_engine(fresh, test, training[-depth:], depth))
