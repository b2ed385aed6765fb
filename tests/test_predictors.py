from __future__ import annotations

import math
from collections import Counter, deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefetchlab.engine import run_test_engine
from prefetchlab.predictors import (ALGORITHMS, PredictorConfig, _ranked, empty_model,
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
    assert PredictorConfig("dg").confidence_threshold == 0.25
    assert PredictorConfig("ppm").confidence_threshold == 0.1
    assert PredictorConfig("dg", confidence_threshold=0.4).confidence_threshold == 0.4
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
    assert model.arc_counts[A] == {B: 2, A: 2}
    assert model.arc_counts[B] == {A: 2, B: 1}


def test_mp_top_n_and_tie_break():
    model = train(_config("mp", lookahead_window=2, top_n=1), [A, B, A, B, A])
    assert model.predict([A]) == [A]  # A ties B at 2; lexicographic


def test_mp_never_exceeds_top_n():
    model = train(_config("mp", lookahead_window=4, top_n=2), [A, B, C, A, B, C, A])
    assert len(model.predict([A])) <= 2


@given(st.lists(st.sampled_from(KEYS), max_size=50), st.data(),
       st.lists(st.sampled_from(KEYS), max_size=20), st.integers(1, 5), st.integers(1, 6))
def test_mp_is_dg_at_threshold_zero_cut_at_top_n(keys, data, more, window, top_n):
    # one successor-count table, two readings: MP ranks every arc from the
    # context key, DG with no threshold ranks the same arcs the same way
    count = data.draw(st.integers(0, len(keys)))
    mp = train(_config("mp", lookahead_window=window, top_n=top_n), keys)
    dg = train(_config("dg", lookahead_window=window, confidence_threshold=0.0), keys)
    for model in (mp, dg):
        model.forget(keys, count)
        for key in more:
            model.update(key)
    for context in [[]] + [[key] for key in KEYS]:
        assert mp.predict(context) == dg.predict(context)[:top_n]


# ---------------------------------------------------------------- ppm

def test_ppm_order_1_deterministic_successor():
    model = train(_config("ppm", ppm_order=1), [A, B, A, B])
    root = model.root
    assert root.count == 4
    assert root[A].count == 2
    assert root[A][B].count == 2  # P(B|A) = 1.0
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
        for child in node.values():
            assert 0 < child.count <= node.count


def _trie_counts(node, path=()):
    """Every node of a PPM trie as (path from the root, count)."""
    yield path, node.count
    for key, child in node.items():
        yield from _trie_counts(child, path + (key,))


def _assert_counts_are_path_occurrences(model, stream, order):
    # each node counts how often its path, of length <= order + 1, occurs in the stream
    counts = dict(_trie_counts(model.root))
    assert counts.pop(()) == len(stream)
    assert 0 not in counts.values()
    assert counts == Counter(tuple(stream[start:end]) for start in range(len(stream))
                             for end in range(start + 1, min(start + order + 1, len(stream)) + 1))


@given(st.lists(st.sampled_from(KEYS[:3]), max_size=40), st.data(), st.integers(1, 4))
def test_ppm_node_counts_are_path_occurrences(keys, data, order):
    model = train(_config("ppm", ppm_order=order), keys)
    _assert_counts_are_path_occurrences(model, keys, order)
    count = data.draw(st.integers(0, len(keys)))
    model.forget(keys, count)
    _assert_counts_are_path_occurrences(model, keys[count:], order)


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


@given(sequences, st.lists(st.sampled_from(KEYS), max_size=20),
       st.sampled_from(["dg", "mp", "naive"]), st.sampled_from(["dg", "mp"]),
       st.integers(1, 4), st.integers(1, 4))
def test_train_like_a_dg_or_mp_fold_equals_its_own_fold(keys, more, algorithm, sibling, window,
                                                        naive_window):
    # Naive reads no window, so its config may name any
    config = _config(algorithm, lookahead_window=naive_window if algorithm == "naive" else window)
    like_config = _config(sibling, lookahead_window=window)
    like = train(like_config, keys)
    copied, fresh = train(config, keys, like=like), train(config, keys)
    assert model_to_json(copied) == model_to_json(fresh)
    # the copy shares no state: its updates leave the sibling as its fold left it
    for key in more:
        copied.update(key)
        fresh.update(key)
    assert model_to_json(copied) == model_to_json(fresh)
    assert model_to_json(like) == model_to_json(train(like_config, keys))


def test_train_refuses_a_like_it_cannot_copy():
    keys = [A, B, A, C]
    dg = train(_config("dg", lookahead_window=2), keys)
    with pytest.raises(ValueError, match="a naive config cannot copy a PPMModel"):
        train(_config("naive"), keys, like=train(_config("ppm"), keys))
    with pytest.raises(ValueError, match="a dg config cannot copy a NaiveModel"):
        train(_config("dg", lookahead_window=2), keys, like=train(_config("naive"), keys))
    with pytest.raises(ValueError, match="a ppm config cannot copy a DGModel"):
        train(_config("ppm"), keys, like=dg)
    for algorithm in ("dg", "mp"):
        with pytest.raises(ValueError, match="lookahead window 3 cannot copy a table of window 2"):
            train(_config(algorithm, lookahead_window=3), keys, like=dg)


@given(sequences, st.sampled_from(ALGORITHMS))
def test_predictions_unique_and_deterministic(keys, algorithm):
    config = _config(algorithm)
    model = train(config, keys)
    context = keys[-config.ppm_order:] if keys else []
    first = model.predict(context)
    assert len(first) == len(set(first))
    assert first == model.predict(context)


@given(st.dictionaries(st.text("abAB/.", max_size=4), st.integers(1, 3), max_size=30))
def test_ranked_is_count_descending_then_lexicographic(counts):
    # few distinct counts over many keys: most keys tie with another
    assert _ranked(list(counts), counts.__getitem__) == [k for k, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]


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


@pytest.mark.parametrize("algorithm", ["dg", "mp"])
def test_forget_of_every_occurrence_of_a_source_leaves_no_prediction_from_it(algorithm):
    # A occurs at 0 and 2 only: forgetting both drops its count and its arc row together
    keys = [A, B, A, C, B, C]
    model = train(_config(algorithm, lookahead_window=2), keys)
    assert model.predict([A]) == [B, A, C]
    model.forget(keys, 3)
    assert A not in model.node_counts and A not in model.arc_counts
    assert model.predict([A]) == []


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
    assert model.arc_counts == {B: {C: 1, B: 1}, C: {B: 1}}
    assert list(model.pending_window) == [C, B]


def test_ppm_forget_removes_paths_that_began_in_the_prefix():
    model = train(_config("ppm", ppm_order=2), [A, B, A, C])
    model.forget([A, B, A, C], 1)
    assert model_to_json(model) == model_to_json(train(_config("ppm", ppm_order=2), [B, A, C]))
    assert model.root.count == 3
    assert B not in model.root[A]  # [A,B] began only at 0
    assert list(model.recent_context) == [A, C]


def test_naive_forget_rebuilds_first_seen_order():
    model = train(_config("naive"), [A, B, C, A])
    model.forget([A, B, C, A], 1)
    assert list(model.seen) == [B, C, A]


@given(sequences, st.data(), st.lists(st.sampled_from(KEYS), max_size=20),
       st.sampled_from(ALGORITHMS), st.integers(1, 4), st.integers(1, 4))
def test_forget_then_update_equals_training_on_what_is_left(keys, data, more, algorithm,
                                                             order, window):
    # forget leaves a model that keeps learning as a fresh one would: for
    # PPM this checks the context suffix nodes that forget rebuilds
    count = data.draw(st.integers(0, len(keys)))
    config = _config(algorithm, ppm_order=order, lookahead_window=window)
    model = train(config, keys)
    model.forget(keys, count)
    for key in more:
        model.update(key)
    assert model_to_json(model) == model_to_json(train(config, keys[count:] + more))


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
            assert model_to_json(slid) == model_to_json(fresh)


def test_naive_returns_one_list_until_a_new_key_arrives():
    # predictions are read-only: the engine relies on an unchanged list
    # coming back as the same object, and on a changed one never doing so
    model = train(_config("naive"), [A, B])
    first = model.predict([B])
    assert first == [A, B]
    model.update(A)
    model.update(B)
    assert model.predict([A]) is first
    model.update(C)
    after_new_key = model.predict([C])
    assert after_new_key is not first and after_new_key == list(model.seen) == [A, B, C]
    assert first == [A, B]  # the list handed out earlier is never changed
    model.forget([A, B, A, B, C], 1)
    after_forget = model.predict([C])
    assert after_forget is not after_new_key and after_forget == list(model.seen) == [B, A, C]
    assert model_to_json(model) == model_to_json(train(_config("naive"), [B, A, B, C]))


@given(sequences, st.data(), st.lists(st.sampled_from(KEYS), max_size=20), st.integers(1, 4))
def test_ppm_predicts_the_same_from_its_own_suffix_nodes(keys, data, more, order):
    # the model's recent context as a deque walks the suffix nodes it keeps;
    # as a list, the same context is looked up from the root
    model = train(_config("ppm", ppm_order=order), keys)
    model.forget(keys, data.draw(st.integers(0, len(keys))))

    def same_on_both_paths():
        context = deque(model.recent_context)
        return model.predict(context) == model.predict(list(context))

    assert same_on_both_paths()
    for key in more:
        model.update(key)
        assert same_on_both_paths()
