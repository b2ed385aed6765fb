from __future__ import annotations

import pytest

from prefetchlab.engine import TestOutcome
from prefetchlab.metrics import (MetricsReport, aggregate_reports, dynamic_recall,
                                 metrics_report, normalize_against_naive,
                                 static_precision, static_recall, static_recall_strict)


def _outcome(hits=frozenset(), misses=frozenset(), prefetch=0, hit_count=0, miss_count=0):
    return TestOutcome(
        cache_size=prefetch, hit_set=frozenset(hits), miss_set=frozenset(misses),
        prefetch_count=prefetch, hit_count=hit_count, miss_count=miss_count)


# ---------------------------------------------------------------- static precision

def test_static_precision_ratio():
    assert static_precision(_outcome(hits={"a", "b"}, prefetch=10)) == 0.2


def test_static_precision_undefined_without_prefetches():
    assert static_precision(_outcome(prefetch=0)) is None


def test_static_precision_perfect():
    o = _outcome(hits={"A", "B"}, prefetch=2, hit_count=3)
    assert static_precision(o) == 1.0


# ---------------------------------------------------------------- static recall

def test_static_recall_all_hits():
    assert static_recall(_outcome(hits={"A", "B"})) == 1.0


def test_static_recall_all_misses():
    assert static_recall(_outcome(misses={"C"})) == 0.0


def test_static_recall_undefined_for_empty_test():
    assert static_recall(_outcome()) is None


def test_static_recall_overlap_plain_vs_strict():
    o = _outcome(hits={"A"}, misses={"A", "B"})
    assert static_recall(o) == pytest.approx(1 / 3)
    assert static_recall_strict(o) == pytest.approx(1 / 2)


# ---------------------------------------------------------------- dynamic recall

def test_dynamic_recall_values():
    assert dynamic_recall(_outcome(hit_count=3)) == 1.0
    assert dynamic_recall(_outcome(miss_count=5)) == 0.0
    assert dynamic_recall(_outcome(hit_count=1, miss_count=3)) == 0.25
    assert dynamic_recall(_outcome()) is None


# ---------------------------------------------------------------- normalization

def _report(algorithm, sr, dr, user="u1"):
    return MetricsReport(user_id=user, algorithm=algorithm, static_precision=None,
                         static_recall=sr, static_recall_strict=sr, dynamic_recall=dr)


def test_normalize_divides_by_naive():
    target = _report("dg", sr=0.2, dr=0.2)
    naive = _report("naive", sr=0.4, dr=0.4)
    out = normalize_against_naive(target, naive)
    assert out.normalized_static_recall == 0.5
    assert out.normalized_dynamic_recall == 0.5


def test_normalize_naive_against_itself_is_one():
    naive = _report("naive", sr=0.4, dr=0.8)
    out = normalize_against_naive(naive, naive)
    assert out.normalized_static_recall == 1.0
    assert out.normalized_dynamic_recall == 1.0


def test_normalize_undefined_when_baseline_zero_or_undefined():
    target = _report("dg", sr=0.2, dr=0.2)
    assert normalize_against_naive(target, _report("naive", sr=0.0, dr=None)) \
        .normalized_static_recall is None
    assert normalize_against_naive(target, _report("naive", sr=0.0, dr=None)) \
        .normalized_dynamic_recall is None


def test_normalize_rejects_wrong_baseline_or_user():
    target = _report("dg", sr=0.2, dr=0.2)
    with pytest.raises(ValueError):
        normalize_against_naive(target, _report("mp", sr=0.4, dr=0.4))
    with pytest.raises(ValueError):
        normalize_against_naive(target, _report("naive", sr=0.4, dr=0.4, user="u2"))


# ---------------------------------------------------------------- aggregation

def test_aggregate_excludes_undefined_and_counts_them():
    reports = [
        metrics_report("u1", "dg", _outcome(hits={"A"}, prefetch=2, hit_count=1, miss_count=1)),
        metrics_report("u2", "dg", _outcome(prefetch=0)),  # SP undefined
    ]
    agg = aggregate_reports(reports)
    assert agg["static_precision"]["mean"] == 0.5
    assert agg["static_precision"]["count"] == 1
    assert agg["static_precision"]["excluded"] == 1
    assert agg["dynamic_recall"]["count"] == 1  # u2 has no replayed requests either


def test_aggregate_mean_sums_left_to_right():
    # a compensated sum (builtin sum() from Python 3.12 on) gives 1.0 and a mean of 0.1
    reports = [MetricsReport("u1", "dg", 0.1, None, None, None)] * 10
    assert aggregate_reports(reports)["static_precision"]["mean"] == 0.09999999999999999


def test_aggregate_of_nothing():
    agg = aggregate_reports([])
    assert agg["static_recall"] == {"mean": None, "count": 0, "excluded": 0}


def test_metrics_report_is_pure_projection():
    o = _outcome(hits={"A", "B"}, misses={"C"}, prefetch=4, hit_count=3, miss_count=2)
    r = metrics_report("u9", "mp", o)
    assert r.user_id == "u9" and r.algorithm == "mp"
    assert r.static_precision == 0.5
    assert r.static_recall == pytest.approx(2 / 3)
    assert r.dynamic_recall == pytest.approx(3 / 5)
    assert r.normalized_static_recall is None  # not normalized yet
