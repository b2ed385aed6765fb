"""Acceptance gate: ten end-to-end checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion; each test also prints a ``[criterion NN]`` marker so the
captured output of a failing run points straight at the broken contract.
These deliberately re-run the library's own self-checks at higher counts
and drive the CLI end to end, so the module is slower than the unit files
(roughly ten seconds in total).
"""

from __future__ import annotations

import csv
import json
import math
import time
from contextlib import contextmanager

from prefetchlab.cli import main
from prefetchlab.engine import SplitSpec, run_test_engine, run_user
from prefetchlab.metrics import metrics_report
from prefetchlab.predictors import ALGORITHMS, PredictorConfig, train
from prefetchlab.pruning import STRATEGIES, PruneSpec, prune
from prefetchlab.selftest import (check_naive_dominance, check_normalization_identity,
                                  check_oracle_equivalence, check_train_fold)
from prefetchlab.sweep import (DEFAULT_CUTOFF_EPSILON, DEFAULT_WINDOW_SIZES,
                               SlidingWindowSpec, cutoff_scan, enumerate_windows,
                               run_sweep)
from prefetchlab.synth import bursty_traces, uniform_traces, write_log
from prefetchlab.traces import UserTrace


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {label}")
        raise
    print(f"[criterion {number:02d}] PASS {label}")


def _trace(user_id, keys):
    return UserTrace.build(user_id, list(range(len(keys))), keys)


# ------------------------------------------------------------------ 1

def test_criterion_01_oracle_equivalence():
    with criterion(1, "replay engine matches brute-force reference on 1000 traces x 4 algorithms"):
        started = time.perf_counter()
        result = check_oracle_equivalence(seed=0, trace_count=1000)
        elapsed = time.perf_counter() - started
        assert result.passed, result.detail
        assert result.cases == 1000 * len(ALGORITHMS)
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


# ------------------------------------------------------------------ 2

def test_criterion_02_train_equals_fold():
    with criterion(2, "batch training serializes identically to folded updates on 500 sequences"):
        started = time.perf_counter()
        result = check_train_fold(seed=1, sequence_count=500)
        elapsed = time.perf_counter() - started
        assert result.passed, result.detail
        assert result.cases == 500 * len(ALGORITHMS)
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


# ------------------------------------------------------------------ 3

def test_criterion_03_naive_dominance():
    with criterion(3, "naive recalls bound every algorithm; hits equal previously-seen count"):
        started = time.perf_counter()
        result = check_naive_dominance(seed=2, trace_count=300)
        elapsed = time.perf_counter() - started
        assert result.passed, result.detail
        assert result.cases == 300 * 3  # three competitors per trace
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


# ------------------------------------------------------------------ 4

def test_criterion_04_normalization_identity():
    with criterion(4, "naive normalized against itself is 1.0 whenever raw recall > 0"):
        result = check_normalization_identity(seed=3, trace_count=300)
        assert result.passed, result.detail
        assert result.cases == 300


# ------------------------------------------------------------------ 5

def test_criterion_05_hand_traced_fixtures():
    with criterion(5, "pinned replay fixtures reproduce exactly"):
        # naive, training [A,B], test [A,B,A]
        model = train(PredictorConfig("naive"), ["A", "B"])
        outcome = run_test_engine(model, ["A", "B", "A"], ["B"], 1)
        assert outcome.to_dict() == {
            "cache_size": 2, "hit_set": ["A", "B"], "miss_set": [],
            "prefetch_count": 2, "hit_count": 3, "miss_count": 0}
        report = metrics_report("u", "naive", outcome)
        assert (report.static_precision, report.static_recall,
                report.dynamic_recall) == (1.0, 1.0, 1.0)

        # naive, training [A], test [C]
        model = train(PredictorConfig("naive"), ["A"])
        outcome = run_test_engine(model, ["C"], ["A"], 1)
        assert outcome.to_dict() == {
            "cache_size": 1, "hit_set": [], "miss_set": ["C"],
            "prefetch_count": 1, "hit_count": 0, "miss_count": 1}
        report = metrics_report("u", "naive", outcome)
        assert (report.static_precision, report.static_recall,
                report.dynamic_recall) == (0.0, 0.0, 0.0)

        # dg with default tuning on a strict A,B,C cycle
        outcome = run_user(_trace("u", ["A", "B", "C"] * 10),
                           PredictorConfig("dg"), SplitSpec()).outcome
        assert outcome.to_dict() == {
            "cache_size": 3, "hit_set": ["A", "B", "C"], "miss_set": [],
            "prefetch_count": 3, "hit_count": 6, "miss_count": 0}
        report = metrics_report("u", "dg", outcome)
        assert (report.static_precision, report.static_recall,
                report.dynamic_recall) == (1.0, 1.0, 1.0)


# ------------------------------------------------------------------ 6

def test_criterion_06_pruning_contracts():
    with criterion(6, "pruning contracts hold for every strategy on 200 random traces"):
        def is_subsequence(sub, seq):
            it = iter(seq)
            return all(any(x == y for y in it) for x in sub)

        traces = uniform_traces(seed=6, count=200)
        assert len(traces) == 200
        for trace in traces.values():
            keys = trace.url_keys
            for strategy in STRATEGIES:
                result = prune(keys, PruneSpec(strategy, keep_fraction=0.2))
                assert is_subsequence(result.kept_training, keys)
                assert result.groups_kept == math.ceil(0.2 * result.groups_total)
                identity = prune(keys, PruneSpec(strategy, keep_fraction=1.0))
                assert identity.kept_training == keys

        # two-domain fixture: one domain all unique, one all repeats
        fixture = [f"https://x.example/u{i}" for i in range(4)] + \
            ["https://y.example/same"] * 4
        kept = prune(fixture, PruneSpec("msd", keep_fraction=0.5)).kept_training
        assert kept == ["https://y.example/same"] * 4


# ------------------------------------------------------------------ 7

def test_criterion_07_sliding_window_counts():
    with criterion(7, "window enumeration matches floor((n-x)/y)+1 over a parameter grid"):
        assert len(enumerate_windows(10, 5, 1)) == 6
        for n in range(0, 61):
            for x in range(2, 13):
                for y in range(1, 7):
                    expected = (n - x) // y + 1 if n >= x else 0
                    windows = enumerate_windows(n, x, y)
                    assert len(windows) == expected, (n, x, y)
                    assert all(e - s == x and e <= n for s, e in windows)


# ------------------------------------------------------------------ 8

def _strip_timing_column(path):
    with path.open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "elapsed_ms"
    return [row[:-1] for row in rows]


def _load_without_runtime(path):
    with path.open(encoding="utf-8") as fh:
        obj = json.load(fh)
    assert "runtime" in obj
    obj.pop("runtime")
    return obj


def test_criterion_08_determinism_under_parallelism(tmp_path):
    with criterion(8, "evaluate and sweep outputs are identical for 1, 4, and 8 workers"):
        log = write_log(
            bursty_traces(seed=8, count=6, min_length=60, max_length=80,
                          repertoire_size=10, noise_rate=0.1),
            tmp_path / "fixture.csv")

        eval_reports, eval_csvs = [], []
        sweep_summaries, sweep_rows, sweep_means = [], [], []
        for workers in ("1", "4", "8"):
            out = tmp_path / f"eval_w{workers}"
            rc = main(["evaluate", "--input", str(log), "--out", str(out),
                       "--prune", "mor", "--workers", workers])
            assert rc == 0
            eval_reports.append(_load_without_runtime(out / "report.json"))
            eval_csvs.append((out / "metrics.csv").read_bytes())

            out = tmp_path / f"sweep_w{workers}"
            rc = main(["sweep", "--input", str(log), "--out", str(out),
                       "--sizes", "10,20,40", "--workers", workers])
            assert rc == 0
            sweep_summaries.append(_load_without_runtime(out / "sweep_summary.json"))
            sweep_rows.append([_strip_timing_column(out / f"sweep_{a}.csv")
                               for a in ALGORITHMS])
            sweep_means.append([(out / f"sweep_{a}_means.csv").read_bytes()
                                for a in ALGORITHMS])

        assert eval_reports[0] == eval_reports[1] == eval_reports[2]
        assert eval_csvs[0] == eval_csvs[1] == eval_csvs[2]
        assert sweep_summaries[0] == sweep_summaries[1] == sweep_summaries[2]
        assert sweep_rows[0] == sweep_rows[1] == sweep_rows[2]
        assert sweep_means[0] == sweep_means[1] == sweep_means[2]


# ------------------------------------------------------------------ 9

def test_criterion_09_training_size_cutoff_trend():
    with criterion(9, "sweep means rise then flatten; cut-off lands below the largest size"):
        started = time.perf_counter()
        traces = bursty_traces(seed=9, count=500)
        result = run_sweep(traces, PredictorConfig("naive"),
                           SlidingWindowSpec(window_sizes=DEFAULT_WINDOW_SIZES))
        elapsed = time.perf_counter() - started

        sizes = list(DEFAULT_WINDOW_SIZES)
        means = {size: result.means[size]["dynamic_recall"]["mean"] for size in sizes}
        assert all(v is not None for v in means.values())
        cutoff, trend = cutoff_scan(means, DEFAULT_CUTOFF_EPSILON)
        assert trend == "positive"
        assert cutoff < max(sizes), f"cut-off {cutoff} not below {max(sizes)}"
        assert means[sizes[-1]] - means[sizes[0]] > 0.1

        values = [means[s] for s in sizes]
        settle = sizes.index(cutoff)
        for i in range(settle):
            # rising leg: never a material drop before the cut-off
            assert values[i + 1] - values[i] >= -DEFAULT_CUTOFF_EPSILON
        for i in range(settle, len(values) - 1):
            # flat leg: every later step stays inside epsilon
            assert abs(values[i + 1] - values[i]) <= DEFAULT_CUTOFF_EPSILON

        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


# ------------------------------------------------------------------ 10

def test_criterion_10_throughput_ordering():
    with criterion(10, "dg/mp/naive train+replay under 100 ms per model; ppm slowest"):
        traces = bursty_traces(seed=99, count=20, min_length=1000, max_length=1000,
                               repertoire_size=20, noise_rate=0.05, burst_max=5)
        spec = SplitSpec()
        totals = {a: 0.0 for a in ALGORITHMS}
        # round-robin over traces so load drift hits every algorithm equally
        for trace in traces.values():
            for algorithm in ALGORITHMS:
                totals[algorithm] += run_user(trace, PredictorConfig(algorithm), spec).elapsed_s
        means_ms = {a: totals[a] / len(traces) * 1000 for a in ALGORITHMS}
        print("per-model means:",
              " ".join(f"{a}={means_ms[a]:.2f}ms" for a in ALGORITHMS))
        for algorithm in ("dg", "mp", "naive"):
            assert means_ms[algorithm] < 100.0, f"{algorithm}: {means_ms[algorithm]:.1f} ms"
        slowest = max(means_ms, key=means_ms.get)
        assert slowest == "ppm", f"expected ppm slowest, got {slowest} ({means_ms})"
