from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from prefetchlab import cli, engine, forkjoin
from prefetchlab.cli import _run_jobs, evaluate, main
from prefetchlab.engine import SplitSpec
from prefetchlab.ingest import LogParseError, load_traces
from prefetchlab.predictors import ALGORITHMS, PredictorConfig
from prefetchlab.pruning import PruneSpec
from prefetchlab.sweep import SWEEP_METRICS, SlidingWindowSpec, build_sweep_result, sweep_user
from prefetchlab.synth import bursty_traces, write_log
from prefetchlab.traces import UserTrace

HEADER = "user_id,timestamp_ms,method,url\n"


def _make_log(tmp_path, count=4, length=40, fmt="csv", name="access.csv"):
    traces = bursty_traces(seed=7, count=count, min_length=length, max_length=length,
                           repertoire_size=8, noise_rate=0.05)
    return write_log(traces, tmp_path / name, fmt=fmt)


def _read_json(path):
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- ingest

def test_ingest_writes_traces_and_summary(tmp_path, capsys):
    log = _make_log(tmp_path)
    out = tmp_path / "ingested"
    assert main(["ingest", "--input", str(log), "--out", str(out)]) == 0
    store = _read_json(out / "traces.json")
    assert store["format"] == "prefetchlab-traces/v2"
    assert len(store["users"]) == 4
    for columns in store["users"].values():
        assert len(columns["timestamp_ms"]) == len(columns["url"]) == 40
    summary = _read_json(out / "ingest_summary.json")
    assert summary["command"] == "ingest"
    assert summary["load"]["kept"] == 4 * 40
    assert summary["users"] == {"parsed": 4, "kept": 4, "removed": 0}
    stdout = capsys.readouterr().out
    assert "traces written to" in stdout


def test_ingest_applies_outlier_removal(tmp_path):
    rows = [HEADER]
    # four ordinary users plus one with 10x the volume
    for uid, n in (("a", 20), ("b", 22), ("c", 24), ("d", 26), ("big", 200)):
        rows += [f"{uid},{1000 + i},GET,https://x.example/p{i % 5}\n" for i in range(n)]
    log = tmp_path / "log.csv"
    log.write_text("".join(rows), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(log), "--out", str(out)]) == 0
    summary = _read_json(out / "ingest_summary.json")
    assert summary["outliers"]["removed_users"] == ["big"]
    assert sorted(_read_json(out / "traces.json")["users"]) == ["a", "b", "c", "d"]


def test_ingest_without_get_rows_fails(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text(HEADER + "u1,1000,POST,https://a.example/x\n", encoding="utf-8")
    assert main(["ingest", "--input", str(log), "--out", str(tmp_path / "out")]) == 1
    assert "no GET requests" in capsys.readouterr().err


def test_strict_mode_aborts_on_malformed_row(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text(HEADER + "u1,notatime,GET,https://a.example/x\n", encoding="utf-8")
    rc = main(["ingest", "--input", str(log), "--strict", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error: line 2" in capsys.readouterr().err


def test_missing_input_returns_1(tmp_path, capsys):
    rc = main(["ingest", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_ingest_then_evaluate_keeps_users_with_colliding_escapes(tmp_path):
    # "a\u2014" (EM DASH) and "a 14" escaped to the same per-user file name in
    # the former one-file-per-user layout, so one trace overwrote the other
    rows = [HEADER]
    for uid in ("a\u2014", "a 14", "u1", "u2"):
        rows += [f"{uid},{1000 + i},GET,https://x.example/p{i % 3}\n" for i in range(12)]
    log = tmp_path / "log.csv"
    log.write_text("".join(rows), encoding="utf-8")
    out = tmp_path / "ingested"
    assert main(["ingest", "--input", str(log), "--out", str(out)]) == 0
    assert main(["evaluate", "--input", str(out), "--out", str(tmp_path / "eval"),
                 "--workers", "1"]) == 0
    report = _read_json(tmp_path / "eval" / "report.json")
    assert report["users"]["evaluated"] == 4
    assert sorted(report["results"]["naive"]) == sorted(["a\u2014", "a 14", "u1", "u2"])


def test_jsonl_user_id_or_url_that_utf8_cannot_encode_is_malformed(tmp_path, capsys):
    # a "\ud800" escape loads as a lone surrogate, which no UTF-8 output can hold
    row = {"user_id": "u1", "method": "GET", "url": "https://x.example/p"}
    rows = [dict(row, timestamp_ms=1000 + i, url=f"https://x.example/p{i % 3}")
            for i in range(12)]
    rows[3:3] = [dict(row, timestamp_ms=1, user_id="\ud800"),
                 dict(row, timestamp_ms=2, url="https://x.example/\udfff")]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    store = tmp_path / "ingested"
    assert main(["ingest", "--input", str(log), "--format", "jsonl", "--out", str(store)]) == 0
    load = _read_json(store / "ingest_summary.json")["load"]
    assert load["skipped_malformed"] == 2
    assert [e.split(" ")[:3] for e in load["errors"]] == [["line", "4:", "user_id"],
                                                          ["line", "5:", "url"]]
    assert list(_read_json(store / "traces.json")["users"]) == ["u1"]
    for command, argv in STORE_COMMANDS.items():
        assert main([*argv, str(tmp_path / command), "--input", str(store)]) == 0
    capsys.readouterr()
    assert main(["ingest", "--input", str(log), "--format", "jsonl", "--strict",
                 "--out", str(tmp_path / "strict")]) == 1
    assert capsys.readouterr().err.startswith("error: line 4: user_id")


def _perfbench_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_tracing_finds_every_name_it_patches():
    # the traced benchmark run wraps these module attributes; a start-up change
    # that drops one must fail here, not only in a traced run
    from prefetchlab import cli, engine, sweep

    tracing = _perfbench_tracing()
    saved = {module: dict(vars(module)) for module in (cli, engine, sweep)}
    try:
        originals = tracing._install(tracing.Recorder(), cli, engine, sweep)
        assert all(getattr(module, name) is not original
                   for module, name, original in originals)
    finally:
        for module, names in saved.items():
            vars(module).update(names)
    assert all(getattr(module, name) is original for module, name, original in originals)


def test_traced_sweep_workload_steps_give_every_layer_metric_a_finite_value(tmp_path):
    # the traced benchmark run divides by the steps and candidates it counted per
    # algorithm; on the sweep workload a model must be left for each to count
    tracing = _perfbench_tracing()
    log = _make_log(tmp_path, count=3, length=120, fmt="jsonl", name="access.jsonl")
    ingested = str(tmp_path / "ingest")
    rec, codes = tracing.traced_commands([
        ("ingest", ["ingest", "--input", str(log), "--format", "jsonl", "--out", ingested]),
        ("analyze", ["sweep", "--sizes", "20,40,80", "--input", ingested, "--workers", "1",
                     "--out", str(tmp_path / "analyze")]),
        ("evaluate_prune", ["evaluate", "--input", ingested, "--prune", "mor",
                            "--workers", "1", "--out", str(tmp_path / "evaluate_prune")]),
    ])
    assert codes == [0, 0, 0]
    values = tracing.layer_metrics(rec)
    assert {name for name, value in values.items() if not math.isfinite(value)} == set()


def test_traced_sweep_times_each_user_s_shared_pass_in_a_sweep_user_span(tmp_path):
    # the DG+MP pass runs inside sweep_user, so the traced run books it to the sweep layer
    tracing = _perfbench_tracing()
    log = _make_log(tmp_path, count=3)
    rec, codes = tracing.traced_commands([
        ("analyze", ["sweep", "--algo", "dg", "--algo", "mp", "--sizes", "10,20",
                     "--input", str(log), "--workers", "1", "--out", str(tmp_path / "o")]),
    ])
    assert codes == [0]
    assert [span[0] for span in rec.spans].count("sweep.sweep_user") == 3


# ---------------------------------------------------------------- trace store

def _valid_store() -> dict:
    columns = {"timestamp_ms": [1000 + i for i in range(12)],
               "url": [f"https://x.example/p{i % 3}" for i in range(12)]}
    return {"format": "prefetchlab-traces/v2",
            "users": {"u1": dict(columns), "u2": dict(columns)}}


def _edit_u1(key, value):
    def edit(store):
        store["users"]["u1"][key] = value
    return edit


def _drop(*path):
    def edit(store):
        for key in path[:-1]:
            store = store[key]
        del store[path[-1]]
    return edit


# each case turns a valid store into a hostile one: a dict edit, or raw text
HOSTILE_STORES = {
    "truncated_json": json.dumps(_valid_store())[:-20],
    "deeply_nested_json": "[" * 100_000 + "]" * 100_000,
    "wrong_format": lambda store: store.update(format="prefetchlab-traces/v1"),
    "missing_format": _drop("format"),
    "missing_users": _drop("users"),
    "missing_timestamps": _drop("users", "u1", "timestamp_ms"),
    "missing_urls": _drop("users", "u1", "url"),
    "unequal_columns": _edit_u1("url", ["https://x.example/p0"] * 11),
    "empty_trace": lambda store: store["users"].update(u1={"timestamp_ms": [], "url": []}),
    "string_timestamp": _edit_u1("timestamp_ms", ["1000"] + list(range(1001, 1012))),
    "float_timestamp": _edit_u1("timestamp_ms", [1000.5] + list(range(1001, 1012))),
    "bool_timestamp": _edit_u1("timestamp_ms", [True] + list(range(1001, 1012))),
    "empty_url": _edit_u1("url", [""] + ["https://x.example/p0"] * 11),
    "non_string_url": _edit_u1("url", [7] + ["https://x.example/p0"] * 11),
    "unhashable_url": _edit_u1("url", [["x"]] + ["https://x.example/p0"] * 11),
    # "\ud800" escapes load as lone surrogates, which no UTF-8 output can hold
    "surrogate_user_id": lambda store: store["users"].update({"\ud800": store["users"]["u1"]}),
    "surrogate_url": _edit_u1("url", ["https://x.example/\ud800"] + ["https://x.example/p0"] * 11),
    # a dict holds a key once, so the repeat is raw text; json.load alone keeps the second
    "repeated_user_id": json.dumps(_valid_store()).replace('"u2"', '"u1"'),
    "repeated_users_key": json.dumps(_valid_store())[:-1] + ', "users": {}}',
    "empty_user_id": lambda store: store["users"].update({"": store["users"]["u1"]}),
    # a log's fields are stripped, so no log gives a store a padded id or url
    "blank_user_id": lambda store: store["users"].update({" ": store["users"]["u1"]}),
    "padded_user_id": lambda store: store["users"].update({"u1 ": store["users"]["u1"]}),
    "padded_url": _edit_u1("url", ["https://x.example/p0 "] + ["https://x.example/p0"] * 11),
}
# the error line of these cases names what is wrong
HOSTILE_STORE_ERRORS = {
    "repeated_user_id": "key 'u1' is repeated",
    "repeated_users_key": "key 'users' is repeated",  # the repeat, not the first key
    "unequal_columns": "user 'u1': 12 timestamps but 11 urls",
}

STORE_COMMANDS = {
    "evaluate": ["evaluate", "--workers", "1", "--out"],
    "sweep": ["sweep", "--workers", "1", "--sizes", "5", "--out"],
    "stats": ["stats", "--out"],
}


@pytest.mark.parametrize("command", sorted(STORE_COMMANDS))
@pytest.mark.parametrize("case", sorted(HOSTILE_STORES))
def test_hostile_store_exits_2_with_error_line(tmp_path, capsys, case, command):
    hostile = HOSTILE_STORES[case]
    if isinstance(hostile, str):
        text = hostile
    else:
        store = _valid_store()
        hostile(store)
        text = json.dumps(store)
    store_dir = tmp_path / "ingested"
    store_dir.mkdir()
    (store_dir / "traces.json").write_text(text, encoding="utf-8")
    rc = main([*STORE_COMMANDS[command], str(tmp_path / "out"), "--input", str(store_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "traces.json" in err
    assert HOSTILE_STORE_ERRORS.get(case, "") in err
    assert not (tmp_path / "out").exists()  # rejected before any output is written


def test_store_entry_that_is_not_an_object_exits_2(tmp_path, capsys):
    store = _valid_store()
    store["users"]["u1"] = [1, 2]
    (tmp_path / "traces.json").write_text(json.dumps(store), encoding="utf-8")
    assert main(["stats", "--input", str(tmp_path)]) == 2
    assert capsys.readouterr().err.endswith("user 'u1': entry is not an object\n")


@pytest.mark.parametrize("command", sorted(STORE_COMMANDS))
def test_directory_without_store_exits_1(tmp_path, capsys, command):
    rc = main([*STORE_COMMANDS[command], str(tmp_path / "out"), "--input", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "traces.json" in err and "run 'ingest'" in err


def test_valid_store_is_accepted(tmp_path):
    # the hostile cases above are edits of this store, which every command loads
    store_dir = tmp_path / "ingested"
    store_dir.mkdir()
    (store_dir / "traces.json").write_text(json.dumps(_valid_store()), encoding="utf-8")
    for command, argv in STORE_COMMANDS.items():
        assert main([*argv, str(tmp_path / command), "--input", str(store_dir)]) == 0


def _short_users_log(tmp_path, length=3, fmt="csv"):
    """A log whose three users all fall under ingest's 10-request floor."""
    rows = [{"user_id": uid, "timestamp_ms": 1000 + i, "method": "GET",
             "url": f"https://x.example/p{i % 2}"} for uid in ("u1", "u2", "u3")
            for i in range(length)]
    if fmt == "csv":
        text = HEADER + "".join(f"{r['user_id']},{r['timestamp_ms']},GET,{r['url']}\n"
                                for r in rows)
    else:
        text = "".join(json.dumps(r) + "\n" for r in rows)
    log = tmp_path / f"short.{fmt}"
    log.write_text(text, encoding="utf-8")
    return log


def _assert_one_error_line_and_no_output(capsys, out):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_ingest_with_no_user_over_the_floor_exits_1_and_writes_nothing(tmp_path, capsys, fmt):
    # one rule for empty results: no command exits 0 with a result about nobody
    out = tmp_path / "ingested"
    log = _short_users_log(tmp_path, fmt=fmt)
    assert main(["ingest", "--input", str(log), "--format", fmt, "--out", str(out)]) == 1
    _assert_one_error_line_and_no_output(capsys, out)


@pytest.mark.parametrize("command", sorted(STORE_COMMANDS))
def test_store_without_users_exits_1_and_writes_nothing(tmp_path, capsys, command):
    # a store that an ingest run before the empty-result rule could write
    store_dir = tmp_path / "ingested"
    store_dir.mkdir()
    (store_dir / "traces.json").write_text(
        json.dumps({"format": "prefetchlab-traces/v2", "users": {}}), encoding="utf-8")
    out = tmp_path / "out"
    assert main([*STORE_COMMANDS[command], str(out), "--input", str(store_dir)]) == 1
    _assert_one_error_line_and_no_output(capsys, out)


@pytest.mark.parametrize("argv", [
    # each user's single request can neither be split nor repeat
    ["evaluate", "--workers", "1"],
    ["evaluate", "--workers", "2", "--domain-cutoff", "0.5"],
    # every user's 4 requests fall short of the smallest window
    ["sweep", "--workers", "1", "--sizes", "5,10"],
    ["sweep", "--workers", "2", "--sizes", "5"],
])
def test_raw_log_with_nothing_to_evaluate_exits_1_and_writes_nothing(tmp_path, capsys, argv):
    log = _short_users_log(tmp_path, length=1 if argv[0] == "evaluate" else 4)
    out = tmp_path / "out"
    assert main([*argv, "--input", str(log), "--out", str(out)]) == 1
    _assert_one_error_line_and_no_output(capsys, out)


def test_sweep_with_one_size_some_user_reaches_exits_0(tmp_path):
    # the rule is about no model at all: sizes no user reaches are still reported
    out = tmp_path / "out"
    assert main(["sweep", "--workers", "1", "--sizes", "3,50", "--algo", "naive",
                 "--input", str(_short_users_log(tmp_path)), "--out", str(out)]) == 0
    summary = _read_json(out / "sweep_summary.json")["algorithms_results"]["naive"]
    assert summary["model_count"] == 3 and summary["skipped_users"] == {"3": 0, "50": 3}


# ---------------------------------------------------------------- stats

def test_stats_prints_and_writes_report(tmp_path, capsys):
    log = _make_log(tmp_path)
    out = tmp_path / "statsdir"
    assert main(["stats", "--input", str(log), "--out", str(out)]) == 0
    report = _read_json(out / "stats.json")
    assert report["command"] == "stats"
    assert report["users"] == 4
    assert set(report["repeated_pct"]) == {"min", "avg", "max", "sd"}
    assert len(report["per_user"]) == 4
    stdout = capsys.readouterr().out
    assert "users: 4" in stdout
    assert "repeated pct" in stdout


def test_stats_accepts_ingested_directory(tmp_path, capsys):
    log = _make_log(tmp_path)
    out = tmp_path / "ingested"
    assert main(["ingest", "--input", str(log), "--out", str(out)]) == 0
    assert main(["stats", "--input", str(out)]) == 0
    # a directory without a store is not an ingest output
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["stats", "--input", str(empty)]) == 1
    err = capsys.readouterr().err
    assert "traces.json" in err and "run 'ingest'" in err


def test_stats_on_empty_input_fails(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text(HEADER + "u1,1000,POST,https://a.example/x\n", encoding="utf-8")
    assert main(["stats", "--input", str(log)]) == 1
    assert "no traces" in capsys.readouterr().err


# ---------------------------------------------------------------- evaluate

def test_evaluate_writes_report_and_csv(tmp_path, capsys):
    log = _make_log(tmp_path)
    out = tmp_path / "eval"
    rc = main(["evaluate", "--input", str(log), "--out", str(out), "--workers", "1"])
    assert rc == 0
    report = _read_json(out / "report.json")
    assert report["format"] == "prefetchlab-report/v1"
    assert report["command"] == "evaluate"
    assert report["config"]["algorithms"] == ["dg", "ppm", "mp", "naive"]
    assert report["users"]["evaluated"] == 4 and report["users"]["skipped"] == {}
    assert set(report["results"]) == {"dg", "ppm", "mp", "naive"}
    for per_user in report["results"].values():
        assert len(per_user) == 4
        for entry in per_user.values():
            assert set(entry) == {"outcome", "metrics"}
    assert report["pruning"] is None
    assert set(report["runtime"]) == {"workers", "elapsed_s", "per_model_ms"}

    with (out / "metrics.csv").open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["user_id", "algorithm", "metric", "value"]
    assert len(rows) == 1 + 4 * 4 * 6  # users x algorithms x metric names
    stdout = capsys.readouterr().out
    assert "naive" in stdout and "report:" in stdout


def test_evaluate_algo_selection_is_canonical(tmp_path):
    log = _make_log(tmp_path, count=2)
    out = tmp_path / "eval"
    rc = main(["evaluate", "--input", str(log), "--out", str(out),
               "--algo", "mp", "--algo", "dg", "--algo", "mp", "--workers", "1"])
    assert rc == 0
    report = _read_json(out / "report.json")
    assert report["config"]["algorithms"] == ["dg", "mp"]
    # no naive baseline selected: normalized columns stay undefined
    for per_user in report["results"].values():
        for entry in per_user.values():
            assert entry["metrics"]["normalized_static_recall"] is None


def test_evaluate_with_prune_reports_baseline_and_deltas(tmp_path):
    log = _make_log(tmp_path)
    out = tmp_path / "eval"
    rc = main(["evaluate", "--input", str(log), "--out", str(out),
               "--prune", "mor", "--keep-fraction", "0.2", "--workers", "1"])
    assert rc == 0
    report = _read_json(out / "report.json")
    section = report["pruning"]
    assert section["strategy"] == "mor"
    assert section["keep_fraction"] == 0.2
    assert 0.0 <= section["size_reduction"]["mean"] < 1.0
    assert set(section["baseline_aggregates"]) == set(report["aggregates"])
    assert set(section["delta_means"]) == set(report["aggregates"])
    for per_user in report["results"].values():
        for entry in per_user.values():
            assert "prune" in entry
            assert 0 < entry["prune"]["kept_requests"]


def test_evaluate_prune_with_one_algorithm_reports_its_deltas(tmp_path):
    log = _make_log(tmp_path)
    assert main(["evaluate", "--input", str(log), "--out", str(tmp_path / "o"),
                 "--algo", "dg", "--prune", "mor", "--workers", "1"]) == 0
    section = _read_json(tmp_path / "o" / "report.json")["pruning"]
    assert list(section["delta_means"]) == ["dg"]
    assert section["size_reduction"]["mean"] is not None


def test_prune_delta_is_none_where_a_mean_is_none_in_one_regime_only():
    # mor keeps only a's requests, and DG trained on them prefetches nothing in the test
    a, b, c = (f"https://{d}.example/" for d in "abc")
    keys = [a, a, a, b, c, b, c]
    trace = UserTrace("u", list(range(len(keys))), keys)
    report = evaluate({"u": trace}, [PredictorConfig("dg")], SplitSpec(0.7),
                      PruneSpec("mor", 0.2))
    section = report["pruning"]
    assert report["aggregates"]["dg"]["static_precision"]["mean"] is None
    assert section["baseline_aggregates"]["dg"]["static_precision"]["mean"] is not None
    assert section["delta_means"]["dg"]["static_precision"] is None


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.usefixtures("eight_cpus")
def test_evaluate_skips_ineligible_users(tmp_path, workers):
    lines = [HEADER]
    # u1: one domain, no repeated requests at all
    lines += [f"u1,{1000 + i},GET,https://unique.example/p{i}\n" for i in range(12)]
    # u2: heavy repetition
    lines += [f"u2,{1000 + i},GET,https://rep.example/p{i % 2}\n" for i in range(12)]
    # u3: too short to split
    lines += ["u3,1000,GET,https://rep.example/p0\n"]
    log = tmp_path / "log.csv"
    log.write_text("".join(lines), encoding="utf-8")

    out = tmp_path / "eval_cutoff"
    rc = main(["evaluate", "--input", str(log), "--out", str(out),
               "--algo", "naive", "--domain-cutoff", "0.1", "--workers", workers])
    assert rc == 0
    report = _read_json(out / "report.json")
    assert report["users"]["evaluated"] == 1
    # a single request can never repeat, so u3 falls at the cut-off too
    assert report["users"]["skipped"] == {
        "u1": "all domains below repeated-request cut-off",
        "u3": "all domains below repeated-request cut-off",
    }
    assert list(report["results"]["naive"]) == ["u2"]

    out = tmp_path / "eval_plain"
    rc = main(["evaluate", "--input", str(log), "--out", str(out),
               "--algo", "naive", "--workers", workers])
    assert rc == 0
    report = _read_json(out / "report.json")
    assert report["users"]["evaluated"] == 2
    assert report["users"]["skipped"] == {"u3": "too short to split"}


@pytest.mark.usefixtures("eight_cpus")
def test_evaluate_worker_count_changes_nothing_but_runtime(tmp_path):
    log = _make_log(tmp_path)
    reports, csvs = [], []
    for n, workers in (("a", "1"), ("b", "2")):
        out = tmp_path / f"eval_{n}"
        rc = main(["evaluate", "--input", str(log), "--out", str(out),
                   "--workers", workers])
        assert rc == 0
        report = _read_json(out / "report.json")
        assert report["runtime"]["workers"] == int(workers)
        report.pop("runtime")
        reports.append(report)
        csvs.append((out / "metrics.csv").read_bytes())
    assert reports[0] == reports[1]
    assert csvs[0] == csvs[1]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
@pytest.mark.usefixtures("eight_cpus")
def test_run_jobs_equals_the_serial_map(workers):
    for n in range(8):
        payloads = [f"p{i}" for i in range(n)]
        results = _run_jobs(lambda p: (p * 2, os.getpid()), payloads, workers)
        assert [r[0] for r in results] == [p * 2 for p in payloads]
        # the parent maps a share itself and forks one child per other share
        assert len({r[1] for r in results}) == min(workers, n)
        assert os.getpid() in {r[1] for r in results} or n == 0
        _assert_no_child_left()


def test_run_jobs_forks_at_most_one_process_per_cpu(monkeypatch):
    shares = []

    def fork_map(job, payloads, count):
        shares.append(count)
        return [job(p) for p in payloads]

    monkeypatch.setattr(forkjoin, "fork_map", fork_map)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _run_jobs(lambda p: p * 2, list(range(50)), 5000) == [p * 2 for p in range(50)]
    assert shares == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # an unknown count allows one process
    assert _run_jobs(lambda p: p * 2, list(range(50)), 5000) == [p * 2 for p in range(50)]
    assert shares == [2]


def test_run_jobs_without_fork_maps_in_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert _run_jobs(lambda p: (p, os.getpid()), [1, 2, 3], 4) == [
        (p, os.getpid()) for p in (1, 2, 3)]


# slices of 8 payloads: [0, 4) [4, 8) at 2 shares, [0, 2) [2, 5) [5, 8) at 3;
# of 7 payloads at 3 shares: [0, 2) [2, 4) [4, 7)
@pytest.mark.parametrize("failing", [{3, 4}, {2, 5}, {5}, {1, 6}, {1, 2}])
@pytest.mark.usefixtures("eight_cpus")
def test_run_jobs_raises_the_earliest_payloads_exception(failing):
    def job(p):
        if p in failing:
            raise ValueError(f"payload {p}")
        return p
    for count, workers in ((8, 1), (8, 2), (8, 3), (7, 3)):
        with pytest.raises(ValueError, match=f"payload {min(failing)}"):
            _run_jobs(job, list(range(count)), workers)
        _assert_no_child_left()


@pytest.mark.usefixtures("eight_cpus")
def test_value_error_in_a_childs_share_exits_2_as_with_one_worker(tmp_path, capsys,
                                                                 monkeypatch):
    log = _make_log(tmp_path)
    run_user = cli.run_user
    users = sorted(load_traces(log)[0])

    def failing_run_user(trace, *args):
        if trace.user_id == users[2]:  # the first payload of the first child's slice
            raise ValueError(f"cannot evaluate {trace.user_id}")
        return run_user(trace, *args)

    monkeypatch.setattr(cli, "run_user", failing_run_user)
    errors = []
    for workers in ("1", "2"):
        assert main(["evaluate", "--input", str(log), "--out", str(tmp_path / workers),
                     "--workers", workers]) == 2
        errors.append(capsys.readouterr().err)
        _assert_no_child_left()
    assert errors[0] == errors[1] == f"error: cannot evaluate {users[2]}\n"


@pytest.mark.usefixtures("eight_cpus")
def test_log_parse_error_in_a_childs_share_reaches_the_parent_intact(tmp_path, capsys,
                                                                     monkeypatch):
    def job(p):
        if p == 3:  # the first payload of the child's slice
            raise LogParseError(3, "bad")
        return p

    with pytest.raises(LogParseError) as err:
        _run_jobs(job, [1, 2, 3, 4], 2)
    assert err.value.line_no == 3 and str(err.value) == "line 3: bad"
    _assert_no_child_left()

    log = _make_log(tmp_path)
    run_user = cli.run_user
    users = sorted(load_traces(log)[0])

    def failing_run_user(trace, *args):
        if trace.user_id == users[2]:  # the first payload of the child's slice
            raise LogParseError(3, "bad")
        return run_user(trace, *args)

    monkeypatch.setattr(cli, "run_user", failing_run_user)
    assert main(["evaluate", "--input", str(log), "--out", str(tmp_path / "o"),
                 "--workers", "2"]) == 1
    assert capsys.readouterr().err == "error: line 3: bad\n"
    _assert_no_child_left()


@pytest.mark.usefixtures("eight_cpus")
def test_run_jobs_result_that_cannot_be_pickled_raises_in_the_parent_alone(tmp_path):
    after = tmp_path / "after"
    with pytest.raises((pickle.PicklingError, AttributeError)):
        _run_jobs(lambda p: lambda: p, [1, 2, 3], 2)
    # caller code after the call runs once, in this process: no child returned here
    with after.open("a") as fh:
        fh.write(f"{os.getpid()}\n")
    assert after.read_text().split() == [str(os.getpid())]
    _assert_no_child_left()


@pytest.mark.usefixtures("eight_cpus")
def test_run_jobs_exception_that_cannot_be_pickled_raises_its_pickling_error():
    def job(p):
        if p == 3:  # the first payload of the child's slice
            raise ValueError(lambda: p)
        return p

    with pytest.raises((pickle.PicklingError, AttributeError)):
        _run_jobs(job, [1, 2, 3, 4], 2)
    _assert_no_child_left()


@pytest.mark.usefixtures("eight_cpus")
def test_run_jobs_child_that_dies_without_results_raises():
    parent = os.getpid()

    def job(p):
        if os.getpid() != parent:
            os._exit(3)
        return p

    with pytest.raises(ChildProcessError, match="ended without its results"):
        _run_jobs(job, [1, 2, 3, 4], 3)
    _assert_no_child_left()


def _children_write_half_their_results(monkeypatch):
    # as a child killed part-way through its write leaves them
    def dumps(obj):
        data = pickle.dumps(obj)
        return data[:len(data) // 2]
    monkeypatch.setattr(forkjoin, "pickle", SimpleNamespace(dumps=dumps, loads=pickle.loads))


@pytest.mark.usefixtures("eight_cpus")
def test_run_jobs_child_results_that_cannot_be_unpickled_raise(monkeypatch):
    _children_write_half_their_results(monkeypatch)
    with pytest.raises(ChildProcessError, match=r"^worker process \d+ sent results that "
                                                r"cannot be read") as err:
        _run_jobs(lambda p: p, [1, 2, 3, 4], 3)
    assert isinstance(err.value.__cause__, (pickle.UnpicklingError, EOFError))
    _assert_no_child_left()


@pytest.mark.usefixtures("eight_cpus")
def test_unreadable_results_of_a_child_exit_1_with_one_error_line(tmp_path, capsys,
                                                                  monkeypatch):
    log = _make_log(tmp_path)
    _children_write_half_their_results(monkeypatch)
    out = tmp_path / "out"
    assert main(["evaluate", "--input", str(log), "--out", str(out), "--workers", "2"]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: worker process ")
    assert not out.exists()
    _assert_no_child_left()


def test_forked_evaluate_loads_no_process_pool_module(tmp_path):
    # the workers are forked from the command's own process; a pool's modules
    # would cost every multi-worker run their import and start-up
    log = _make_log(tmp_path, count=3)
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from prefetchlab.cli import main; "
            "rc = main(['evaluate', '--input', sys.argv[2], '--out', sys.argv[3], "
            "'--workers', '2']); "
            "print(rc, sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src, str(log), str(tmp_path / "out")],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "report.json").is_file()


def test_one_worker_evaluate_leaves_forkjoin_unloaded(tmp_path):
    log = _make_log(tmp_path, count=3)
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from prefetchlab.cli import main; "
            "rc = main(['evaluate', '--input', sys.argv[2], '--out', sys.argv[3], "
            "'--workers', '1']); print(rc, 'prefetchlab.forkjoin' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src, str(log), str(tmp_path / "out")],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "0 False"


def test_evaluate_rejects_bad_ratio_with_exit_2(tmp_path, capsys):
    log = _make_log(tmp_path, count=2)
    rc = main(["evaluate", "--input", str(log), "--out", str(tmp_path / "o"),
               "--ratio", "1.5", "--workers", "1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cutoff", ["2", "-0.1", "nan", "inf"])
def test_evaluate_rejects_domain_cutoff_outside_unit_interval(tmp_path, capsys, cutoff):
    log = _make_log(tmp_path, count=2)
    out = tmp_path / "o"
    rc = main(["evaluate", "--input", str(log), "--out", str(out),
               "--domain-cutoff", cutoff, "--workers", "1"])
    assert rc == 2
    assert "domain_cutoff" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("args", [["evaluate", "--ratio", "1.5"],
                                  ["evaluate", "--domain-cutoff", "nan"],
                                  ["evaluate", "--prune", "mor", "--keep-fraction", "2"],
                                  ["sweep", "--sizes", "1"],
                                  ["evaluate", "--keep-fraction", "2"]])
def test_bad_option_exits_2_before_the_input_is_read(tmp_path, capsys, args):
    missing = tmp_path / "nope.csv"
    rc = main(args + ["--input", str(missing), "--out", str(tmp_path / "o"), "--workers", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope.csv" not in err


@pytest.mark.parametrize("command", [["evaluate"], ["sweep", "--sizes", "5"]])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2_before_the_input_is_read(tmp_path, capsys, command,
                                                           workers):
    missing = tmp_path / "nope.csv"
    rc = main(command + ["--input", str(missing), "--out", str(tmp_path / "o"),
                         "--workers", workers])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "workers" in err and "nope.csv" not in err
    assert not (tmp_path / "o").exists()


def test_workers_defaults_to_the_cpu_count(monkeypatch):
    parser = cli.build_parser()
    for command in ("evaluate", "sweep"):
        args = parser.parse_args([command, "--input", "log.csv", "--out", "o"])
        assert args.workers == (os.cpu_count() or 1)
    # an unknown CPU count means one worker; the default is read as the parser is built
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    parser = cli.build_parser()
    for command in ("evaluate", "sweep"):
        args = parser.parse_args([command, "--input", "log.csv", "--out", "o"])
        assert args.workers == 1


def test_library_evaluate_rejects_workers_below_one(tmp_path):
    traces, _ = load_traces(_make_log(tmp_path, count=2))
    with pytest.raises(ValueError, match="workers"):
        evaluate(traces, [PredictorConfig("dg")], SplitSpec(), workers=0)


def test_evaluate_out_that_is_a_file_exits_1_with_error_line(tmp_path, capsys):
    log = _make_log(tmp_path, count=2)
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    rc = main(["evaluate", "--input", str(log), "--out", str(out), "--workers", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert out.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("out_name", ["taken", "taken/sub"])
@pytest.mark.parametrize("command", [["ingest"], ["stats"], ["evaluate", "--workers", "1"],
                                     ["sweep", "--sizes", "5", "--workers", "1"]],
                         ids=lambda c: c[0])
def test_out_under_a_file_exits_1_before_the_input_is_read(tmp_path, capsys, command,
                                                           out_name):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    out = tmp_path / out_name
    rc = main(command + ["--input", str(tmp_path / "nope.csv"), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err and "nope.csv" not in err
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("command, blocked", [
    (["ingest", "--input", "{log}"], "ingest_summary.json"),
    (["stats", "--input", "{log}"], "stats.json"),
    (["evaluate", "--input", "{log}", "--workers", "1"], "metrics.csv"),
    (["sweep", "--sizes", "5,10", "--input", "{log}", "--workers", "1"], "sweep_ppm_means.csv"),
    (["selftest"], "selftest.json"),
], ids=["ingest", "stats", "evaluate", "sweep", "selftest"])
def test_failed_write_leaves_no_partial_outputs(tmp_path, capsys, command, blocked):
    # one output path is a directory, so that output cannot be written; the
    # log's two users of 40 requests each pass ingest's 10-request floor
    log = _make_log(tmp_path, count=2)
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    (out / "earlier.txt").write_text("an earlier file\n", encoding="utf-8")
    rc = main([arg.format(log=log) for arg in command] + ["--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and blocked in err
    assert sorted(p.name for p in out.iterdir()) == sorted([blocked, "earlier.txt"])
    assert not any((out / blocked).iterdir())
    assert (out / "earlier.txt").read_text(encoding="utf-8") == "an earlier file\n"


def _write_text(path, text):
    path.write_text(text, encoding="utf-8")


def _contents(out):
    return {path.name: path.read_text(encoding="utf-8") for path in out.iterdir()}


def test_publish_removes_the_temporaries_that_a_killed_publish_left(tmp_path):
    out = tmp_path / "o"
    names = ("a.json", "b.csv")
    cli._publish(out, {name: (_write_text, "old\n") for name in names})
    (out / ".keep").write_text("unrelated\n", encoding="utf-8")
    pid = os.fork()
    if pid == 0:
        try:  # the child is killed right after its first rename
            replace = Path.replace

            def replace_then_die(path, target):
                replace(path, target)
                os.kill(os.getpid(), signal.SIGKILL)

            Path.replace = replace_then_die
            cli._publish(out, {name: (_write_text, "new\n") for name in names})
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    assert _contents(out) == {"a.json": "new\n", "b.csv": "old\n", f".b.csv.{pid}.tmp": "new\n",
                              ".keep": "unrelated\n"}

    cli._publish(out, {name: (_write_text, "new\n") for name in names})
    assert _contents(out) == {"a.json": "new\n", "b.csv": "new\n", ".keep": "unrelated\n"}


def test_publish_removes_no_file_but_a_stray_temporary_of_its_own_names(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    kept = [".c.csv.17.tmp", ".a.json.x17.tmp", ".a.json..tmp", "a.json.17.tmp",
            ".a.json.17.tmp.bak", ".xa.json.17.tmp", ".a.json.\u0661.tmp"]
    for name in kept + [".a.json.17.tmp", ".b.csv.4242.tmp"]:
        (out / name).write_text("stray\n", encoding="utf-8")
    cli._publish(out, {name: (_write_text, "new\n") for name in ("a.json", "b.csv")})
    assert _contents(out) == {"a.json": "new\n", "b.csv": "new\n",
                              **{name: "stray\n" for name in kept}}


@pytest.mark.parametrize("cutoff", ["0", "1"])
def test_evaluate_accepts_domain_cutoff_at_the_bounds(tmp_path, cutoff):
    log = _make_log(tmp_path, count=2)
    out = tmp_path / "o"
    assert main(["evaluate", "--input", str(log), "--out", str(out),
                 "--domain-cutoff", cutoff, "--workers", "1"]) == 0
    assert _read_json(out / "report.json")["config"]["domain_cutoff"] == float(cutoff)


# ---------------------------------------------------------------- sweep

def test_sweep_writes_csvs_and_summary(tmp_path, capsys):
    log = _make_log(tmp_path)
    out = tmp_path / "sweepdir"
    rc = main(["sweep", "--input", str(log), "--out", str(out),
               "--algo", "naive", "--algo", "dg", "--sizes", "5,8", "--workers", "1"])
    assert rc == 0
    summary = _read_json(out / "sweep_summary.json")
    assert summary["format"] == "prefetchlab-sweep/v1"
    assert summary["config"]["window"]["window_sizes"] == [5, 8]
    assert set(summary["algorithms_results"]) == {"dg", "naive"}

    for algo in ("dg", "naive"):
        section = summary["algorithms_results"][algo]
        assert set(section["means"]) == {"5", "8"}
        assert set(section["cutoffs"]) == {
            "static_precision", "static_recall", "dynamic_recall"}
        with (out / f"sweep_{algo}.csv").open(encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["window_size", "window_index", "user_id", "static_precision",
                           "static_recall", "dynamic_recall", "elapsed_ms"]
        assert len(rows) == 1 + section["model_count"]
        with (out / f"sweep_{algo}_means.csv").open(encoding="utf-8") as fh:
            mean_rows = list(csv.reader(fh))
        assert mean_rows[0] == ["window_size", "metric", "mean", "count"]
        assert len(mean_rows) == 1 + 2 * 3  # sizes x sweep metrics
    assert "sweep summary:" in capsys.readouterr().out


def test_sweep_cutoff_entries_have_trend(tmp_path):
    log = _make_log(tmp_path, count=2, length=60)
    out = tmp_path / "sweepdir"
    rc = main(["sweep", "--input", str(log), "--out", str(out),
               "--algo", "naive", "--sizes", "10,20,30", "--workers", "1"])
    assert rc == 0
    summary = _read_json(out / "sweep_summary.json")
    cutoffs = summary["algorithms_results"]["naive"]["cutoffs"]
    dr = cutoffs["dynamic_recall"]
    assert dr is not None
    assert dr["cutoff"] in (10, 20, 30)
    assert dr["trend"] in ("positive", "negative", "flat")


def test_sweep_rejects_bad_size_list(tmp_path, capsys):
    log = _make_log(tmp_path, count=2)
    with pytest.raises(SystemExit):
        main(["sweep", "--input", str(log), "--out", str(tmp_path / "o"),
              "--sizes", "5,banana", "--workers", "1"])
    assert "bad size list" in capsys.readouterr().err


def test_sweep_rejects_an_empty_size_list(tmp_path, capsys):
    log = _make_log(tmp_path, count=2)
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", "--input", str(log), "--out", str(tmp_path / "o"), "--sizes", ","])
    assert exit_.value.code == 2
    assert "size list is empty" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_rejects_a_repeated_window_size_and_writes_nothing(tmp_path, capsys):
    log = _make_log(tmp_path, count=2)
    out = tmp_path / "o"
    rc = main(["sweep", "--input", str(log), "--out", str(out), "--sizes", "5,10,5",
               "--workers", "1"])
    assert rc == 2
    assert "window size 5" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_whose_job_fails_leaves_no_out_directory(tmp_path, capsys, monkeypatch):
    def failing_sweep_user(trace, configs, spec):
        raise ValueError("cannot sweep")

    monkeypatch.setattr(cli, "sweep_user", failing_sweep_user)
    log = _make_log(tmp_path, count=2)
    out = tmp_path / "partial_out" / "x"
    rc = main(["sweep", "--input", str(log), "--out", str(out), "--sizes", "5,10",
               "--workers", "1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: cannot sweep\n"
    assert not (tmp_path / "partial_out").exists()


def test_sweep_elapsed_time_leaves_out_loading_the_input(tmp_path, monkeypatch):
    # as in evaluate, runtime.elapsed_s times the sweep, not the reading of the log
    load_traces = cli.load_traces

    def slow_load_traces(*args, **kwargs):
        time.sleep(0.3)
        return load_traces(*args, **kwargs)

    monkeypatch.setattr(cli, "load_traces", slow_load_traces)
    log = _make_log(tmp_path, count=2)
    out = tmp_path / "o"
    assert main(["sweep", "--input", str(log), "--out", str(out), "--sizes", "5,10",
                 "--workers", "1"]) == 0
    assert _read_json(out / "sweep_summary.json")["runtime"]["elapsed_s"] < 0.3


def _numbers(section) -> list:
    """Every int or float in a JSON section, at any depth."""
    if isinstance(section, dict):
        return [n for value in section.values() for n in _numbers(value)]
    return [section] if type(section) in (int, float) else []


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", [["evaluate"], ["evaluate", "--prune", "mor"],
                                     ["sweep", "--sizes", "10,20,40"]],
                         ids=["evaluate", "evaluate-prune", "sweep"])
def test_runtime_is_bounded_by_the_wall_time_around_main(tmp_path, command, workers):
    log = _golden_log(tmp_path)
    out = tmp_path / "out"
    started = time.perf_counter()
    assert main([*command, "--input", str(log), "--out", str(out), "--workers", workers]) == 0
    wall_s = time.perf_counter() - started
    report = _read_json(out / ("sweep_summary.json" if command[0] == "sweep" else "report.json"))
    runtime = report["runtime"]
    assert all(math.isfinite(n) and n >= 0 for n in _numbers(runtime))
    assert runtime["elapsed_s"] <= wall_s
    elapsed_ms = runtime["elapsed_s"] * 1000
    if command[0] == "evaluate":
        per_model = runtime["per_model_ms"].values()
        assert all(timing["max_ms"] <= elapsed_ms for timing in per_model)
        if workers == "1":  # one process runs every model in turn
            assert sum(timing["avg_ms"] * timing["models"] for timing in per_model) <= elapsed_ms
    elif workers == "1":
        rows = []
        for a in report["config"]["algorithms"]:
            with (out / f"sweep_{a}.csv").open(newline="", encoding="utf-8") as fh:
                rows += csv.DictReader(fh)
        assert rows
        # each row's elapsed_ms is rounded to 0.001 ms
        assert sum(float(row["elapsed_ms"]) for row in rows) <= elapsed_ms + 0.0005 * len(rows)


def test_sweep_with_two_configs_for_one_algorithm_exits_2_and_writes_nothing(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_configs",
                        lambda args: [PredictorConfig(a) for a in ("dg", "mp", "dg")])
    log = _make_log(tmp_path, count=2)
    out = tmp_path / "o"
    rc = main(["sweep", "--input", str(log), "--out", str(out), "--sizes", "5,10",
               "--workers", "1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: one config per algorithm, got ['dg', 'mp', 'dg']\n"
    assert not out.exists()


# ---------------------------------------------------------------- golden digests

# SHA-256 of every output of one seeded run per command, with the wall-clock
# parts dropped (report "runtime", sweep "runtime" and the "elapsed_ms"
# column). Recorded before evaluate and sweep moved to per-user jobs; any
# change to a number, a key or the layout of these files changes a digest.
GOLDEN_DIGESTS = {
    "evaluate-cutoff": {
        "metrics.csv":
            "c9f3ee0e8ae578b42237543abf15fcd04fa6f9ea7f3d74b0f495852fc2dbef5d",
        "report.json":
            "ca014382b1ef98d393760673f45c0c74a9991bde3afea9aa81e3611346ffc38e",
    },
    "evaluate-prune": {
        "metrics.csv":
            "6121f8632be9d47cb1951b4a1dc38d72ef0766c7b85c595f3a61e258946d4bd5",
        "report.json":
            "06c3dc56d8e60e0ed75138cfcf1886fa04fe52996c933c9c6c7c088e439274b2",
    },
    "sweep": {
        "sweep_dg.csv":
            "bf60890a53969e2794540a7004bc3e69f461365c199ccc3e9975033adbf965c3",
        "sweep_dg_means.csv":
            "56da3974f13b42e51769cd1b4846c941ed4fd141ad53dd7d21d30f09b6652e8d",
        "sweep_mp.csv":
            "2841b4fa69d9671aea5cb261d172eab5c5d7c85afbb8aae2b07d3436008a0095",
        "sweep_mp_means.csv":
            "3b6409d34c4b4f987fdd02575dd02a96626e59ed9ab90327a95f7d01851caddd",
        "sweep_naive.csv":
            "67de0a95a5b4223bccdfdaa75c35ce8542ac032823d764db028e87c6bb0e030b",
        "sweep_naive_means.csv":
            "03c0555b5b9ec01a60b2d1b1d6fdae599b5bdfba1311187b3d10f707fe629010",
        "sweep_ppm.csv":
            "a59406f2d1dcf96c5efdccd646c66e3035e923103ca0014a80c310c28da599a4",
        "sweep_ppm_means.csv":
            "3eb190292e0fa468422ea2e925437a8597db7ddb14961f61df56ba8fe3dd4863",
        "sweep_summary.json":
            "07e614e8db04c6c70373e2adeb2514836e273a35abfc13e689ba1a5bba5911c8",
    },
    # the two runs with non-default model flags were recorded before
    # evaluate's per-user job took over the cut-off, the skips and the scoring
    "evaluate-flags": {
        "metrics.csv":
            "e3e0a2f1c40962846a7b046ca1e9b37c327a25bf20a6864676228ed19f001bf5",
        "report.json":
            "e8c6703eb5da7691d4f916d98c428441b53f360ed9f66497d95d311659c6a6a5",
    },
    "sweep-flags": {
        "sweep_dg.csv":
            "2c9c766e9c03b5f10729a6cbb4c6e87a876bac083b554d4c4dee446bfd09a614",
        "sweep_dg_means.csv":
            "d416accbafe45868d7294c1a6b53681f95f7cff4f797bfd00eba93a30cea46a5",
        "sweep_mp.csv":
            "6b0da42764cd0efb4ee62261726c7fab0b028ebdbf7d2c808fd5f9b552d91c8c",
        "sweep_mp_means.csv":
            "97342c42a1bb93881bb2d64e62c8d54303a6abc95755a8f47aa2dc675f3a6da3",
        "sweep_naive.csv":
            "cf2092dae701412b96d9120b34960f0b4ae18310c079e22d656a373932cb9dd5",
        "sweep_naive_means.csv":
            "c1635345866443b6e700d4affa01f8504fd09843550c7dc09be999cc202e4c34",
        "sweep_ppm.csv":
            "4a322853b2f135df88e1920cfc687dcad77dad8024faf897ebf1d68eb8ca5358",
        "sweep_ppm_means.csv":
            "b0cbe9cd1b8c768bff1311bc16abd2ea8fa52b447d5a0d88f758e34a29b158b1",
        "sweep_summary.json":
            "5c17b1815f135253fdc5e995f491d6f58904a50822445b693f095ec44857affa",
    },
}


def _golden_log(tmp_path):
    traces = bursty_traces(seed=11, count=6, min_length=60, max_length=140,
                           repertoire_size=12, noise_rate=0.15)
    log = write_log(traces, tmp_path / "golden.csv")
    with log.open("a", encoding="utf-8") as fh:  # a user every evaluate run skips
        fh.write("short,1600000000000,GET,https://one.example/x\n")
    return log


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_digest(path) -> str:
    obj = _read_json(path)
    obj.pop("runtime")
    return _sha(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


def _rows_digest_without_elapsed(path) -> str:
    with path.open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "elapsed_ms"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(row[:-1] for row in rows)
    return _sha(buf.getvalue().encode())


def _output_digests(out) -> dict[str, str]:
    digests = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            digests[path.name] = _json_digest(path)
        elif path.name.endswith("_means.csv") or path.name == "metrics.csv":
            digests[path.name] = _sha(path.read_bytes())
        else:
            digests[path.name] = _rows_digest_without_elapsed(path)
    return digests


GOLDEN_RUNS = {
    "evaluate-prune": ["evaluate", "--prune", "mor"],
    "evaluate-cutoff": ["evaluate", "--domain-cutoff", "0.1"],
    "sweep": ["sweep", "--sizes", "10,20,40"],
    "evaluate-flags": ["evaluate", "--window", "1", "--threshold", "0", "--top-n", "1",
                       "--ppm-order", "3", "--prune", "msd", "--keep-fraction", "0.5"],
    "sweep-flags": ["sweep", "--sizes", "10,20,40", "--window", "2", "--top-n", "2",
                    "--ratio", "0.6"],
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
@pytest.mark.usefixtures("eight_cpus")
def test_outputs_match_recorded_digests(tmp_path, run, workers):
    log = _golden_log(tmp_path)
    out = tmp_path / "out"
    argv = GOLDEN_RUNS[run] + ["--input", str(log), "--out", str(out), "--workers", workers]
    assert main(argv) == 0
    assert _output_digests(out) == GOLDEN_DIGESTS[run]


# SHA-256 of stats.json for the golden log, recorded when stats still
# summarised across users with numpy's min/mean/max/std.
STATS_GOLDEN_DIGEST = "7f9a925aba955ee2d844a68dfc25a3c2808e794c8f801c362386d37263249e62"


def test_stats_output_matches_recorded_digest(tmp_path):
    log = _golden_log(tmp_path)
    out = tmp_path / "out"
    assert main(["stats", "--input", str(log), "--out", str(out)]) == 0
    assert _sha((out / "stats.json").read_bytes()) == STATS_GOLDEN_DIGEST


# SHA-256 of the two ingest outputs for the golden log with one POST row and
# one malformed row appended (so the summary's errors list is not empty), and
# of selftest.json at seed 0; recorded before the report records were
# serialized with ``_asdict()``.
INGEST_GOLDEN_DIGESTS = {
    "ingest_summary.json":
        "c52b29584412372dab0ad80f7d7927ced33888e801131ff217c228da63862cc1",
    "traces.json":
        "439662e6f892da2dd86e376f70996df8ac49d38c1b74a05e3df20c41e8b70a08",
}
SELFTEST_GOLDEN_DIGEST = "b74d40b80d329af0f3543b19faa0fe01ec9f8cad056cb02e6d7245c7d1252ea3"


def test_ingest_outputs_match_recorded_digests(tmp_path):
    log = _golden_log(tmp_path)
    with log.open("a", encoding="utf-8") as fh:
        fh.write("short,1600000000001,POST,https://one.example/form\n")
        fh.write("short,not-a-time,GET,https://one.example/y\n")
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(log), "--out", str(out)]) == 0
    assert {name: _sha((out / name).read_bytes())
            for name in INGEST_GOLDEN_DIGESTS} == INGEST_GOLDEN_DIGESTS


SRC = Path(__file__).resolve().parents[1] / "src"
PYENV_VERSIONS = Path.home() / ".pyenv" / "versions"


@pytest.mark.parametrize("minor", ["3.10", "3.11", "3.12", "3.13"])
def test_outputs_match_recorded_digests_on_every_python(tmp_path, minor):
    """The golden runs and stats write the same bytes under each CPython pyenv has.

    ``sum()`` of floats is compensated from 3.12 on, so a mean taken with it
    changes in its last digit between interpreters.
    """
    found = sorted(PYENV_VERSIONS.glob(f"{minor}.*/bin/python{minor}"))
    if not found:
        pytest.skip(f"no CPython {minor} under {PYENV_VERSIONS}")
    log = _golden_log(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for run, args in {**GOLDEN_RUNS, "stats": ["stats"]}.items():
        workers = [] if run == "stats" else ["--workers", "1"]
        subprocess.run([str(found[-1]), "-m", "prefetchlab.cli", *args, *workers,
                        "--input", str(log), "--out", str(tmp_path / run)],
                       env=env, check=True, capture_output=True)
    assert {run: _output_digests(tmp_path / run) for run in GOLDEN_RUNS} == GOLDEN_DIGESTS
    assert _sha((tmp_path / "stats" / "stats.json").read_bytes()) == STATS_GOLDEN_DIGEST


def test_library_evaluate_returns_the_report_the_command_writes(tmp_path):
    log = _golden_log(tmp_path)
    out = tmp_path / "out"
    assert main(["evaluate", "--input", str(log), "--out", str(out), "--workers", "1",
                 "--prune", "mor", "--domain-cutoff", "0.1"]) == 0
    written = _read_json(out / "report.json")
    traces, _ = load_traces(log)
    report = evaluate(traces, [PredictorConfig(a) for a in ALGORITHMS],
                      SplitSpec(training_ratio=0.8), PruneSpec("mor", 0.2), domain_cutoff=0.1)
    assert report["runtime"]["workers"] == 1
    written.pop("runtime")
    report.pop("runtime")
    assert report == written


def test_library_evaluate_rejects_two_configs_for_one_algorithm():
    traces = bursty_traces(seed=3, count=2, min_length=20, max_length=20)
    with pytest.raises(ValueError, match="one config per algorithm"):
        evaluate(traces, [PredictorConfig("dg"), PredictorConfig("dg", top_n=2)], SplitSpec())


@pytest.mark.parametrize("prune_spec", [None, PruneSpec("mor")])
def test_library_evaluate_rejects_an_empty_config_list(prune_spec):
    # with pruning, an empty list once reached the size reductions and raised IndexError
    traces = bursty_traces(seed=3, count=2, min_length=20, max_length=20)
    with pytest.raises(ValueError, match="at least one config is required"):
        evaluate(traces, [], SplitSpec(), prune_spec)


# (command flags, the configs and window spec they must become)
LIBRARY_SWEEP_CASES = {
    "default": ([], [PredictorConfig(a) for a in ALGORITHMS], SlidingWindowSpec()),
    "flags": (["--sizes", "10,20,40", "--algo", "ppm", "--algo", "dg", "--window", "2",
               "--top-n", "2", "--ratio", "0.6"],
              [PredictorConfig(a, lookahead_window=2, top_n=2) for a in ("dg", "ppm")],
              SlidingWindowSpec([10, 20, 40], 0.6)),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(LIBRARY_SWEEP_CASES))
def test_library_sweep_returns_the_summary_the_command_writes(tmp_path, case, workers):
    flags, configs, spec = LIBRARY_SWEEP_CASES[case]
    log = _golden_log(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--input", str(log), "--out", str(out), "--workers", str(workers),
                 *flags]) == 0
    written = _read_json(out / "sweep_summary.json")
    traces, _ = load_traces(log)
    summary, results = cli.sweep(traces, configs, spec, workers)
    assert summary["runtime"]["workers"] == workers
    assert [len(r.records) for r in results] == [
        s["model_count"] for s in summary["algorithms_results"].values()]
    written.pop("runtime")
    summary.pop("runtime")
    assert json.loads(json.dumps(summary)) == written  # the window sizes are a tuple


@pytest.mark.parametrize("lengths", [[], [1, 4, 9]], ids=["no-user", "all-short"])
def test_library_sweep_without_a_window_gives_one_empty_section_per_config(lengths):
    # built with zip(*jobs) over the users' jobs, no user gave no section and no result
    traces = {f"u{n}": UserTrace.build(f"u{n}", list(range(n)), ["https://a.example/"] * n)
              for n in lengths}
    configs = [PredictorConfig(a) for a in ("ppm", "mp", "naive")]
    summary, results = cli.sweep(traces, configs, SlidingWindowSpec([10, 20]))
    assert [r.records for r in results] == [(), (), ()]
    assert list(summary["algorithms_results"]) == ["ppm", "mp", "naive"]
    for section in summary["algorithms_results"].values():
        assert section["model_count"] == 0
        assert section["skipped_users"] == {"10": len(lengths), "20": len(lengths)}
        assert section["cutoffs"] == dict.fromkeys(SWEEP_METRICS)


@pytest.mark.parametrize("configs, workers, message", [
    ([], 1, "at least one config is required"),
    ([PredictorConfig("dg"), PredictorConfig("dg", top_n=2)], 1, "one config per algorithm"),
    ([PredictorConfig("dg")], 0, "workers must be >= 1"),
], ids=["no-config", "two-dg", "no-worker"])
def test_library_sweep_rejects_bad_configs_or_workers_without_users(configs, workers, message):
    # checked up front: with no user, sweep_user, which also checks the configs, never runs
    with pytest.raises(ValueError, match=message):
        cli.sweep({}, configs, SlidingWindowSpec([10]), workers)


def test_library_sweep_runs_one_worker_unless_told_otherwise():
    # as evaluate does; every other call of sweep passes workers
    traces = bursty_traces(seed=3, count=2, min_length=20, max_length=20)
    summary, _ = cli.sweep(traces, [PredictorConfig("naive")], SlidingWindowSpec([10]))
    assert summary["runtime"]["workers"] == 1


def test_evaluate_prune_prunes_each_user_once_for_all_algorithms(tmp_path, monkeypatch):
    # the prune result depends on the user and the regime alone, not on the algorithm
    calls = []
    prune = engine.prune

    def counting_prune(training, spec):
        calls.append(len(training))
        return prune(training, spec)

    monkeypatch.setattr(engine, "prune", counting_prune)
    log = _make_log(tmp_path, count=5)
    out = tmp_path / "o"
    assert main(["evaluate", "--input", str(log), "--out", str(out), "--workers", "1",
                 "--prune", "mor"]) == 0
    report = _read_json(out / "report.json")
    assert report["config"]["algorithms"] == list(ALGORITHMS)
    assert len(calls) == report["users"]["evaluated"] == 5


# ---------------------------------------------------------------- flags reach the report

# Each case sets every model flag away from its default; the configs the
# flags must become are built here directly, without the CLI.
MODEL_FLAG_CASES = {
    "narrow": (["--window", "1", "--threshold", "0", "--top-n", "1", "--ppm-order", "3"],
               {"lookahead_window": 1, "confidence_threshold": 0.0, "top_n": 1,
                "ppm_order": 3}),
    "wide": (["--window", "6", "--threshold", "0.5", "--top-n", "8", "--ppm-order", "1"],
             {"lookahead_window": 6, "confidence_threshold": 0.5, "top_n": 8,
              "ppm_order": 1}),
}
# (model flags, --ratio, --prune, --keep-fraction)
EVALUATE_FLAG_CASES = [
    ("narrow", 0.8, "msd", 0.5),
    ("wide", 0.6, "mad", 0.3),
    ("narrow", 0.7, "mor", 0.8),
]
# (model flags, --ratio)
SWEEP_FLAG_CASES = [("narrow", 0.6), ("wide", 0.8)]


def _flag_configs(model: str) -> list[PredictorConfig]:
    return [PredictorConfig(a, **MODEL_FLAG_CASES[model][1]) for a in ALGORITHMS]


def _evaluate_report(log, out, *flags) -> dict:
    assert main(["evaluate", "--input", str(log), "--out", str(out), "--workers", "1",
                 *flags]) == 0
    report = _read_json(out / "report.json")
    report.pop("runtime")
    return report


@pytest.mark.parametrize("model, ratio, strategy, keep", EVALUATE_FLAG_CASES)
def test_evaluate_flags_reach_the_report(tmp_path, model, ratio, strategy, keep):
    log = _golden_log(tmp_path)
    report = _evaluate_report(log, tmp_path / "flags", *MODEL_FLAG_CASES[model][0],
                              "--ratio", str(ratio), "--prune", strategy,
                              "--keep-fraction", str(keep))
    configs = _flag_configs(model)
    prune_spec = PruneSpec(strategy, keep)
    assert report["config"]["predictors"] == {c.algorithm: c._asdict() for c in configs}
    assert report["config"]["prune"] == {"strategy": strategy, "keep_fraction": keep}
    assert report["config"]["split"]["training_ratio"] == ratio

    traces, _ = load_traces(log)
    expected = evaluate(traces, configs, SplitSpec(ratio), prune_spec)
    expected.pop("runtime")
    assert report == json.loads(json.dumps(expected))

    default = _evaluate_report(log, tmp_path / "default", "--prune", "mor")
    assert report["aggregates"] != default["aggregates"]
    assert report["pruning"]["size_reduction"] != default["pruning"]["size_reduction"]


def _sweep_rows(path) -> list[list[str]]:
    with path.open(encoding="utf-8") as fh:
        return [row[:-1] for row in csv.reader(fh)][1:]  # no header, no elapsed_ms


@pytest.mark.parametrize("model, ratio", SWEEP_FLAG_CASES)
def test_sweep_flags_reach_the_outputs(tmp_path, model, ratio):
    log = _golden_log(tmp_path)
    sizes = "10,20,40"
    outs = {}
    for name, flags in (("flags", [*MODEL_FLAG_CASES[model][0], "--ratio", str(ratio)]),
                        ("default", [])):
        outs[name] = tmp_path / name
        assert main(["sweep", "--input", str(log), "--out", str(outs[name]), "--sizes", sizes,
                     "--workers", "1", *flags]) == 0
    summary = _read_json(outs["flags"] / "sweep_summary.json")
    configs = _flag_configs(model)
    assert summary["config"]["predictors"] == {c.algorithm: c._asdict() for c in configs}
    assert summary["config"]["window"]["training_ratio"] == ratio

    traces, _ = load_traces(log)
    spec = SlidingWindowSpec([10, 20, 40], ratio)
    per_user = [sweep_user(traces[uid], configs, spec) for uid in sorted(traces)]
    for i, a in enumerate(ALGORITHMS):
        result = build_sweep_result([sweeps[i] for sweeps in per_user], spec)
        section = summary["algorithms_results"][a]
        assert section["model_count"] == len(result.records)
        assert section["skipped_users"] == {str(s): n for s, n in result.skipped.items()}
        assert section["means"] == {str(s): m for s, m in result.means.items()}
        assert _sweep_rows(outs["flags"] / f"sweep_{a}.csv") == [
            [str(r.window_size), str(r.window_index), r.metrics.user_id,
             *("" if v is None else repr(v) for v in (getattr(r.metrics, m)
                                                      for m in SWEEP_METRICS))]
            for r in result.records]
        # the flags change every algorithm's windows but Naive's, which only the ratio moves
        if a != "naive" or ratio != 0.8:
            assert (_sweep_rows(outs["flags"] / f"sweep_{a}.csv")
                    != _sweep_rows(outs["default"] / f"sweep_{a}.csv"))


# ---------------------------------------------------------------- selftest

def test_selftest_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "st"
    assert main(["selftest", "--seed", "0", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    lines = [l for l in stdout.splitlines() if l.strip()]
    assert len(lines) == 5
    assert all(l.startswith("ok") for l in lines)
    report = _read_json(out / "selftest.json")
    assert report["command"] == "selftest"
    assert [c["passed"] for c in report["checks"]] == [True] * 5
    assert "forget-equals-fresh" in [c["name"] for c in report["checks"]]
    assert _sha((out / "selftest.json").read_bytes()) == SELFTEST_GOLDEN_DIGEST


def test_selftest_without_seed_runs_and_records_seed_0(monkeypatch, tmp_path):
    from prefetchlab import selftest

    seeds = []

    def run_selftest(seed):
        seeds.append(seed)
        return [selftest.CheckResult("only", True, 1)]

    monkeypatch.setattr(selftest, "run_selftest", run_selftest)
    assert main(["selftest", "--out", str(tmp_path / "st")]) == 0
    assert seeds == [0]
    assert _read_json(tmp_path / "st" / "selftest.json")["seed"] == 0


def test_selftest_prints_a_failing_check_with_its_detail_and_exits_1(monkeypatch, capsys):
    from prefetchlab import selftest

    monkeypatch.setattr(selftest, "run_selftest", lambda seed: [
        selftest.CheckResult("first", True, 3),
        selftest.CheckResult("second", False, 2, f"seed={seed} trace=1: broken")])
    assert main(["selftest", "--seed", "4"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "ok    first (3 cases)", "FAIL  second (2 cases) - seed=4 trace=1: broken"]
