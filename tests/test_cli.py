from __future__ import annotations

import csv
import json

import pytest

from prefetchlab.cli import main
from prefetchlab.synth import bursty_traces, write_log

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


def test_evaluate_skips_ineligible_users(tmp_path):
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
               "--algo", "naive", "--domain-cutoff", "0.1", "--workers", "1"])
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
               "--algo", "naive", "--workers", "1"])
    assert rc == 0
    report = _read_json(out / "report.json")
    assert report["users"]["evaluated"] == 2
    assert report["users"]["skipped"] == {"u3": "too short to split"}


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


def test_evaluate_rejects_bad_ratio_with_exit_2(tmp_path, capsys):
    log = _make_log(tmp_path, count=2)
    rc = main(["evaluate", "--input", str(log), "--out", str(tmp_path / "o"),
               "--ratio", "1.5", "--workers", "1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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
