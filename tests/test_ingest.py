from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import prefetchlab
from prefetchlab.ingest import (LogParseError, _quartiles, load_traces, read_trace_files,
                                remove_outlier_users, write_trace_files)
from prefetchlab.traces import Request, UserTrace

CSV_HEADER = "user_id,timestamp_ms,method,url\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_groups_and_sorts_per_user(tmp_path):
    path = _write(tmp_path, "log.csv", CSV_HEADER + "\n".join([
        "u1,200,GET,https://a.example/2",
        "u2,100,GET,https://b.example/1",
        "u1,100,GET,https://a.example/1",
        "u1,150,POST,https://a.example/form",
    ]) + "\n")
    traces, summary = load_traces(path, fmt="csv")
    assert sorted(traces) == ["u1", "u2"]
    assert traces["u1"].url_keys == ["https://a.example/1", "https://a.example/2"]
    assert summary.rows_read == 4
    assert summary.kept == 3
    assert summary.dropped_non_get == 1
    assert summary.skipped_malformed == 0


def test_load_jsonl(tmp_path):
    rows = [
        {"user_id": "u1", "timestamp_ms": 1, "method": "get", "url": "https://a.example/x"},
        {"user_id": "u1", "timestamp_ms": 2, "method": "GET", "url": "https://a.example/y"},
    ]
    path = _write(tmp_path, "log.jsonl", "\n".join(json.dumps(r) for r in rows) + "\n")
    traces, summary = load_traces(path, fmt="jsonl")
    # method matching is case-insensitive via uppercase normalization
    assert traces["u1"].url_keys == ["https://a.example/x", "https://a.example/y"]
    assert summary.kept == 2


def test_lenient_mode_counts_malformed_rows(tmp_path):
    path = _write(tmp_path, "log.csv", CSV_HEADER + "\n".join([
        "u1,100,GET,https://a.example/1",
        "u1,notatime,GET,https://a.example/2",
        "too,few",
        "u1,300,GET,https://a.example/3",
    ]) + "\n")
    traces, summary = load_traces(path, fmt="csv", strict=False)
    assert summary.skipped_malformed == 2
    assert len(summary.errors) == 2
    assert all("line" in e for e in summary.errors)
    assert traces["u1"].url_keys == ["https://a.example/1", "https://a.example/3"]


def test_strict_mode_raises_with_line_number(tmp_path):
    path = _write(tmp_path, "log.csv", CSV_HEADER + "u1,nope,GET,https://a.example/\n")
    with pytest.raises(LogParseError) as err:
        load_traces(path, fmt="csv", strict=True)
    assert err.value.line_no == 2


def test_bad_header_rejected(tmp_path):
    path = _write(tmp_path, "log.csv", "who,when,how,where\nu1,1,GET,https://a.example/\n")
    with pytest.raises(LogParseError):
        load_traces(path, fmt="csv")


def test_empty_file_rejected(tmp_path):
    path = _write(tmp_path, "log.csv", "")
    with pytest.raises(LogParseError):
        load_traces(path, fmt="csv")


def test_unknown_format_rejected(tmp_path):
    path = _write(tmp_path, "log.xml", "<log/>")
    with pytest.raises(ValueError):
        load_traces(path, fmt="xml")


def _traces_with_counts(counts: dict[str, int]) -> dict[str, UserTrace]:
    out = {}
    for uid, n in counts.items():
        reqs = [Request.build(uid, i, f"https://h.example/{uid}/{i}") for i in range(n)]
        out[uid] = UserTrace.build(uid, reqs)
    return out


def test_tukey_upper_fence_removes_heavy_user():
    # counts [10, 12, 11, 13, 500]: Q1=11, Q3=13, IQR=2 -> upper fence 16
    traces = _traces_with_counts({"a": 10, "b": 12, "c": 11, "d": 13, "e": 500})
    kept, report = remove_outlier_users(traces)
    assert report.q1 == 11.0 and report.q3 == 13.0
    assert report.upper_fence == 16.0
    assert report.removed_users == ["e"]
    assert sorted(kept) == ["a", "b", "c", "d"]


def test_fence_is_strict_inequality():
    # user exactly at the fence stays
    traces = _traces_with_counts({"a": 10, "b": 12, "c": 11, "d": 13, "e": 16})
    kept, report = remove_outlier_users(traces)
    assert report.removed_users == []
    assert len(kept) == 5


def test_min_request_floor():
    traces = _traces_with_counts({"a": 10, "b": 12, "c": 11, "d": 13, "e": 9})
    kept, report = remove_outlier_users(traces, min_requests=10)
    assert report.removed_users == ["e"]
    assert "e" not in kept


def test_single_user_is_its_own_quartiles():
    kept, report = remove_outlier_users(_traces_with_counts({"solo": 12}))
    assert (report.q1, report.q3, report.iqr) == (12.0, 12.0, 0.0)
    assert sorted(kept) == ["solo"]


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=60))
def test_quartiles_equal_numpy_percentile(counts):
    # numpy's default (linear) percentile rule is the reference the fences were pinned with
    expected = tuple(float(q) for q in np.percentile(np.array(counts, dtype=float), [25, 75]))
    assert _quartiles(counts) == expected


def test_remove_outliers_requires_users():
    with pytest.raises(ValueError):
        remove_outlier_users({})


def test_trace_files_round_trip(tmp_path):
    traces = _traces_with_counts({"u one": 3, "u/two": 4})  # ids needing escaping
    write_trace_files(traces, tmp_path)
    loaded = read_trace_files(tmp_path)
    assert sorted(loaded) == sorted(traces)
    for uid in traces:
        assert loaded[uid].url_keys == traces[uid].url_keys
        assert [r.timestamp for r in loaded[uid].requests] == \
               [r.timestamp for r in traces[uid].requests]


def test_read_trace_files_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_trace_files(tmp_path / "nowhere")


def test_trace_store_keeps_users_with_colliding_escapes(tmp_path):
    # "a\u2014" (EM DASH) and "a 14" escaped to the same per-user file name in
    # the former one-file-per-user layout, so one trace overwrote the other
    traces = _traces_with_counts({"a\u2014": 10, "a 14": 12, "plain": 11, "other": 13})
    write_trace_files(traces, tmp_path)
    loaded = read_trace_files(tmp_path)
    assert sorted(loaded) == sorted(traces)
    for uid, trace in traces.items():
        assert loaded[uid] == trace


def test_cli_import_leaves_numpy_and_process_pool_unloaded():
    # every command pays for what importing the CLI pulls in
    src = str(Path(prefetchlab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import prefetchlab.cli; "
            "print(sorted(m for m in ('numpy', 'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
