from __future__ import annotations

import csv
import io
import json
import pickle
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import prefetchlab
from prefetchlab.cli import main
from prefetchlab.ingest import (MAX_RECORDED_ERRORS, STORE_NAME, LogParseError, _build_record,
                                _parse_jsonl_row, _quartiles, load_traces, read_trace_files,
                                remove_outlier_users, write_trace_files)
from prefetchlab.synth import bursty_traces, write_log
from prefetchlab.traces import UserTrace

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


GOOD_JSONL_ROW = {"user_id": "u1", "timestamp_ms": 1, "method": "GET",
                  "url": "https://a.example/x"}

# JSON values that str()/int() would coerce into a plausible field
HOSTILE_JSONL_FIELDS = [
    ("user_id", None), ("user_id", True), ("user_id", 1.5), ("user_id", ["u1"]),
    ("user_id", {"id": "u1"}),
    ("url", None), ("url", False), ("url", 3), ("url", ["https://a.example/y"]), ("url", {}),
    ("method", None), ("method", True), ("method", ["GET"]),
    ("timestamp_ms", None), ("timestamp_ms", True), ("timestamp_ms", 1.9),
    ("timestamp_ms", [2]), ("timestamp_ms", {}), ("timestamp_ms", float("inf")),
    ("timestamp_ms", float("nan")),
]


def _jsonl_with(tmp_path, field, value):
    bad = dict(GOOD_JSONL_ROW, timestamp_ms=2)
    bad[field] = value
    return _write(tmp_path, "log.jsonl",
                  json.dumps(GOOD_JSONL_ROW) + "\n" + json.dumps(bad) + "\n")


@pytest.mark.parametrize(("field", "value"), HOSTILE_JSONL_FIELDS)
def test_jsonl_field_of_wrong_type_is_malformed(tmp_path, field, value):
    path = _jsonl_with(tmp_path, field, value)
    traces, summary = load_traces(path, fmt="jsonl")
    assert summary.skipped_malformed == 1
    assert summary.errors[0].startswith(f"line 2: {field}")
    assert list(traces) == ["u1"] and traces["u1"].url_keys == ["https://a.example/x"]
    with pytest.raises(LogParseError) as err:
        load_traces(path, fmt="jsonl", strict=True)
    assert err.value.line_no == 2


def test_jsonl_accepts_integer_user_ids_and_integer_valued_timestamps(tmp_path):
    rows = [dict(GOOD_JSONL_ROW, user_id=7, timestamp_ms=5.0),
            dict(GOOD_JSONL_ROW, user_id=7, timestamp_ms="6"),
            dict(GOOD_JSONL_ROW, user_id=7, timestamp_ms=4)]
    path = _write(tmp_path, "log.jsonl", "\n".join(json.dumps(r) for r in rows) + "\n")
    traces, summary = load_traces(path, fmt="jsonl", strict=True)
    assert summary.skipped_malformed == 0
    assert traces["7"].timestamps == [4, 5, 6]
    assert all(type(ts) is int for ts in traces["7"].timestamps)


def test_jsonl_integer_user_id_and_its_decimal_string_are_one_user(tmp_path, capsys):
    # an integer user_id is read as its decimal string: 1 and "1" merge, by design
    rows = [dict(GOOD_JSONL_ROW, user_id=1 if i % 2 else "1", timestamp_ms=1000 + i)
            for i in range(20)]
    rows.append(dict(GOOD_JSONL_ROW, user_id=-12, timestamp_ms=1))
    path = _write(tmp_path, "log.jsonl", "".join(json.dumps(r) + "\n" for r in rows))
    traces, summary = load_traces(path, fmt="jsonl", strict=True)
    assert sorted(traces) == ["-12", "1"]
    assert traces["1"].timestamps == [1000 + i for i in range(20)]
    assert summary.skipped_malformed == 0 and summary.errors == []
    out = tmp_path / "ingested"
    assert main(["ingest", "--input", str(path), "--format", "jsonl", "--out", str(out)]) == 0
    assert "users: 2 parsed" in capsys.readouterr().out


def test_padded_fields_load_alike_from_csv_and_jsonl(tmp_path):
    # both formats strip surrounding whitespace from every field of a row
    rows = [(" 1 ", " 5 ", " get ", " https://a.example/x "),
            ("1", "4", "GET", "https://a.example/y\t"),
            (" 1", "6", " POST ", "https://a.example/form"),
            ("   ", "7", "GET", "https://a.example/z"),
            ("1", "8", "GET", "  ")]
    csv_path = _write(tmp_path, "log.csv", CSV_HEADER + "".join(
        ",".join(f'"{field}"' for field in row) + "\n" for row in rows))
    jsonl_path = _write(tmp_path, "log.jsonl", "".join(
        json.dumps(dict(zip(("user_id", "timestamp_ms", "method", "url"), row))) + "\n"
        for row in rows))
    csv_traces, csv_summary = load_traces(csv_path, fmt="csv")
    jsonl_traces, jsonl_summary = load_traces(jsonl_path, fmt="jsonl")
    assert csv_traces == jsonl_traces == {
        "1": UserTrace.build("1", [5, 4], ["https://a.example/x", "https://a.example/y"])}
    counts = ("rows_read", "kept", "dropped_non_get", "skipped_malformed")
    assert ([getattr(csv_summary, name) for name in counts]
            == [getattr(jsonl_summary, name) for name in counts] == [5, 2, 1, 2])


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


def test_lenient_mode_keeps_only_the_first_messages(tmp_path):
    path = _write(tmp_path, "log.csv", CSV_HEADER + "".join(
        f"u1,bad{i},GET,https://a.example/{i}\n" for i in range(25)))
    traces, summary = load_traces(path, fmt="csv")
    assert summary.rows_read == 25 and summary.skipped_malformed == 25
    assert [e.split(":")[0] for e in summary.errors] == [f"line {i}" for i in range(2, 22)]
    assert traces == {}


@pytest.mark.parametrize(("row", "message"), [
    ("[1, 2]", "row is not a JSON object"),
    ('{"user_id": "u1", "url": "https://a.example/y"}', "missing fields: timestamp_ms, method"),
], ids=["array", "missing-fields"])
def test_jsonl_row_that_is_not_a_whole_object_is_malformed(tmp_path, row, message):
    path = _write(tmp_path, "log.jsonl", json.dumps(GOOD_JSONL_ROW) + "\n" + row + "\n")
    traces, summary = load_traces(path, fmt="jsonl")
    assert summary.rows_read == 2 and summary.skipped_malformed == 1
    assert summary.errors == [f"line 2: {message}"]
    assert list(traces) == ["u1"]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_blank_lines_are_skipped_and_not_counted(tmp_path, fmt):
    if fmt == "csv":  # a CSV line of spaces is a one-field row, so only empty lines are blank
        lines = [CSV_HEADER.strip(), "", "u1,0,GET,https://a.example/x", "", "",
                 "u1,1,GET,https://a.example/y", "", "too,few"]
    else:
        lines = ["", " ", json.dumps(dict(GOOD_JSONL_ROW, timestamp_ms=0)), "\t", "",
                 json.dumps(dict(GOOD_JSONL_ROW, timestamp_ms=1)), "", "[]"]
    traces, summary = load_traces(_write(tmp_path, f"log.{fmt}", "\n".join(lines) + "\n\n"),
                                  fmt=fmt)
    assert (summary.rows_read, summary.kept, summary.skipped_malformed) == (3, 2, 1)
    # blank lines still count in the line numbers of the rows after them
    assert summary.errors[0].startswith("line 8:")
    assert traces["u1"].timestamps == [0, 1]


def test_strict_mode_raises_with_line_number(tmp_path):
    path = _write(tmp_path, "log.csv", CSV_HEADER + "u1,nope,GET,https://a.example/\n")
    with pytest.raises(LogParseError) as err:
        load_traces(path, fmt="csv", strict=True)
    assert err.value.line_no == 2


def test_log_parse_error_survives_a_pickle_round_trip():
    # a forked worker sends the exception that stopped its share back pickled
    exc = pickle.loads(pickle.dumps(LogParseError(3, "bad")))
    assert type(exc) is LogParseError
    assert exc.line_no == 3 and str(exc) == "line 3: bad"


def test_ingest_of_a_directory_exits_1_with_error_line(tmp_path, capsys):
    rc = main(["ingest", "--input", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# one over csv.field_size_limit(), which the csv module raises on as csv.Error
OVERSIZED = "x" * 131_073


@pytest.mark.parametrize("row", [f"u1,200,GET,https://a.example/{OVERSIZED}",
                                 f'u1,200,GET,"https://a.example/{OVERSIZED}"',
                                 f"u1,{OVERSIZED},GET,https://a.example/2"],
                         ids=["url", "quoted-url", "timestamp"])
def test_oversized_csv_field_is_a_malformed_row(tmp_path, capsys, row):
    path = _write(tmp_path, "log.csv", CSV_HEADER + "\n".join([
        "u1,100,GET,https://a.example/1", row, "u1,300,GET,https://a.example/3",
        "u1,notatime,GET,https://a.example/4"]) + "\n")
    traces, summary = load_traces(path, fmt="csv")
    assert summary.rows_read == 4 and summary.skipped_malformed == 2
    # reading resumes at the next row, and line numbers stay in step
    assert [e.split(":")[0] for e in summary.errors] == ["line 3", "line 5"]
    assert traces["u1"].url_keys == ["https://a.example/1", "https://a.example/3"]
    with pytest.raises(LogParseError) as err:
        load_traces(path, fmt="csv", strict=True)
    assert err.value.line_no == 3
    rc = main(["ingest", "--input", str(path), "--strict", "--out", str(tmp_path / "o")])
    assert rc == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: line 3:")


def test_oversized_csv_header_is_rejected(tmp_path):
    path = _write(tmp_path, "log.csv", f"user_id,timestamp_ms,method,{OVERSIZED}\n")
    with pytest.raises(LogParseError) as err:
        load_traces(path, fmt="csv")
    assert err.value.line_no == 1


@pytest.mark.parametrize("ts", ["1_000", "١٢٣", "12²", "+-5", "--5", "- 5", "0x10", "",
                                "٠"])
def test_timestamp_text_must_be_ascii_digits(tmp_path, ts):
    path = _write(tmp_path, "log.csv", CSV_HEADER + "\n".join([
        "u1,100,GET,https://a.example/1", f"u1,{ts},GET,https://a.example/2"]) + "\n")
    traces, summary = load_traces(path, fmt="csv")
    assert summary.skipped_malformed == 1
    assert summary.errors[0].startswith("line 3: timestamp_ms")
    assert traces["u1"].url_keys == ["https://a.example/1"]
    jsonl = _write(tmp_path, "log.jsonl", json.dumps(dict(GOOD_JSONL_ROW, timestamp_ms=ts)) + "\n")
    with pytest.raises(LogParseError) as err:
        load_traces(jsonl, fmt="jsonl", strict=True)
    assert err.value.line_no == 1


def test_timestamp_text_accepts_a_sign_and_surrounding_space(tmp_path):
    path = _write(tmp_path, "log.csv", CSV_HEADER + "\n".join([
        "u1, 7 ,GET,https://a.example/1", "u1,+8,GET,https://a.example/2",
        "u1,-9,GET,https://a.example/3", "u1,0010,GET,https://a.example/4"]) + "\n")
    traces, summary = load_traces(path, fmt="csv", strict=True)
    assert traces["u1"].timestamps == [-9, 7, 8, 10]
    # JSONL strings are stripped as CSV fields are, Unicode whitespace included
    rows = [dict(GOOD_JSONL_ROW, timestamp_ms=" 12 "), dict(GOOD_JSONL_ROW, timestamp_ms="-3"),
            dict(GOOD_JSONL_ROW, timestamp_ms="\u00a05\u2003"),
            dict(GOOD_JSONL_ROW, timestamp_ms=2 ** 70)]
    path = _write(tmp_path, "log.jsonl", "\n".join(json.dumps(r) for r in rows) + "\n")
    traces, _ = load_traces(path, fmt="jsonl", strict=True)
    assert traces["u1"].timestamps == [-3, 5, 12, 2 ** 70]


@pytest.mark.parametrize("row", [
    '{"user_id": "u1", "timestamp_ms": ' + "9" * 5000
    + ', "method": "GET", "url": "https://a.example/y"}',
    "[" * 100_000 + "]" * 100_000,
], ids=["5000-digit-integer", "deeply-nested"])
def test_jsonl_row_that_json_cannot_load_is_malformed(tmp_path, capsys, row):
    good = [json.dumps(dict(GOOD_JSONL_ROW, timestamp_ms=i)) for i in range(12)]
    path = _write(tmp_path, "log.jsonl", "\n".join(good[:1] + [row] + good[1:]) + "\n")
    traces, summary = load_traces(path, fmt="jsonl")
    assert summary.skipped_malformed == 1
    assert summary.errors[0].startswith("line 2: invalid JSON")
    assert len(traces["u1"]) == 12
    assert main(["ingest", "--input", str(path), "--format", "jsonl",
                 "--out", str(tmp_path / "lenient")]) == 0
    capsys.readouterr()
    assert main(["ingest", "--input", str(path), "--format", "jsonl", "--strict",
                 "--out", str(tmp_path / "strict")]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: line 2:")


def _json_loads_row(line_no: int, line: str):
    """The JSONL row rule written with json.loads alone: the reference for _parse_jsonl_row."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise LogParseError(line_no, f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise LogParseError(line_no, "row is not a JSON object")
    missing = [k for k in ("user_id", "timestamp_ms", "method", "url") if k not in obj]
    if missing:
        raise LogParseError(line_no, f"missing fields: {', '.join(missing)}")
    for key in ("user_id", "method", "url"):
        value = obj[key]
        if not (type(value) is str or (key == "user_id" and type(value) is int)):
            raise LogParseError(line_no, f"{key} is not a string: {value!r}")
    ts = obj["timestamp_ms"]
    if type(ts) is float and ts.is_integer():
        ts = int(ts)
    elif type(ts) not in (int, str):
        raise LogParseError(line_no, f"timestamp_ms is not an integer: {ts!r}")
    return _build_record(line_no, str(obj["user_id"]), ts, obj["method"], obj["url"])


def _row_or_message(parse, line):
    try:
        return parse(3, line)
    except LogParseError as exc:
        return str(exc)


# JSON texts of every type; nested at most three deep, since near the recursion
# limit whether a value decodes depends on the caller's stack depth
JSON_TEXTS = st.one_of(
    st.sampled_from(["true", "false", "null", "NaN", "-Infinity", "1e400", "2.0", "1.5", "-0",
                     "[]", '[1, ["u1"]]', "{}", '{"a": {"b": 1}}', "9" * 5000, '"\\ud800"',
                     '""', '" 7 "', '"1_000"', '" get "', '"GET"', '"https://a.example/x"']),
    st.integers().map(str),
    st.text(max_size=6).map(lambda text: json.dumps(text, ensure_ascii=False)),
)
GOOD_JSONL_TEXTS = {"user_id": '"u1"', "timestamp_ms": "12", "method": '"GET"',
                    "url": '"https://a.example/x"'}
# JSON whitespace, other Unicode whitespace, a BOM and extra data
PADDING = st.sampled_from(["", " ", "\t", "\r", " \t\r", "\x0c", "\u00a0", "\ufeff", " x",
                           "{}", ", 1", "]", '"u1"'])


@st.composite
def jsonl_lines(draw):
    # each field is its good value, another JSON value or absent; no row needs "extra"
    members = []
    for key, good in [*GOOD_JSONL_TEXTS.items(), ("extra", None)]:
        text = draw(st.one_of(st.just(good), st.just(good), st.just(good), st.none(), JSON_TEXTS))
        if text is not None:
            members.append(f'"{key}": {text}')
    separator = draw(st.sampled_from([", ", ",", " ,\t"]))
    body = "{" + separator.join(draw(st.permutations(members))) + "}"
    if draw(st.integers(0, 4)) == 0:  # a row that is not an object
        body = draw(JSON_TEXTS)
    padding = st.one_of(st.just(""), st.just(""), PADDING)
    return draw(padding) + body + draw(padding) + draw(st.sampled_from(["\n", "\r\n", ""]))


GOOD_JSONL_LINE = json.dumps(GOOD_JSONL_ROW)


@given(jsonl_lines())
@example(GOOD_JSONL_LINE + " x\n")  # extra data
@example(GOOD_JSONL_LINE + "\x0c\n")  # whitespace that is not JSON whitespace
@example(" \t" + GOOD_JSONL_LINE + "\r\n")  # padding that is
@example("\ufeff" + GOOD_JSONL_LINE + "\n")  # a BOM
def test_jsonl_row_parses_as_json_loads_reads_it(line):
    assert _row_or_message(_parse_jsonl_row, line) == _row_or_message(_json_loads_row, line)


# canonical fields and the near-misses that must not take load_traces' one-check path
NEAR_USER_IDS = [" u1", "u1 ", "\tu1", "u1\t", "\x1fu1", "u1\x1f", "\u00a0u1", "u1\u00a0", "",
                 "   ", "ü1", "u\udcff"]
NEAR_URLS = [" /a", "/a ", "\t/a", "/a\t", "\x1f/a", "/a\x1f", "\u00a0/a", "/a\u00a0", "", " ",
             "/ä", "/\udcff"]
NEAR_METHODS = ["get", "GET ", " GET", "POST", "Get", ""]
NEAR_TIMESTAMPS = ["+12", "-5", "0012", "1_0", "١٢", "12²", "9" * 18, "9" * 19, "9" * 5000, "",
                   " 12", "12 ", "1.0", "x"]


@st.composite
def log_rows(draw, jsonl: bool):
    """One row as JSON-able fields: canonical, with zero to two fields made near-misses."""
    row = {"user_id": draw(st.sampled_from(["u1", "u2", "10"])),
           "timestamp_ms": draw(st.integers(0, 30)), "method": "GET",
           "url": draw(st.sampled_from(["https://a.example/x", "/b?q=1", "/c"]))}
    near = {"user_id": NEAR_USER_IDS, "timestamp_ms": NEAR_TIMESTAMPS, "method": NEAR_METHODS,
            "url": NEAR_URLS}
    if jsonl:  # values a JSON row may hold in place of a canonical one
        near = {**near, "user_id": [*NEAR_USER_IDS, 10, 7],
                "timestamp_ms": [*NEAR_TIMESTAMPS, "12", True, False, 1.0, 2 ** 70]}
    for field in draw(st.lists(st.sampled_from(sorted(near)), max_size=2)):
        row[field] = draw(st.sampled_from(near[field]))
    return row


def _jsonl_line(row: dict, extra: bool) -> str:
    members = [f'"{key}": {json.dumps(value)}' for key, value in row.items()]
    return "{" + ", ".join(members + ['"extra": [1]'] * extra) + "}"


def _reference_load(rows, parse, strict):
    """load_traces as every row through ``parse`` and one counting rule, with a sort."""
    rows_read = dropped_non_get = skipped_malformed = 0
    errors, columns = [], {}
    for line_no, raw in rows:
        rows_read += 1
        try:
            user_id, timestamp, method, url = parse(line_no, raw)
        except LogParseError as exc:
            if strict:
                raise
            skipped_malformed += 1
            if len(errors) < MAX_RECORDED_ERRORS:
                errors.append(str(exc))
            continue
        if method != "GET":
            dropped_non_get += 1
            continue
        columns.setdefault(user_id, []).append((timestamp, url))
    traces = {}
    for user_id, pairs in columns.items():
        pairs.sort(key=lambda pair: pair[0])  # stable: input order breaks ties
        traces[user_id] = UserTrace(user_id, [ts for ts, _ in pairs], [url for _, url in pairs])
    kept = rows_read - dropped_non_get - skipped_malformed
    return traces, (rows_read, kept, dropped_non_get, skipped_malformed, errors)


def _load_or_error(load, *args):
    try:
        traces, summary = load(*args)
    except LogParseError as exc:
        return str(exc), exc.line_no
    return traces, tuple(summary)


@given(rows=st.lists(log_rows(jsonl=False), max_size=30), ordered=st.booleans(),
       strict=st.booleans())
@example(rows=[{"user_id": user_id, "timestamp_ms": ts, "method": "GET", "url": "/c"}
               for user_id, ts in (("u1", 2), ("", 1), ("u1", "9" * 5000), ("u1", "١٢"),
                                   ("u\udcff", 3), (" u1", 0))], ordered=False, strict=False)
def test_csv_log_loads_as_every_row_through_build_record(tmp_path_factory, rows, ordered,
                                                         strict):
    if ordered:  # most real logs are time-ordered, the near-misses among them
        rows.sort(key=lambda row: str(row["timestamp_ms"]).zfill(6))
    fields = [[str(row[key]) for key in ("user_id", "timestamp_ms", "method", "url")]
              for row in rows]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([CSV_HEADER.strip().split(","), *fields])
    path = tmp_path_factory.mktemp("csv") / "log.csv"
    path.write_bytes(text.getvalue().encode("utf-8", "surrogateescape"))
    expected = _load_or_error(_reference_load, enumerate(fields, start=2),
                              lambda line_no, row: _build_record(line_no, *row), strict)
    assert _load_or_error(load_traces, path, "csv", strict) == expected


@given(rows=st.lists(st.tuples(log_rows(jsonl=True), st.booleans()), min_size=1, max_size=30),
       ordered=st.booleans(), strict=st.booleans(), huge_at=st.none() | st.integers(0, 30))
@example(rows=[({"user_id": user_id, "timestamp_ms": ts, "method": "GET", "url": "/c"}, extra)
               for user_id, ts, extra in (("u1", 2, False), ("u1", True, False), (7, 3, True),
                                          ("7", "12", False), ("u\ud800", 4, False),
                                          ("u1 ", 5, False), ("u1", 1.0, True))],
         ordered=False, strict=False, huge_at=2)
def test_jsonl_log_loads_as_every_row_through_build_record(tmp_path_factory, rows, ordered,
                                                           strict, huge_at):
    if ordered:
        rows.sort(key=lambda pair: str(pair[0]["timestamp_ms"]).zfill(6))
    lines = [_jsonl_line(row, extra) for row, extra in rows]
    if huge_at is not None:  # an integer literal over int()'s digit limit, as no encoder writes
        lines.insert(huge_at, '{"user_id": "u1", "timestamp_ms": ' + "9" * 5000
                     + ', "method": "GET", "url": "/c"}')
    path = tmp_path_factory.mktemp("jsonl") / "log.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # _json_loads_row sends every field through _build_record; _parse_jsonl_row, which
    # has the one-check path in it, cannot be the reference here
    expected = _load_or_error(_reference_load, enumerate(lines, start=1), _json_loads_row, strict)
    assert _load_or_error(load_traces, path, "jsonl", strict) == expected


@pytest.mark.parametrize("field", ["user_id", "method", "url"])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_invalid_utf8_byte_in_a_raw_log_is_a_malformed_row(tmp_path, capsys, fmt, field):
    rows = [dict(GOOD_JSONL_ROW, timestamp_ms=i, url=f"https://a.example/{i}")
            for i in range(12)]
    rows[1] = dict(rows[1], **{field: rows[1][field] + "\udcff"})  # the byte 0xff
    if fmt == "csv":
        lines = [CSV_HEADER.strip()] + [",".join(str(r[k]) for k in
                                                 ("user_id", "timestamp_ms", "method", "url"))
                                        for r in rows]
        bad_line = 3
    else:
        lines = [json.dumps(r, ensure_ascii=False) for r in rows]
        bad_line = 2
    path = tmp_path / f"log.{fmt}"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    traces, summary = load_traces(path, fmt=fmt)
    assert summary.skipped_malformed == 1
    assert summary.errors[0].startswith(f"line {bad_line}: {field} is not valid UTF-8")
    assert traces["u1"].url_keys == [f"https://a.example/{i}" for i in range(12) if i != 1]
    assert main(["ingest", "--input", str(path), "--format", fmt,
                 "--out", str(tmp_path / "lenient")]) == 0
    capsys.readouterr()
    assert main(["ingest", "--input", str(path), "--format", fmt, "--strict",
                 "--out", str(tmp_path / "strict")]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith(f"error: line {bad_line}:")


def test_csv_bad_row_names_the_physical_line_it_ends_on(tmp_path):
    # a quoted url may span lines, so rows and physical lines fall out of step
    path = _write(tmp_path, "log.csv", CSV_HEADER + "\n".join([
        'u1,100,GET,"https://a.example/1', 'continued"',      # lines 2-3
        "u1,notatime,GET,https://a.example/2",               # line 4
        'u1,notatime,GET,"https://a.example/3', 'continued"',  # lines 5-6
        "u1,300,GET,https://a.example/4"]) + "\n")
    traces, summary = load_traces(path, fmt="csv")
    assert summary.rows_read == 4 and summary.skipped_malformed == 2
    assert [e.split(":")[0] for e in summary.errors] == ["line 4", "line 6"]
    assert traces["u1"].url_keys == ["https://a.example/1\ncontinued", "https://a.example/4"]
    with pytest.raises(LogParseError) as err:
        load_traces(path, fmt="csv", strict=True)
    assert err.value.line_no == 4


def test_csv_unreadable_row_names_its_physical_line(tmp_path):
    path = _write(tmp_path, "log.csv", CSV_HEADER + "\n".join([
        'u1,100,GET,"https://a.example/1', 'continued"',       # lines 2-3
        f"u1,200,GET,https://a.example/{OVERSIZED}",           # line 4
        "u1,300,GET,https://a.example/4"]) + "\n")
    traces, summary = load_traces(path, fmt="csv")
    assert summary.rows_read == 3 and summary.skipped_malformed == 1
    assert summary.errors[0].startswith("line 4: unreadable row")
    assert traces["u1"].url_keys == ["https://a.example/1\ncontinued", "https://a.example/4"]
    with pytest.raises(LogParseError) as err:
        load_traces(path, fmt="csv", strict=True)
    assert err.value.line_no == 4


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_leading_utf8_bom_is_ignored(tmp_path, fmt, strict):
    rows = [dict(GOOD_JSONL_ROW, timestamp_ms=i, url=f"https://a.example/{i}")
            for i in range(12)]
    if fmt == "csv":
        text = CSV_HEADER + "".join(f"u1,{r['timestamp_ms']},GET,{r['url']}\n" for r in rows)
    else:
        text = "".join(json.dumps(r) + "\n" for r in rows)
    plain = _write(tmp_path, f"plain.{fmt}", text)
    bom = tmp_path / f"bom.{fmt}"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    expected_traces, expected = load_traces(plain, fmt=fmt, strict=strict)
    traces, summary = load_traces(bom, fmt=fmt, strict=strict)
    assert traces == expected_traces
    assert summary._asdict() == expected._asdict()
    assert summary.kept == 12 and summary.skipped_malformed == 0
    flags = ["--strict"] if strict else []
    for path in (plain, bom):
        assert main(["ingest", "--input", str(path), "--format", fmt, *flags,
                     "--out", str(tmp_path / path.stem)]) == 0
    for name in ("ingest_summary.json", "traces.json"):
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_bad_header_rejected(tmp_path):
    path = _write(tmp_path, "log.csv", "who,when,how,where\nu1,1,GET,https://a.example/\n")
    with pytest.raises(LogParseError):
        load_traces(path, fmt="csv")


def test_bad_header_error_names_line_1(tmp_path):
    path = _write(tmp_path, "log.csv", "who,when,how,where\nu1,1,GET,https://a.example/\n")
    with pytest.raises(LogParseError) as err:
        load_traces(path, fmt="csv")
    assert err.value.line_no == 1


@pytest.mark.parametrize(("fmt", "text"), [("csv", ""), ("jsonl", ""), ("jsonl", "\n \t\n\n")],
                         ids=["csv", "jsonl", "jsonl-blank-lines"])
def test_ingest_of_an_empty_file_exits_1(tmp_path, capsys, fmt, text):
    path = _write(tmp_path, f"log.{fmt}", text)
    assert main(["ingest", "--input", str(path), "--format", fmt,
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: line 1: empty file\n"
    assert not (tmp_path / "o").exists()


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
        out[uid] = UserTrace.build(uid, list(range(n)),
                                   [f"https://h.example/{uid}/{i}" for i in range(n)])
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
    kept, report = remove_outlier_users(traces)
    assert report.min_request_floor == 10
    assert report.removed_users == ["e"]
    assert "e" not in kept


def test_single_user_is_its_own_quartiles():
    kept, report = remove_outlier_users(_traces_with_counts({"solo": 12}))
    assert (report.q1, report.q3, report.iqr) == (12.0, 12.0, 0.0)
    assert sorted(kept) == ["solo"]


@pytest.fixture(scope="module")
def np():
    # imported before hypothesis runs, so the import does not count against its deadline
    return pytest.importorskip("numpy")


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=60))
def test_quartiles_equal_numpy_percentile(np, counts):
    # numpy's default (linear) percentile rule is the reference the fences were pinned with
    expected = tuple(float(q) for q in np.percentile(np.array(counts, dtype=float), [25, 75]))
    assert _quartiles(counts) == expected


@given(st.lists(st.integers(min_value=0, max_value=10**15), min_size=1, max_size=60))
def test_quartiles_equal_inclusive_statistics_quantiles(counts):
    # before Python 3.13 quantiles needs two points; [c, c] has the quartiles of [c]
    q1, _, q3 = statistics.quantiles(counts * 2 if len(counts) == 1 else counts, n=4,
                                     method="inclusive")
    assert _quartiles(counts) == (q1, q3)


def test_remove_outliers_requires_users():
    with pytest.raises(ValueError):
        remove_outlier_users({})


def test_trace_files_round_trip(tmp_path):
    traces = _traces_with_counts({"u one": 3, "u/two": 4})  # ids needing escaping
    write_trace_files(tmp_path / STORE_NAME, traces)
    loaded = read_trace_files(tmp_path)
    assert sorted(loaded) == sorted(traces)
    for uid in traces:
        assert loaded[uid] == traces[uid]


def test_read_trace_files_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_trace_files(tmp_path / "nowhere")


def test_trace_store_keeps_users_with_colliding_escapes(tmp_path):
    # "a\u2014" (EM DASH) and "a 14" escaped to the same per-user file name in
    # the former one-file-per-user layout, so one trace overwrote the other
    traces = _traces_with_counts({"a\u2014": 10, "a 14": 12, "plain": 11, "other": 13})
    write_trace_files(tmp_path / STORE_NAME, traces)
    loaded = read_trace_files(tmp_path)
    assert sorted(loaded) == sorted(traces)
    for uid, trace in traces.items():
        assert loaded[uid] == trace


def test_raw_log_traces_share_url_strings_like_store_traces(tmp_path):
    traces = bursty_traces(seed=5, count=3, min_length=200, max_length=200,
                           repertoire_size=10, noise_rate=0.1)
    raw, _ = load_traces(write_log(traces, tmp_path / "log.csv"))
    write_trace_files(tmp_path / STORE_NAME, raw)
    stored = read_trace_files(tmp_path)
    for uid, trace in raw.items():
        assert len({id(url) for url in trace.url_keys}) == len(set(trace.url_keys))
        assert len(pickle.dumps(trace)) == len(pickle.dumps(stored[uid]))


def test_cli_import_leaves_numpy_and_process_pool_unloaded():
    # every command pays for what importing the CLI pulls in: only what the
    # data commands run, not what selftest, stats or a worker pool alone needs
    src = str(Path(prefetchlab.__file__).resolve().parents[1])
    unwanted = ("numpy", "concurrent.futures", "prefetchlab.selftest", "prefetchlab.oracle",
                "prefetchlab.synth", "statistics", "prefetchlab.forkjoin", "dataclasses",
                "inspect")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import prefetchlab.cli; "
            f"print(sorted(m for m in {unwanted!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_ingest_leaves_statistics_fractions_and_decimal_unloaded(tmp_path):
    # statistics pulls in fractions and decimal, a few milliseconds of every ingest
    log = write_log(bursty_traces(seed=3, count=5, min_length=20, max_length=40,
                                  repertoire_size=10, noise_rate=0.1), tmp_path / "log.csv")
    src = str(Path(prefetchlab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from prefetchlab.cli import main; "
            "code = main(['ingest', '--input', sys.argv[2], '--out', sys.argv[3]]); "
            "print(code, sorted(m for m in ('statistics', 'fractions', 'decimal') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src, str(log), str(tmp_path / "o")],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "0 []"
