"""Hostile logs through every command: one end-to-end property.

Hypothesis writes CSV and JSONL logs that mix valid rows with hostile ones:
odd, padded, colliding or surrogate user ids, huge fields, a truncated last
line, a byte order mark, duplicate timestamps, ``1_000``-style numbers, junk
lines and one large user. ``ingest``, ``stats``, ``evaluate`` and ``sweep``
then run through ``main``, on the raw log and on the store that ``ingest``
wrote. Whatever the log holds:

* the exit code is 0, 1 or 2, and stderr is empty on 0 and one ``error:``
  line otherwise;
* on 0, every JSON output loads with NaN and Infinity refused, and every
  CSV decodes as UTF-8;
* each evaluated user's Naive hit count is the number of test requests seen
  earlier in the user's trace (``oracle.count_previously_seen``);
* ``--workers 1`` and ``--workers 2`` give equal outputs outside "runtime"
  and the ``elapsed_ms`` column.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefetchlab.cli import main
from prefetchlab.engine import SplitSpec, split
from prefetchlab.ingest import MIN_REQUEST_FLOOR, load_traces, read_trace_files
from prefetchlab.oracle import count_previously_seen

HUGE = "https://x.example/" + "h" * 140_000  # over csv.field_size_limit()
USER_IDS = ("u1", "u2", "u3", "1", 1, " 1 ", 10**30, True, "", "   ", "ü-ser", "a,b",
            'q"uote', "line\nbreak", " ", "\ud800", "\udcff", "a\u2014", "a 14")
TIMESTAMPS = (" 42 ", "1_000", "٤٢", 3.0, 3.5, -5, 10**20, "", "abc", None, True)
METHODS = ("GET", "GET", "GET", " get ", "GeT", "POST", "")
URLS = (" https://x.example/p1 ", "https://x.example/ü", "https://x.example/ ",
        "https://x.example/\udcff", "", HUGE)
JUNK_LINES = ("not a row", "u1,1_000,GET", "[1, 2]", '{"user_id": 1_000}', "NaN",
              '{"user_id": "u1"}', ",,,", '"unclosed')

row = st.tuples(
    st.one_of(st.sampled_from(USER_IDS[:3]), st.sampled_from(USER_IDS)),
    st.one_of(st.integers(0, 30), st.sampled_from(TIMESTAMPS)),  # few values: duplicates
    st.sampled_from(METHODS),
    st.one_of(st.builds("https://x.example/p{}".format, st.integers(0, 5)),
              st.sampled_from(URLS)),
)
logs = st.fixed_dictionaries({
    "fmt": st.sampled_from(("csv", "jsonl")),
    "rows": st.lists(row, max_size=60),
    "large_user": st.integers(0, 150),  # rows of one more user, "big"
    "junk": st.lists(st.tuples(st.integers(1, 60), st.sampled_from(JUNK_LINES)), max_size=3),
    "bom": st.booleans(),
    "truncate": st.integers(0, 12),  # bytes cut off the end, the final newline included
})


def _log_bytes(log: dict) -> bytes:
    """The log's rows (the large user's after them) and junk lines in its format, as bytes
    that hold an invalid UTF-8 sequence wherever a field holds a lone surrogate."""
    rows = list(log["rows"]) + [("big", i, "GET", f"https://x.example/p{i % 7}")
                                for i in range(log["large_user"])]
    if log["fmt"] == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["user_id", "timestamp_ms", "method", "url"])
        for user_id, ts, method, url in rows:
            writer.writerow([user_id, "" if ts is None else ts, method, url])
        lines = buffer.getvalue().splitlines(keepends=True)
    else:
        lines = [json.dumps({"user_id": u, "timestamp_ms": t, "method": m, "url": url}) + "\n"
                 for u, t, m, url in rows]
    for position, junk in log["junk"]:
        lines.insert(min(position, len(lines)), junk + "\n")  # after the CSV header
    data = ("\ufeff" if log["bom"] else "") + "".join(lines)
    return data.encode("utf-8", "surrogatepass")[:-log["truncate"] or None]


def _strict_json(data: bytes):
    def refuse(constant):
        raise ValueError(f"{constant} in a JSON output")
    return json.loads(data.decode("utf-8"), parse_constant=refuse)


def _outputs(out: Path) -> dict:
    """Each output file, loaded strictly, without "runtime" and the elapsed_ms column."""
    outputs = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            loaded = _strict_json(data)
            loaded.pop("runtime", None)
        else:
            loaded = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
            if loaded and loaded[0][-1] == "elapsed_ms":
                loaded = [row[:-1] for row in loaded]
        outputs[path.name] = loaded
    return outputs


def _run(argv: list[str], out: Path) -> tuple[int, dict | None]:
    """``main(argv + --out out)``: its exit code and, on 0, its outputs."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    err = stderr.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
        return code, _outputs(out)
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    assert not out.exists(), argv  # a failed command writes nothing
    return code, None


def _check_naive_hits(report: dict, traces: dict) -> None:
    evaluated = report["results"]["naive"]
    assert sorted(evaluated) == sorted(set(traces) - set(report["users"]["skipped"]))
    for uid, entry in evaluated.items():
        training, test = split(traces[uid], SplitSpec())
        assert entry["outcome"]["hit_count"] == count_previously_seen(training, test), uid


def _check_every_command(log: dict, tmp: Path) -> None:
    path = tmp / f"access.{log['fmt']}"
    path.write_bytes(_log_bytes(log))
    raw = ["--input", str(path), "--format", log["fmt"]]
    store = tmp / "store"
    code, _ = _run(["ingest", *raw], store)
    inputs = {"raw": raw}
    if code == 0:
        inputs["store"] = ["--input", str(store)]
        assert all(len(t) >= MIN_REQUEST_FLOOR for t in read_trace_files(store).values())
    for name, input_args in inputs.items():
        _run(["stats", *input_args], tmp / f"stats_{name}")
        for command, extra in (("evaluate", []), ("sweep", ["--sizes", "5,10"])):
            runs = [_run([command, *input_args, *extra, "--workers", workers],
                         tmp / f"{command}_{name}_{workers}") for workers in ("1", "2")]
            assert runs[0] == runs[1], (command, name)
            code, outputs = runs[0]
            if command == "evaluate" and code == 0:
                traces = (read_trace_files(store) if name == "store"
                          else load_traces(path, fmt=log["fmt"])[0])
                _check_naive_hits(outputs["report.json"], traces)


def _every_kind(fmt: str) -> dict:
    """A log with every hostile user id, timestamp, method and url, and every junk line."""
    return {
        "fmt": fmt,
        "rows": [(uid, TIMESTAMPS[i % len(TIMESTAMPS)], METHODS[i % len(METHODS)],
                  URLS[i % len(URLS)]) for uid in USER_IDS for i in range(len(TIMESTAMPS))]
                + [(uid, 7, "GET", f"https://x.example/p{i % 4}")  # 1 and "1" are one user
                   for uid in ("u1", "u2", "u3", "1", 1) for i in range(20)],
        "large_user": 150,
        "junk": [(3, junk) for junk in JUNK_LINES],
        "bom": True,
        "truncate": 5,
    }


@settings(max_examples=12, deadline=None)
@given(log=logs)
@example(log=_every_kind("csv"))
@example(log=_every_kind("jsonl"))
def test_hostile_logs_through_every_command(log):
    with tempfile.TemporaryDirectory() as tmp:
        _check_every_command(log, Path(tmp))
