"""Raw request-log parsing, GET filtering, outlier-user removal, and the
trace store that ``ingest`` writes and the other commands read.

Input formats (declared, not sniffed):

* csv   — header ``user_id,timestamp_ms,method,url``, UTF-8, RFC-4180 quoting
* jsonl — one object per line with the same four fields: ``user_id`` a
  string or an integer, ``method`` and ``url`` strings, ``timestamp_ms`` an
  integer, an integer-valued number or an integer string (as in CSV)

An integer string is an optional sign and ASCII digits, surrounding
whitespace ignored; ``int()`` alone would also take ``1_000`` or ``١٢٣``.

Rows with a non-GET method are dropped (counted, not an error). Malformed
rows are a per-row error carrying the line number; in the default lenient
mode they are skipped and counted, in strict mode the first one aborts. A
``user_id``, ``method`` or ``url`` that is not valid UTF-8 (bytes that do not
decode, or a JSON escape of a lone surrogate) makes its row malformed.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

from .traces import UserTrace

FORMATS = ("csv", "jsonl")
CSV_HEADER = ["user_id", "timestamp_ms", "method", "url"]

# retained in LoadSummary for human inspection; the full count is always exact
MAX_RECORDED_ERRORS = 20


class LogParseError(ValueError):
    """A malformed input row. ``line_no`` is 1-based (header included for CSV)."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class LoadSummary:
    rows_read: int = 0
    kept: int = 0
    dropped_non_get: int = 0
    skipped_malformed: int = 0
    errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "kept": self.kept,
            "dropped_non_get": self.dropped_non_get,
            "skipped_malformed": self.skipped_malformed,
            "errors": list(self.errors),
        }


class OutlierReport(NamedTuple):
    """Tukey fences over per-user request counts plus the removal list.

    Only the upper fence triggers removal; the low end is handled by the
    ``min_request_floor``. A negative lower fence is recorded as-is.
    """

    q1: float
    q3: float
    iqr: float
    lower_fence: float
    upper_fence: float
    removed_users: list[str]
    min_request_floor: int

    def to_dict(self) -> dict:
        return {
            "q1": self.q1,
            "q3": self.q3,
            "iqr": self.iqr,
            "lower_fence": self.lower_fence,
            "upper_fence": self.upper_fence,
            "removed_users": list(self.removed_users),
            "min_request_floor": self.min_request_floor,
        }


Record = tuple[str, int, str, str]  # (user_id, timestamp_ms, method uppercased, url)


def _parse_csv_row(line_no: int, row: list[str]) -> Record:
    if len(row) != 4:
        raise LogParseError(line_no, f"expected 4 fields, got {len(row)}")
    user_id, ts_raw, method, url = row
    return _build_record(line_no, user_id.strip(), ts_raw.strip(), method.strip(), url.strip())


def _parse_jsonl_row(line_no: int, line: str) -> Record:
    try:
        obj = json.loads(line)
    # ValueError: also an integer over the int() digit limit; RecursionError: deep nesting
    except (ValueError, RecursionError) as exc:
        raise LogParseError(line_no, f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise LogParseError(line_no, "row is not a JSON object")
    missing = [k for k in CSV_HEADER if k not in obj]
    if missing:
        raise LogParseError(line_no, f"missing fields: {', '.join(missing)}")
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int
    for key in ("user_id", "method", "url"):
        value = obj[key]
        if not (type(value) is str or (key == "user_id" and type(value) is int)):
            raise LogParseError(line_no, f"{key} is not a string: {value!r}")
    ts = obj["timestamp_ms"]
    if type(ts) is float and ts.is_integer():
        ts = int(ts)
    elif type(ts) not in (int, str):  # a string goes through int() as CSV text does
        raise LogParseError(line_no, f"timestamp_ms is not an integer: {ts!r}")
    return _build_record(line_no, str(obj["user_id"]), ts, obj["method"], obj["url"])


def _build_record(line_no: int, user_id: str, ts_raw, method: str, url: str) -> Record:
    # a byte that is not UTF-8 decodes to a lone surrogate (surrogateescape), as does
    # a JSON "\ud800" escape; no UTF-8 output can hold one, and ASCII holds none
    if not (user_id.isascii() and method.isascii() and url.isascii()):
        for key, value in (("user_id", user_id), ("method", method), ("url", url)):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise LogParseError(line_no, f"{key} is not valid UTF-8: {value!r}") from None
    if not user_id:
        raise LogParseError(line_no, "empty user_id")
    try:
        timestamp = int(ts_raw)
        # int() also takes "_" separators and non-ASCII digits
        if type(ts_raw) is str and ("_" in ts_raw or not ts_raw.strip().isascii()):
            raise ValueError
    except (TypeError, ValueError):
        raise LogParseError(line_no, f"timestamp_ms is not an integer: {ts_raw!r}") from None
    if not url:
        raise LogParseError(line_no, "empty url")
    return user_id, timestamp, method.upper(), url


def iter_log_records(path: str | Path, fmt: str = "csv", strict: bool = False,
                     summary: LoadSummary | None = None) -> Iterable[Record]:
    """Yield (user_id, timestamp_ms, method, url) tuples, applying the lenient/strict policy."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    summary = summary if summary is not None else LoadSummary()
    path = Path(path)

    def handle(exc: LogParseError):
        if strict:
            raise exc
        summary.skipped_malformed += 1
        if len(summary.errors) < MAX_RECORDED_ERRORS:
            summary.errors.append(str(exc))

    with path.open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
            except csv.Error as exc:
                raise LogParseError(1, f"unreadable header: {exc}") from None
            if header is None:
                raise LogParseError(1, "empty file")
            if [h.strip() for h in header] != CSV_HEADER:
                raise LogParseError(1, f"bad header {header!r}, expected {CSV_HEADER}")
            # reader.line_num counts physical lines, which a quoted field may span:
            # a row is named by the line it ends on
            while True:
                try:
                    for row in reader:
                        if not row:
                            continue
                        summary.rows_read += 1
                        try:
                            yield _parse_csv_row(reader.line_num, row)
                        except LogParseError as exc:
                            handle(exc)
                    break
                except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
                    # the reader moves on to the next row; the for loop starts again there
                    summary.rows_read += 1
                    handle(LogParseError(reader.line_num, f"unreadable row: {exc}"))
        else:
            any_line = False
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                any_line = True
                summary.rows_read += 1
                try:
                    yield _parse_jsonl_row(line_no, line)
                except LogParseError as exc:
                    handle(exc)
            if not any_line and summary.rows_read == 0:
                raise LogParseError(1, "empty file")


def load_traces(path: str | Path, fmt: str = "csv", strict: bool = False,
                ) -> tuple[dict[str, UserTrace], LoadSummary]:
    """Parse a log file into one time-ordered UserTrace per user.

    Non-GET records are dropped and counted. Requests are sorted by
    timestamp with input order preserved among ties, so concatenating the
    returned traces reproduces exactly the GET subset of the input.
    """
    summary = LoadSummary()
    timestamps: dict[str, list[int]] = defaultdict(list)
    urls: dict[str, list[str]] = defaultdict(list)
    for user_id, timestamp, method, url in iter_log_records(path, fmt=fmt, strict=strict,
                                                            summary=summary):
        if method != "GET":
            summary.dropped_non_get += 1
            continue
        summary.kept += 1
        timestamps[user_id].append(timestamp)
        urls[user_id].append(url)
    traces = {uid: UserTrace.build(uid, ts, urls[uid]) for uid, ts in timestamps.items()}
    return traces, summary


def _quartiles(values: list[int]) -> tuple[float, float]:
    """First and third quartile of a non-empty list, as remove_outlier_users uses them."""
    if len(values) == 1:
        # statistics.quantiles needs two points before Python 3.13
        return float(values[0]), float(values[0])
    import statistics  # here: it pulls fractions and decimal into every command's start-up

    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def remove_outlier_users(traces: dict[str, UserTrace], min_requests: int = 10,
                         ) -> tuple[dict[str, UserTrace], OutlierReport]:
    """Drop users above the Tukey upper fence or below the request floor.

    Quartiles use linear interpolation between order statistics (the
    "inclusive" method of ``statistics.quantiles``, equal to numpy's default
    percentile rule), so fixtures are exactly reproducible. A single user is
    its own q1 and q3. Removal is strict: count > upper fence, or count <
    min_requests.
    """
    if not traces:
        raise ValueError("remove_outlier_users requires at least one trace")
    counts = {uid: len(t) for uid, t in traces.items()}
    q1, q3 = _quartiles(list(counts.values()))
    iqr = q3 - q1
    upper = q3 + 1.5 * iqr
    lower = q1 - 1.5 * iqr
    removed = sorted(uid for uid, n in counts.items() if n > upper or n < min_requests)
    removed_set = set(removed)
    kept = {uid: t for uid, t in traces.items() if uid not in removed_set}
    report = OutlierReport(
        q1=q1, q3=q3, iqr=iqr, lower_fence=lower, upper_fence=upper,
        removed_users=removed, min_request_floor=min_requests,
    )
    return kept, report


# --- the trace store (ingest output, consumed by the other commands) ---

STORE_NAME = "traces.json"
STORE_FORMAT = "prefetchlab-traces/v2"


def write_trace_files(traces: dict[str, UserTrace], out_dir: str | Path) -> Path:
    """Write all traces into one columnar JSON store; returns the store's path.

    The store is ``{"format": STORE_FORMAT, "users": {user_id: {"timestamp_ms":
    [...], "url": [...]}}}`` with each user's columns in trace order. User ids
    are JSON keys, so any two distinct ids stay distinct.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    users = {uid: {"timestamp_ms": traces[uid].timestamps, "url": traces[uid].url_keys}
             for uid in sorted(traces)}
    path = out / STORE_NAME
    with path.open("w", encoding="utf-8") as fh:
        # dumps, not dump: json.dump streams through the pure-Python encoder
        fh.write(json.dumps({"format": STORE_FORMAT, "users": users},
                            separators=(",", ":")))
    return path


def _trace_from_columns(user_id: str, columns) -> UserTrace:
    """One user's store entry as a UserTrace; ValueError names what is wrong."""
    if not isinstance(columns, dict):
        raise ValueError(f"user {user_id!r}: entry is not an object")
    for key in ("timestamp_ms", "url"):
        if not isinstance(columns.get(key), list):
            raise ValueError(f"user {user_id!r}: missing or non-list {key!r} column")
    timestamps, urls = columns["timestamp_ms"], columns["url"]
    if len(timestamps) != len(urls):
        raise ValueError(f"user {user_id!r}: {len(timestamps)} timestamps "
                         f"but {len(urls)} urls")
    if not timestamps:
        raise ValueError(f"user {user_id!r}: empty trace")
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int
    if not all(type(ts) is int for ts in timestamps):
        raise ValueError(f"user {user_id!r}: a timestamp_ms is not an integer")
    if not all(type(url) is str and url for url in urls):
        raise ValueError(f"user {user_id!r}: a url is empty or not a string")
    # a "\ud800" escape loads as a lone surrogate, which no UTF-8 output can hold
    for what, text in (("the user id", user_id), ("a url", "".join(urls))):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"user {user_id!r}: {what} is not valid UTF-8") from None
    return UserTrace.build(user_id, timestamps, urls)


def read_trace_files(in_dir: str | Path) -> dict[str, UserTrace]:
    """Load the traces written by write_trace_files.

    Raises FileNotFoundError when ``in_dir`` holds no store, and ValueError
    when the store is not valid JSON or breaks the layout in any way.
    """
    path = Path(in_dir) / STORE_NAME
    if not path.is_file():
        raise FileNotFoundError(
            f"no trace store under {in_dir!s} (expected {STORE_NAME}; run 'ingest' first)")
    try:
        with path.open(encoding="utf-8") as fh:
            store = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not a readable trace store ({exc})") from None
    if not isinstance(store, dict) or store.get("format") != STORE_FORMAT:
        raise ValueError(f"{path}: not a {STORE_FORMAT} store")
    users = store.get("users")
    if not isinstance(users, dict):
        raise ValueError(f"{path}: missing or non-object 'users'")
    traces: dict[str, UserTrace] = {}
    for uid in sorted(users):
        # pop, so each user's columns are freed once its trace is built
        try:
            traces[uid] = _trace_from_columns(uid, users.pop(uid))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return traces
