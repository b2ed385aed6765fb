"""Raw request-log parsing, GET filtering, outlier-user removal, and the
trace store that ``ingest`` writes and the other commands read.

Input formats (declared, not sniffed):

* csv   — header ``user_id,timestamp_ms,method,url``, UTF-8, RFC-4180 quoting
* jsonl — one object per line with the same four fields: ``user_id`` a
  string or an integer, ``method`` and ``url`` strings, ``timestamp_ms`` an
  integer, an integer-valued number or an integer string (as in CSV). An
  integer ``user_id`` is read as its decimal string, so ``1`` and ``"1"``
  are one user, without a warning. A line that is one JSON value followed
  only by JSON whitespace is decoded once, with ``JSONDecoder.raw_decode``;
  any other line goes through ``json.loads``, so values and error messages
  are always those of ``json.loads``.

Every field is stripped of surrounding whitespace (``str.strip``) in both
formats, so a padded row loads as the same row unpadded: ``" 1 "`` is user
``1``, ``" get "`` a GET, and a url keeps no leading or trailing space. A
field that is only whitespace is empty. An integer string is an optional
sign and ASCII digits; ``int()`` alone would also take ``1_000`` or ``١٢٣``.
A UTF-8 byte order mark at the start of either format is dropped.

Rows with a non-GET method are dropped (counted, not an error). A malformed
row is a ``LogParseError`` carrying its line number, which ``iter_log_records``
yields in the row's place; ``load_traces`` alone counts rows, and skips a
malformed one in the default lenient mode or raises it under ``--strict``. A
``user_id``, ``method`` or ``url`` that is not valid UTF-8 (bytes that do not
decode, or a JSON escape of a lone surrogate) makes its row malformed.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path
from typing import Iterator, NamedTuple

from .traces import UserTrace

FORMATS = ("csv", "jsonl")
CSV_HEADER = ["user_id", "timestamp_ms", "method", "url"]
_FIELDS = frozenset(CSV_HEADER)
_DECODER = json.JSONDecoder()  # json.loads' own settings

# retained in LoadSummary for human inspection; the full count is always exact
MAX_RECORDED_ERRORS = 20

# remove_outlier_users drops every user with fewer requests than this
MIN_REQUEST_FLOOR = 10


class LogParseError(ValueError):
    """A malformed input row. ``line_no`` is 1-based (header included for CSV)."""

    def __init__(self, line_no: int, message: str):
        super().__init__(line_no, message)  # both in args, so a pickle round trip rebuilds it
        self.line_no, self.message = line_no, message

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


class LoadSummary(NamedTuple):
    """What ``load_traces`` did with each non-blank row of a log."""

    rows_read: int
    kept: int
    dropped_non_get: int
    skipped_malformed: int
    errors: list[str]  # the first MAX_RECORDED_ERRORS messages


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


Record = tuple[str, int, str, str]  # (user_id, timestamp_ms, method uppercased, url)


def _parse_jsonl_row(line_no: int, line: str) -> Record:
    # one decode when the rest of the line is JSON whitespace; any other line (padding
    # first, extra data, a BOM, bad JSON) gets json.loads' own value or error message
    try:
        obj, end = _DECODER.raw_decode(line)
        if line[end:].strip(" \t\n\r"):
            raise ValueError
    except (ValueError, RecursionError):
        try:
            obj = json.loads(line)
        # ValueError: also an integer over the int() digit limit; RecursionError: deep nesting
        except (ValueError, RecursionError) as exc:
            raise LogParseError(line_no, f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise LogParseError(line_no, "row is not a JSON object")
    if not _FIELDS <= obj.keys():
        missing = [k for k in CSV_HEADER if k not in obj]
        raise LogParseError(line_no, f"missing fields: {', '.join(missing)}")
    user_id, method, url, ts = obj["user_id"], obj["method"], obj["url"], obj["timestamp_ms"]
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int
    if type(user_id) is int:
        user_id = str(user_id)
    for key, value in (("user_id", user_id), ("method", method), ("url", url)):
        if type(value) is not str:
            raise LogParseError(line_no, f"{key} is not a string: {value!r}")
    if type(ts) is float and ts.is_integer():
        ts = int(ts)
    elif type(ts) not in (int, str):  # a string goes through int() as CSV text does
        raise LogParseError(line_no, f"timestamp_ms is not an integer: {ts!r}")
    return _build_record(line_no, user_id, ts, method, url)


def _build_record(line_no: int, user_id: str, ts_raw, method: str, url: str) -> Record:
    # one normalisation for both formats: surrounding whitespace is not part of a field
    user_id, method, url = user_id.strip(), method.strip(), url.strip()
    if type(ts_raw) is str:
        ts_raw = ts_raw.strip()
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
        if type(ts_raw) is str and ("_" in ts_raw or not ts_raw.isascii()):
            raise ValueError
    except (TypeError, ValueError):
        raise LogParseError(line_no, f"timestamp_ms is not an integer: {ts_raw!r}") from None
    if not url:
        raise LogParseError(line_no, "empty url")
    return user_id, timestamp, method.upper(), url


def iter_log_records(path: str | Path, fmt: str = "csv") -> Iterator[Record | LogParseError]:
    """Yield each non-blank row as a (user_id, timestamp_ms, method, url) record, or as
    the LogParseError that makes it malformed; raise one only for an empty file or header."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    with Path(path).open(newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
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
                        if len(row) == 4:
                            try:
                                yield _build_record(reader.line_num, *row)
                            except LogParseError as exc:
                                yield exc
                        elif row:  # a blank line reads as [] and is not a row
                            yield LogParseError(reader.line_num,
                                                f"expected 4 fields, got {len(row)}")
                    break
                except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
                    # the reader moves on to the next row; the for loop starts again there
                    yield LogParseError(reader.line_num, f"unreadable row: {exc}")
        else:
            any_line = False
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                any_line = True
                try:
                    yield _parse_jsonl_row(line_no, line)
                except LogParseError as exc:
                    yield exc
            if not any_line:
                raise LogParseError(1, "empty file")


def load_traces(path: str | Path, fmt: str = "csv", strict: bool = False,
                ) -> tuple[dict[str, UserTrace], LoadSummary]:
    """Parse a log file into one time-ordered UserTrace per user, counting every row.

    Non-GET rows are dropped; a malformed one is raised under ``strict``, else skipped.
    Requests are sorted by timestamp with input order preserved among ties, so
    concatenating the returned traces reproduces exactly the GET subset of the input.
    """
    rows_read = dropped_non_get = skipped_malformed = 0
    errors: list[str] = []
    timestamps: dict[str, list[int]] = defaultdict(list)
    urls: dict[str, list[str]] = defaultdict(list)
    for row in iter_log_records(path, fmt=fmt):
        rows_read += 1
        if isinstance(row, LogParseError):
            if strict:
                raise row
            skipped_malformed += 1
            if len(errors) < MAX_RECORDED_ERRORS:
                errors.append(str(row))
            continue
        user_id, timestamp, method, url = row
        if method != "GET":
            dropped_non_get += 1
            continue
        timestamps[user_id].append(timestamp)
        urls[user_id].append(url)
    traces = {uid: UserTrace.build(uid, ts, urls[uid]) for uid, ts in timestamps.items()}
    kept = rows_read - dropped_non_get - skipped_malformed
    return traces, LoadSummary(rows_read, kept, dropped_non_get, skipped_malformed, errors)


def _quartiles(values: list[int]) -> tuple[float, float]:
    """First and third quartile of a non-empty list: ``statistics.quantiles(values, n=4,
    method="inclusive")`` written out, since statistics imports fractions and decimal."""
    if len(values) == 1:  # ordered[j + 1] would pass the end
        return float(values[0]), float(values[0])
    ordered, last = sorted(values), len(values) - 1
    # the i-th quartile lies delta quarters of the way from ordered[j] to ordered[j + 1]
    q1, q3 = ((ordered[j] * (4 - delta) + ordered[j + 1] * delta) / 4
              for j, delta in (divmod(i * last, 4) for i in (1, 3)))
    return q1, q3


def remove_outlier_users(traces: dict[str, UserTrace],
                         ) -> tuple[dict[str, UserTrace], OutlierReport]:
    """Drop users above the Tukey upper fence or below the request floor.

    Quartiles use linear interpolation between order statistics (the
    "inclusive" method of ``statistics.quantiles``, the common "linear"
    percentile rule), so fixtures are exactly reproducible. A single user is
    its own q1 and q3. Removal is strict: count > upper fence, or count <
    MIN_REQUEST_FLOOR.
    """
    if not traces:
        raise ValueError("remove_outlier_users requires at least one trace")
    counts = {uid: len(t) for uid, t in traces.items()}
    q1, q3 = _quartiles(list(counts.values()))
    iqr = q3 - q1
    upper = q3 + 1.5 * iqr
    lower = q1 - 1.5 * iqr
    removed = sorted(uid for uid, n in counts.items() if n > upper or n < MIN_REQUEST_FLOOR)
    removed_set = set(removed)
    kept = {uid: t for uid, t in traces.items() if uid not in removed_set}
    report = OutlierReport(
        q1=q1, q3=q3, iqr=iqr, lower_fence=lower, upper_fence=upper,
        removed_users=removed, min_request_floor=MIN_REQUEST_FLOOR,
    )
    return kept, report


# --- the trace store (ingest output, consumed by the other commands) ---

STORE_NAME = "traces.json"
STORE_FORMAT = "prefetchlab-traces/v2"


def write_trace_files(path: str | Path, traces: dict[str, UserTrace]) -> None:
    """Write all traces as one columnar JSON store to the file ``path``.

    The store is ``{"format": STORE_FORMAT, "users": {user_id: {"timestamp_ms":
    [...], "url": [...]}}}`` with each user's columns in trace order. User ids
    are JSON keys, so any two distinct ids stay distinct.
    """
    users = {uid: {"timestamp_ms": traces[uid].timestamps, "url": traces[uid].url_keys}
             for uid in sorted(traces)}
    with open(path, "w", encoding="utf-8") as fh:
        # dumps, not dump: json.dump streams through the pure-Python encoder
        fh.write(json.dumps({"format": STORE_FORMAT, "users": users},
                            separators=(",", ":")))


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
