"""Core domain types: per-user traces and repetition statistics.

A :class:`UserTrace` holds one user's requests as two parallel columns,
``timestamps`` and ``url_keys``, sorted by timestamp; every layer from
ingest to replay reads the columns. ``UserTrace.requests`` yields the same
data as ``Request(timestamp, url_key)`` rows; it is a read-only view kept
only for the benchmark's output checks, and no library code uses it.

Request identity throughout the library is exact byte equality of the full
URL string (query string included). Nothing is canonicalized: no percent
decoding, no query-parameter reordering, no public-suffix reduction. Two
requests are "the same" iff their ``url_key`` strings compare equal.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple, Sequence


class InvalidURLError(ValueError):
    """Raised for URLs the library refuses to work with (currently: empty)."""


def parse_domain(url_key: str) -> str:
    """Extract the lowercased host component of a URL.

    If the URL carries a scheme ("http://..."), the host is everything
    between the scheme separator and the first '/', '?' or '#'. Without a
    scheme, the leading token up to the first such delimiter is taken as
    the host. Userinfo and ports are kept as-is (opaque bytes), so the
    function is idempotent: parse_domain(parse_domain(u)) == parse_domain(u).
    """
    if not url_key:
        raise InvalidURLError("empty url_key")
    rest = url_key
    sep = url_key.find("://")
    if sep != -1:
        rest = url_key[sep + 3:]
    for delim in ("/", "?", "#"):
        cut = rest.find(delim)
        if cut != -1:
            rest = rest[:cut]
    return rest.lower()


class Request(NamedTuple):
    """One row of a trace, as the read-only :attr:`UserTrace.requests` view yields it."""

    timestamp: int  # milliseconds since epoch
    url_key: str    # full URL including query string


class UserTrace:
    """One user's time-ordered requests as two parallel columns; the unit of model building.

    Readers get the stored lists, not copies: treat the trace and its lists as read-only.
    """

    __slots__ = ("user_id", "timestamps", "url_keys")

    def __init__(self, user_id: str, timestamps: list[int], url_keys: list[str]):
        self.user_id = user_id
        self.timestamps = timestamps  # milliseconds since epoch, non-decreasing
        self.url_keys = url_keys      # full URLs including query string

    def __eq__(self, other):
        return type(other) is UserTrace and (self.user_id, self.timestamps, self.url_keys) == (
            other.user_id, other.timestamps, other.url_keys)

    def __repr__(self) -> str:
        return (f"UserTrace(user_id={self.user_id!r}, timestamps={self.timestamps!r}, "
                f"url_keys={self.url_keys!r})")

    @classmethod
    def build(cls, user_id: str, timestamps: Sequence[int],
              url_keys: Sequence[str]) -> "UserTrace":
        """Sort both columns by timestamp (stable: input order breaks ties).

        urls repeat within a trace, so the trace keeps one string per distinct
        url, which shrinks it in memory and when pickled. Columns already in
        timestamp order, as a store's and most logs' are, skip the index sort.
        """
        if len(timestamps) != len(url_keys):
            raise ValueError(f"trace {user_id!r}: {len(timestamps)} timestamps "
                             f"but {len(url_keys)} url_keys")
        shared = {url: url for url in url_keys}
        ordered = sorted(timestamps)
        if ordered == timestamps:  # a stable sort of ordered columns is the identity
            return cls(user_id, ordered, [shared[url] for url in url_keys])
        order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
        return cls(user_id, ordered, [shared[url_keys[i]] for i in order])

    def __len__(self) -> int:
        return len(self.url_keys)

    @property
    def requests(self) -> list[Request]:
        """The columns as rows, for the benchmark's checks; library code reads the columns."""
        return [Request(ts, url) for ts, url in zip(self.timestamps, self.url_keys)]


class RepetitionStats(NamedTuple):
    """Counts of repeated requests within a single trace.

    A request counts as repeated when its url_key occurs at least twice in
    the trace; every occurrence of such a key contributes to
    ``repeated_count``. ``unique_count`` is the number of distinct url_keys.
    """

    unique_count: int
    repeated_count: int
    repeated_pct: float
    occurrence_histogram: dict[str, int]


def repetition_stats(trace: UserTrace) -> RepetitionStats:
    """Compute repeated-request counts for one user trace.

    Order-insensitive; an empty trace yields all-zero stats.
    """
    counts = Counter(trace.url_keys)
    total = len(trace)
    histogram = {key: n for key, n in counts.items() if n >= 2}
    repeated = sum(histogram.values())
    return RepetitionStats(
        unique_count=len(counts),
        repeated_count=repeated,
        repeated_pct=(repeated / total) if total else 0.0,
        occurrence_histogram=histogram,
    )


def _running_sum(values: Sequence[float], total: float = 0.0) -> float:
    for x in values:
        total += x
    return total


def _pairwise_sum(values: Sequence[float]) -> float:
    """Pairwise sum of ``values``, rounded as a float64 array reduction is.

    Runs under 8 items are summed left to right; runs of up to 128 in 8
    strided accumulators; longer runs split at half, rounded down to a
    multiple of 8. Additions are explicit on purpose: ``sum()`` of floats is
    compensated from Python 3.12 on and ``math.fsum`` is exact, and either
    would change the last digits of ``stats.json``.
    """
    n = len(values)
    if n < 8:
        return _running_sum(values)
    if n <= 128:
        end = n - n % 8
        r = [_running_sum(values[j + 8:end:8], values[j]) for j in range(8)]
        return _running_sum(values[end:],
                            ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def population_summary(values: list[float]) -> dict:
    """``{"min", "avg", "max", "sd"}`` of ``values``, all ``None`` when there are none.

    ``sd`` is the population standard deviation: the users are the whole
    population under study. ``avg`` and ``sd`` are bit for bit those of
    the reference array library that ``tests/test_traces.py`` compares with.
    """
    n = len(values)
    if not n:
        return {"min": None, "avg": None, "max": None, "sd": None}
    # an array reduction starts from +0.0, so the mean of -0.0s is 0.0
    mean = (0.0 + _pairwise_sum(values)) / n
    squares = [(x - mean) * (x - mean) for x in values]
    return {"min": min(values), "avg": mean, "max": max(values),
            "sd": math.sqrt(_pairwise_sum(squares) / n)}
