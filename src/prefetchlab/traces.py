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

from collections import Counter
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class UserTrace:
    """One user's time-ordered requests as two parallel columns; the unit of model building.

    Readers get the stored lists, not copies: treat them as read-only.
    """

    user_id: str
    timestamps: list[int]  # milliseconds since epoch, non-decreasing
    url_keys: list[str]    # full URLs including query string

    @classmethod
    def build(cls, user_id: str, timestamps: Sequence[int],
              url_keys: Sequence[str]) -> "UserTrace":
        """Sort both columns by timestamp (stable: input order breaks ties)."""
        if len(timestamps) != len(url_keys):
            raise ValueError(f"trace {user_id!r}: {len(timestamps)} timestamps "
                             f"but {len(url_keys)} url_keys")
        order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
        return cls(user_id, [timestamps[i] for i in order], [url_keys[i] for i in order])

    def __len__(self) -> int:
        return len(self.url_keys)

    @property
    def requests(self) -> list[Request]:
        """The columns as rows, for the benchmark's checks; library code reads the columns."""
        return [Request(ts, url) for ts, url in zip(self.timestamps, self.url_keys)]


@dataclass(frozen=True)
class RepetitionStats:
    """Counts of repeated requests within a single trace.

    A request counts as repeated when its url_key occurs at least twice in
    the trace; every occurrence of such a key contributes to
    ``repeated_count``. ``unique_count`` is the number of distinct url_keys.
    """

    unique_count: int
    repeated_count: int
    repeated_pct: float
    occurrence_histogram: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "unique_count": self.unique_count,
            "repeated_count": self.repeated_count,
            "repeated_pct": self.repeated_pct,
            "occurrence_histogram": dict(sorted(self.occurrence_histogram.items())),
        }


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
