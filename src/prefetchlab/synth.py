"""Seeded synthetic traces and log files for self-tests, benchmarks, and demos.

Two generators cover the interesting regimes:

* uniform_trace  — small alphabet, uniform picks; dense repetition, ideal
  for fuzzing the replay engine against the brute-force reference.
* bursty_trace   — a per-user repertoire visited in short bursts, mixed
  with one-off noise URLs; mimics the repeat-heavy shape of real
  per-user browsing, which is what makes training-size cut-offs visible.

Everything is driven by an explicit random.Random so any failure is
reproducible from (seed, index).
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable

from .predictors import PredictorConfig
from .traces import UserTrace

_BASE_TS = 1_600_000_000_000  # fixed epoch so fixtures stay stable


def _timestamps(length: int) -> list[int]:
    """One request per second from the fixed epoch."""
    return [_BASE_TS + i * 1000 for i in range(length)]


def url_pool(size: int, domains: int = 3) -> list[str]:
    """Deterministic pool of distinct URLs spread over a few domains.

    Every other URL carries a query string, so identity-includes-query
    is always exercised.
    """
    pool = []
    for i in range(size):
        host = f"https://site{i % domains}.example.net"
        if i % 2:
            pool.append(f"{host}/list?page={i}")
        else:
            pool.append(f"{host}/item/{i}")
    return pool


def uniform_trace(rng: random.Random, user_id: str, length: int,
                  alphabet_size: int) -> UserTrace:
    pool = url_pool(alphabet_size)
    keys = [rng.choice(pool) for _ in range(length)]
    return UserTrace.build(user_id, _timestamps(length), keys)


def bursty_trace(rng: random.Random, user_id: str, length: int,
                 repertoire_size: int = 25, noise_rate: float = 0.1,
                 burst_max: int = 3) -> UserTrace:
    """Repertoire pages visited in bursts of 1..burst_max, plus one-off noise."""
    repertoire = [
        f"https://portal.example.org/{user_id}/page/{i}" for i in range(repertoire_size)
    ]
    keys: list[str] = []
    noise_counter = 0
    while len(keys) < length:
        if rng.random() < noise_rate:
            keys.append(f"https://noise.example.com/{user_id}/once/{noise_counter}")
            noise_counter += 1
        else:
            page = rng.choice(repertoire)
            keys.extend([page] * rng.randint(1, burst_max))
    return UserTrace.build(user_id, _timestamps(length), keys[:length])


def uniform_traces(seed: int, count: int, max_length: int = 100,
                   max_alphabet: int = 15) -> dict[str, UserTrace]:
    rng = random.Random(seed)
    traces = {}
    for i in range(count):
        user_id = f"u{i:05d}"
        length = rng.randint(2, max_length)
        alphabet = rng.randint(2, max_alphabet)
        traces[user_id] = uniform_trace(rng, user_id, length, alphabet)
    return traces


def bursty_traces(seed: int, count: int, min_length: int = 1005,
                  max_length: int = 1100, **kwargs) -> dict[str, UserTrace]:
    rng = random.Random(seed)
    return {
        f"u{i:05d}": bursty_trace(rng, f"u{i:05d}", rng.randint(min_length, max_length), **kwargs)
        for i in range(count)
    }


def random_config(rng: random.Random, algorithm: str) -> PredictorConfig:
    """Randomized-but-valid tuning, for fuzzing against the reference replay."""
    return PredictorConfig(
        algorithm=algorithm,
        lookahead_window=rng.randint(1, 5),
        confidence_threshold=rng.choice([None, 0.0, 0.05, 0.25, 0.6]),
        ppm_order=rng.randint(1, 3),
        top_n=rng.randint(1, 6),
    )


def write_log(traces: Iterable[UserTrace] | dict[str, UserTrace], path: str | Path,
              fmt: str = "csv", non_get_rate: float = 0.0,
              rng: random.Random | None = None) -> Path:
    """Write traces back out as a combined raw log, interleaved by timestamp.

    With non_get_rate > 0, extra POST rows are sprinkled in (they must
    survive a round trip through the GET filter without affecting traces).
    """
    import csv
    import json

    if isinstance(traces, dict):
        traces = list(traces.values())
    rng = rng or random.Random(0)
    rows = []
    for trace in traces:
        uid = trace.user_id
        for ts, url in zip(trace.timestamps, trace.url_keys):
            rows.append((ts, uid, "GET", url))
            if non_get_rate and rng.random() < non_get_rate:
                rows.append((ts + 1, uid, "POST", f"https://forms.example.net/{uid}/submit"))
    rows.sort(key=lambda row: (row[0], row[1]))

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["user_id", "timestamp_ms", "method", "url"])
            for ts, uid, method, url in rows:
                writer.writerow([uid, ts, method, url])
        elif fmt == "jsonl":
            for ts, uid, method, url in rows:
                fh.write(json.dumps(
                    {"user_id": uid, "timestamp_ms": ts, "method": method, "url": url},
                    sort_keys=True) + "\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    return path
