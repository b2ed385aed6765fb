"""Output checks. Each returns a list of problems; an empty list is a pass.

The references are independent of the code under test where that is cheap:
raw-log counts are read back from the generated file, naive hit counts come
from ``oracle.count_previously_seen``, a seeded sample of users is replayed
by the brute-force ``oracle.oracle_run``, and sweep model counts and naive
recalls are recomputed from the window definition.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter
from pathlib import Path

ORACLE_SAMPLE = 16  # users replayed by the brute-force oracle on pipeline


def requests_of(trace) -> list[tuple[int, str]]:
    return [(r.timestamp, r.url_key) for r in trace.requests]


def url_keys(trace) -> list[str]:
    return [r.url_key for r in trace.requests]


def log_counts(log_path: Path, fmt: str) -> tuple[int, int]:
    """(data rows, non-GET rows) of a raw log, read without the program's parser."""
    rows = non_get = 0
    with Path(log_path).open(newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            next(reader)
            records = (row[2] for row in reader)
        else:
            records = (json.loads(line)["method"] for line in fh)
        for method in records:
            rows += 1
            non_get += method != "GET"
    return rows, non_get


def load_ingested(out_dir: Path) -> dict[str, list[tuple[int, str]]]:
    """The traces an ``ingest`` output directory holds, as (timestamp, url) lists."""
    from prefetchlab import read_trace_files

    return {uid: requests_of(t) for uid, t in read_trace_files(out_dir).items()}


def check_ingest(out_dir: Path, generated: dict, rows: int, non_get: int) -> list[str]:
    problems = []
    summary = json.loads((Path(out_dir) / "ingest_summary.json").read_text(encoding="utf-8"))
    load = summary["load"]
    expected = {"rows_read": rows, "kept": rows - non_get, "dropped_non_get": non_get,
                "skipped_malformed": 0}
    for key, value in expected.items():
        if load[key] != value:
            problems.append(f"ingest_summary load.{key} = {load[key]}, expected {value}")
    ingested = load_ingested(out_dir)
    removed = set(summary["outliers"]["removed_users"])
    if set(ingested) | removed != set(generated) or set(ingested) & removed:
        problems.append("ingested plus removed users differ from the generated users")
    if summary["users"]["kept"] != len(ingested):
        problems.append("ingest_summary users.kept differs from the ingested user count")
    for uid, requests in ingested.items():
        if uid in generated and requests != requests_of(generated[uid]):
            problems.append(f"ingested trace of {uid} differs from the generated trace")
    return problems


def _canonical(path: Path) -> str:
    """A file's text with run-time-only content removed."""
    text = path.read_text(encoding="utf-8")
    if path.suffix not in (".json", ".csv"):
        return text
    if path.suffix == ".json":
        obj = json.loads(text)
        obj.pop("runtime", None)
        return json.dumps(obj, indent=2, sort_keys=True)
    rows = list(csv.reader(text.splitlines()))
    if rows and "elapsed_ms" in rows[0]:
        col = rows[0].index("elapsed_ms")
        rows = [row[:col] + row[col + 1:] for row in rows]
    return "\n".join(",".join(row) for row in rows)


def check_same_outputs(dir_a: Path, dir_b: Path) -> list[str]:
    """Both runs wrote the same files, equal once run-time-only content is dropped."""
    def files(root: Path) -> list[str]:
        return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())

    names = files(Path(dir_a))
    if names != files(Path(dir_b)):
        return [f"{dir_a} and {dir_b} hold different files"]
    return [f"{name} differs between {dir_a} and {dir_b}" for name in names
            if _canonical(Path(dir_a) / name) != _canonical(Path(dir_b) / name)]


def read_report(out_dir: Path) -> dict:
    return json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))


def _split(keys: list[str], ratio: float) -> tuple[list[str], list[str]]:
    cut = math.floor(ratio * len(keys))
    return keys[:cut], keys[cut:]


def mor_kept(training: list[str], keep_fraction: float) -> list[str]:
    """The training requests kept by the "mor" strategy, recomputed from its definition."""
    counts = Counter(training)
    ranked = sorted(counts, key=lambda k: (-counts[k], k))
    kept = set(ranked[:math.ceil(keep_fraction * len(counts))])
    return [k for k in training if k in kept]


def check_naive_seen(report: dict, generated: dict) -> list[str]:
    """Naive hits equal the test requests seen earlier in the (pruned) training and test."""
    from prefetchlab.oracle import count_previously_seen

    ratio = report["config"]["split"]["training_ratio"]
    prune = report["config"]["prune"]
    results = report["results"].get("naive", {})
    problems = []
    if len(results) != report["users"]["evaluated"]:
        problems.append("naive results do not cover every evaluated user")
    for uid, entry in results.items():
        training, test = _split(url_keys(generated[uid]), ratio)
        if prune:
            training = mor_kept(training, prune["keep_fraction"])
        expected = count_previously_seen(training, test)
        if entry["outcome"]["hit_count"] != expected:
            problems.append(f"naive hit_count of {uid} is {entry['outcome']['hit_count']}, "
                            f"expected {expected}")
    return problems


def check_oracle_sample(report: dict, generated: dict, seed: int,
                        sample: int = ORACLE_SAMPLE) -> list[str]:
    """A seeded sample of users replays to the brute-force oracle's outcome."""
    from prefetchlab.oracle import oracle_run
    from prefetchlab.predictors import PredictorConfig

    ratio = report["config"]["split"]["training_ratio"]
    users = sorted(report["results"][report["config"]["algorithms"][0]])
    chosen = random.Random(seed).sample(users, min(sample, len(users)))
    problems = []
    for algorithm in report["config"]["algorithms"]:
        config = PredictorConfig(**report["config"]["predictors"][algorithm])
        for uid in chosen:
            training, test = _split(url_keys(generated[uid]), ratio)
            o = oracle_run(config, training, test)
            expected = {"cache_size": o.cache_size, "hit_set": sorted(o.hit_set),
                        "miss_set": sorted(o.miss_set), "prefetch_count": o.prefetch_count,
                        "hit_count": o.hit_count, "miss_count": o.miss_count}
            if report["results"][algorithm][uid]["outcome"] != expected:
                problems.append(f"{algorithm} outcome of {uid} differs from the oracle")
    return problems


def check_prune_baseline(prune_report: dict, report: dict) -> list[str]:
    """The unpruned baseline inside a --prune report equals the plain evaluate run."""
    if prune_report["pruning"]["baseline_aggregates"] != report["aggregates"]:
        return ["pruning.baseline_aggregates differ from the unpruned evaluate aggregates"]
    return []


def check_sweep(out_dir: Path, generated: dict) -> list[str]:
    """Model counts and every naive window's dynamic recall, from the window definition."""
    from prefetchlab.oracle import count_previously_seen

    summary = json.loads((Path(out_dir) / "sweep_summary.json").read_text(encoding="utf-8"))
    window = summary["config"]["window"]
    ratio = window["training_ratio"]
    problems = []
    expected_models = 0
    for trace in generated.values():
        n = len(trace.requests)
        for size in window["window_sizes"]:
            step = size - math.floor(ratio * size)
            expected_models += (n - size) // step + 1 if n >= size else 0
    for algorithm, section in summary["algorithms_results"].items():
        if section["model_count"] != expected_models:
            problems.append(f"{algorithm} sweep has {section['model_count']} models, "
                            f"expected {expected_models}")
    keys = {uid: url_keys(t) for uid, t in generated.items()}
    with (Path(out_dir) / "sweep_naive.csv").open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            size, index = int(row["window_size"]), int(row["window_index"])
            cut = math.floor(ratio * size)
            start = index * (size - cut)
            window_keys = keys[row["user_id"]][start:start + size]
            training, test = window_keys[:cut], window_keys[cut:]
            expected = count_previously_seen(training, test) / len(test)
            if float(row["dynamic_recall"]) != expected:
                problems.append(f"naive dynamic_recall of {row['user_id']} window "
                                f"{size}/{index} differs from the seen-before count")
    return problems
