"""Command-line front end: ingest, stats, evaluate, sweep, selftest.

Reports are machine-readable and reproducible: every number in report.json
and the CSVs is a pure function of (input, config). Wall-clock timings and
the worker count are the only nondeterministic values, so they live in a
dedicated "runtime" section (JSON) or column (CSV) that consumers and
golden-file comparisons can drop.

The unit of work is the user. ``evaluate`` and ``sweep`` make one job per
user that runs every algorithm on that user's trace (for ``evaluate
--prune``, both unpruned and pruned). With more than one worker the command
forks (``forkjoin``): the jobs are dealt into one share per worker, the
command's own process maps the first share and a forked child each other
share, and the results are put back in job order, so the worker count never
changes any output outside "runtime". ``evaluate()`` is the library form of the evaluate
command: it returns the report.json dict, and ``cmd_evaluate`` only loads
the input and writes the files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

from .engine import RunResult, SplitSpec, TraceTooShortError, run_user, split
from .ingest import (FORMATS, LogParseError, load_traces, read_trace_files,
                     remove_outlier_users, write_trace_files)
from .metrics import (METRIC_NAMES, NORMALIZED_NAMES, aggregate_reports, metrics_report,
                      normalize_against_naive)
from .predictors import (ALGORITHMS, DEFAULT_LOOKAHEAD_WINDOW, DEFAULT_PPM_ORDER,
                         DEFAULT_TOP_N, PredictorConfig)
from .pruning import STRATEGIES, PruneSpec, domain_cutoff_filter
from .sweep import (DEFAULT_CUTOFF_EPSILON, DEFAULT_WINDOW_SIZES, SWEEP_METRICS,
                    SlidingWindowSpec, UserSweep, build_sweep_result, cutoff_scan,
                    sweep_user)
from .traces import UserTrace, repetition_stats

REPORT_FORMAT = "prefetchlab-report/v1"
SWEEP_FORMAT = "prefetchlab-sweep/v1"
ALL_METRIC_NAMES = METRIC_NAMES + NORMALIZED_NAMES


# ---------------------------------------------------------------- plumbing

def _write_json(path: Path, obj: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def _load_input(path_str: str, fmt: str, strict: bool) -> dict[str, UserTrace]:
    """Accept either an ingested output directory or a raw log file."""
    path = Path(path_str)
    if path.is_dir():
        return read_trace_files(path)
    traces, _ = load_traces(path, fmt=fmt, strict=strict)
    return traces


def _algo_list(args) -> list[str]:
    if not args.algo:
        return list(ALGORITHMS)
    chosen = {a.lower() for a in args.algo}
    return [a for a in ALGORITHMS if a in chosen]


def _predictor_config(args, algorithm: str) -> PredictorConfig:
    return PredictorConfig(
        algorithm=algorithm,
        lookahead_window=args.window,
        confidence_threshold=args.threshold,
        ppm_order=args.ppm_order,
        top_n=args.top_n,
    )


def _run_jobs(fn, payloads: list, workers: int) -> list:
    """Order-preserving map over up to ``workers`` processes, in-process for one.

    More than one share forks (see ``forkjoin``); without ``os.fork`` the map
    runs in-process.
    """
    shares = min(workers, len(payloads)) if hasattr(os, "fork") else 1
    if shares <= 1:
        return [fn(p) for p in payloads]
    # imported here: only a run with more than one worker compiles and loads it
    from .forkjoin import fork_map

    return fork_map(fn, payloads, shares)


def _check_domain_cutoff(domain_cutoff: float | None) -> None:
    if domain_cutoff is not None and not 0.0 <= domain_cutoff <= 1.0:  # False for nan
        raise ValueError(f"domain_cutoff must lie in [0, 1], got {domain_cutoff}")


def _timing_summary(samples_ms: list[float]) -> dict | None:
    if not samples_ms:
        return None
    return {
        "min_ms": min(samples_ms),
        "avg_ms": sum(samples_ms) / len(samples_ms),
        "max_ms": max(samples_ms),
        "models": len(samples_ms),
    }


# ---------------------------------------------------------------- ingest

def cmd_ingest(args) -> int:
    traces, summary = load_traces(args.input, fmt=args.format, strict=args.strict)
    if not traces:
        print("error: no GET requests parsed from input", file=sys.stderr)
        return 1
    kept, outliers = remove_outlier_users(traces)
    out = Path(args.out)
    store = write_trace_files(kept, out)
    _write_json(out / "ingest_summary.json", {
        "format": REPORT_FORMAT,
        "command": "ingest",
        "load": summary.to_dict(),
        "outliers": outliers.to_dict(),
        "users": {"parsed": len(traces), "kept": len(kept),
                  "removed": len(traces) - len(kept)},
    })
    print(f"rows read: {summary.rows_read}, kept GET: {summary.kept}, "
          f"non-GET dropped: {summary.dropped_non_get}, malformed: {summary.skipped_malformed}")
    print(f"users: {len(traces)} parsed, {len(kept)} kept "
          f"(outlier fence {outliers.upper_fence:.1f}, floor {outliers.min_request_floor})")
    print(f"traces written to {store}")
    return 0


# ---------------------------------------------------------------- stats

def cmd_stats(args) -> int:
    import numpy as np

    traces = _load_input(args.input, args.format, args.strict)
    if not traces:
        print("error: no traces in input", file=sys.stderr)
        return 1
    per_user = {uid: repetition_stats(traces[uid]) for uid in sorted(traces)}

    def across(values: list[float]) -> dict:
        if not values:
            return {"min": None, "avg": None, "max": None, "sd": None}
        arr = np.asarray(values, dtype=float)
        # population SD: users are the whole population under study here
        return {"min": float(arr.min()), "avg": float(arr.mean()),
                "max": float(arr.max()), "sd": float(arr.std())}

    pct = across([s.repeated_pct for s in per_user.values()])
    count = across([float(s.repeated_count) for s in per_user.values()])
    report = {
        "format": REPORT_FORMAT,
        "command": "stats",
        "users": len(per_user),
        "repeated_pct": pct,
        "repeated_count": count,
        "per_user": {uid: s.to_dict() for uid, s in per_user.items()},
    }
    if args.out:
        _write_json(Path(args.out) / "stats.json", report)
        print(f"stats written to {Path(args.out) / 'stats.json'}")
    print(f"users: {len(per_user)}")
    print(f"repeated pct  min {pct['min']:.3f}  avg {pct['avg']:.3f}  "
          f"max {pct['max']:.3f}  sd {pct['sd']:.3f}")
    print(f"repeated count min {count['min']:.0f}  avg {count['avg']:.1f}  "
          f"max {count['max']:.0f}  sd {count['sd']:.1f}")
    return 0


# ---------------------------------------------------------------- evaluate

def _evaluate_job(payload) -> list[list[RunResult]]:
    """One user's runs: per prune regime (unpruned first), one per config."""
    trace, configs, spec, prune_specs = payload
    return [[run_user(trace, config, spec, prune_spec) for config in configs]
            for prune_spec in prune_specs]


def _score(runs: dict[str, dict[str, RunResult]]) -> tuple[dict, dict]:
    """Per-run metrics and per-algorithm aggregates of one regime's runs[algorithm][user].

    Recalls are normalised against the same user's naive run when naive ran.
    """
    reports = {a: {uid: metrics_report(uid, a, rr.outcome) for uid, rr in per_user.items()}
               for a, per_user in runs.items()}
    if "naive" in reports:
        naive = reports["naive"]
        reports = {a: {uid: normalize_against_naive(r, naive[uid]) for uid, r in per_user.items()}
                   for a, per_user in reports.items()}
    aggregates = {a: aggregate_reports(per_user.values()) for a, per_user in reports.items()}
    return reports, aggregates


def evaluate(traces: dict[str, UserTrace], configs: list[PredictorConfig], spec: SplitSpec,
             prune_spec: PruneSpec | None = None, domain_cutoff: float | None = None,
             workers: int = 1) -> dict:
    """Train, replay and score every user under every config; returns report.json.

    Users whose trace empties under ``domain_cutoff`` or is too short to
    split are skipped with a reason. Each remaining user is one job that runs
    every config, unpruned and, with a ``prune_spec``, pruned; the pruned
    runs are then the primary results and the unpruned ones the baseline.
    """
    started = time.perf_counter()
    algorithms = [c.algorithm for c in configs]
    if len(set(algorithms)) != len(algorithms):
        raise ValueError(f"one config per algorithm, got {algorithms}")
    _check_domain_cutoff(domain_cutoff)

    eligible: dict[str, UserTrace] = {}
    skips: dict[str, str] = {}
    for uid in sorted(traces):
        trace = traces[uid]
        if domain_cutoff is not None:
            trace = domain_cutoff_filter(trace, domain_cutoff)
            if len(trace) == 0:
                skips[uid] = "all domains below repeated-request cut-off"
                continue
        try:
            split(trace, spec)
        except TraceTooShortError:
            skips[uid] = "too short to split"
            continue
        eligible[uid] = trace
    users = list(eligible)

    regimes = [None, prune_spec] if prune_spec else [None]
    jobs = _run_jobs(_evaluate_job, [(eligible[uid], configs, spec, regimes) for uid in users],
                     workers)
    # runs[regime][algorithm][user]
    runs = [{a: {} for a in algorithms} for _ in regimes]
    for uid, user_runs in zip(users, jobs):
        for regime_runs, config_runs in zip(runs, user_runs):
            for a, rr in zip(algorithms, config_runs):
                regime_runs[a][uid] = rr
    primary = runs[-1]
    reports, aggregates = _score(primary)

    results = {}
    for a in algorithms:
        results[a] = {}
        for uid in users:
            entry = {"outcome": primary[a][uid].outcome.to_dict(),
                     "metrics": reports[a][uid].to_dict()}
            if prune_spec:
                prune_result = primary[a][uid].prune_result
                entry["prune"] = prune_result.to_dict() if prune_result else None
            results[a][uid] = entry

    pruning_section = None
    if prune_spec:
        _, base_aggregates = _score(runs[0])
        # the prune result depends only on (training, spec): identical across algorithms
        reductions = [rr.prune_result.size_reduction for rr in primary[algorithms[0]].values()
                      if rr.prune_result is not None]
        delta_means = {}
        for a in algorithms:
            deltas = {}
            for name in ALL_METRIC_NAMES:
                after = aggregates[a][name]["mean"]
                before = base_aggregates[a][name]["mean"]
                deltas[name] = None if after is None or before is None else after - before
            delta_means[a] = deltas
        pruning_section = {
            "strategy": prune_spec.strategy,
            "keep_fraction": prune_spec.keep_fraction,
            "size_reduction": {
                "mean": sum(reductions) / len(reductions) if reductions else None,
                "min": min(reductions) if reductions else None,
                "max": max(reductions) if reductions else None,
            },
            "baseline_aggregates": base_aggregates,
            "delta_means": delta_means,
        }

    per_model_ms = {a: _timing_summary([regime_runs[a][uid].elapsed_s * 1000
                                        for regime_runs in runs for uid in users])
                    for a in algorithms}
    return {
        "format": REPORT_FORMAT,
        "command": "evaluate",
        "config": {
            "algorithms": algorithms,
            "split": spec.to_dict(),
            "predictors": {c.algorithm: c.to_dict() for c in configs},
            "prune": (None if not prune_spec
                      else {"strategy": prune_spec.strategy,
                            "keep_fraction": prune_spec.keep_fraction}),
            "domain_cutoff": domain_cutoff,
        },
        "users": {"loaded": len(traces), "evaluated": len(users), "skipped": skips},
        "results": results,
        "aggregates": aggregates,
        "pruning": pruning_section,
        "runtime": {
            "workers": workers,
            "elapsed_s": time.perf_counter() - started,
            "per_model_ms": per_model_ms,
        },
    }


def cmd_evaluate(args) -> int:
    # every option is checked before the input, which may be large, is read
    spec = SplitSpec(training_ratio=args.ratio)
    configs = [_predictor_config(args, a) for a in _algo_list(args)]
    prune_spec = PruneSpec(args.prune, args.keep_fraction) if args.prune else None
    _check_domain_cutoff(args.domain_cutoff)
    traces = _load_input(args.input, args.format, args.strict)
    report = evaluate(traces, configs, spec, prune_spec, args.domain_cutoff, args.workers)
    out = Path(args.out)
    _write_json(out / "report.json", report)
    _write_metrics_csv(out / "metrics.csv", report)

    users = report["users"]
    print(f"users: {users['evaluated']} evaluated, {len(users['skipped'])} skipped")
    for a, aggregate in report["aggregates"].items():
        cells = []
        for name, label in (("static_precision", "SP"), ("static_recall", "SR"),
                            ("dynamic_recall", "DR")):
            mean = aggregate[name]["mean"]
            cells.append(f"{label} {'n/a' if mean is None else f'{mean:.3f}'}")
        print(f"{a:<6} {'  '.join(cells)}")
    print(f"report: {out / 'report.json'}")
    return 0


def _write_metrics_csv(path: Path, report: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = sorted((uid, a, name, _fmt(entry["metrics"][name]))
                  for a, per_user in report["results"].items()
                  for uid, entry in per_user.items()
                  for name in ALL_METRIC_NAMES)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "algorithm", "metric", "value"])
        writer.writerows(rows)


# ---------------------------------------------------------------- sweep

def _sweep_job(payload) -> list[UserSweep]:
    """One user's sweep under each config."""
    trace, configs, swspec = payload
    return [sweep_user(trace, config, swspec) for config in configs]


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    swspec = SlidingWindowSpec(
        window_sizes=tuple(args.sizes) if args.sizes else DEFAULT_WINDOW_SIZES,
        training_ratio=args.ratio,
    )
    configs = [_predictor_config(args, a) for a in _algo_list(args)]
    traces = _load_input(args.input, args.format, args.strict)
    users = sorted(traces)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    jobs = _run_jobs(_sweep_job, [(traces[uid], configs, swspec) for uid in users],
                     args.workers)
    algo_sections = {}
    for i, config in enumerate(configs):
        a = config.algorithm
        result = build_sweep_result(a, [user_sweeps[i] for user_sweeps in jobs], swspec)

        _write_sweep_rows_csv(out / f"sweep_{a}.csv", result)
        _write_sweep_means_csv(out / f"sweep_{a}_means.csv", result, swspec)

        cutoffs = {}
        for metric in SWEEP_METRICS:
            by_size = {size: result.means[size][metric]["mean"] for size in result.means}
            try:
                cutoff, trend = cutoff_scan(by_size, DEFAULT_CUTOFF_EPSILON)
                cutoffs[metric] = {"cutoff": cutoff, "trend": trend,
                                   "epsilon": DEFAULT_CUTOFF_EPSILON}
            except ValueError:
                cutoffs[metric] = None
        algo_sections[a] = {
            "model_count": result.model_count,
            "skipped_users": {str(size): n for size, n in result.skipped.items()},
            "means": {str(size): result.means[size] for size in swspec.window_sizes},
            "cutoffs": cutoffs,
        }
        print(f"{a:<6} {result.model_count} models "
              f"({sum(result.skipped.values())} per-size user skips)")

    _write_json(out / "sweep_summary.json", {
        "format": SWEEP_FORMAT,
        "command": "sweep",
        "config": {
            "algorithms": [c.algorithm for c in configs],
            "window": swspec.to_dict(),
            "predictors": {c.algorithm: c.to_dict() for c in configs},
        },
        "users": len(users),
        "algorithms_results": algo_sections,
        "runtime": {"workers": args.workers, "elapsed_s": time.perf_counter() - started},
    })
    print(f"sweep summary: {out / 'sweep_summary.json'}")
    return 0


def _write_sweep_rows_csv(path: Path, result) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["window_size", "window_index", "user_id", "static_precision",
                         "static_recall", "dynamic_recall", "elapsed_ms"])
        for rec in result.records:
            writer.writerow([
                rec.window_size, rec.window_index, rec.user_id,
                _fmt(rec.metrics.static_precision),
                _fmt(rec.metrics.static_recall),
                _fmt(rec.metrics.dynamic_recall),
                f"{rec.elapsed_s * 1000:.3f}",
            ])


def _write_sweep_means_csv(path: Path, result, swspec: SlidingWindowSpec) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["window_size", "metric", "mean", "count"])
        for size in swspec.window_sizes:
            for metric in SWEEP_METRICS:
                cell = result.means[size][metric]
                writer.writerow([size, metric, _fmt(cell["mean"]), cell["count"]])


# ---------------------------------------------------------------- selftest

def cmd_selftest(args) -> int:
    # imported here: selftest, oracle and synth would add to every command's start-up
    from .selftest import run_selftest

    results = run_selftest(seed=args.seed)
    for r in results:
        status = "ok" if r.passed else "FAIL"
        line = f"{status:<5} {r.name} ({r.cases} cases)"
        if not r.passed:
            line += f" - {r.detail}"
        print(line)
    if args.out:
        _write_json(Path(args.out) / "selftest.json", {
            "format": REPORT_FORMAT,
            "command": "selftest",
            "seed": args.seed,
            "checks": [{"name": r.name, "passed": r.passed,
                        "cases": r.cases, "detail": r.detail} for r in results],
        })
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------- parser

def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError("size list is empty")
    return sizes


def _add_input_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True,
                   help="raw log file, or a directory produced by 'ingest'")
    p.add_argument("--format", choices=FORMATS, default="csv",
                   help="raw log format (ignored for ingested directories)")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first malformed row instead of skipping it")


def _add_model_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algo", action="append", choices=ALGORITHMS,
                   help="algorithm to run (repeatable; default: all four)")
    p.add_argument("--ratio", type=float, default=0.8,
                   help="training fraction of each trace (default 0.8)")
    p.add_argument("--window", type=int, default=DEFAULT_LOOKAHEAD_WINDOW,
                   help="lookahead window for dg/mp successor counting")
    p.add_argument("--threshold", type=float, default=None,
                   help="confidence threshold (default: 0.25 dg, 0.1 ppm)")
    p.add_argument("--ppm-order", type=int, default=DEFAULT_PPM_ORDER,
                   help="context length for ppm")
    p.add_argument("--top-n", type=int, default=DEFAULT_TOP_N,
                   help="successor list length for mp")


def _add_workers_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="process count (results are identical for any value)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefetchlab",
        description="Train per-user request predictors on web logs and replay "
                    "held-out requests through a simulated prefetch cache.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a raw log into the trace store traces.json")
    _add_input_opts(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="repetition statistics per user and across users")
    _add_input_opts(p)
    p.add_argument("--out", default=None, help="directory for stats.json (optional)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("evaluate", help="train, replay, and score each user/algorithm")
    _add_input_opts(p)
    _add_model_opts(p)
    p.add_argument("--prune", choices=STRATEGIES, default=None,
                   help="training-data pruning strategy (also runs the unpruned baseline)")
    p.add_argument("--keep-fraction", type=float, default=0.2,
                   help="fraction of groups kept when pruning (default 0.2)")
    p.add_argument("--domain-cutoff", type=float, default=None,
                   help="drop domains whose repeated-request share is below this")
    _add_workers_opt(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="sliding-window accuracy means per window size")
    _add_input_opts(p)
    _add_model_opts(p)
    p.add_argument("--sizes", type=_parse_sizes, default=None,
                   help="comma-separated window sizes (default 50..1000)")
    _add_workers_opt(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", help="run the built-in correctness checks")
    p.add_argument("--seed", type=int, default=0, help="seed for generated traces")
    p.add_argument("--out", default=None, help="directory for selftest.json (optional)")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LogParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
