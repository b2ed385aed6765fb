"""Command-line front end: ingest, stats, evaluate, sweep, selftest.

Reports are machine-readable and reproducible: every number in report.json
and the CSVs is a pure function of (input, config). Wall-clock timings and
the worker count are the only nondeterministic values, so they live in a
dedicated "runtime" section (JSON) or column (CSV) that consumers and
golden-file comparisons can drop. A command with no user to report on (none
kept by ``ingest``, none evaluated, none long enough for a sweep window)
raises ``NothingToReport`` and writes nothing; only ``main`` prints an error,
as one ``error:`` line. Every file goes through ``_publish``, the only code
that creates ``--out``: a command that an exception stops writes all of its
files or none. A process killed between two of its renames leaves some files
new, the rest old, and a stray ``.<name>.<pid>.tmp``, which the next publish
of ``<name>`` there removes; a publish removes no other file.

The unit of work is the user. ``evaluate`` and ``sweep`` map a job over the
sorted user ids that closes over the command's inputs and does all of one
user's work under all of its configs: a sweep job is one ``sweep_user``
call; an evaluate job, ``_evaluate_job``, applies the domain cut-off, names
the user's skip reason or calls ``run_user`` once per prune regime (for
``evaluate --prune``, unpruned, then pruned, with the training slice pruned
once), and scores the runs. With more than one worker the command forks
(``forkjoin``): the user ids are cut into one contiguous slice per worker, at
most one per CPU; the command's own process maps the first slice and a forked
child each other slice, and the slices' results are joined in user order, so
the worker count never changes any output outside "runtime". Both analysis
commands are a library call plus publishing: ``evaluate()`` and ``sweep()``
check their options, send the jobs and build the report dict from the results;
``cmd_evaluate`` and ``cmd_sweep`` only load the input, call them and publish.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from pathlib import Path

from .engine import RunResult, SplitSpec, TraceTooShortError, run_user
from .ingest import (FORMATS, STORE_NAME, LogParseError, load_traces, read_trace_files,
                     remove_outlier_users, write_trace_files)
from .metrics import (METRIC_NAMES, NORMALIZED_NAMES, MetricsReport, aggregate_reports,
                      metrics_report, normalize_against_naive)
from .predictors import (ALGORITHMS, DEFAULT_LOOKAHEAD_WINDOW, DEFAULT_PPM_ORDER,
                         DEFAULT_TOP_N, PredictorConfig, _config_algorithms)
from .pruning import STRATEGIES, PruneSpec, domain_cutoff_filter
from .sweep import (DEFAULT_CUTOFF_EPSILON, DEFAULT_WINDOW_SIZES, SWEEP_METRICS,
                    SlidingWindowSpec, SweepResult, build_sweep_result, cutoff_scan, sweep_user)
from .traces import UserTrace, _running_sum, population_summary, repetition_stats

REPORT_FORMAT = "prefetchlab-report/v1"
SWEEP_FORMAT = "prefetchlab-sweep/v1"
ALL_METRIC_NAMES = METRIC_NAMES + NORMALIZED_NAMES


class NothingToReport(Exception):
    """A command has no user to report on; ``main`` prints it and exits 1."""


# ---------------------------------------------------------------- plumbing

def _write_json(path: Path, obj: dict) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _publish(out: Path, outputs: dict) -> None:
    """Make ``out`` and write each ``outputs[name] = (writer, *args)`` as ``writer(temporary,
    *args)`` under a temporary name there; rename all into place once all are written, or none.
    First remove the ``.<name>.<pid>.tmp`` files that a process killed mid-publish left."""
    out.mkdir(parents=True, exist_ok=True)
    stray = re.compile(rf"\.(?:{'|'.join(map(re.escape, outputs))})\.[0-9]+\.tmp")
    for path in out.iterdir():
        if stray.fullmatch(path.name):
            path.unlink()
    staged = {out / name: out / f".{name}.{os.getpid()}.tmp" for name in outputs}
    try:
        for (write, *args), temporary in zip(outputs.values(), staged.values()):
            write(temporary, *args)
        for path in staged:  # checked first: a rename onto a directory fails after earlier ones
            if path.is_dir():
                raise IsADirectoryError(f"{path} is a directory")
        for path, temporary in staged.items():
            temporary.replace(path)
    finally:
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)


def _write_csv(path: Path, header: list[str], rows) -> None:
    # csv writes None as an empty field and a float as its repr
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_input(path_str: str, fmt: str, strict: bool) -> dict[str, UserTrace]:
    """Accept either an ingested output directory or a raw log file."""
    path = Path(path_str)
    if path.is_dir():
        return read_trace_files(path)
    traces, _ = load_traces(path, fmt=fmt, strict=strict)
    return traces


def _configs(args) -> list[PredictorConfig]:
    """The model flags' config for each chosen algorithm (all four by default), in order."""
    chosen = set(args.algo or ALGORITHMS)
    return [PredictorConfig(a, args.window, args.threshold, args.ppm_order, args.top_n)
            for a in ALGORITHMS if a in chosen]


def _run_jobs(job, users: list[str], workers: int) -> list:
    """``[job(uid) for uid in users]`` over up to ``workers`` processes, in-process for one.

    ``job`` closes over the command's inputs, which forked children inherit: only its results
    are pickled. Each process, at most one per CPU, maps one contiguous slice of ``users``
    (``forkjoin``); without ``os.fork`` the map runs in-process.
    """
    shares = min(workers, len(users), os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if shares <= 1:
        return [job(uid) for uid in users]
    # imported here: only a run with more than one worker compiles and loads it
    from .forkjoin import fork_map

    return fork_map(job, users, shares)


def _check_options(domain_cutoff: float | None, workers: int) -> None:
    if domain_cutoff is not None and not 0.0 <= domain_cutoff <= 1.0:  # False for nan
        raise ValueError(f"domain_cutoff must lie in [0, 1], got {domain_cutoff}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _check_out(out: Path) -> None:
    """Refuse an ``--out`` that is, or lies under, an existing non-directory."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {out}: {existing} is not a directory")


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
        raise NothingToReport("no GET requests parsed from input")
    kept, outliers = remove_outlier_users(traces)
    if not kept:
        raise NothingToReport(f"no user kept of {len(traces)} parsed (floor "
                              f"{outliers.min_request_floor} requests, outlier fence "
                              f"{outliers.upper_fence:.1f})")
    report = {
        "format": REPORT_FORMAT,
        "command": "ingest",
        "load": summary._asdict(),
        "outliers": outliers._asdict(),
        "users": {"parsed": len(traces), "kept": len(kept),
                  "removed": len(traces) - len(kept)},
    }
    out = Path(args.out)
    _publish(out, {STORE_NAME: (write_trace_files, kept),
                   "ingest_summary.json": (_write_json, report)})
    print(f"rows read: {summary.rows_read}, kept GET: {summary.kept}, "
          f"non-GET dropped: {summary.dropped_non_get}, malformed: {summary.skipped_malformed}")
    print(f"users: {len(traces)} parsed, {len(kept)} kept "
          f"(outlier fence {outliers.upper_fence:.1f}, floor {outliers.min_request_floor})")
    print(f"traces written to {out / STORE_NAME}")
    return 0


# ---------------------------------------------------------------- stats

def cmd_stats(args) -> int:
    traces = _load_input(args.input, args.format, args.strict)
    if not traces:
        raise NothingToReport("no traces in input")
    per_user = {uid: repetition_stats(traces[uid]) for uid in sorted(traces)}
    pct = population_summary([s.repeated_pct for s in per_user.values()])
    count = population_summary([float(s.repeated_count) for s in per_user.values()])
    report = {
        "format": REPORT_FORMAT,
        "command": "stats",
        "users": len(per_user),
        "repeated_pct": pct,
        "repeated_count": count,
        "per_user": {uid: s._asdict() for uid, s in per_user.items()},
    }
    if args.out:
        _publish(Path(args.out), {"stats.json": (_write_json, report)})
        print(f"stats written to {Path(args.out) / 'stats.json'}")
    print(f"users: {len(per_user)}")
    print(f"repeated pct  min {pct['min']:.3f}  avg {pct['avg']:.3f}  "
          f"max {pct['max']:.3f}  sd {pct['sd']:.3f}")
    print(f"repeated count min {count['min']:.0f}  avg {count['avg']:.1f}  "
          f"max {count['max']:.0f}  sd {count['sd']:.1f}")
    return 0


# ---------------------------------------------------------------- evaluate

def _evaluate_job(uid, trace, configs, spec, prune_specs, domain_cutoff
                  ) -> str | list[list[tuple[RunResult, MetricsReport]]]:
    """One user's skip reason, or per prune regime (unpruned first) one scored run per config.

    With a ``domain_cutoff`` the trace first keeps only its domains at or
    above it. The user is skipped when that empties the trace or the trace is
    too short to split. Recalls are normalised against the user's Naive run
    when Naive runs.
    """
    if domain_cutoff is not None:
        trace = domain_cutoff_filter(trace, domain_cutoff)
        if len(trace) == 0:
            return "all domains below repeated-request cut-off"
    try:
        regimes = [run_user(trace, configs, spec, prune_spec) for prune_spec in prune_specs]
    except TraceTooShortError:
        return "too short to split"
    scored = []
    for runs in regimes:
        reports = [metrics_report(uid, c.algorithm, run.outcome) for c, run in zip(configs, runs)]
        naive = next((r for r in reports if r.algorithm == "naive"), None)
        if naive:
            reports = [normalize_against_naive(r, naive) for r in reports]
        scored.append(list(zip(runs, reports)))
    return scored


def evaluate(traces: dict[str, UserTrace], configs: list[PredictorConfig], spec: SplitSpec,
             prune_spec: PruneSpec | None = None, domain_cutoff: float | None = None,
             workers: int = 1) -> dict:
    """Train, replay and score every user under every config; returns report.json.

    Each user is one ``_evaluate_job``, which skips the user with a reason
    or runs and scores every config, unpruned and, with a ``prune_spec``,
    pruned; the pruned runs are then the primary results and the unpruned
    ones the baseline.
    """
    started = time.perf_counter()
    algorithms = _config_algorithms(configs)
    _check_options(domain_cutoff, workers)
    users = sorted(traces)
    regimes = [None, prune_spec] if prune_spec else [None]
    jobs = _run_jobs(lambda uid: _evaluate_job(uid, traces[uid], configs, spec, regimes,
                                               domain_cutoff), users, workers)
    skips = {uid: job for uid, job in zip(users, jobs) if isinstance(job, str)}
    # scored[user][regime][config] is a (RunResult, MetricsReport)
    scored = {uid: job for uid, job in zip(users, jobs) if not isinstance(job, str)}

    def aggregates_of(regime: int) -> dict:
        return {a: aggregate_reports(job[regime][i][1] for job in scored.values())
                for i, a in enumerate(algorithms)}

    results = {a: {} for a in algorithms}
    for uid, job in scored.items():
        for a, (run, report) in zip(algorithms, job[-1]):
            entry = results[a][uid] = {"outcome": run.outcome.to_dict(),
                                       "metrics": report._asdict()}
            if prune_spec:
                entry["prune"] = run.prune_result.to_dict() if run.prune_result else None
    aggregates = aggregates_of(-1)

    pruning_section = None
    if prune_spec:
        base_aggregates = aggregates_of(0)
        reductions = [entry["prune"]["size_reduction"]
                      for entry in results[algorithms[0]].values() if entry["prune"]]
        delta_means = {}
        for a in algorithms:
            deltas = {}
            for name in ALL_METRIC_NAMES:
                after = aggregates[a][name]["mean"]
                before = base_aggregates[a][name]["mean"]
                deltas[name] = None if after is None or before is None else after - before
            delta_means[a] = deltas
        pruning_section = {
            **prune_spec._asdict(),
            "size_reduction": {
                "mean": _running_sum(reductions) / len(reductions) if reductions else None,
                "min": min(reductions) if reductions else None,
                "max": max(reductions) if reductions else None,
            },
            "baseline_aggregates": base_aggregates,
            "delta_means": delta_means,
        }

    per_model_ms = {a: _timing_summary([runs[i][0].elapsed_s * 1000
                                        for job in scored.values() for runs in job])
                    for i, a in enumerate(algorithms)}
    return {
        "format": REPORT_FORMAT,
        "command": "evaluate",
        "config": {
            "algorithms": algorithms,
            # the depth is per model (PredictorConfig.trigger_depth); the key keeps report bytes
            "split": {**spec._asdict(), "trigger_depth": None},
            "predictors": {c.algorithm: c.to_dict() for c in configs},
            "prune": prune_spec._asdict() if prune_spec else None,
            "domain_cutoff": domain_cutoff,
        },
        "users": {"loaded": len(traces), "evaluated": len(scored), "skipped": skips},
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
    # every option is checked before the input, which may be large, is read;
    # --keep-fraction too, with or without --prune
    spec = SplitSpec(training_ratio=args.ratio)
    configs = _configs(args)
    prune_spec = PruneSpec(args.prune or STRATEGIES[0], args.keep_fraction)
    _check_options(args.domain_cutoff, args.workers)
    traces = _load_input(args.input, args.format, args.strict)
    report = evaluate(traces, configs, spec, prune_spec if args.prune else None,
                      args.domain_cutoff, args.workers)
    users = report["users"]
    if not users["evaluated"]:
        raise NothingToReport(f"no user to evaluate: {users['loaded']} loaded, "
                              f"{len(users['skipped'])} skipped")
    out = Path(args.out)
    _publish(out, {"report.json": (_write_json, report),
                   "metrics.csv": (_write_metrics_csv, report)})

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
    # (user, algorithm, metric) is unique, so the sort never compares two values
    _write_csv(path, ["user_id", "algorithm", "metric", "value"],
               sorted((uid, a, name, entry["metrics"][name])
                      for a, per_user in report["results"].items()
                      for uid, entry in per_user.items()
                      for name in ALL_METRIC_NAMES))


# ---------------------------------------------------------------- sweep

def sweep(traces: dict[str, UserTrace], configs: list[PredictorConfig], spec: SlidingWindowSpec,
          workers: int = 1) -> tuple[dict, list[SweepResult]]:
    """The sweep command's sweep_summary.json and, per config in order, its ``SweepResult``."""
    started = time.perf_counter()
    algorithms = _config_algorithms(configs)
    _check_options(None, workers)
    users = sorted(traces)
    jobs = _run_jobs(lambda uid: sweep_user(traces[uid], configs, spec), users, workers)
    # by config index: zip(*jobs) would give no config at all when there is no user
    results = [build_sweep_result([job[i] for job in jobs], spec) for i in range(len(configs))]
    sections = {}
    for a, result in zip(algorithms, results):
        cutoffs = dict.fromkeys(SWEEP_METRICS)
        for metric in SWEEP_METRICS:
            by_size = {size: means[metric]["mean"] for size, means in result.means.items()}
            try:
                cutoff, trend = cutoff_scan(by_size, DEFAULT_CUTOFF_EPSILON)
            except ValueError:  # fewer than two sizes with a mean: no cut-off
                continue
            cutoffs[metric] = {"cutoff": cutoff, "trend": trend, "epsilon": DEFAULT_CUTOFF_EPSILON}
        sections[a] = {
            "model_count": len(result.records),
            "skipped_users": {str(size): n for size, n in result.skipped.items()},
            "means": {str(size): means for size, means in result.means.items()},
            "cutoffs": cutoffs,
        }
    summary = {
        "format": SWEEP_FORMAT,
        "command": "sweep",
        "config": {
            "algorithms": algorithms,
            # every window slides by its test-slice length; the key keeps report bytes
            "window": {**spec._asdict(), "sliding_distance": "auto"},
            "predictors": {c.algorithm: c.to_dict() for c in configs},
        },
        "users": len(users),
        "algorithms_results": sections,
        "runtime": {"workers": workers, "elapsed_s": time.perf_counter() - started},
    }
    return summary, results


def cmd_sweep(args) -> int:
    spec = SlidingWindowSpec(args.sizes or DEFAULT_WINDOW_SIZES, args.ratio)
    configs = _configs(args)
    _check_options(None, args.workers)
    traces = _load_input(args.input, args.format, args.strict)
    smallest = min(spec.window_sizes)
    if not any(len(trace) >= smallest for trace in traces.values()):  # then no window at all
        raise NothingToReport(f"no user to sweep: {len(traces)} loaded, none of "
                              f"{smallest} requests or more")
    summary, results = sweep(traces, configs, spec, args.workers)
    outputs = {}
    for config, result in zip(configs, results):
        outputs[f"sweep_{config.algorithm}.csv"] = (_write_sweep_rows_csv, result)
        outputs[f"sweep_{config.algorithm}_means.csv"] = (_write_sweep_means_csv, result)
        print(f"{config.algorithm:<6} {len(result.records)} models "
              f"({sum(result.skipped.values())} per-size user skips)")
    outputs["sweep_summary.json"] = (_write_json, summary)
    out = Path(args.out)  # made only now: a job that fails leaves no directory behind
    _publish(out, outputs)
    print(f"sweep summary: {out / 'sweep_summary.json'}")
    return 0


def _write_sweep_rows_csv(path: Path, result) -> None:
    _write_csv(path, ["window_size", "window_index", "user_id", *SWEEP_METRICS, "elapsed_ms"],
               ([rec.window_size, rec.window_index, rec.metrics.user_id,
                 *(getattr(rec.metrics, m) for m in SWEEP_METRICS),
                 f"{rec.elapsed_s * 1000:.3f}"] for rec in result.records))


def _write_sweep_means_csv(path: Path, result) -> None:
    _write_csv(path, ["window_size", "metric", "mean", "count"],
               ([size, metric, means[metric]["mean"], means[metric]["count"]]
                for size, means in result.means.items() for metric in SWEEP_METRICS))


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
        _publish(Path(args.out), {"selftest.json": (_write_json, {
            "format": REPORT_FORMAT,
            "command": "selftest",
            "seed": args.seed,
            "checks": [r._asdict() for r in results],
        })})
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
        if args.out is not None:  # checked before the input, which may be large, is read
            _check_out(Path(args.out))
        return args.func(args)
    except (OSError, ValueError, NothingToReport) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # 1: a bad row, an unusable path or nothing to report; 2: a bad option or a bad store
        return 1 if isinstance(exc, (LogParseError, OSError, NothingToReport)) else 2


if __name__ == "__main__":
    sys.exit(main())
