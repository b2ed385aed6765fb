"""The traced run: spans around the calls into each layer, and the replay probe.

The traced run executes the workload's commands in-process through
``prefetchlab.cli.main`` with ``--workers 1``, after wrapping the public
functions that ``cli`` (and ``engine``/``sweep`` below it) call into each
module. Layers are the modules: cli, ingest, pruning, predictors, engine,
metrics and sweep. Every wrapped call records a span (name, start, end,
parent index); spans stay in memory and are written out at the end. A
layer's self time is its spans' duration minus the part their child spans
cover.

``engine.replay`` spans include the ``predict``/``update`` calls the replay
makes on the model; those are counted, not timed, so that tracing stays
cheap on the per-step path.
"""

from __future__ import annotations

import contextlib
import io
import math
import pickle
import random
import statistics
from collections import Counter, defaultdict
from time import perf_counter

ALGORITHMS = ("dg", "ppm", "mp", "naive")
LAYERS = ("cli", "ingest", "pruning", "predictors", "engine", "metrics", "sweep")
PROBE_LENGTHS = (1000, 2000, 4000, 8000)
PROBE_REPEATS = 3


class Recorder:
    """In-memory spans as (name, start, end, parent index or -1), plus counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def durations(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (the span name's first dotted part), children excluded."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name.split(".", 1)[0]] += end - start - child
        return out


def _counting_predict(rec: Recorder, algorithm: str, predict):
    def counted(context):
        candidates = predict(context)
        rec.counts[f"steps.{algorithm}"] += 1
        rec.counts[f"candidates.{algorithm}"] += len(candidates)
        return candidates
    return counted


def _install(rec: Recorder, cli, engine, sweep) -> list:
    """Wrap the layer entry points; returns (module, name, original) for restoring."""

    def plain(name):
        return lambda fn: lambda *a, **k: rec.call(name, fn, *a, **k)

    def train(fn):
        def traced(config, training, *a, **k):
            model = rec.call(f"predictors.train.{config.algorithm}", fn, config, training, *a, **k)
            rec.counts["train_requests"] += len(training)
            rec.counts["models"] += 1
            model.predict = _counting_predict(rec, config.algorithm, model.predict)
            return model
        return traced

    def replay(fn):
        def traced(model, *a, **k):
            outcome = rec.call(f"engine.replay.{model.algorithm}", fn, model, *a, **k)
            rec.counts[f"prefetches.{model.algorithm}"] += outcome.prefetch_count
            return outcome
        return traced

    def run_jobs(fn):
        def traced(job, payloads, workers):
            def measure():
                started = perf_counter()
                size = sum(len(pickle.dumps(p)) for p in payloads)
                rec.counts["payload_pickle_s"] += perf_counter() - started
                rec.counts["payload_bytes"] += size
            rec.call("bench.pickle", measure)
            return rec.call("cli.run_jobs", fn, job, payloads, workers)
        return traced

    table = [
        (cli, "cmd_ingest", plain("cli.ingest")),
        (cli, "cmd_evaluate", plain("cli.evaluate")),
        (cli, "cmd_sweep", plain("cli.sweep")),
        (cli, "_run_jobs", run_jobs),
        (cli, "load_traces", plain("ingest.load_traces")),
        (cli, "remove_outlier_users", plain("ingest.remove_outlier_users")),
        (cli, "write_trace_files", plain("ingest.write_trace_files")),
        (cli, "read_trace_files", plain("ingest.read_trace_files")),
        (engine, "prune", plain("pruning.prune")),
        (engine, "train", train),
        (sweep, "train", train),
        (cli, "run_user", plain("engine.run_user")),
        (engine, "run_test_engine", replay),
        (sweep, "run_test_engine", replay),
        (cli, "sweep_user", plain("sweep.sweep_user")),
        (cli, "build_sweep_result", plain("sweep.build_sweep_result")),
        (cli, "cutoff_scan", plain("sweep.cutoff_scan")),
    ]
    table += [(cli, name, plain("cli.write")) for name in
              ("_write_json", "_write_metrics_csv", "_write_sweep_rows_csv",
               "_write_sweep_means_csv")]
    table += [(mod, name, plain("metrics.score")) for mod, name in
              ((cli, "metrics_report"), (cli, "normalize_against_naive"),
               (cli, "aggregate_reports"), (sweep, "metrics_report"),
               (sweep, "aggregate_reports"))]
    originals = []
    for module, name, wrapper in table:
        original = getattr(module, name)
        originals.append((module, name, original))
        setattr(module, name, wrapper(original))
    return originals


def traced_commands(steps: list[tuple[str, list[str]]]) -> tuple[Recorder, list[int]]:
    """Run CLI argument lists in-process under tracing; returns the spans and exit codes."""
    from prefetchlab import cli, engine, sweep

    rec = Recorder()
    originals = _install(rec, cli, engine, sweep)
    codes = []
    try:
        for _step, argv in steps:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
    return rec, codes


def layer_metrics(rec: Recorder) -> dict[str, float]:
    d = rec.durations()
    c = rec.counts
    selfs = rec.self_times()
    out = {
        "ingest.load_traces_s": d["ingest.load_traces"],
        "ingest.remove_outlier_users_s": d["ingest.remove_outlier_users"],
        "ingest.write_trace_files_s": d["ingest.write_trace_files"],
        "ingest.read_trace_files_s": d["ingest.read_trace_files"],
        "pruning.prune_s": d["pruning.prune"],
        "pruning.prune_calls": sum(1 for s in rec.spans if s[0] == "pruning.prune"),
        "predictors.train_requests": c["train_requests"],
        "predictors.models": c["models"],
        "metrics.score_s": d["metrics.score"],
        "cli.payload_bytes": c["payload_bytes"],
        "cli.payload_pickle_s": c["payload_pickle_s"],
        "cli.write_s": d["cli.write"],
    }
    for a in ALGORITHMS:
        out[f"predictors.train_s.{a}"] = d[f"predictors.train.{a}"]
        out[f"engine.replay_s.{a}"] = d[f"engine.replay.{a}"]
        steps, candidates = c[f"steps.{a}"], c[f"candidates.{a}"]
        out[f"predictors.candidates_per_step.{a}"] = candidates / steps
        out[f"engine.prefetch_per_candidate.{a}"] = c[f"prefetches.{a}"] / candidates
    # sweep's self time is left out: it is zero on the workloads that do not sweep
    for layer in LAYERS:
        if layer != "sweep":
            out[f"{layer}.self_s"] = selfs[layer]
    return out


def command_seconds(rec: Recorder) -> float:
    """Wall time of the traced commands, without the benchmark's own pickling."""
    top = sum(end - start for name, start, end, parent in rec.spans if parent < 0)
    return top - sum(end - start for name, start, end, _ in rec.spans
                     if name.startswith("bench."))


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def replay_probe(seed: int, repertoire_size: int, noise_rate: float) -> dict[str, float]:
    """Replay time against trace length, per algorithm, as a log-log slope.

    One bursty trace of the workload's shape is cut to each probe length,
    split 80/20, trained untimed, and its test slice replayed; the median of
    a few replays is taken per length. A slope of 1 is linear, 2 quadratic.
    """
    from prefetchlab.engine import run_test_engine
    from prefetchlab.predictors import PredictorConfig, train
    from prefetchlab.synth import bursty_trace

    trace = bursty_trace(random.Random(seed), "probe", max(PROBE_LENGTHS),
                         repertoire_size=repertoire_size, noise_rate=noise_rate)
    keys = [r.url_key for r in trace.requests]
    out = {}
    for a in ALGORITHMS:
        config = PredictorConfig(a)
        depth = config.ppm_order if a == "ppm" else 1
        times = []
        for n in PROBE_LENGTHS:
            cut = math.floor(0.8 * n)
            training, test = keys[:cut], keys[cut:n]
            samples = []
            for _ in range(PROBE_REPEATS):
                model = train(config, training)
                started = perf_counter()
                run_test_engine(model, test, training[-depth:], depth)
                samples.append(perf_counter() - started)
            times.append(statistics.median(samples))
        out[f"engine.replay_slope.{a}"] = _slope(list(PROBE_LENGTHS), times)
    return out
