"""Benchmark of the prefetchlab CLI pipeline on seeded synthetic logs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 55 --trace 0

The workload's raw log is generated from ``--seed`` into a scratch directory
under ``.perfbench/`` and the real CLI commands run on it, each in a fresh
process, one at a time, with a fixed reference job before and after each.
Rounds of the workload's commands repeat while another round fits in
``--seconds``; each command is reported as the median, over the rounds after
the first, of its wall time relative to the reference job's, and the cold
import (``setup_s``) in seconds scaled by the reference job. Every output is
checked; an operation (one command) fails on a non-zero exit or a failed
check, and any failure makes the exit code 1.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` the run also repeats the commands in-process under tracing and
carries the per-layer metrics instead; the traced outputs must equal the
CLI's. Full results and the spans go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, commands, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKSPACE = ROOT / ".perfbench"
SETUP_PER_ROUND = 2  # cold imports before each round, spread over the run


def metric_units(section: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def as_metrics(values: dict[str, float], section: str) -> dict[str, dict]:
    units = metric_units(section)
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def timed_process(argv: list[str], log_path: Path) -> tuple[float, int, int]:
    """Run a process to its end; (wall seconds, peak RSS in KiB, exit code)."""
    with log_path.open("w") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=dict(os.environ, PYTHONPATH=str(SRC)))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


# The reference job: a fresh interpreter counting string keys in a dict, about
# 0.15 s, with no part of the program in it. It runs before and after every
# command, so a command's time can be taken relative to the machine's speed at
# that moment (see main).
REFERENCE_S = 0.15  # setup_s is scaled to a machine where the job takes this long
PROBE = """
counts = {}
for i in range(300000):
    key = "/item/%d" % (i * 7919 % 4099)
    counts[key] = counts.get(key, 0) + 1
rows = sorted(counts.items())
"""


def probe_seconds() -> float:
    """Wall time of the reference job in a fresh interpreter."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE], stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - started


def cold_import_seconds(work: Path) -> float:
    """Wall time of ``import prefetchlab.cli`` in a fresh interpreter."""
    return timed_process([sys.executable, "-c", "import prefetchlab.cli"], work / "setup.log")[0]


def step_checks(workload, step: str, work: Path, generated: dict, log_counts, seed: int):
    """The output checks of one command of a round."""
    if step == "ingest":
        return checks.check_ingest(work / "ingest", generated, *log_counts)
    if step == "analyze_w2":
        return checks.check_same_outputs(work / "analyze", work / "analyze_w2")
    evaluates = workload.analysis[0] == "evaluate"
    if step == "analyze" and not evaluates:
        return checks.check_sweep(work / "analyze", generated)
    report = checks.read_report(work / step)
    problems = checks.check_naive_seen(report, generated)
    if step == "analyze" and workload.name == "pipeline":
        problems += checks.check_oracle_sample(report, generated, seed)
    if step == "evaluate_prune" and evaluates:
        problems += checks.check_prune_baseline(report, checks.read_report(work / "analyze"))
    return problems


def run_round(steps, work: Path, check, problems: list[str]) -> list[tuple]:
    """One pass over the workload's commands, with the reference job before the
    first and after each; per command (step, wall s, peak RSS KiB, ok, probe
    before s, probe after s)."""
    out = []
    before = probe_seconds()
    for step, argv in steps:
        log = work / f"{step}.log"
        wall, rss, code = timed_process([sys.executable, "-m", "prefetchlab.cli", *argv], log)
        after = probe_seconds()
        found = ([f"exit code {code}: " + log.read_text(errors="replace")[-2000:]]
                 if code else check(step))
        problems += [f"{step}: {p}" for p in found]
        out.append((step, wall, rss, not found, before, after))
        before = after
    return out


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except FileNotFoundError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "prefetchlab" / "cli.py").is_file():
        print(f"error: no prefetchlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    workload = WORKLOADS[args.workload]
    WORKSPACE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORKSPACE))
    provenance = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "loadavg_before": os.getloadavg(),
        "git_commit": git_commit(), "seed": args.seed, "workload": workload.name,
        **workload.to_dict(), "seconds": args.seconds, "trace": args.trace,
    }
    problems: list[str] = []
    try:
        log_path = work / f"raw.{workload.log_format}"
        generated = generate(workload, args.seed, log_path)
        log_counts = checks.log_counts(log_path, workload.log_format)
        get_requests = log_counts[0] - log_counts[1]

        # Each command runs once per round, and rounds repeat while another fits
        # in --seconds. The shared machine this was built on changes speed by up
        # to 40% for stretches of seconds to minutes, often for a whole run, so
        # no statistic of raw wall times is steady from run to run. The
        # reference job runs before and after every command; a command's sample
        # is its wall time over the slower of those two, which cancels the
        # machine's speed at that moment but not a change in the program, as
        # the reference job contains none of it. Slow spells come and go within
        # a second: a command of a second or so nearly always meets some, while
        # a 0.15-s reference run may fall between them, so the slower reference
        # run is the better match (over six sets of ten runs it gave the
        # steadier medians in 18 of 24 workload-command pairs, against the mean
        # of the two). Each metric is the median of the samples. The first round is a warm-up: the first commands of a run
        # are slower for reasons users do not pay on every command (fresh
        # memory). Its outputs are checked in full; later rounds must reproduce
        # them, and only later rounds are timed.
        first = work / "round0"
        rounds = []  # per round: run_round's samples
        setup_samples = []  # per round: cold-import seconds
        measure_start = time.perf_counter()
        while True:
            setup_samples.append([cold_import_seconds(work) for _ in range(SETUP_PER_ROUND)])
            round_dir = work / f"round{len(rounds)}"
            round_dir.mkdir()
            if rounds:
                def check(step, round_dir=round_dir):
                    return checks.check_same_outputs(first / step, round_dir / step)
            else:
                def check(step):
                    return step_checks(workload, step, first, generated, log_counts, args.seed)
            rounds.append(run_round(commands(workload, log_path, round_dir), round_dir,
                                    check, problems))
            if round_dir != first:
                shutil.rmtree(round_dir)
            elapsed = time.perf_counter() - measure_start
            if len(rounds) > 1 and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        samples = [sample for r in rounds for sample in r]
        timed = [sample for r in rounds[1:] for sample in r]
        steps = list(dict.fromkeys(step for step, *_ in rounds[0]))

        def relative(step):
            return statistics.median(wall / max(before, after)
                                     for name, wall, _, _, before, after in timed if name == step)

        # setup_s is scaled like the commands but kept in seconds: the median
        # cold import over the median reference run of the timed rounds, times
        # REFERENCE_S. Raw, its median moved by up to 45% between sets of ten
        # runs of the same code; scaled, by up to 15%.
        imports = [x for r in setup_samples[1:] for x in r]
        references = [r[0][4] for r in rounds[1:]] + [after for *_, after in timed]

        def walls(step):
            return [wall for name, wall, *_ in timed if name == step]

        attempted = len(samples)
        failed = sum(not ok for _, _, _, ok, _, _ in samples)
        end_to_end = {
            "setup_s": REFERENCE_S * statistics.median(imports) / statistics.median(references),
            **{f"{step}_rel": relative(step) for step in steps},
            "total_rel": sum(relative(step) for step in steps),
            "peak_rss_mb": max(rss for _, _, rss, _, _, _ in samples) / 1024,
        }
        metrics = as_metrics(end_to_end, "end_to_end")
        # raw wall times, for reading alongside the metrics
        seconds = {step: {"median": statistics.median(walls(step)), "fastest": min(walls(step))}
                   for step in steps}
        requests_per_s = get_requests / sum(t["median"] for t in seconds.values())
        seconds["setup"] = {"median": statistics.median(imports), "fastest": min(imports)}
        result = {"provenance": provenance, "rounds": rounds, "setup_samples": setup_samples,
                  "end_to_end": end_to_end, "seconds": seconds,
                  "requests_per_s": requests_per_s}

        if args.trace:
            # the 2-worker step repeats the 1-worker work, so it is not traced
            traced_steps = [(step, argv) for step, argv
                            in commands(workload, log_path, work / "traced")
                            if step != "analyze_w2"]
            rec, codes = tracing.traced_commands(traced_steps)
            attempted += len(traced_steps)
            for (step, _), code in zip(traced_steps, codes):
                found = ([f"exit code {code}"] if code else
                         checks.check_same_outputs(first / step, work / "traced" / step))
                problems += [f"traced {step}: {p}" for p in found]
                failed += bool(found)
            layers = tracing.layer_metrics(rec)
            layers.update(tracing.replay_probe(args.seed, workload.generator["repertoire_size"],
                                               workload.generator["noise_rate"]))
            # in-process commands skip interpreter start-up, so leave it out here too
            fastest_setup = min(imports)
            untraced = sum(seconds[step]["fastest"] - fastest_setup for step, _ in traced_steps)
            layers["ingest.rows_per_s"] = log_counts[0] / layers["ingest.load_traces_s"]
            layers["ingest.store_bytes"] = tree_bytes(first / "ingest")
            layers["cli.parallel_efficiency"] = (
                end_to_end["analyze_rel"] / (2 * end_to_end["analyze_w2_rel"]))
            layers["trace.overhead"] = tracing.command_seconds(rec) / untraced
            metrics = as_metrics(layers, "per_layer")
            result["per_layer"] = layers
            result["self_s"] = rec.self_times()
            spans_path = WORKSPACE / f"spans-{workload.name}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                              "spans": rec.spans}))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance["loadavg_after"] = os.getloadavg()
    result["problems"] = problems
    (WORKSPACE / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    for step, t in seconds.items():
        print(f"{step + ' wall s (median, fastest)':<40} {t['median']:>16.6g} {t['fastest']:.6g}")
    print(f"{'requests_per_s (wall, medians)':<40} {requests_per_s:>16.6g} 1/s")
    print(f"{'error_rate':<40} {failed / attempted:>16.6g} ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
