"""Mutants that no accepted input can tell apart from the program.

Each entry replaces the one occurrence of ``old`` in ``path`` with ``new``,
as in ``mutants.py``, and says why no test can fail under it. ``run.py``
does not run them. ``tests/test_referees.py`` holds them to the rule of
``mutants.py``: each ``old`` still occurs exactly once in ``src/``, and no
name is in both lists. So a change to the code an entry names turns up as a
failing test, and the entry is then read again. A mutant belongs here only when no
input the program accepts can kill it; one that merely survives the suite
needs a test instead.
"""

from __future__ import annotations

from typing import NamedTuple


class Equivalent(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    why: str


EQUIVALENT = (
    Equivalent(
        "evaluate-checks-keep-fraction-with-the-second-strategy", "src/prefetchlab/cli.py",
        old="args.prune or STRATEGIES[0]",
        new="args.prune or STRATEGIES[1]",
        why=("without --prune the spec only checks --keep-fraction and is never used, and "
             "PruneSpec checks the fraction alike, with the same message, for every strategy."),
    ),
    Equivalent(
        "cutoff-zero-total-trends-positive", "src/prefetchlab/sweep.py",
        old="elif total > 0:",
        new="elif total >= 0:",
        why=("cutoff_scan rejects a negative or NaN epsilon, so a total of 0 always "
             "passes the flat test, abs(total) <= epsilon, before this one is read."),
    ),
    Equivalent(
        "forkjoin-child-exits-1", "src/prefetchlab/forkjoin.py",
        old="os._exit(0)",
        new="os._exit(1)",
        why=("fork_map reaps each child with os.waitpid and never reads its exit "
             "status; a child's results and errors reach the parent through its pipe."),
    ),
    Equivalent(
        "forkjoin-one-bound-past-the-last", "src/prefetchlab/forkjoin.py",
        old="range(shares + 1)",
        new="range(shares + 2)",
        why=("the last slice ends at bounds[shares], so the bound after it is never read."),
    ),
    Equivalent(
        "csv-fast-path-takes-19-digits", "src/prefetchlab/ingest.py",
        old="len(ts_raw) < 19",
        new="len(ts_raw) <= 19",
        why=("the bound only keeps int() under its digit limit; a row of 19 ASCII digits "
             "that skips the fast path gets the same int() from _build_record."),
    ),
    Equivalent(
        "table-dg-all-pass-strict", "src/prefetchlab/engine.py",
        old="1 / seen >= threshold",
        new="1 / seen > threshold",
        why=("every stored count is at least 1, so when 1 / seen equals the threshold "
             "the per-key filter it falls through to keeps the whole row, as the "
             "all-pass branch does: division by seen is monotonic in the count."),
    ),
    Equivalent(
        "ppm-pass-all-pass-strict", "src/prefetchlab/engine.py",
        old="1 / total >= threshold",
        new="1 / total > threshold",
        why=("every child's count is at least 1, so when 1 / total equals the threshold "
             "the per-child filter it falls through to keeps every child, as the "
             "all-pass branch does."),
    ),
    Equivalent(
        "table-mp-ranks-a-row-of-top-n", "src/prefetchlab/engine.py",
        old="len(row) <= top_n",
        new="len(row) < top_n",
        why=("a row of exactly top_n keys then falls through to the ranking, whose "
             "first top_n keys are the whole row: MP's cache takes the same set."),
    ),
)
