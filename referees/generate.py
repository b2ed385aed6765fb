"""Generate one mutant per operator in ``src/`` and check that the test suite kills each.

    python referees/generate.py [MODULE ...]

A mutant changes one token of one module, found with the stdlib ``tokenize``:
it swaps ``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``+``/``-`` or
``and``/``or``, or raises one of the literals 0, 1 and 2 by one. Strings,
f-strings with their fields included, and comments are never mutated, so
every Python version makes the same mutants. The modules are those of
``MODULE_TESTS``: all of ``src/prefetchlab`` but the oracle, the self-test,
the synthetic logs and ``__init__``.

Each mutant is applied alone to a copy of the repository made as ``run.py``
makes it; one copy per CPU runs a mutant at a time. Its module's test files
run first, stopping at the first failure; only a mutant that passes them
meets the whole suite, without ``tests/test_referees.py``, which fails under
any mutant of text that ``referees/`` names. A mutant is killed when a run
fails its tests or their collection, or ends pytest with an internal error
(exits 1, 2 and 3), or when it outlasts ``TIMEOUT_S``. The unmutated copy
passes, so these come from the mutant; a usage error or an empty collection
(4 or 5) is an error of the script, which hides the verdict. A mutant
that equals an entry of ``equivalent.py`` is not run. The others survived: each
needs a test and a hand-made mutant in ``mutants.py``, or, if no accepted
input can kill it, an entry in ``equivalent.py``. The script prints every
survivor and error and the counts, and exits 0 when nothing survived and no
run erred. It runs pytest once or twice per mutant, so it is not part of the
tier-1 suite.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import SimpleQueue
from typing import NamedTuple

from equivalent import EQUIVALENT
from run import ROOT, copy_repository, pytest_exit

PACKAGE = "src/prefetchlab"
# each module's own test files, run before the whole suite
MODULE_TESTS = {
    "cli": ("tests/test_cli.py", "tests/test_sweep.py"),
    "engine": ("tests/test_engine.py", "tests/test_sweep.py"),
    "forkjoin": ("tests/test_cli.py",),
    "ingest": ("tests/test_ingest.py", "tests/test_hostile_logs.py"),
    "metrics": ("tests/test_metrics.py",),
    "predictors": ("tests/test_predictors.py", "tests/test_specs.py"),
    "pruning": ("tests/test_pruning.py", "tests/test_specs.py"),
    "sweep": ("tests/test_cli.py", "tests/test_sweep.py"),
    "traces": ("tests/test_traces.py", "tests/test_ingest.py"),
}
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "and": "or", "or": "and"}
RAISED = {"0": "1", "1": "2", "2": "3"}
# from Python 3.12 an f-string's fields are tokens, found between these two
FSTRING_START, FSTRING_END = (getattr(tokenize, n, None) for n in ("FSTRING_START", "FSTRING_END"))
# pytest's exits for failed tests, an interrupted collection and an internal error, which
# a mutant causes when it raises through pytest, as cli's main() does when run on import
KILLED = (1, 2, 3)
WHOLE_SUITE = ["--ignore=tests/test_referees.py"]  # the testpaths of pyproject.toml
TIMEOUT_S = 300  # for one pytest run; the whole suite takes under 30 s


class Generated(NamedTuple):
    path: str  # relative to the repository root
    line: int
    column: int
    old: str  # the token
    new: str
    source: str  # the whole mutated module

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.old} -> {self.new}"


def mutants(source: str, path: str = "<snippet>") -> list[Generated]:
    """Every mutant of ``source``, one per token of the kinds above, in source order."""
    starts = [0]  # the offset of each line, so a token's (row, column) is an offset
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    generated, depth = [], 0  # depth: the f-strings the token is inside
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        depth += (token.type == FSTRING_START) - (token.type == FSTRING_END)
        if depth:
            continue
        if token.type in (tokenize.OP, tokenize.NAME):
            new = SWAPS.get(token.string)
        elif token.type == tokenize.NUMBER:
            new = RAISED.get(token.string)
        else:
            continue
        if new is not None:
            row, column = token.start
            at = starts[row - 1] + column
            generated.append(Generated(path, row, column, token.string, new,
                                       source[:at] + new + source[at + len(token.string):]))
    return generated


def _equivalent_sources(path: str, source: str) -> set[str]:
    return {source.replace(e.old, e.new) for e in EQUIVALENT if e.path == path}


def _verdict(copy: Path, mutant: Generated) -> str:
    """Run ``mutant`` in ``copy``: "module" or "suite" for the run that killed it, "timeout"
    when a run outlasted ``TIMEOUT_S``, "ERROR" for any other failed run, and "SURVIVED"
    when both passed."""
    target = copy / mutant.path
    original = target.read_text(encoding="utf-8")
    target.write_text(mutant.source, encoding="utf-8")
    try:
        for stage, args in (("module", list(MODULE_TESTS[Path(mutant.path).stem])),
                            ("suite", WHOLE_SUITE)):
            code = pytest_exit(copy, args, TIMEOUT_S)
            if code is None:
                return "timeout"
            if code != 0:
                return stage if code in KILLED else "ERROR"
        return "SURVIVED"
    finally:
        target.write_text(original, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", metavar="MODULE",
                        help=f"modules to mutate (default: all of {', '.join(MODULE_TESTS)})")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.modules) - set(MODULE_TESTS))
    if unknown:
        parser.error(f"unknown modules {unknown}, expected some of {list(MODULE_TESTS)}")

    generated, equivalent = [], 0
    for module in args.modules or MODULE_TESTS:
        path = f"{PACKAGE}/{module}.py"
        source = (ROOT / path).read_text(encoding="utf-8")
        known = _equivalent_sources(path, source)
        for mutant in mutants(source, path):
            if mutant.source in known:
                equivalent += 1
            else:
                generated.append(mutant)

    with tempfile.TemporaryDirectory(prefix="generated-mutants-") as tmp:
        copies = SimpleQueue()  # one copy per job; a job takes one, runs a mutant, returns it
        jobs = os.cpu_count() or 1
        for job in range(jobs):
            copy_repository(Path(tmp) / str(job))
            copies.put(Path(tmp) / str(job))
        if pytest_exit(Path(tmp) / "0", WHOLE_SUITE, TIMEOUT_S) != 0:
            print("error: the unmutated copy fails the suite", file=sys.stderr)
            return 1

        def judge(mutant: Generated) -> str:
            copy = copies.get()
            try:
                return _verdict(copy, mutant)
            finally:
                copies.put(copy)

        counts = {"module": 0, "suite": 0, "timeout": 0, "ERROR": 0, "SURVIVED": 0}
        with ThreadPoolExecutor(jobs) as pool:
            for mutant, verdict in zip(generated, pool.map(judge, generated)):
                counts[verdict] += 1
                if verdict in ("ERROR", "SURVIVED"):
                    print(f"{verdict} {mutant}", flush=True)
    print(f"{len(generated) + equivalent} mutants: {counts['module']} killed by their module's "
          f"tests, {counts['suite']} by the whole suite, {counts['timeout']} by a timeout; "
          f"{equivalent} listed as equivalent; {counts['ERROR']} erred; "
          f"{counts['SURVIVED']} survived")
    return 1 if counts["ERROR"] or counts["SURVIVED"] else 0


if __name__ == "__main__":
    sys.exit(main())
