"""Mutants that no accepted input can tell apart from the program.

Each entry replaces the one occurrence of ``old`` in ``path`` with ``new``,
as in ``mutants.py``, and says why no test can fail under it. ``run.py``
does not run them. ``tests/test_referees.py`` checks that each ``old`` still
occurs exactly once, so a change to the code it names turns up as a failing
test, and the entry is then read again. A mutant belongs here only when no
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
)
