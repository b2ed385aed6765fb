"""Check that the test suite kills every mutant in ``mutants.py``.

    python referees/run.py

The script copies ``src/``, ``tests/``, ``perfbench/``, ``referees/``,
``demos/``, ``pyproject.toml`` and ``conftest.py``, everything the test suite
reads, into a temporary directory. There it first runs every mutant's tests
on the unmutated copy, which must pass; then it applies each mutant alone,
runs its tests, which must fail, and puts the file back. A mutant whose tests
still pass survived. The exit status is 0 when every mutant is killed and 1
otherwise. It runs pytest once per mutant, so it is not part of the tier-1
suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "referees", "demos", "pyproject.toml", "conftest.py")
TESTS_FAILED = 1  # pytest's exit code when tests ran and some failed


def _pytest(copy: Path, tests: list[str]) -> int:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="referees-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)

        every_test = sorted({test for m in MUTANTS for test in m.tests})
        if _pytest(copy, every_test) != 0:
            print("error: the unmutated copy fails the mutants' tests", file=sys.stderr)
            return 1

        survivors = []
        for mutant in MUTANTS:
            path = copy / mutant.path
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                print(f"error: {mutant.name}: the text to replace does not occur exactly once "
                      f"in {mutant.path}", file=sys.stderr)
                return 1
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                code = _pytest(copy, list(mutant.tests))
            finally:
                path.write_text(original, encoding="utf-8")
            killed = code == TESTS_FAILED
            print(f"{'killed' if killed else 'SURVIVED'} {mutant.name} (pytest exit {code})")
            if not killed:
                survivors.append(mutant.name)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
