"""Check that the test suite kills every mutant in ``mutants.py``.

    python referees/run.py

The script copies ``src/``, ``tests/``, ``perfbench/``, ``referees/``,
``demos/``, ``pyproject.toml`` and ``conftest.py``, everything the test suite
reads, into a temporary directory. There it first runs every mutant's tests
on the unmutated copy, which must pass; then it applies each mutant alone,
runs its tests, which must fail, and puts the file back. A mutant whose tests
still pass survived. A mutant marked ``needs_python_3_12`` is skipped, with
its reason printed, where ``~/.pyenv/versions`` has neither a 3.12 nor a 3.13:
its tests' failing cases skip there, so it would survive. The exit status is
0 when every mutant that ran is killed and 1 otherwise. It runs pytest once
per mutant, so it is not part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "referees", "demos", "pyproject.toml", "conftest.py")
TESTS_FAILED = 1  # pytest's exit code when tests ran and some failed
PYENV_VERSIONS = Path.home() / ".pyenv" / "versions"
LATER_MINORS = ("3.12", "3.13")  # as tests/test_cli.py looks them up


def _skip_reason(mutant, versions: Path = PYENV_VERSIONS) -> str | None:
    """Why ``mutant`` cannot be killed here, or None when it can."""
    found = [p for minor in LATER_MINORS for p in versions.glob(f"{minor}.*/bin/python{minor}")]
    if mutant.needs_python_3_12 and not found:
        return f"needs CPython 3.12 or later under {versions}"
    return None


def copy_repository(copy: Path) -> None:
    """Copy everything the test suite reads into the directory ``copy``."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    copy.mkdir(exist_ok=True)
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, copy / name, ignore=ignore)
        else:
            shutil.copy2(source, copy / name)


def pytest_exit(copy: Path, args: list[str], timeout: float | None = None) -> int | None:
    """pytest's exit code for ``args`` in ``copy``, stopping at the first failure; None
    when the run outlasts ``timeout`` seconds, and then it and its children are killed."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *args], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          start_new_session=True) as process:
        try:
            return process.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            return None


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="referees-") as tmp:
        copy = Path(tmp)
        copy_repository(copy)

        every_test = sorted({test for m in MUTANTS for test in m.tests})
        if pytest_exit(copy, every_test) != 0:
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
            reason = _skip_reason(mutant)
            if reason:
                print(f"skipped {mutant.name}: {reason}")
                continue
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                code = pytest_exit(copy, list(mutant.tests))
            finally:
                path.write_text(original, encoding="utf-8")
            killed = code == TESTS_FAILED
            print(f"{'killed' if killed else 'SURVIVED'} {mutant.name} (pytest exit {code})")
            if not killed:
                survivors.append(mutant.name)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
