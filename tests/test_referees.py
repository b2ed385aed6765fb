"""The mutant list stays in step with the code it mutates and the tests that kill it."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"referees_{name}",
                                                  ROOT / "referees" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _load("mutants").MUTANTS
EQUIVALENT = _load("equivalent").EQUIVALENT
SOURCES = {path: path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")}


def test_mutant_names_are_unique():
    # across both lists, so no mutant is both killed and called equivalent
    names = [m.name for m in MUTANTS] + [e.name for e in EQUIVALENT]
    assert len(names) == len(set(names))


def _occurs_once_in_src(mutant) -> bool:
    """Whether ``mutant.old`` occurs once in all of ``src/``, in ``mutant.path``: a short
    old text, such as ``1 / seen >= threshold``, must not match a second place."""
    return (sum(text.count(mutant.old) for text in SOURCES.values()) == 1
            and SOURCES[ROOT / mutant.path].count(mutant.old) == 1)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_replaces_text_that_occurs_exactly_once_in_src(mutant):
    assert mutant.new != mutant.old
    assert _occurs_once_in_src(mutant)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_names_tests_that_exist(mutant):
    assert mutant.tests
    for test in mutant.tests:
        file, name = test.split("::")
        source = (ROOT / file).read_text(encoding="utf-8")
        assert re.search(rf"^def {re.escape(name)}\(", source, re.MULTILINE), test


@pytest.mark.parametrize("equivalent", EQUIVALENT, ids=lambda e: e.name)
def test_each_equivalent_mutant_replaces_text_that_occurs_once_and_is_not_a_mutant(equivalent):
    assert equivalent.new != equivalent.old and equivalent.why
    assert _occurs_once_in_src(equivalent)
    assert equivalent.name not in {m.name for m in MUTANTS}


def test_only_mutants_of_the_sum_order_need_python_3_12():
    # the every-Python digest cases are the tests that read 3.12's compensated sum()
    assert all(type(m.needs_python_3_12) is bool for m in MUTANTS)
    later = {m.name: m.tests for m in MUTANTS if m.needs_python_3_12}
    assert later == {"means-with-builtin-sum": (
        "tests/test_cli.py::test_outputs_match_recorded_digests_on_every_python",)}


@pytest.mark.parametrize("installed, skipped", [
    ([], True), (["3.11.7/bin/python3.11"], True),
    (["3.12.1/bin/python3.12"], False), (["3.13.0/bin/python3.13"], False),
])
def test_run_skips_a_mutant_needing_python_3_12_where_pyenv_has_none(tmp_path, monkeypatch,
                                                                   installed, skipped):
    monkeypatch.syspath_prepend(str(ROOT / "referees"))  # run.py imports mutants as a top module
    run = _load("run")
    for name in installed:
        (tmp_path / name).parent.mkdir(parents=True)
        (tmp_path / name).touch()
    for mutant in MUTANTS:
        reason = run._skip_reason(mutant, tmp_path)
        if mutant.needs_python_3_12 and skipped:
            assert reason == f"needs CPython 3.12 or later under {tmp_path}"
        else:
            assert reason is None
