"""The mutant list stays in step with the code it mutates and the tests that kill it."""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
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


SNIPPET = '''\
def f(a: int, b=10) -> bool:
    """a < b and 1"""  # a + 0
    a += 2.0
    print(f"{a < b and 1}")
    return a < b and b + 1 == 2 or a != -0 and a >= 1 > b <= 0
'''


def _load_generate(monkeypatch):
    """generate.py imports its siblings as top modules, and perfbench has a ``run`` too."""
    monkeypatch.syspath_prepend(str(ROOT / "referees"))
    for name in ("run", "equivalent"):
        monkeypatch.setitem(sys.modules, name, _load(name))
    return _load("generate")


def test_generate_makes_one_mutant_per_operator_and_small_literal(monkeypatch):
    generate = _load_generate(monkeypatch)
    monkeypatch.setattr(subprocess, "Popen", None)  # listing mutants starts no pytest
    generated = generate.mutants(SNIPPET)
    assert [(m.line, m.column, m.old, m.new) for m in generated] == [
        (5, 13, "<", "<="), (5, 17, "and", "or"), (5, 23, "+", "-"), (5, 25, "1", "2"),
        (5, 27, "==", "!="), (5, 30, "2", "3"), (5, 32, "or", "and"), (5, 37, "!=", "=="),
        (5, 40, "-", "+"), (5, 41, "0", "1"), (5, 43, "and", "or"), (5, 49, ">=", ">"),
        (5, 52, "1", "2"), (5, 54, ">", ">="), (5, 58, "<=", "<"), (5, 61, "0", "1"),
    ]
    for mutant in generated:
        lines = SNIPPET.splitlines(keepends=True)
        line = lines[mutant.line - 1]
        lines[mutant.line - 1] = (line[:mutant.column] + mutant.new
                                  + line[mutant.column + len(mutant.old):])
        assert mutant.source == "".join(lines)


def test_generate_maps_each_mutated_module_to_test_files_that_exist(monkeypatch):
    generate = _load_generate(monkeypatch)
    modules = {path.stem for path in (ROOT / generate.PACKAGE).glob("*.py")}
    assert set(generate.MODULE_TESTS) == modules - {"oracle", "selftest", "synth", "__init__"}
    for files in generate.MODULE_TESTS.values():
        assert all((ROOT / file).is_file() for file in files)


@pytest.mark.parametrize("codes, verdict", [
    ((1,), "module"), ((2,), "module"), ((3,), "module"), ((0, 1), "suite"), ((None,), "timeout"),
    ((0, None), "timeout"), ((4,), "ERROR"), ((0, 5), "ERROR"), ((0, 0), "SURVIVED"),
])
def test_generate_counts_only_a_fault_of_the_mutant_as_a_kill(monkeypatch, tmp_path, codes,
                                                             verdict):
    generate = _load_generate(monkeypatch)
    exits = iter(codes)  # the exit of each pytest run: module tests, then the whole suite
    monkeypatch.setattr(generate, "pytest_exit", lambda copy, args, timeout: next(exits))
    module = tmp_path / "src/prefetchlab/ingest.py"
    module.parent.mkdir(parents=True)
    module.write_text("x = 0\n", encoding="utf-8")
    mutant = generate.mutants("x = 0\n", "src/prefetchlab/ingest.py")[0]
    assert generate._verdict(tmp_path, mutant) == verdict
    assert module.read_text(encoding="utf-8") == "x = 0\n"  # the module is put back
    assert next(exits, "all read") == "all read"
