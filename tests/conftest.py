"""Fixtures shared by the test files."""

from __future__ import annotations

import pytest


@pytest.fixture
def eight_cpus(monkeypatch):
    """Eight usable CPUs: ``_run_jobs`` forks at most one share per CPU the process may run
    on, so on any host, whatever its affinity mask, a test that asks for up to eight workers
    forks what it names."""
    # named, not imported: a module that fails to import fails its tests, not this file
    monkeypatch.setattr("prefetchlab.cli._usable_cpus", lambda: 8)
