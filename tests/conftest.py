"""Fixtures shared by the test files."""

from __future__ import annotations

import os

import pytest


@pytest.fixture
def eight_cpus(monkeypatch):
    """Eight CPUs: ``_run_jobs`` forks at most one share per CPU, so on any host
    a test that asks for up to eight workers forks what it names."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
