"""Session guards for both test paths, ``tests/`` and ``perfbench/``.

Tests fork: ``fork_map`` runs jobs in forked copies of the pytest process,
and each copy leaves through ``os._exit``. A fault that sends the pytest
process itself down a child's path would end the session there with status
0, while the orphaned child runs the rest of the suite unread. So in the
session's own process ``os._exit`` raises ``AssertionError``, which fails the
test that reached it; in any other process it is the real ``os._exit``. A
forked copy that returns from a test instead of exiting is ended before its
result is reported, so only the session's own process reports.
"""

from __future__ import annotations

import os

import pytest

SESSION_PID = os.getpid()
_exit = os._exit


def _guarded_exit(status: int) -> None:
    if os.getpid() == SESSION_PID:
        raise AssertionError(f"os._exit({status}) called in the pytest process")
    _exit(status)


os._exit = _guarded_exit


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call():
    try:
        return (yield)
    finally:
        if os.getpid() != SESSION_PID:  # a forked copy came back into the session
            _exit(1)
