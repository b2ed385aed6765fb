"""Order-preserving map over forked worker processes (POSIX only).

``fork_map(fn, payloads, shares)`` cuts the payloads into ``shares``
contiguous slices. The calling process forks one child for each slice but
the first, then maps the first slice itself. A child inherits ``fn`` and the
payloads through the fork, so neither is pickled; it pickles only its outcome
(its results, or the exception that stopped it) to its own pipe and exits
with ``os._exit``, never returning into the caller's code. The parent reads
the pipes in slice order, reaps every child, and concatenates the results.
A pipe that is empty or does not unpickle, as when a child is killed
part-way through its write, raises ``ChildProcessError`` naming the worker.

A forked child holds a copy of every lock as it was at the fork, so call
``fork_map`` only from a process that runs no other threads, as the CLI
commands do. The ``cli`` imports this module only when a command runs more
than one worker, so a single-worker run neither compiles nor imports it.
"""

from __future__ import annotations

import os
import pickle
from typing import NoReturn


def _run_child(fn, payloads: list, writer, readers: list) -> NoReturn:
    """In a forked child: map one slice, pickle the outcome to ``writer`` and exit.

    The child ends here whatever happens, so it never returns into the caller's code.
    """
    try:
        for reader in readers:  # its own read end and those of earlier children
            reader.close()
        try:
            outcome = ([fn(p) for p in payloads], None)
        except Exception as exc:
            outcome = (None, exc)
        try:
            data = pickle.dumps(outcome)
        except Exception as exc:  # a result or an exception that cannot be pickled
            data = pickle.dumps((None, exc))
        writer.write(data)
        writer.flush()
    finally:
        os._exit(0)


def fork_map(fn, payloads: list, shares: int) -> list:
    """``[fn(p) for p in payloads]``, computed in ``shares`` processes (``shares >= 2``).

    Slice ``k`` runs from ``len(payloads) * k // shares`` up to the next
    bound. When jobs raise, the first slice that fails holds the earliest
    failing payload, and its exception is raised, as the serial map would
    raise it. The parent reaps every child before it returns or raises, also
    when its own slice or reading a pipe fails.
    """
    bounds = [len(payloads) * k // shares for k in range(shares + 1)]
    pids, readers = [], []
    try:
        for k in range(1, shares):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    _run_child(fn, payloads[bounds[k]:bounds[k + 1]], writer, readers)
                pids.append(pid)
        merged = [fn(p) for p in payloads[:bounds[1]]]
        for pid, reader in zip(pids, readers):
            data = reader.read()
            if not data:
                raise ChildProcessError(f"worker process {pid} ended without its results")
            try:
                results, exc = pickle.loads(data)
            except Exception as error:  # cut short, as when the child is killed mid-write
                raise ChildProcessError(
                    f"worker process {pid} sent results that cannot be read") from error
            if exc is not None:
                raise exc
            merged += results
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)
    return merged
