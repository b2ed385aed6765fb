"""Order-preserving map over forked worker processes (POSIX only).

``fork_map(fn, payloads, shares)`` deals the payloads round-robin into
``shares`` shares. The calling process forks one child for each share but
the first and maps share 0 itself. A child inherits ``fn`` and the payloads
through the fork, so neither is pickled; it pickles only its outcome (the
results, or the exception that stopped it) to its own pipe and exits with
``os._exit``, never returning into the caller's code. The parent then reads
every pipe, reaps every child, and puts the results back in payload order.

A forked child holds a copy of every lock as it was at the fork, so call
``fork_map`` only from a process that runs no other threads, as the CLI
commands do. The ``cli`` imports this module only when a command runs more
than one worker, so a single-worker run neither compiles nor imports it.
"""

from __future__ import annotations

import os
import pickle
from typing import NoReturn


def _map_share(fn, payloads: list) -> tuple[list, Exception | None]:
    """``fn`` over ``payloads`` until one raises: the results before it and the exception."""
    results = []
    try:
        for payload in payloads:
            results.append(fn(payload))
    except Exception as exc:
        return results, exc
    return results, None


def _run_child_share(fn, payloads: list, writer, readers: list) -> NoReturn:
    """In a forked child: map one share, pickle the outcome to ``writer`` and exit.

    The child ends here whatever happens, so it never returns into the caller's code.
    """
    try:
        for reader in readers:  # its own read end and those of earlier children
            reader.close()
        try:
            data = pickle.dumps(_map_share(fn, payloads))
        except Exception as exc:  # a result that cannot be pickled
            data = pickle.dumps(([], exc))
        writer.write(data)
        writer.flush()
    finally:
        os._exit(0)


def fork_map(fn, payloads: list, shares: int) -> list:
    """``[fn(p) for p in payloads]``, computed in ``shares`` processes (``shares >= 2``).

    Share ``k`` is ``payloads[k::shares]``. When jobs raise, the exception of
    the earliest payload is raised, as the serial map would raise it. The
    parent reaps every child before it returns or raises, also when its own
    share or reading a pipe fails.
    """
    pids, readers = [], []
    try:
        for k in range(1, shares):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    _run_child_share(fn, payloads[k::shares], writer, readers)
                pids.append(pid)
        outcomes = [_map_share(fn, payloads[::shares])]
        for pid, reader in zip(pids, readers):
            data = reader.read()
            if not data:
                raise ChildProcessError(f"worker process {pid} ended without its results")
            outcomes.append(pickle.loads(data))
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)

    # (index of the payload that raised, exception); no two shares hold one index
    failures = [(k + len(results) * shares, exc)
                for k, (results, exc) in enumerate(outcomes) if exc is not None]
    if failures:
        raise min(failures)[1]
    merged = [None] * len(payloads)
    for k, (results, _) in enumerate(outcomes):
        merged[k::shares] = results
    return merged
