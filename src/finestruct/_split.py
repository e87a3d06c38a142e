"""Split a computation into ranges that forked children fill at once.

The dip null (``stattests._null_dips``) and the CSV reader
(``cli.read_csv_features``) both cut their work into k contiguous ranges,
each written into its own part of one buffer. ``split_fill`` computes range 0
in the process itself and every other range in a child it forks, which writes
into an anonymous mapping that ``fork`` shares. The bytes are the same
whichever process fills a range, so the result does not depend on k. A split
fills every range or raises; it retries nothing, and each caller falls back
to its own serial computation.
"""
from __future__ import annotations

import mmap
import os
import signal
import threading


def usable_workers() -> int:
    """Processes a split may use: the CPUs this process may run on, or 1 where it cannot fork.

    A process without ``fork``, or running other threads, cannot fork safely.
    The check counts Python threads only, not native ones such as a BLAS
    thread pool; the CLI starts none of either (it runs OpenBLAS with one
    thread).
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, e.g. macOS
        return os.cpu_count() or 1


def split_fill(k: int, nbytes: int, fill):
    """Call ``fill(buffer, j)`` for each range 0 <= j < k of an anonymous shared nbytes mapping; return it.

    Range 0 is filled here and range j > 0 by the j-th forked child. Every
    range is filled, or this raises: the mapping's or a fork's OSError,
    ChildProcessError (an OSError) for a child that does not exit 0, or what
    ``fill`` raises here. Before an exception propagates, the children still
    running are killed and reaped; a child never returns into the caller.
    """
    buffer = mmap.mmap(-1, nbytes)
    children = []  # unreaped pids, in range order
    try:
        for j in range(1, k):
            pid = os.fork()
            if pid == 0:  # the child never returns: no atexit hook, no inherited buffer flushed
                code = 1
                try:
                    fill(buffer, j)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        fill(buffer, 0)
        while children:
            status = os.waitpid(children[0], 0)[1]
            del children[0]
            if status != 0:
                raise ChildProcessError(f"a split's child ended with wait status {status}")
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return buffer
