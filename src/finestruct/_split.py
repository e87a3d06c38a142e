"""Split a computation into ranges that forked children fill at once: the one owner of its layout and size.

The dip null (``stattests._null_dips``) and the CSV reader
(``cli.read_csv_features``) each ask ``usable_workers`` for the processes
their work allows and give ``split_fill`` a float64 shape and a function that
fills range j of it. Range 0 is filled in the process itself and every other
range in a forked child, which writes into an anonymous mapping that ``fork``
shares, so the values do not depend on k. A split fills every range or raises;
it retries nothing, and each caller falls back to its own serial computation.
"""
from __future__ import annotations

import mmap
import os
import signal
import threading

import numpy as np


def usable_workers(limit: int) -> int:
    """min(``limit``, the CPUs this process may run on), or 1 if ``limit`` < 2 or it cannot fork safely.

    A process without ``fork``, or running other threads, cannot. The check
    counts Python threads only, not native ones such as a BLAS thread pool;
    the CLI starts none of either (it runs OpenBLAS with one thread).
    """
    if limit < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    # macOS has no affinity call
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, limit)


def split_fill(k: int, shape, fill) -> np.ndarray:
    """Call ``fill(out, j)`` for each range 0 <= j < k of a shared float64 array of ``shape``; return it.

    ``out`` lies in an anonymous mapping; range 0 is filled here and range
    j > 0 by the j-th forked child. Every range is filled, or this raises:
    the mapping's or a fork's OSError, ChildProcessError (an OSError) for a
    child that does not exit 0, or what ``fill`` raises here. Before an
    exception propagates, the children still running are killed and reaped;
    a child never returns into the caller.
    """
    out = np.ndarray(shape, np.float64, mmap.mmap(-1, 8 * int(np.prod(shape))))
    children = []  # unreaped pids, in range order
    try:
        for j in range(1, k):
            pid = os.fork()
            if pid == 0:  # the child never returns: no atexit hook, no inherited buffer flushed
                code = 1
                try:
                    fill(out, j)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        fill(out, 0)
        while children:
            status = os.waitpid(children[0], 0)[1]
            del children[0]
            if status != 0:
                raise ChildProcessError(f"a split's child ended with wait status {status}")
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return out
