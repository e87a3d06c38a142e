"""Split a computation into ranges that forked children fill at once.

The dip null (``stattests._null_dips``) and the CSV reader
(``cli.read_csv_features``) both cut their work into k contiguous ranges,
each written into its own part of one buffer. ``split_fill`` computes range 0
in the process itself and every other range in a child it forks, which writes
into an anonymous mapping that ``fork`` shares. The bytes are the same
whichever process fills a range, so the result does not depend on k.
"""
from __future__ import annotations

import mmap
import os
import signal
import threading


def usable_workers() -> int:
    """Processes a split may use: the CPUs this process may run on, or 1 where it cannot fork.

    A process without ``fork``, or running other threads, cannot fork safely.
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, e.g. macOS
        return os.cpu_count() or 1


def split_fill(k: int, nbytes: int, fill) -> tuple:
    """Call ``fill(buffer, j)`` for each range 0 <= j < k of an nbytes buffer; return (buffer, workers).

    With k > 1 the buffer is an anonymous shared mapping, range 0 is filled
    here and range j > 0 by the j-th forked child. A range whose fork fails,
    or whose child does not exit 0, is filled here; so is every range when
    the mapping cannot be made, or when k is 1 (a plain bytearray then).
    ``workers`` counts this process and the children that exited 0. An
    exception here, from ``fill`` too, kills the children still running and
    reaps them before it propagates; a child never returns into the caller.
    """
    shared = k > 1
    if shared:
        try:
            buffer = mmap.mmap(-1, nbytes)
        except OSError:
            shared = False
    if not shared:
        buffer = bytearray(nbytes)
    children = []  # (range index, pid), unreaped
    try:
        for j in range(1, k if shared else 1):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:  # the child never returns: no atexit hook, no inherited buffer flushed
                code = 1
                try:
                    fill(buffer, j)
                    code = 0
                finally:
                    os._exit(code)
            children.append((j, pid))
        for j in [0, *range(len(children) + 1, k)]:
            fill(buffer, j)
        workers = 1
        while children:
            j, pid = children[0]
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status == 0:
                workers += 1
            else:
                fill(buffer, j)
    finally:
        for _, pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return buffer, workers
