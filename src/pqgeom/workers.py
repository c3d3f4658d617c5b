"""Run independent units of work on the CPUs this process may use.

``map_units(fn, units)`` returns ``[fn(u) for u in units]``.  It runs on
``min(cpu_count(), len(units))`` processes: this one and forked workers.
The unit indices are written once into a pipe, one byte each, and every
process reads the next index with ``os.read(fd, 1)`` until the pipe is
empty, so a process that finishes a unit early takes the next one.  A
worker pickles each ``(index, result)`` into its own pipe as soon as the
unit is done, and always leaves through ``os._exit``, never through the
caller's cleanup.  The caller reads every worker's pipe and reaps every
worker before ``map_units`` returns.  A unit whose worker died before
reporting it comes back as ``None``.

With one unit or one allowed CPU (``taskset -c 0``) no worker is forked,
and every unit runs in this process through the same queue.

Only ``os.fork``, ``os.pipe`` and ``pickle`` are used: a process pool
would load ``multiprocessing``.  The package starts no thread, and
numpy's OpenBLAS pool stops its threads around ``fork`` through its own
``pthread_atfork`` handlers.
"""

from __future__ import annotations

import os
import pickle


def cpu_count() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say
    or cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def map_units(fn, units) -> list:
    """[fn(u) for u in units] (at most 256 units), each fn(u) run in this
    process or in a forked worker; None for a unit whose worker died
    before it reported the result.  An exception of fn in this process
    propagates once every worker has been reaped."""
    units = list(units)
    results = [None] * len(units)
    queue, feed = os.pipe()
    try:
        os.write(feed, bytes(range(len(units))))
    finally:
        os.close(feed)
    workers = []                  # (pid, read end of its result pipe)
    try:
        for _ in range(min(cpu_count(), len(units)) - 1):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except OSError:       # no process to spare: run the rest here
                os.close(out)
                os.close(into)
                break
            if pid == 0:
                # the worker: never returns into the caller
                code = 1
                try:
                    os.close(out)
                    with os.fdopen(into, "wb") as fh:
                        for done in _take(fn, units, queue):
                            pickle.dump(done, fh)
                            fh.flush()
                    code = 0
                finally:
                    os._exit(code)
            os.close(into)
            workers.append((pid, out))
        for index, result in _take(fn, units, queue):
            results[index] = result
    finally:
        os.close(queue)
        for pid, out in workers:
            # every (index, result) the worker wrote, up to the first one
            # it did not finish writing
            with os.fdopen(out, "rb") as fh:
                while True:
                    try:
                        index, result = pickle.load(fh)
                    except (EOFError, pickle.UnpicklingError):
                        break
                    results[index] = result
            os.waitpid(pid, 0)
    return results


def _take(fn, units, queue):
    """Yield (index, fn(units[index])) for each index read from the queue
    pipe, until it is empty."""
    while index := os.read(queue, 1):
        yield index[0], fn(units[index[0]])
