"""Child processes with their own resource use, and summary statistics.

Standard library only.
"""

import os
import selectors
import statistics
import subprocess
import time
from typing import NamedTuple


class Child(NamedTuple):
    stdout: bytes
    stderr: bytes
    code: int
    wall_s: float  # spawn to reaped
    spawn_ns: int  # time.monotonic_ns() just before the spawn
    maxrss_mb: float  # this child's own peak RSS


def run_child(argv, env, timeout: float) -> Child:
    """Run ``argv`` to completion and read its peak RSS with ``os.wait4``.

    ``wait4`` reports the one child it reaps, unlike the cumulative
    ``RUSAGE_CHILDREN`` maximum.  A child still running at ``timeout``
    is killed and reported with its (negative) signal code.
    """
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = time.monotonic() + timeout
    killed = False
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as selector:
        for pipe in chunks:
            selector.register(pipe, selectors.EVENT_READ)
        while selector.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in selector.select(timeout=max(remaining, 0.1)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = (time.monotonic_ns() - spawn_ns) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
                 proc.returncode, wall_s, spawn_ns, usage.ru_maxrss / 1024)


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)``.  With n samples that
    is the 11th largest, at percentile 100 * (n - 10) / n.  Below eleven
    samples no percentile qualifies and the maximum is returned, with the
    count beyond it (0) saying so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def median(samples) -> float:
    return statistics.median(samples)
