"""The benchmark's own arithmetic: percentiles, self times, failure counts,
and the speed probe that puts timings on a reference scale.

Kept free of any griddesigns import so that it can be tested on its own.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

# Exit codes of the griddesigns CLI that mean the job did not run to a
# verdict: 2 is a usage or parse error, 3 an exceeded budget.  0 and 1 are
# verdicts (positive, negative) and never count as failures.
FAILURE_CODES = (2, 3)


def nearest_rank(values, p: float):
    """The p-th percentile by the nearest-rank rule: the ceil(p/100 * n)-th
    smallest of the n values (rank at least 1)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} is outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p * n / 100))


def is_failure(code) -> bool:
    """A job failed when it raised (code None) or exited 2 or 3."""
    return code is None or code in FAILURE_CODES


def fail_rate(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no job was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} jobs")
    return failed / attempted


def covered_length(intervals, lo: int, hi: int) -> int:
    """Length of the part of [lo, hi] that the union of intervals covers."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.

    `spans` is a sequence of (name, start, end, parent) records, or longer
    records beginning with those four fields; parent is the index of the
    enclosing span, or -1 for a root.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        parent = span[3]
        if parent >= 0:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        out.append(end - start - covered_length(children.get(index, ()), start, end))
    return out


# What one probe() takes at the reference speed.  A timing divided by the
# mean time of the probes run around and during it, times this, is that
# timing at the reference speed: on a shared machine whose speed drifts by
# 30% or more within a minute, it moves far less than the raw time.
PROBE_REF_S = 1.2e-3
PROBE_ROUNDS = 150
# seconds between probes during a job
SAMPLE_INTERVAL = 0.02


def probe(rounds: int = PROBE_ROUNDS) -> int:
    """Fixed interpreter-bound work (tuples, dicts, sets, sorting, integer
    arithmetic), the kind of work griddesigns does.  It never changes, so its
    time tracks only the speed of the machine."""
    acc = 0
    base = tuple(range(24))
    for r in range(rounds):
        p = base[r % 24:] + base[:r % 24]
        q = tuple(p[i] for i in base[::-1])
        d: dict[int, int] = {}
        for i, x in enumerate(q):
            d[x] = d.get(x, 0) + i
        s = set(q[::2]) | {x * 3 % 24 for x in p}
        acc += sum(sorted(d.values())[:5]) + len(s)
        acc ^= (acc * 1103515245 + 12345) & 0xFFFFFFFF
    return acc


def timed_probe() -> int:
    """Nanoseconds that one probe() takes now."""
    start = time.perf_counter_ns()
    probe()
    return time.perf_counter_ns() - start


class ProbeSampler:
    """While active, runs the probe every SAMPLE_INTERVAL seconds from a
    SIGALRM handler and keeps the probe times, so that the speed of the
    machine during a long job is known.  The caller takes their sum out of
    the job's time."""

    def __init__(self, interval: float = SAMPLE_INTERVAL):
        self.interval = interval
        self.samples: list[int] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(timed_probe())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def at_reference_speed(job_ns: int, probe_ns) -> float:
    """Seconds at the reference speed of a job that took job_ns, given the
    times of the probes run just before, during and just after it."""
    if not probe_ns:
        raise ValueError("a timing needs at least one probe")
    return job_ns / statistics.fmean(probe_ns) * PROBE_REF_S


def per_job_medians(passes) -> list[float]:
    """Median of each job's values over the passes (one list per pass)."""
    return [statistics.median(values) for values in zip(*passes)]
