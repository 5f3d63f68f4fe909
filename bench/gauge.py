"""The machine's current speed, read from a fixed reference loop.

The container this benchmark was tuned on (2 vCPUs, shared with other
tenants) changes speed by up to 2x from one second to the next, and stays
slow or fast for minutes at a time. No statistic over the wall times of one
run removes a slowdown that lasts the whole run. The benchmark therefore runs
a short reference loop next to every timed unit of work (and, while a CLI
child runs, every ``PROBE_EVERY_S`` on the child's CPU) and divides the
unit's wall time by the loop's time, which slows down with it. Multiplied by
``REFERENCE_S`` the ratio reads as seconds at one fixed speed: the speed at
which the loop takes ``REFERENCE_S``, about this container's fast periods.

The loop uses only the standard library and does the kind of work sisa does
(splitting tab-separated lines, parsing integers, dict updates, tuples, a
sort), so it is paced by the same interpreter and caches, and no change to
sisa can change it.
"""

from __future__ import annotations

import random
import statistics
import time

perf = time.perf_counter

REFERENCE_S = 0.0015  # the loop's time in the container's fast periods (Python 3.11.7)
REFERENCE_ROWS = 1500
PROBE_EVERY_S = 0.05  # at most this much timed work between two probes
LONG_BURST = 20  # probes on either side of a set-up, which runs unprobed


def _reference_lines() -> list[str]:
    rng = random.Random("reference-loop")
    return [
        f"{i}\tw{rng.randrange(3000)}\tl\tNOUN\t_\t_\t{rng.randrange(40)}\tnmod\t_\t_"
        for i in range(REFERENCE_ROWS)
    ]


def _reference_work(lines: list[str]) -> int:
    counts: dict[str, int] = {}
    rows = []
    for line in lines:
        fields = line.split("\t")
        rows.append((int(fields[0]), fields[1], int(fields[6])))
        counts[fields[1]] = counts.get(fields[1], 0) + 1
    rows.sort(key=lambda row: (row[2], row[1]))
    return len(counts)


class Gauge:
    """Turns wall times into reference seconds.

    Call :meth:`scale` right after each timed unit, with nothing heavy in
    between: it probes the speed and returns the factor for the wall time
    measured since the previous probe, from the mean of the probes on either
    side of it.
    """

    def __init__(self) -> None:
        self._lines = _reference_lines()
        self.probes: list[float] = []
        self._last = self._probe()
        self._since = perf()

    def _probe(self) -> float:
        # CPU time, not wall time: a probe taken while a CLI child shares
        # the CPU may be preempted by it, and must not count the child's
        # time slice as its own.
        start = time.thread_time()
        _reference_work(self._lines)
        self.probes.append(time.thread_time() - start)
        return self.probes[-1]

    def due(self) -> bool:
        """Whether enough timed work has passed since the last probe."""
        return perf() - self._since >= PROBE_EVERY_S

    def scale(self, burst: int = 1) -> float:
        """Probe ``burst`` times (the median counts) and return the factor."""
        now = statistics.median(self._probe() for _ in range(burst))
        factor = 2 * REFERENCE_S / (self._last + now)
        self._last = now
        self._since = perf()
        return factor

    def while_running(self, proc) -> float:
        """Probe every ``PROBE_EVERY_S`` until the process ``proc`` has
        ended; the factor for its wall time, from the median probe.

        The child must run on this process's CPU. The probes take a few per
        cent of that CPU, the same share on every run, and read its speed
        while the child runs, which probes before and after it do not.
        """
        probes = []
        while proc.poll() is None:
            time.sleep(PROBE_EVERY_S)
            probes.append(self._probe())
        if not probes:
            probes.append(self._probe())
        return REFERENCE_S / statistics.median(probes)

    def median_probe(self) -> float:
        return statistics.median(self.probes)
