"""Machine-speed probe.

The benchmark shares its machine with other processes, whose load changes
how fast the same job runs: on a shared 2-core virtual machine (Intel Xeon,
2.1 GHz) the same run varied by about 1.6x between minutes.  A fixed
pure-Python probe that does not touch primchaos (Fraction arithmetic and
sorting, bitmask loops over a dict and a frozenset, frozen dataclass
instances, JSON text: the operations the package's layers spend their time
in) is timed between jobs, and each job's time is scaled by REFERENCE_S
over the mean of the probes just before and just after it.  The speed
changes within a second (the probe took about 3 ms in some stretches and
5 ms in others), so a probe near the job tracks it much better than the
median of a whole round.  A change to primchaos cannot move the probe, so
the scaled times still show every change of the program, in the seconds of
a machine that runs the probe in REFERENCE_S.
"""

import json
import statistics
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_S = 0.004
EVERY_S = 0.1


@dataclass(frozen=True)
class _Cell:
    lo: tuple
    hi: tuple


def probe() -> int:
    # Fraction arithmetic, comparisons and sorting (geometry, chaos)
    acc = Fraction(0)
    pairs = []
    for i in range(1, 300):
        f = Fraction(i, 3 * i + 1)
        acc += f
        pairs.append((f, i))
    pairs.sort()
    # bitmasks, frozensets and dicts (fintop)
    opens = frozenset(m for m in range(256) if m & 3 != 1)
    index = {p: i for i, p in enumerate("abcdefgh")}
    hits = 0
    for m in range(1024):
        pre = 0
        for p, i in index.items():
            if m >> i & 1:
                pre |= 1 << (i ^ 1)
        hits += pre in opens
    # frozen dataclass instances and tuples (every layer's values)
    cells = [_Cell((i, i + 1), (i + 2, i + 3)) for i in range(400)]
    # strings and JSON (cli)
    text = json.dumps({"cells": [[str(c.lo), str(c.hi)] for c in cells]})
    return hits + len(text) + acc.denominator % 7


def time_probe() -> float:
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


class Marks:
    """Probes taken between jobs, each with the time of its middle."""

    def __init__(self):
        self.at: list[float] = []
        self.probe_s: list[float] = []

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= EVERY_S

    def take(self) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.probe_s.append(t1 - t0)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean of the last probe before `start` and
        the first after `end`."""
        near = [self.probe_s[i] for i in (bisect_right(self.at, start) - 1,
                                          bisect_left(self.at, end))
                if 0 <= i < len(self.at)]
        return REFERENCE_S / statistics.mean(near)
