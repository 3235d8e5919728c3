"""Gauge of the machine's current speed, used to scale every reported time.

The reference machine is a shared VM whose speed drifts: the same fixed
work took 1.0x to 2.5x its best time, in episodes that last from
seconds to hours.  Steal time stays small and CPU time tracks wall time,
so the host itself runs slower, and its two vCPUs slow down
independently.

:class:`SpeedGauge` times a fixed unit of reference work, interleaved
with the timed work.  The unit imitates the program's hot loops without
calling the program: a blended spatial-textual score of one query
against 1024 objects with small term dictionaries, then a heap top-k.
Its time over :data:`REFERENCE_S` is the slowdown at that moment, and
the benchmark divides each timing by the slowdown measured around it.
A reported time is thus in reference units: the time the work takes on
a machine where one unit takes REFERENCE_S.  The unit never changes with
the program, so a faster program still reads faster.  In two sets of
ten runs per workload, scaling cut the IQR/median of qps and latencies
from 0.05-0.38 to 0.03-0.13 and of set-up times from 0.12-0.53 to
0.03-0.10, and the largest move between the two sets' medians from
0.55 to 0.07.

:data:`REFERENCE_S` is fixed for good: changing it rescales every
number the benchmark has ever reported.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import statistics
from time import perf_counter
from typing import List

#: Seconds of one unit in reference units: an estimate of its time on
#: the reference machine (2-vCPU Intel Xeon VM, Python 3.11.7) at full
#: speed, from 1.8 ms measured while a fixed probe ran at 1.3x its best.
REFERENCE_S = 0.0014

#: Objects scored by one unit, and terms per object.
OBJECTS = 1024
TERMS = 8
VOCABULARY = 400


class SpeedGauge:
    """Times units of fixed work; :meth:`slowdown` turns them into a factor."""

    def __init__(self) -> None:
        rng = random.Random(7)
        vocab = [f"t{i}" for i in range(VOCABULARY)]
        self._objects = [
            (rng.random(), rng.random(), {t: rng.random() + 0.1 for t in rng.sample(vocab, TERMS)})
            for _ in range(OBJECTS)
        ]
        self._next = 0
        self._cpus = sorted(os.sched_getaffinity(0))
        #: Seconds of every unit timed so far, in order.
        self.samples: List[float] = []
        for _ in range(5):  # first units run with cold caches
            self._unit()

    def _unit(self) -> int:
        objects = self._objects
        qx, qy, qterms = objects[self._next % len(objects)]
        self._next += 7
        scores = []
        for j, (x, y, terms) in enumerate(objects):
            inter = union = 0.0
            for t, w in qterms.items():
                v = terms.get(t)
                if v is None:
                    union += w
                elif v < w:
                    inter += v
                    union += w
                else:
                    inter += w
                    union += v
            for t, v in terms.items():
                if t not in qterms:
                    union += v
            near = 1.0 - math.sqrt((qx - x) ** 2 + (qy - y) ** 2) / math.sqrt(2.0)
            scores.append((0.7 * near + 0.3 * inter / union, j))
        return heapq.nlargest(5, scores)[0][1]

    def sample(self, units: int = 1, every_cpu: bool = False) -> None:
        """Time ``units`` units, one sample each.

        A sample is one unit where this process runs now, or, with
        ``every_cpu``, the mean of one unit pinned to each CPU this process
        may use.  The second is for work spread over every CPU (a process
        pool): the CPUs of the shared VM slow down independently.
        """
        for _ in range(units):
            if not every_cpu:
                started = perf_counter()
                self._unit()
                self.samples.append(perf_counter() - started)
                continue
            times = []
            try:
                for cpu in self._cpus:
                    os.sched_setaffinity(0, {cpu})
                    started = perf_counter()
                    self._unit()
                    times.append(perf_counter() - started)
            finally:
                os.sched_setaffinity(0, self._cpus)
            self.samples.append(sum(times) / len(times))

    def slowdown(self, first: int = 0) -> float:
        """Median unit time from sample ``first`` on, over REFERENCE_S."""
        return statistics.median(self.samples[first:]) / REFERENCE_S
