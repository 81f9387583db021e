"""Machine-speed calibration: a fixed reference kernel, timed beside the load.

A shared 2-vCPU VM runs the same code at speeds that drift by tens of
percent within seconds and minutes (neighbours on the host's cores and
caches, hypervisor steal).  Every run therefore times a fixed kernel that uses no ``repro``
code -- numpy sorts and joins over int64 keys plus interpreter-bound dict and
tuple work, the two kinds of work the program's query, transport and ingest
paths do -- at calibration points spread through the measurement window,
while the load is paused.  The kernel's median time at a point, divided by
:data:`REFERENCE_MS`, is the machine's *slowdown* there; a timing divided by
the slowdown is the timing the run would have read at the reference speed.
The kernel is timed on both clocks: wall time (which stolen time stretches)
scales wall timings, thread CPU time (which it does not) scales CPU timings.

The kernel shares no code with the program, so a change to the program
leaves the kernel's work as it was: scaling takes most of the machine's
drift out of the figures and leaves the program's own changes in them.
Each report prints the slowdowns and every scaled timing as read.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

# Median of one kernel call on a calm 2-vCPU x86-64 VM (Python 3.11,
# numpy 2.4): the speed every scaled timing is expressed at.
REFERENCE_MS = 2.7
BRACKET_CALLS = 12  # kernel calls on each side of a timed block of set-up work


class Reference:
    """The reference kernel and its fixed inputs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240513)
        self.keys = rng.integers(0, 1 << 16, size=(4096, 2), dtype=np.int64)
        self.probe = rng.integers(0, 1 << 32, size=4096, dtype=np.int64)
        self.items = [tuple(int(v) for v in row) for row in self.keys[:800]]
        self.once()  # first call pays numpy's lazy set-up

    def once(self) -> Tuple[float, float]:
        """One kernel call; returns its wall and thread CPU time in ms."""
        started, cpu_started = time.perf_counter(), time.thread_time()
        keys = self.keys
        order = np.lexsort((keys[:, 1], keys[:, 0]))
        unique = np.unique(keys[order, 0] << 16 | keys[order, 1])
        hit = np.minimum(np.searchsorted(unique, self.probe), unique.shape[0] - 1)
        joined = np.concatenate([unique[hit, None], self.probe[:, None]], axis=1)
        total = int(joined.sum() % 1009)
        counts = {}
        for a, b in self.items:
            key = (a >> 4, b >> 4)
            counts[key] = counts.get(key, 0) + 1
        boxes = [[a, b, a + 1, b + 1] for (a, b) in sorted(counts)[:200]]
        total += len(json.dumps(boxes))
        if total < 0:  # never: keeps the work observable
            raise AssertionError(total)
        return (time.perf_counter() - started) * 1000.0, (time.thread_time() - cpu_started) * 1000.0

    def sample(self, calls: int) -> List[Tuple[float, float]]:
        """(wall, CPU) ms of *calls* back-to-back kernel calls."""
        return [self.once() for _ in range(calls)]


def slowdown(samples: Sequence[Tuple[float, float]], clock: int = 0) -> float:
    """Machine slowdown against the reference speed on one clock (0 wall,
    1 CPU): median kernel time ÷ :data:`REFERENCE_MS` (above 1: slower than
    the reference machine)."""
    return float(np.median([sample[clock] for sample in samples])) / REFERENCE_MS


class Timings:
    """Named timings taken outside the measurement window (set-up, cold
    opens), each kept as read and at the reference speed: a block's values
    are scaled by the slowdown of kernel samples taken right before and
    right after it, as the machine's speed drifts within seconds."""

    def __init__(self) -> None:
        self.reference = Reference()
        self.raw: Dict[str, List[float]] = defaultdict(list)
        self.scaled: Dict[str, List[float]] = defaultdict(list)

    @contextmanager
    def samples(self, name: str) -> Iterator[Callable[[float], None]]:
        """Yields an ``add(value)`` for the values the block reads."""
        values: List[float] = []
        before = self.reference.sample(BRACKET_CALLS)
        yield values.append
        factor = slowdown(before + self.reference.sample(BRACKET_CALLS))
        self.raw[name] += values
        self.scaled[name] += [v / factor for v in values]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Records the block's wall time in seconds."""
        with self.samples(name) as add:
            started = time.perf_counter()
            yield
            add(time.perf_counter() - started)

    def median(self, name: str) -> Tuple[float, float]:
        """(as read, at the reference speed) medians of *name*."""
        return float(np.median(self.raw[name])), float(np.median(self.scaled[name]))
