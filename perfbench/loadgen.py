"""Closed-loop load: measurement phases, per-phase recorders, seeded streams,
and the calibration points that pause the load to time the reference kernel."""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

from calibrate import Reference, slowdown


class Recorder:
    """Everything one measurement phase collects.  A phase may be active in
    several slices (the traced run alternates two phases); :attr:`seconds`
    is its summed active time."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.closed = False  # set once the whole window is over
        self.latency_ms: Dict[str, List[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.lock = threading.Lock()
        self._active = 0.0
        self._since: Optional[float] = None
        # one entry per measured segment: (latency list lengths, active
        # seconds) at its end, and the machine slowdown it ran at
        self.marks: List[tuple] = []
        self.slowdowns: List[float] = []

    def add(self, kind: str, ms: float) -> None:
        self.latency_ms[kind].append(ms)

    def count(self, name: str, amount: int = 1) -> None:
        with self.lock:
            self.counts[name] += amount

    def value(self, name: str, v: float) -> None:
        self.values[name].append(v)

    def resume(self) -> None:
        self._since = time.perf_counter()

    def pause(self) -> None:
        if self._since is not None:
            self._active += time.perf_counter() - self._since
            self._since = None

    @property
    def seconds(self) -> float:
        running = time.perf_counter() - self._since if self._since is not None else 0.0
        return self._active + running

    def mark(self) -> None:
        """Close a segment (the load is paused, so no sample is in flight)."""
        self.marks.append(({kind: len(v) for kind, v in self.latency_ms.items()}, self.seconds))

    def scaled_ms(self, kind: str) -> List[float]:
        """The *kind* latencies, each divided by its segment's slowdown."""
        samples, out, start = self.latency_ms[kind], [], 0
        for (ends, _), factor in zip(self.marks, self.slowdowns):
            end = ends.get(kind, start)
            out.extend(v / factor for v in samples[start:end])
            start = end
        return out

    def scaled_seconds(self) -> float:
        """Active seconds, each segment's divided by its slowdown: the time
        the phase would have taken at the reference speed."""
        total, before = 0.0, 0.0
        for (_, seconds), factor in zip(self.marks, self.slowdowns):
            total += (seconds - before) / factor
            before = seconds
        return total


class Phases:
    """The phase a closed loop is in: loops read :attr:`current` before each
    request and record into it, so a request belongs to the phase it
    started in."""

    def __init__(self) -> None:
        self.current: Optional[Recorder] = None
        self.recorders: List[Recorder] = []
        self.stop = threading.Event()
        self.errors: List[str] = []
        self.slowdown = 1.0  # the whole run's on the wall clock, set by :func:`measure`
        self.cpu_slowdown = 1.0  # the same on the thread CPU clock
        self.cpu_s = 0.0  # CPU seconds the load took (calibration left out)
        self.scaled_cpu_s = 0.0  # the same, each segment's divided by its CPU slowdown
        self.pending = 0  # requests a loop still has in flight (the ingest writer)
        self._lock = threading.Lock()
        self._running = 0  # loops inside a request

    def switch(self, recorder: Recorder) -> None:
        if recorder not in self.recorders:
            self.recorders.append(recorder)
        if self.current is not None:
            self.current.pause()
        recorder.resume()
        self.current = recorder

    def hold(self) -> Optional[Recorder]:
        """Enter a request: returns the phase to record into, or None (the
        caller must still :meth:`release`)."""
        with self._lock:
            self._running += 1
        return self.current

    def release(self) -> None:
        with self._lock:
            self._running -= 1

    def pause(self) -> None:
        """Stop issuing requests and wait until no loop is inside one and
        none has any in flight."""
        if self.current is not None:
            self.current.pause()
        self.current = None
        while self._running or self.pending:
            time.sleep(0.0005)

    def end(self) -> None:
        if self.current is not None:
            self.current.pause()
        self.current = None
        for recorder in self.recorders:
            recorder.closed = True

    def error(self, message: str) -> None:
        with self._lock:
            if len(self.errors) < 20:
                self.errors.append(message)


def zipf_stream(n_items: int, length: int, s: float, rng: np.random.Generator, ranking: int) -> np.ndarray:
    """*length* draws over *n_items* ids, rank r drawn with weight 1/r^s.
    The rank-to-id mapping is a fixed permutation chosen by *ranking*, so
    the hot set is the same for every seed; *rng* draws the sequence."""
    weights = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** s
    weights /= weights.sum()
    ranks = rng.choice(n_items, size=length, p=weights)
    return np.random.default_rng(ranking).permutation(n_items)[ranks]


def run_loop(phases: Phases, body: Callable[[Recorder, int], None], name: str) -> threading.Thread:
    """Start a closed-loop thread calling ``body(recorder, i)`` until stop."""

    def loop() -> None:
        i = 0
        while not phases.stop.is_set():
            recorder = phases.hold()
            try:
                if recorder is not None:
                    body(recorder, i)
                    i += 1
            except Exception as error:  # noqa: BLE001 - counted, reported, never fatal
                recorder.count("failed")
                phases.error(f"{name}: {type(error).__name__}: {error}")
                i += 1
            finally:
                phases.release()
            if recorder is None:
                time.sleep(0.001)

    thread = threading.Thread(target=loop, name=name, daemon=True)
    thread.start()
    return thread


TRACE_SLICE_S = 1.0
CALIBRATION_CALLS = 4  # reference-kernel calls at each calibration point


def measure(phases: Phases, seconds: float, traced: bool, set_trace: Callable[[bool], None],
            cpu_clock: Callable[[], float], segment_s: float) -> List[Recorder]:
    """Run the measurement window, with the load paused at calibration
    points where the reference kernel is timed.

    Untraced: one phase, in segments of about *segment_s* between
    calibration points (the machine's speed moves within a second, so
    shorter segments track it better, at the cost of the pauses); a
    segment's slowdown comes from the points on both sides of it.  Traced:
    ~1 s slices alternating an untraced and a traced phase (``set_trace(on)``
    switches the spans), so both phases see the same drift of a growing
    catalog and their difference is the tracing overhead; the load is
    calibrated before and after, and every slice gets the run's slowdown.
    ``phases.slowdown`` and ``phases.cpu_slowdown`` are the whole run's
    slowdowns on the wall and the CPU clock; ``phases.cpu_s`` is the CPU
    time (read from *cpu_clock*) the load took between calibration points
    and ``phases.scaled_cpu_s`` the same at the reference speed."""
    reference = Reference()
    points = [reference.sample(CALIBRATION_CALLS)]
    cpu = []  # CPU seconds of each segment
    if not traced:
        recorders = [Recorder("untraced")]
        segments = max(1, int(round(seconds / segment_s)))
        for _ in range(segments):
            cpu_started = cpu_clock()
            phases.switch(recorders[0])
            time.sleep(seconds / segments)
            phases.pause()
            cpu.append(cpu_clock() - cpu_started)
            recorders[0].mark()
            points.append(reference.sample(CALIBRATION_CALLS))
        recorders[0].slowdowns = [slowdown(points[k] + points[k + 1]) for k in range(segments)]
    else:
        plain, spans = Recorder("untraced"), Recorder("traced")
        recorders = [plain, spans]
        slices = max(2, int(round(seconds / TRACE_SLICE_S)))
        cpu_started = cpu_clock()
        for k in range(slices):
            on = k % 2 == 1
            set_trace(on)
            phases.switch(spans if on else plain)
            time.sleep(seconds / slices)
        phases.pause()
        cpu.append(cpu_clock() - cpu_started)
        set_trace(False)
        points.append(reference.sample(CALIBRATION_CALLS))
    every = [t for point in points for t in point]
    phases.slowdown, phases.cpu_slowdown = slowdown(every), slowdown(every, clock=1)
    phases.cpu_s = sum(cpu)
    phases.scaled_cpu_s = sum(c / slowdown(points[k] + points[k + 1], clock=1) for k, c in enumerate(cpu))
    for recorder in recorders:
        if not recorder.slowdowns:
            recorder.mark()
            recorder.slowdowns = [phases.slowdown]
    phases.end()
    return recorders
