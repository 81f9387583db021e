"""Shared helpers: pinned environment, latency summaries, memory, sizes."""

from __future__ import annotations

import gc
import os
import platform
import resource
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Knobs that change the program under test; an inherited shell must not
# set them for the generator or the child server.
PINNED_ENV = (
    "DSLOG_COALESCE_MS",
    "DSLOG_FAULT_RATE",
    "DSLOG_FAULT_SEED",
    "DSLOG_FAULT_SITES",
    "DSLOG_SLOW_TRACE_MS",
    "DSLOG_LOG_LEVEL",
)

SELECTIVITIES = (0.001, 0.01, 0.05, 0.2)  # the fig8 sweep: 0.1, 1, 5, 20 %
SETUP_REPEATS = 3


def pin_environment() -> None:
    for name in PINNED_ENV:
        os.environ.pop(name, None)


def child_environment() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return env


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding *path* (longest /proc/mounts match)."""
    best, kind = "", "unknown"
    try:
        resolved = str(path.resolve())
        with open("/proc/mounts") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) >= 3 and resolved.startswith(parts[1]) and len(parts[1]) > len(best):
                    best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def environment_record(seed: int, catalog_dir: Path) -> dict:
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "catalog_fs": _fs_type(catalog_dir),
        "flush_policy": "LineageService default commit_interval, fsync on every group commit",
        "pinned_env_cleared": list(PINNED_ENV),
    }


def cpu_times() -> List[int]:
    """Aggregate CPU jiffies from /proc/stat (user .. steal); empty if absent."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def steal_share(before: List[int], after: List[int]) -> Optional[float]:
    """Share of CPU time the hypervisor stole between two :func:`cpu_times`."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def cpu_seconds() -> float:
    """CPU seconds of this process, all threads, on the scheduler's CPU
    clock: the clock the reference kernel's CPU time is read on
    (``calibrate``), so scaling by the kernel's CPU slowdown cancels what
    moves both -- a slower host core, and the stolen time this clock
    counts (the tick-sampled ``os.times`` leaves it out, the kernel's
    clock does not)."""
    return time.process_time()


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(root: Path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def freeze_setup_heap() -> None:
    """Move every object alive after set-up (catalog, oracle, streams) into
    the collector's permanent generation, so full collections during the
    window do not walk the generator's set-up heap."""
    gc.collect()
    gc.freeze()


def now() -> float:
    return time.perf_counter()


def tail_percentile(n: int) -> Optional[float]:
    """Highest of p99.9/p99/p95/p90/p50 with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


def summarize(samples_ms: Sequence[float]) -> dict:
    """Median, p99 and the highest qualifying percentile of a latency list."""
    values = np.asarray(samples_ms, dtype=np.float64)
    n = int(values.size)
    if n == 0:
        return {"n": 0, "p50": float("nan"), "p99": float("nan"), "tail_pct": None, "tail": float("nan")}
    tail_pct = tail_percentile(n)
    return {
        "n": n,
        "p50": float(np.percentile(values, 50)),
        "p99": float(np.percentile(values, 99)),
        "tail_pct": tail_pct,
        "tail": float(np.percentile(values, tail_pct)) if tail_pct is not None else float("nan"),
    }
