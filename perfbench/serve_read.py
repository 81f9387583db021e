"""Workload ``serve-read``: one served catalog, an HTTP and an RPC client.

A child process reopens the ``paper-query`` catalog with a table-cache
budget of a quarter of its hydrated table bytes and serves it with
``serve(transport="both")``, the default 256-entry result cache and
coalescing off.  Two closed-loop threads each replay their own seeded
Zipf(s=1) stream over ~2000 distinct queries (every path prefix of every
workflow, both directions): one ``LineageClient`` over HTTP, one
``RPCClient`` whose every 10th request is a 16-query batch.  Requests mix
``cells`` and ``slices`` forms and a quarter ask for ``include_cells``.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.service.rpc import RPCClient
from repro.service.server import LineageClient

import layers
import loadgen
import tracer
from catalog import (
    Oracle,
    build_catalog,
    cold_open_samples,
    flat_cells,
    hydrated_bytes,
    paper_workflows,
    prefix_universe,
)
from calibrate import Timings
from common import SETUP_REPEATS, child_environment, cpu_seconds, freeze_setup_heap, peak_rss_mb, summarize, tree_bytes

OFFSETS = 7  # seeded block starts per (workflow, direction, selectivity)
BANDS = (0.01, 0.2)  # row-band ``slices`` queries per (workflow, direction)
ZIPF_S = 1.0
BATCH_EVERY = 10
BATCH_SIZE = 16
INCLUDE_CELLS_SHARE = 0.25
WARM_REQUESTS = 200
RESULT_CACHE_ENTRIES = 256
CALIBRATION_SEGMENT_S = 0.5  # load between calibration points; a pause waits for two requests


class Child:
    """The server process and its line-command channel."""

    def __init__(self, root: Path, cache_bytes: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("server_child.py")),
             "--root", str(root), "--cache-bytes", str(cache_bytes)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_environment(),
        )
        hello = self.proc.stdout.readline()
        if not hello:
            self.proc.wait(timeout=30)
            raise RuntimeError(f"server child exited with code {self.proc.returncode}")
        address = json.loads(hello)
        self.url, self.rpc = address["http"], address["rpc"]

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def _digest(count: int, lo, hi) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(str(int(count)).encode())
    h.update(np.ascontiguousarray(lo, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(hi, dtype=np.int64).tobytes())
    return h.digest()


def _http_digest(count: int, boxes: list) -> bytes:
    lo = np.asarray([b[0] for b in boxes], dtype=np.int64)
    hi = np.asarray([b[1] for b in boxes], dtype=np.int64)
    return _digest(count, lo, hi)


def _rpc_digest(result) -> bytes:
    return _digest(result.count, result.boxes_lo, result.boxes_hi)


def run(work: Path, seed: int, seconds: float, traced: bool) -> dict:
    flows = paper_workflows()
    root = work / "catalog"
    universe = prefix_universe(flows, OFFSETS, BANDS)
    n = len(universe)
    rng = np.random.default_rng(seed)
    length = 1 << 16
    http_stream = loadgen.zipf_stream(n, length, ZIPF_S, rng, ranking=1)
    rpc_stream = loadgen.zipf_stream(n, length, ZIPF_S, rng, ranking=2)
    http_cells = rng.random(length) < INCLUDE_CELLS_SHARE
    rpc_cells = rng.random(length) < INCLUDE_CELLS_SHARE

    # set-up, and cold opens sampled with no server running: after each
    # set-up but the last, and after the window
    timings = Timings()
    child = None
    try:
        for k in range(SETUP_REPEATS):
            with timings.span("setup_s"):
                raw_bytes = build_catalog(root, flows)
                hydrated = hydrated_bytes(root)
                budget = hydrated // 4
                child = Child(root, budget)
                http = LineageClient(child.url)
                rpc = RPCClient.connect(child.rpc)
                for j in range(WARM_REQUESTS):
                    for client, q in ((http, universe[http_stream[j]]), (rpc, universe[rpc_stream[j]])):
                        client.prov_query(q.path, **q.form())
            if k < SETUP_REPEATS - 1:
                http.close()
                rpc.close()
                child.stop()
                cold_open_samples(root, 3, timings)

        Oracle(flows).fill(universe)
        freeze_setup_heap()
        result = _measure(child, http, rpc, universe, (http_stream, http_cells), (rpc_stream, rpc_cells),
                          seconds, traced)
        http.close()
        rpc.close()
        final = child.ask("stats")
    finally:
        if child is not None:
            child.stop()

    cold_open_samples(root, 6, timings)
    for name, unit in (("setup_s", "s"), ("cold_open_ms", "ms")):
        result["raw"][name], scaled = timings.median(name)
        result["metrics"][name] = (scaled, unit)
    result["metrics"]["stored_bytes_per_raw_byte"] = (tree_bytes(root) / raw_bytes, "ratio")
    result["metrics"]["peak_rss_mb"] = (peak_rss_mb() + final["peak_rss_mb"], "MB")
    result["properties"].update({
        "hydrated_table_bytes": hydrated,
        "table_cache_budget_bytes": budget,
        "result_cache_entries": RESULT_CACHE_ENTRIES,
        "distinct_queries_in_universe": n,
        "setup_runs_s": timings.raw["setup_s"],
    })
    return result


def _measure(child, http, rpc, universe, http_plan, rpc_plan, seconds, traced) -> dict:
    phases = loadgen.Phases()
    seen: Dict[int, Tuple[str, bytes]] = {}

    def compare(rec, q, transport: str, digest: bytes) -> None:
        other = seen.setdefault(q.qid, (transport, digest))
        if other[0] != transport:
            rec.count("transport_compared")
            if other[1] != digest:
                rec.count("wrong")
                phases.error(f"HTTP and RPC answers differ for query {q.qid} {q.path}")

    def check(rec, q, count, cells) -> None:
        ok = count == q.count
        if ok and cells is not None:
            ok = np.array_equal(flat_cells(cells, q.out_shape), q.flat)
        rec.count(f"sel:{q.selectivity:g}")
        rec.count(q.kind)
        rec.values["qid"].append(q.qid)
        if not ok:
            rec.count("wrong")
            phases.error(f"wrong answer for query {q.qid} {q.path}: got {count}, want {q.count}")

    stream_h, cells_h = http_plan
    stream_r, cells_r = rpc_plan
    length = len(stream_h)

    def http_body(rec, i):
        j = (i + WARM_REQUESTS) % length
        q, ic = universe[stream_h[j]], bool(cells_h[j])
        tracer.begin_op(f"h{i}")
        started = time.perf_counter()
        payload = http.prov_query(q.path, **q.form(ic))
        cells = np.asarray(payload["cells"], dtype=np.int64) if ic else None
        ms = (time.perf_counter() - started) * 1000.0
        rec.add("http", ms)
        rec.count("http_queries")
        rec.count("queries")
        check(rec, q, payload["count"], cells)
        compare(rec, q, "http", _http_digest(payload["count"], payload["boxes"]))
        if rec.name == "traced":
            rec.value("http_transport", ms - payload["elapsed_ms"])
            rec.value("boxes", payload["boxes_merged"])
            rec.value("cells", payload["count"])

    def rpc_body(rec, i):
        j = (i + WARM_REQUESTS) % length
        tracer.begin_op(f"r{i}")
        if i % BATCH_EVERY == BATCH_EVERY - 1:
            picks = [(universe[stream_r[(j + k) % length]], bool(cells_r[(j + k) % length]))
                     for k in range(BATCH_SIZE)]
            bodies = [q.body(ic) for q, ic in picks]
            started = time.perf_counter()
            results = rpc.prov_query_batch(bodies)
            cells = [getattr(r, "cells_array", None) for r in results]
            rec.add("batch", (time.perf_counter() - started) * 1000.0)
            rec.count("batches")
            rec.count("queries", BATCH_SIZE)
            for (q, ic), r, c in zip(picks, results, cells):
                if isinstance(r, dict):  # a failed batch item
                    rec.count("failed")
                    phases.error(f"batch item failed: {r.get('error')}")
                    continue
                check(rec, q, r.count, c if ic else None)
                compare(rec, q, "rpc", _rpc_digest(r))
            return
        q, ic = universe[stream_r[j]], bool(cells_r[j])
        started = time.perf_counter()
        r = rpc.prov_query(q.path, **q.form(ic))
        cells = r.cells_array
        ms = (time.perf_counter() - started) * 1000.0
        rec.add("rpc", ms)
        rec.count("rpc_queries")
        rec.count("queries")
        check(rec, q, r.count, cells if ic else None)
        compare(rec, q, "rpc", _rpc_digest(r))
        if rec.name == "traced":
            rec.value("rpc_transport", ms - r.elapsed_ms)
            rec.value("boxes", r.boxes_merged)
            rec.value("cells", r.count)

    def set_trace(on: bool) -> None:
        tracer.switch(on)
        child.ask("trace on" if on else "trace off")

    def cpu_clock() -> float:
        """Generator (clients: encode, decode) plus server CPU seconds."""
        return cpu_seconds() + child.ask("cpu")["cpu_s"]

    start = child.ask("stats")
    retries = (http.retries_used, rpc.retries_used)
    threads = [loadgen.run_loop(phases, http_body, "http"), loadgen.run_loop(phases, rpc_body, "rpc")]
    recorders = loadgen.measure(phases, seconds, traced, set_trace, cpu_clock, CALIBRATION_SEGMENT_S)
    phases.stop.set()
    for thread in threads:
        thread.join()
    end = child.ask("stats")

    main = recorders[0]
    rpc_lat = summarize(main.latency_ms["rpc"])
    http_lat = summarize(main.latency_ms["http"])
    batch_lat = summarize(main.latency_ms["batch"])
    requests = lambda r: r.counts["http_queries"] + r.counts["rpc_queries"] + r.counts["batches"]  # noqa: E731
    result_cache = layers.result_cache_delta(start["result_cache"], end["result_cache"])
    table = layers.cache_delta(start["table_cache"], end["table_cache"])
    qids = [q for r in recorders for q in r.values["qid"]]
    ops = sum(r.counts["queries"] for r in recorders)
    raw = {
        "query_p50_ms": rpc_lat["p50"],
        "queries_per_s": main.counts["queries"] / main.seconds,
        "cpu_ms_per_op": phases.cpu_s * 1000.0 / ops,
    }
    result = {
        "metrics": {
            "query_p50_ms": (summarize(main.scaled_ms("rpc"))["p50"], "ms"),
            "queries_per_s": (main.counts["queries"] / main.scaled_seconds(), "queries/s"),
            "cpu_ms_per_op": (phases.scaled_cpu_s * 1000.0 / ops, "ms"),
        },
        "raw": raw,
        "slowdown": (phases.slowdown, phases.cpu_slowdown),
        "workload_metrics": {
            "query_p99_ms": (rpc_lat["p99"], "ms"),
            "http_query_p50_ms": (http_lat["p50"], "ms"),
            "http_query_p99_ms": (http_lat["p99"], "ms"),
            "batch_p50_ms": (batch_lat["p50"], "ms"),
        },
        "samples": {"rpc query": rpc_lat, "http query": http_lat, "rpc batch": batch_lat},
        "attempted": sum(r.counts["queries"] + r.counts["failed"] for r in recorders),
        "failed": sum(r.counts["failed"] for r in recorders),
        "wrong": sum(r.counts["wrong"] for r in recorders),
        "lost": 0,
        "errors": phases.errors,
        "properties": {
            "result_cache_hit_ratio": layers.hit_ratio(result_cache),
            "result_cache_lookups": result_cache["hits"] + result_cache["misses"],
            "table_cache_hit_ratio": layers.hit_ratio(table),
            "table_cache_lookups": table["hits"] + table["misses"],
            "table_cache_evictions": table["evictions"],
            "distinct_queries_issued": len(set(qids)),
            "http_rpc_answers_compared": sum(r.counts["transport_compared"] for r in recorders),
            "selectivity_mix": {k: v for k, v in main.counts.items() if k.startswith("sel:")},
            "request_forms": {k: main.counts[k] for k in ("cells", "slices")},
            "requests": requests(main),
        },
    }
    if traced:
        rec = recorders[1]
        snap = tracer.merge(tracer.snapshot(), end["trace"])
        ops = requests(rec)
        # cache counters span the whole window: tracing does not change them
        all_ops = ops + requests(main)
        traced_rpc = summarize(rec.latency_ms["rpc"])
        extras = {
            "core.query.boxes_per_result": layers.mean(rec.values["boxes"]),
            "core.query.cells_per_result": layers.mean(rec.values["cells"]),
            "storage.store.table_cache_hit_ratio": layers.hit_ratio(table),
            "storage.store.evictions_per_op": layers.ratio(table["evictions"], all_ops),
            "service.query.result_cache_hit_ratio": layers.hit_ratio(result_cache),
            "service.query.invalidations_per_op": layers.ratio(result_cache["invalidations"], all_ops),
            "service.rpc.transport_ms": layers.mean(rec.values["rpc_transport"]),
            "service.rpc.retries": rpc.retries_used - retries[1],
            "service.server.transport_ms": layers.mean(rec.values["http_transport"]),
            "service.server.retries": http.retries_used - retries[0],
            "trace.overhead.query_p50": traced_rpc["p50"] / rpc_lat["p50"] - 1.0,
            "trace.overhead.queries_per_s": 1.0
            - (rec.counts["queries"] / rec.seconds) / (main.counts["queries"] / main.seconds),
        }
        result["trace"] = {"snapshot": snap, "ops": ops, "extras": extras}
    return result
