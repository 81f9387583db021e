"""Workload ``paper-query``: the paper's in-situ path query, in process.

Set-up builds a 4-shard sharded catalog from the fig8 workflows and two
fig9 chains, reopens it with ``DSLog.load`` and warms it with one pass over
every query.  One caller then runs a closed loop of ``DSLog.prov_query``
calls; no transport, result cache or storage is touched after warm-up, so
this workload is the control for those layers.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.dslog import DSLog

import layers
import loadgen
import tracer
from catalog import Oracle, build_catalog, cold_open_samples, flat_cells, full_path_universe, paper_workflows
from calibrate import Timings
from common import SETUP_REPEATS, cpu_seconds, freeze_setup_heap, peak_rss_mb, summarize, tree_bytes

OFFSETS = 4  # seeded block starts per (workflow, direction, selectivity)
PLANNED_SHARE = 0.1  # endpoint-only two-array queries, planned through the graph
MATERIALIZE_SHARE = 0.25  # queries that materialize to_cells_array
CALIBRATION_SEGMENT_S = 0.5  # load between calibration points; a pause waits for one query


def run(work: Path, seed: int, seconds: float, traced: bool) -> dict:
    flows = paper_workflows()
    root = work / "catalog"
    universe = full_path_universe(flows, OFFSETS)

    timings = Timings()  # set-up and cold opens (sampled after every set-up and after the window)
    log = None
    for _ in range(SETUP_REPEATS):
        if log is not None:
            log.close()
        with timings.span("setup_s"):
            raw_bytes = build_catalog(root, flows)
            log = DSLog.load(root)
            for q in universe:
                log.prov_query(q.path, q.cells).count_cells()
        cold_open_samples(root, 2, timings)

    Oracle(flows).fill(universe)
    freeze_setup_heap()

    rng = np.random.default_rng(seed)
    length = 1 << 17
    picks = rng.integers(0, len(universe) // 2, size=length)
    planned = rng.random(length) < PLANNED_SHARE
    materialize = rng.random(length) < MATERIALIZE_SHARE

    phases = loadgen.Phases()

    def body(rec: loadgen.Recorder, i: int) -> None:
        j = i % length
        q = universe[2 * int(picks[j]) + int(planned[j])]
        tracer.begin_op(f"pq{i}")
        started = time.perf_counter()
        result = log.prov_query(q.path, q.cells)
        if materialize[j]:
            cells = result.to_cells_array()
        else:
            count = result.count_cells()
        rec.add("query", (time.perf_counter() - started) * 1000.0)
        if materialize[j]:
            ok = np.array_equal(flat_cells(cells, q.out_shape), q.flat)
            count = len(cells)
        else:
            ok = count == q.count
        rec.count("queries")
        rec.count(f"sel:{q.selectivity:g}")
        rec.count("planned" if q.planned else "full_path")
        rec.count("materialized" if materialize[j] else "counted")
        rec.values["qid"].append(q.qid)
        if not ok:
            rec.count("wrong")
            phases.error(f"wrong answer for query {q.qid} {q.path}: got {count}, want {q.count}")
        if rec.name == "traced":
            rec.value("boxes", len(result.cells))
            rec.value("cells", count)

    thread = loadgen.run_loop(phases, body, "paper-query")
    cache_start = log.store.cache_stats()
    recorders = loadgen.measure(phases, seconds, traced, tracer.switch, cpu_seconds, CALIBRATION_SEGMENT_S)
    phases.stop.set()
    thread.join()
    cache_end = log.store.cache_stats()
    log.close()

    main = recorders[0]
    lat = summarize(main.latency_ms["query"])
    ops = sum(r.counts["queries"] for r in recorders)
    cold_open_samples(root, 6, timings)
    setup_s, cold_ms = timings.median("setup_s"), timings.median("cold_open_ms")
    raw = {
        "setup_s": setup_s[0],
        "query_p50_ms": lat["p50"],
        "queries_per_s": main.counts["queries"] / main.seconds,
        "cpu_ms_per_op": phases.cpu_s * 1000.0 / ops,
        "cold_open_ms": cold_ms[0],
    }
    result = {
        "metrics": {
            "setup_s": (setup_s[1], "s"),
            "query_p50_ms": (summarize(main.scaled_ms("query"))["p50"], "ms"),
            "queries_per_s": (main.counts["queries"] / main.scaled_seconds(), "queries/s"),
            "cpu_ms_per_op": (phases.scaled_cpu_s * 1000.0 / ops, "ms"),
            "cold_open_ms": (cold_ms[1], "ms"),
            "stored_bytes_per_raw_byte": (tree_bytes(root) / raw_bytes, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "raw": raw,
        "slowdown": (phases.slowdown, phases.cpu_slowdown),
        "workload_metrics": {"query_p99_ms": (lat["p99"], "ms")},
        "samples": {"query": lat},
        "attempted": sum(r.counts["queries"] + r.counts["failed"] for r in recorders),
        "failed": sum(r.counts["failed"] for r in recorders),
        "wrong": sum(r.counts["wrong"] for r in recorders),
        "lost": 0,
        "errors": phases.errors,
    }
    table = layers.cache_delta(cache_start, cache_end)
    qids = [q for r in recorders for q in r.values["qid"]]
    result["properties"] = {
        "table_cache_hit_ratio": layers.hit_ratio(table),
        "table_cache_lookups": table["hits"] + table["misses"],
        "result_cache": "none (in-process DSLog.prov_query)",
        "distinct_queries_issued": len(set(qids)),
        "distinct_queries_in_universe": len(universe),
        "selectivity_mix": {k: v for k, v in main.counts.items() if k.startswith("sel:")},
        "planned_share": layers.ratio(main.counts["planned"], main.counts["queries"]),
        "materialized_share": layers.ratio(main.counts["materialized"], main.counts["queries"]),
        "setup_runs_s": timings.raw["setup_s"],
    }
    if traced:
        traced_rec = recorders[1]
        snap = tracer.snapshot()
        ops = traced_rec.counts["queries"]
        traced_lat = summarize(traced_rec.latency_ms["query"])
        extras = {
            "core.query.boxes_per_result": layers.mean(traced_rec.values["boxes"]),
            "core.query.cells_per_result": layers.mean(traced_rec.values["cells"]),
            # cache counters span the whole window: tracing does not change them
            "storage.store.table_cache_hit_ratio": layers.hit_ratio(table),
            "storage.store.evictions_per_op": layers.ratio(table["evictions"], ops + main.counts["queries"]),
            "trace.overhead.query_p50": traced_lat["p50"] / lat["p50"] - 1.0,
            "trace.overhead.queries_per_s": 1.0
            - (ops / traced_rec.seconds) / (main.counts["queries"] / main.seconds),
        }
        result["trace"] = {"snapshot": snap, "ops": ops, "extras": extras}
    return result
