"""Per-layer metrics of the traced run and the self-check on them."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import tracer

# Layers that do work on each workload, by the design of its traffic:
# the traced run fails if any of them records zero calls.
REQUIRED_LAYERS: Dict[str, Tuple[str, ...]] = {
    "paper-query": ("dslog", "graph", "core.query"),
    "serve-read": (
        "core.query",
        "core.serialize",
        "storage.store",
        "service.query",
        "service.api",
        "service.wire",
        "service.rpc",
        "service.server",
    ),
    "ingest-serve": (
        "dslog",
        "core.query",
        "core.provrc",
        "core.compressed",
        "reuse",
        "core.serialize",
        "storage.segments",
        "storage.manifest",
        "service.shards",
        "service.pipeline",
        "service.query",
        "service.api",
        "service.wire",
        "service.rpc",
    ),
}

# (metric, unit, better) of the per-layer ratios beside the span timings
EXTRAS: List[Tuple[str, str, str]] = [
    ("core.query.boxes_per_result", "boxes", "lower"),
    ("core.query.cells_per_result", "cells", "lower"),
    ("core.provrc.rows_in_per_row_out", "ratio", "higher"),
    ("reuse.hit_ratio", "ratio", "higher"),
    ("core.serialize.bytes_per_op", "B", "lower"),
    ("storage.store.table_cache_hit_ratio", "ratio", "higher"),
    ("storage.store.evictions_per_op", "count", "lower"),
    ("storage.segments.records_per_write", "count", "higher"),
    ("storage.manifest.bytes_per_publish", "B", "lower"),
    ("service.shards.dirty_per_commit", "count", "lower"),
    ("service.pipeline.queue_wait_ms", "ms", "lower"),
    ("service.pipeline.apply_ms", "ms", "lower"),
    ("service.pipeline.commit_wait_ms", "ms", "lower"),
    ("service.pipeline.commit_batch", "count", "higher"),
    ("service.pipeline.failed", "count", "lower"),
    ("service.query.result_cache_hit_ratio", "ratio", "higher"),
    ("service.query.invalidations_per_op", "count", "lower"),
    ("service.wire.result_bytes_per_op", "B", "lower"),
    ("service.rpc.transport_ms", "ms", "lower"),
    ("service.rpc.retries", "count", "lower"),
    ("service.server.transport_ms", "ms", "lower"),
    ("service.server.retries", "count", "lower"),
    ("trace.overhead.query_p50", "ratio", "lower"),
    ("trace.overhead.queries_per_s", "ratio", "lower"),
]


def metric_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric, in output order: two per span, then the extras."""
    specs: List[Tuple[str, str, str]] = []
    for span, _layer, _site in tracer.SITES:
        specs.append((f"{span}.self_ms_per_op", "ms", "lower"))
        specs.append((f"{span}.calls_per_op", "count", "lower"))
    return specs + EXTRAS


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def compute(snapshot: dict, ops: int, extras: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values from a merged tracer snapshot, *ops* completed
    end-to-end operations in the traced phase and workload-side *extras*."""
    spans = snapshot["spans"]
    counters = snapshot["counters"]
    values: Dict[str, float] = {}
    for span, _layer, _site in tracer.SITES:
        calls, _total, self_s = spans.get(span, (0, 0.0, 0.0))
        values[f"{span}.self_ms_per_op"] = ratio(self_s * 1000.0, ops)
        values[f"{span}.calls_per_op"] = ratio(calls, ops)
    values["core.provrc.rows_in_per_row_out"] = ratio(
        counters.get("provrc_rows_in", 0), counters.get("provrc_rows_out", 0)
    )
    values["reuse.hit_ratio"] = ratio(counters.get("reuse_hits", 0), counters.get("reuse_lookups", 0))
    values["core.serialize.bytes_per_op"] = ratio(counters.get("serialize_bytes", 0), ops)
    values["storage.manifest.bytes_per_publish"] = ratio(
        counters.get("manifest_bytes", 0), counters.get("manifest_publishes", 0)
    )
    values["service.shards.dirty_per_commit"] = ratio(
        counters.get("dirty_shards", 0), counters.get("sync_dirty_calls", 0)
    )
    values["service.wire.result_bytes_per_op"] = ratio(counters.get("wire_result_bytes", 0), ops)
    for name, _unit, _better in EXTRAS:
        if name in extras:
            values[name] = float(extras[name])
        values.setdefault(name, 0.0)
    return values


def layer_calls(snapshot: dict) -> Dict[str, int]:
    calls = {layer: 0 for layer in tracer.LAYERS}
    for span, (count, _total, _self) in snapshot["spans"].items():
        calls[tracer.LAYER_OF[span]] += int(count)
    return calls


def layer_self_ms(snapshot: dict, ops: int) -> Dict[str, float]:
    self_ms = {layer: 0.0 for layer in tracer.LAYERS}
    for span, (_count, _total, self_s) in snapshot["spans"].items():
        self_ms[tracer.LAYER_OF[span]] += self_s * 1000.0
    return {layer: ratio(v, ops) for layer, v in self_ms.items()}


def self_check(workload: str, snapshot: dict) -> Optional[str]:
    calls = layer_calls(snapshot)
    missing = [layer for layer in REQUIRED_LAYERS[workload] if calls.get(layer, 0) == 0]
    if missing:
        return f"layers with zero calls on {workload}: {', '.join(missing)}"
    return None


def cache_delta(before: List[dict], after: List[dict]) -> Dict[str, int]:
    """Summed hits/misses/evictions growth of per-shard TableCache stats."""
    out = {"hits": 0, "misses": 0, "evictions": 0}
    for b, a in zip(before, after):
        for key in out:
            out[key] += a[key] - b[key]
    return out


def hit_ratio(delta: Dict[str, int]) -> float:
    return ratio(delta["hits"], delta["hits"] + delta["misses"])


def result_cache_delta(before: dict, after: dict) -> Dict[str, int]:
    """Growth of a ResultCache's hits/misses/invalidations."""
    return {k: after[k] - before[k] for k in ("hits", "misses", "invalidations")}
