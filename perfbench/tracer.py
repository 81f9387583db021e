"""Per-layer tracing from outside the program.

Every span is recorded around one public callable of a ``repro`` module,
wrapped at the site where the caller looks it up: ``repro.dslog`` and
``repro.service.query`` each bind their own ``execute_path``, so the two are
separate spans.  Nothing under ``src/`` is edited: :func:`install` swaps the
module or class attribute for a timing wrapper at run time.

Spans live in memory.  Each thread keeps a stack of open spans, so a span's
*self* time is its duration minus the time its child spans (on the same
thread) covered.  Every span carries the request id of the end-to-end
operation that caused it: the load generator sets it per request with
:func:`begin_op`; a thread with no request id (a server handler, an ingest
worker) opens a fresh one at its outermost span, and ingest worker spans
are tied back to the submitting request through the operation's unique
output array name (:func:`bind_key`).
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span id, layer, "module:attribute path") -- the site where the caller
# looks the callable up.  The span id is the metric prefix.
SITES: List[Tuple[str, str, str]] = [
    ("dslog.prov_query", "dslog", "repro.dslog:DSLog.prov_query"),
    ("dslog.load", "dslog", "repro.dslog:DSLog.load"),
    ("dslog.register_operation", "dslog", "repro.dslog:DSLog.register_operation"),
    ("dslog.sync", "dslog", "repro.dslog:DSLog.sync"),
    ("graph.shortest_paths", "graph", "repro.graph:LineageGraph.shortest_paths"),
    ("core.query.execute_path.dslog", "core.query", "repro.dslog:execute_path"),
    ("core.query.execute_path.service", "core.query", "repro.service.query:execute_path"),
    ("core.query.execute_path_batch", "core.query", "repro.service.query:execute_path_batch"),
    ("core.query.theta_join", "core.query", "repro.core.query:theta_join"),
    ("core.query.theta_join_batch", "core.query", "repro.core.query:theta_join_batch"),
    ("core.query.merge_boxes", "core.query", "repro.core.query:merge_boxes"),
    ("core.query.from_cells", "core.query", "repro.core.query:CellBoxSet.from_cells"),
    ("core.query.count_cells", "core.query", "repro.core.query:CellBoxSet.count_cells"),
    ("core.query.to_cells_array", "core.query", "repro.core.query:CellBoxSet.to_cells_array"),
    ("core.provrc.compress.catalog", "core.provrc", "repro.storage.catalog:compress"),
    # DSLog._reorient imports compress at call time, from its home module
    ("core.provrc.compress.reorient", "core.provrc", "repro.core.provrc:compress"),
    ("core.provrc.compress_both", "core.provrc", "repro.core.provrc:compress_both"),
    ("core.compressed.decompress", "core.compressed", "repro.core.compressed:CompressedLineage.decompress"),
    ("reuse.lookup", "reuse", "repro.reuse.signatures:ReuseManager.lookup"),
    ("reuse.observe", "reuse", "repro.reuse.signatures:ReuseManager.observe"),
    ("core.serialize.serialize.store", "core.serialize", "repro.storage.store:serialize_table"),
    ("core.serialize.serialize.shards", "core.serialize", "repro.service.shards:serialize_table"),
    ("core.serialize.deserialize", "core.serialize", "repro.storage.store:deserialize_table"),
    ("storage.store.load_table", "storage.store", "repro.storage.store:LineageStore.load_table"),
    ("storage.store.append_table", "storage.store", "repro.storage.store:LineageStore.append_table"),
    ("storage.store.sync", "storage.store", "repro.storage.store:LineageStore.sync"),
    ("storage.segments.writer_sync", "storage.segments", "repro.storage.segments:SegmentWriter.sync"),
    ("storage.segments.reader_read", "storage.segments", "repro.storage.segments:SegmentReader.read"),
    ("storage.manifest.dump", "storage.manifest", "repro.storage.store:dump_manifest"),
    ("storage.manifest.write", "storage.manifest", "repro.storage.store:write_manifest"),
    ("service.shards.sync_dirty", "service.shards", "repro.service.shards:ShardedLineageStore.sync_dirty"),
    ("service.pipeline.submit", "service.pipeline", "repro.service.pipeline:LineageService.submit"),
    ("service.query.query", "service.query", "repro.service.query:QueryExecutor.query"),
    ("service.query.query_batch", "service.query", "repro.service.query:QueryExecutor.query_batch"),
    ("service.api.parse_query_request", "service.api", "repro.service.api:parse_query_request"),
    ("service.api.execute_query", "service.api", "repro.service.api:ServiceCore.execute_query"),
    ("service.api.result_payload", "service.api", "repro.service.server:result_payload"),
    ("service.wire.encode_result", "service.wire", "repro.service.rpc:encode_result"),
    ("service.wire.decode_result", "service.wire", "repro.service.rpc:decode_result"),
    ("service.wire.encode_batch", "service.wire", "repro.service.rpc:encode_batch"),
    ("service.wire.decode_batch", "service.wire", "repro.service.rpc:decode_batch"),
    ("service.rpc.prov_query", "service.rpc", "repro.service.rpc:RPCClient.prov_query"),
    ("service.rpc.prov_query_batch", "service.rpc", "repro.service.rpc:RPCClient.prov_query_batch"),
    ("service.server.prov_query", "service.server", "repro.service.server:LineageClient.prov_query"),
]

LAYERS: List[str] = list(dict.fromkeys(layer for _, layer, _ in SITES))
LAYER_OF: Dict[str, str] = {span: layer for span, layer, _ in SITES}

_ENABLED = False
_local = threading.local()
_lock = threading.Lock()
_rid_counter = itertools.count(1)
_installed = False

# span id -> [calls, total seconds, self seconds]
_stats: Dict[str, List[float]] = {}
_counters: Dict[str, int] = {}
# raw span records: (span id, request id, parent span id, start, end)
_records: List[tuple] = []
MAX_RECORDS = 200_000
# output array name -> request id of the submitting end-to-end op
_key_rid: Dict[str, str] = {}
# request id -> register_operation start (monotonic), for queue-wait accounting
apply_started: Dict[str, float] = {}


def set_enabled(flag: bool) -> None:
    global _ENABLED
    _ENABLED = bool(flag)


def switch(on: bool) -> None:
    """Turn spans on or off; the first switch on installs the wrappers and
    clears the record, so it accumulates over every traced slice."""
    if on and not _installed:
        install()
        reset()
    set_enabled(on)


def reset() -> None:
    """Drop every recorded span and counter (the wrappers stay installed)."""
    with _lock:
        _stats.clear()
        _counters.clear()
        _records.clear()
        _key_rid.clear()
        apply_started.clear()


def begin_op(rid: Optional[str]) -> None:
    """Set the request id of the calling thread's next spans."""
    _local.rid = rid


def bind_key(key: str, rid: str) -> None:
    """Tie spans opened for *key* (an output array name) to request *rid*."""
    _key_rid[key] = rid


def count(name: str, amount: int = 1) -> None:
    with _lock:
        _counters[name] = _counters.get(name, 0) + int(amount)


# ----------------------------------------------------------------------
# hooks: per-span work counts, recorded where the work happens
# ----------------------------------------------------------------------
def _hook_compress(args, kwargs, result) -> None:
    count("provrc_rows_in", int(args[0].rows.shape[0]))
    tables = result if isinstance(result, tuple) else (result,)
    count("provrc_rows_out", sum(int(t.key_lo.shape[0]) for t in tables))


def _hook_lookup(args, kwargs, result) -> None:
    count("reuse_lookups")
    count("reuse_hits", int(bool(result.reused)))


def _hook_serialize(args, kwargs, result) -> None:
    count("serialize_bytes", len(result))


def _hook_deserialize(args, kwargs, result) -> None:
    count("serialize_bytes", memoryview(args[0]).nbytes)


def _hook_dump(args, kwargs, result) -> None:
    count("manifest_bytes", len(result))


def _hook_write_manifest(args, kwargs, result) -> None:
    count("manifest_publishes")


def _hook_sync_dirty(args, kwargs, result) -> None:
    count("sync_dirty_calls")
    count("dirty_shards", len(result))


def _hook_decode(args, kwargs, result) -> None:
    count("wire_result_bytes", len(args[0]))


HOOKS: Dict[str, Callable] = {
    "core.provrc.compress.catalog": _hook_compress,
    "core.provrc.compress.reorient": _hook_compress,
    "core.provrc.compress_both": _hook_compress,
    "reuse.lookup": _hook_lookup,
    "core.serialize.serialize.store": _hook_serialize,
    "core.serialize.serialize.shards": _hook_serialize,
    "core.serialize.deserialize": _hook_deserialize,
    "storage.manifest.dump": _hook_dump,
    "storage.manifest.write": _hook_write_manifest,
    "service.shards.sync_dirty": _hook_sync_dirty,
    "service.wire.decode_result": _hook_decode,
    "service.wire.decode_batch": _hook_decode,
}


# ----------------------------------------------------------------------
# the wrapper
# ----------------------------------------------------------------------
def _request_id(span: str, args) -> str:
    rid = getattr(_local, "rid", None)
    if rid is not None:
        return rid
    if span == "dslog.register_operation" and len(args) > 3 and args[3]:
        # an ingest worker: the op's fresh output array names its request
        rid = _key_rid.get(args[3][0])
        if rid is not None:
            return rid
    return f"t{next(_rid_counter)}"


def _wrap(span: str, func: Callable) -> Callable:
    hook = HOOKS.get(span)

    def traced(*args, **kwargs):
        if not _ENABLED:
            return func(*args, **kwargs)
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        outermost = not stack
        if outermost:
            rid = _request_id(span, args)
            if span == "dslog.register_operation":
                apply_started[rid] = time.monotonic()
        else:
            rid = stack[-1][1]
        frame = [span, rid, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            elapsed = end - start
            if stack:
                stack[-1][2] += elapsed
            with _lock:
                entry = _stats.get(span)
                if entry is None:
                    entry = _stats[span] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[2]
                if len(_records) < MAX_RECORDS:
                    _records.append((span, rid, stack[-1][0] if stack else None, start, end))
        if hook is not None:
            hook(args, kwargs, result)
        return result

    traced.__wrapped__ = func
    traced.__name__ = getattr(func, "__name__", span)
    traced.__doc__ = getattr(func, "__doc__", None)
    return traced


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install() -> None:
    """Wrap every site in :data:`SITES` (idempotent)."""
    global _installed
    if _installed:
        return
    for span, _layer, target in SITES:
        owner, attr = _resolve(target)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(span, raw.__func__))
        else:
            wrapped = _wrap(span, raw)
        setattr(owner, attr, wrapped)
    _installed = True


def snapshot() -> dict:
    """Aggregated spans and counters, JSON-ready (used across processes)."""
    with _lock:
        return {
            "spans": {span: list(values) for span, values in _stats.items()},
            "counters": dict(_counters),
            "records": len(_records),
        }


def records() -> List[tuple]:
    with _lock:
        return list(_records)


def merge(*snapshots: dict) -> dict:
    """Sum span statistics and counters of several snapshots (generator and
    server process)."""
    spans: Dict[str, List[float]] = {}
    counters: Dict[str, int] = {}
    total_records = 0
    for snap in snapshots:
        for span, (calls, total, self_time) in snap["spans"].items():
            entry = spans.setdefault(span, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_time
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
        total_records += snap.get("records", 0)
    return {"spans": spans, "counters": counters, "records": total_records}
