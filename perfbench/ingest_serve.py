"""Workload ``ingest-serve``: durable ingest with an RPC reader beside it.

An in-process ``LineageService`` (4 shards, default workers and commit
interval, fsync on) runs on a fresh directory, preloaded with the fig8
relational workflow and one warm-up copy of every writer template, and
served with ``serve(transport="rpc")``.

* The writer thread replays a fixed stream of template copies -- the fig8
  steps at reduced size and fig9 chains at n_cells=500 with their quadratic
  steps -- one op per step under fresh array names.  Copies of a template
  share op names in groups of three, so two of every three copies hit the
  reuse layer.  Four tickets stay in flight; the next op is submitted only
  when the oldest is durable.  When the load pauses for a calibration point,
  the writer lets its in-flight ops become durable first.
* The reader thread alternates between the preloaded arrays and the newest
  fully durable template copy.

``cold_open_ms`` is timed on the catalogs of the earlier set-ups, once
closed: their content is fixed, while the catalog the window wrote grows
with however many ops the machine managed.  After the window the service is
closed, the directory is reopened with ``DSLog.load`` (its time is reported
as ``reopen_after_window_ms``) and every acknowledged op is checked: its
entry is present and its table decompresses to the submitted relation's
deduplicated rows.
"""

from __future__ import annotations

import collections
import hashlib
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.dslog import DSLog
from repro.service.pipeline import LineageService
from repro.service.rpc import RPCClient
from repro.workloads.pipelines import relational_pipeline

import layers
import loadgen
import tracer
from catalog import (
    NUM_SHARDS,
    UNIVERSE_SEED,
    Oracle,
    Query,
    cold_open_samples,
    flat_cells,
    full_path_universe,
    ingest_templates,
    is_quadratic,
    prefix_universe,
    raw_pair_bytes,
)
from calibrate import Timings
from common import SETUP_REPEATS, cpu_seconds, freeze_setup_heap, peak_rss_mb, summarize, tree_bytes

IN_FLIGHT = 4
COPIES_PER_VARIANT = 3  # copies sharing op names: the first captures, the rest reuse
INCLUDE_CELLS_SHARE = 0.25
PRELOAD = "pre."
WARMUP = "warm."
# load between calibration points: a pause waits until the writer's ops in
# flight are durable (~0.2 s), so pauses are spaced wider than on the reads
CALIBRATION_SEGMENT_S = 2.0
# The reader, the RPC server and the service's workers share one interpreter,
# so a read waits for GIL hand-offs.  At the default 5 ms switch interval the
# median of the ~700 reads of a 20 s window spread 0.29 (IQR/median over ten
# seeds, 2-vCPU VM); at 1 ms it spread 0.08 and the reader makes more reads.
GIL_SWITCH_INTERVAL_S = 0.001


def _rows_digest(rows: np.ndarray) -> bytes:
    """Digest of a relation's deduplicated, sorted rows."""
    rows = np.unique(np.asarray(rows, dtype=np.int64), axis=0)
    return hashlib.blake2b(rows.tobytes() + repr(rows.shape).encode(), digest_size=16).digest()


def _table_digest(table) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for column in (table.key_lo, table.key_hi, table.val_kind, table.val_ref, table.val_lo, table.val_hi):
        h.update(np.ascontiguousarray(column, dtype=np.int64).tobytes())
        h.update(repr(column.shape).encode())
    h.update(repr((table.out_shape, table.in_shape)).encode())
    return h.digest()


class Setup:
    """A fresh service preloaded with the relational workflow and one warm-up
    copy of every writer template (its own op names, so the window's reuse
    pattern is unchanged), served over RPC.  Its catalog has the same content
    on every run."""

    def __init__(self, root: Path, preload, templates) -> None:
        self.root = root
        self.service = LineageService(root, num_shards=NUM_SHARDS)
        self.acked = []  # the set-up's ops, checked on reopen like the writer's
        self._ingest(PRELOAD, "preload", "preload", preload)
        for name in sorted(templates):
            self._ingest(f"{WARMUP}{name}.", f"{name}.warm", name, templates[name])
        self.service.flush()
        for op in self.acked:
            op["ticket"].result()
        self.server = self.service.serve(transport="rpc")
        self.client = RPCClient.connect(self.server.address)

    def _ingest(self, prefix: str, op_name: str, template: str, pipeline) -> None:
        for name, shape in pipeline.arrays:
            self.service.define_array(prefix + name, shape)
        for i, rel in enumerate(pipeline.steps):
            pair = (prefix + rel.in_name, prefix + rel.out_name)
            ticket = self.service.submit(f"{op_name}.s{i}", [pair[0]], [pair[1]], relations={pair: rel})
            self.acked.append({"ticket": ticket, "pair": pair, "template": template, "step": i,
                               "raw": raw_pair_bytes(rel)})

    def close(self) -> None:
        self.client.close()
        self.server.close()
        self.service.close()


def run(work: Path, seed: int, seconds: float, traced: bool) -> dict:
    sys.setswitchinterval(GIL_SWITCH_INTERVAL_S)
    templates = ingest_templates()
    preload = relational_pipeline(800, 500)
    pre_universe = prefix_universe({"relational": preload}, 2, (0.05,))
    for q in pre_universe:
        q.path = tuple(PRELOAD + a for a in q.local_path)
    tmpl_universe = full_path_universe(templates, 1)
    tmpl_universe = [q for q in tmpl_universe if not q.planned]
    by_template: Dict[str, List[Query]] = collections.defaultdict(list)
    for q in tmpl_universe:
        by_template[q.workflow].append(q)

    timings = Timings()  # set-up, and cold opens of each closed set-up's catalog
    for k in range(SETUP_REPEATS):
        with timings.span("setup_s"):
            setup = Setup(work / f"catalog{k}", preload, templates)
            for q in pre_universe:
                setup.client.prov_query(q.path, **q.form())
        if k < SETUP_REPEATS - 1:
            setup.close()
            cold_open_samples(setup.root, 4, timings)
    root = setup.root

    Oracle({"relational": preload}).fill(pre_universe)
    Oracle(templates).fill(tmpl_universe)
    expected_rows = {
        (name, i): _rows_digest(rel.rows)
        for name, p in {**templates, "preload": preload}.items()
        for i, rel in enumerate(p.steps)
    }
    freeze_setup_heap()

    # the op stream is fixed like the read workloads' query universe (cycles
    # of all templates in shuffled order); the seed draws the reader's stream
    fixed = np.random.default_rng(UNIVERSE_SEED)
    order = [name for _ in range(4096) for name in fixed.permutation(sorted(templates))]
    rng = np.random.default_rng(seed)
    reader_picks = rng.integers(0, 1 << 30, size=1 << 16)
    reader_cells = rng.random(1 << 16) < INCLUDE_CELLS_SHARE

    service, client = setup.service, setup.client
    phases = loadgen.Phases()
    acked: List[dict] = list(setup.acked)
    durable_copies: List[tuple] = []  # (prefix, template)
    copies = collections.Counter()

    def op_stream():
        """The writer's ops in order, one per template step; the arrays of a
        copy are defined as its first step is drawn."""
        for index, name in enumerate(order):
            copy = copies[name]
            copies[name] += 1
            prefix = f"c{index}.{name}."
            variant = f"{name}.v{copy // COPIES_PER_VARIANT}"
            pipeline = templates[name]
            for array, shape in pipeline.arrays:
                service.define_array(prefix + array, shape)
            for i, rel in enumerate(pipeline.steps):
                yield index, name, prefix, variant, i, rel, i == len(pipeline.steps) - 1

    def submit(rec, step, inflight: collections.deque) -> None:
        index, name, prefix, variant, i, rel, last = step
        pair = (prefix + rel.in_name, prefix + rel.out_name)
        rid = f"w{index}.{i}"
        tracer.begin_op(rid)
        tracer.bind_key(pair[1], rid)
        ticket = service.submit(f"{variant}.s{i}", [pair[0]], [pair[1]], relations={pair: rel})
        tracer.begin_op(None)
        inflight.append({"ticket": ticket, "pair": pair, "template": name, "step": i, "rid": rid,
                         "quadratic": is_quadratic(rel), "raw": raw_pair_bytes(rel), "rec": rec,
                         "last": last, "prefix": prefix})

    def _retire(op: dict) -> None:
        ticket = op["ticket"]
        rec = op["rec"]
        try:
            ticket.result(timeout=120)
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            rec.count("failed")
            rec.count("ops")
            phases.error(f"ingest op {op['pair']} failed: {type(error).__name__}: {error}")
            return
        acked.append(op)
        if op["last"]:
            durable_copies.append((op["prefix"], op["template"]))
        if rec.closed:
            return  # retired after the window: checked on reopen, not timed
        rec.add("durable", (ticket.durable_at - ticket.submitted_at) * 1000.0)
        rec.count("ops")
        rec.count("durable_ops")
        rec.count("quadratic_ops", int(op["quadratic"]))
        rec.value("submit_to_applied", ticket.applied_at - ticket.submitted_at)
        if op["quadratic"]:
            rec.value("quadratic_submit_to_applied", ticket.applied_at - ticket.submitted_at)
        if rec.name == "traced":
            started = tracer.apply_started.get(op["rid"])
            if started is not None:
                rec.value("queue_wait", (started - ticket.submitted_at) * 1000.0)
                rec.value("apply", (ticket.applied_at - started) * 1000.0)
            rec.value("commit_wait", (ticket.durable_at - ticket.applied_at) * 1000.0)

    def writer() -> None:
        """Keeps IN_FLIGHT ops in flight; when the load pauses, it lets every
        one become durable before the pause begins."""
        inflight: collections.deque = collections.deque()
        stream = op_stream()
        while not phases.stop.is_set():
            rec = phases.hold()
            try:
                if rec is not None:
                    submit(rec, next(stream), inflight)
                    phases.pending = len(inflight)
                while inflight and (len(inflight) >= IN_FLIGHT or phases.current is None):
                    _retire(inflight.popleft())
                    phases.pending = len(inflight)
            except Exception as error:  # noqa: BLE001
                if rec is not None:
                    rec.count("failed")
                phases.error(f"writer: {type(error).__name__}: {error}")
            finally:
                phases.release()
            if rec is None:
                time.sleep(0.001)
        while inflight:
            _retire(inflight.popleft())
        phases.pending = 0

    def reader(rec, i) -> None:
        pick = int(reader_picks[i % len(reader_picks)])
        ic = bool(reader_cells[i % len(reader_cells)])
        if i % 2 == 0 or not durable_copies:
            q = pre_universe[pick % len(pre_universe)]
            path = q.path
        else:
            prefix, name = durable_copies[-1]
            members = by_template[name]
            q = members[pick % len(members)]
            path = [prefix + a for a in q.local_path]
        tracer.begin_op(f"r{i}")
        started = time.perf_counter()
        r = client.prov_query(path, **q.form(ic))
        cells = r.cells_array
        ms = (time.perf_counter() - started) * 1000.0
        rec.add("query", ms)
        rec.count("queries")
        rec.count("ops")
        rec.count(f"sel:{q.selectivity:g}")
        ok = r.count == q.count
        if ok and ic:
            ok = np.array_equal(flat_cells(cells, q.out_shape), q.flat)
        if not ok:
            rec.count("wrong")
            phases.error(f"wrong answer for {path}: got {r.count}, want {q.count}")
        if rec.name == "traced":
            rec.value("rpc_transport", ms - r.elapsed_ms)
            rec.value("boxes", r.boxes_merged)
            rec.value("cells", r.count)

    def snapshot_state() -> dict:
        stats = service.stats()
        return {
            "committed_ops": stats["committed_ops"],
            "commits": stats["commits"],
            "failed": stats["failed"],
            "writes": stats["write_coalescing"],
            "table": service.log.store.cache_stats(),
            "result": setup.server.executor.cache.stats(),
            "retries": client.retries_used,
        }

    writer_thread = threading.Thread(target=writer, name="writer", daemon=True)
    writer_thread.start()
    reader_thread = loadgen.run_loop(phases, reader, "reader")
    start_state = snapshot_state()
    recorders = loadgen.measure(phases, seconds, traced, tracer.switch, cpu_seconds, CALIBRATION_SEGMENT_S)
    end_state = snapshot_state()
    phases.stop.set()
    reader_thread.join()
    writer_thread.join()
    setup.close()

    # ---- durability check on reopen -----------------------------------
    cold_open_samples(root, 2, timings, "reopen_after_window_ms")
    lost = 0
    reused = 0
    verified: Dict[bytes, bytes] = {}  # table digest -> rows digest it decompressed to
    log = DSLog.load(root)
    try:
        for op in acked:
            try:
                entry, _ = log.catalog.entry_between(*op["pair"])
                table = entry.backward
            except KeyError:
                lost += 1
                phases.error(f"acknowledged op {op['pair']} missing after reopen")
                continue
            reused += int(bool(entry.reused))
            want = expected_rows[(op["template"], op["step"])]
            digest = _table_digest(table)
            got = verified.get(digest)
            if got is None:
                got = verified[digest] = _rows_digest(table.decompress().rows)
            if got != want:
                lost += 1
                phases.error(f"acknowledged op {op['pair']} decompresses to other rows")
    finally:
        log.close()
    raw_bytes = sum(op["raw"] for op in acked)
    stored = tree_bytes(root)

    main = recorders[0]
    q_lat = summarize(main.latency_ms["query"])
    d_lat = summarize(main.latency_ms["durable"])
    spent = main.values["submit_to_applied"]
    ops = sum(r.counts["queries"] + r.counts["durable_ops"] for r in recorders)
    setup_s, cold_ms = timings.median("setup_s"), timings.median("cold_open_ms")
    raw = {
        "setup_s": setup_s[0],
        "query_p50_ms": q_lat["p50"],
        "queries_per_s": main.counts["queries"] / main.seconds,
        # reads and durable ops share the process; the op mix is fixed
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
            "stored_bytes_per_raw_byte": (stored / raw_bytes, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "raw": raw,
        "slowdown": (phases.slowdown, phases.cpu_slowdown),
        "workload_metrics": {
            "query_p99_ms": (q_lat["p99"], "ms"),
            "ingest_ops_per_s": (main.counts["durable_ops"] / main.seconds, "ops/s"),
            "durable_p50_ms": (d_lat["p50"], "ms"),
            "durable_p99_ms": (d_lat["p99"], "ms"),
        },
        "samples": {"rpc reader query": q_lat, "submit to durable": d_lat},
        "attempted": sum(r.counts["ops"] for r in recorders) + _tail_ops(acked, recorders),
        "failed": sum(r.counts["failed"] for r in recorders),
        "wrong": sum(r.counts["wrong"] for r in recorders),
        "lost": lost,
        "errors": phases.errors,
        "properties": {
            "gil_switch_interval_s": sys.getswitchinterval(),
            "acknowledged_ops": len(acked),
            "reopen_after_window_ms": timings.median("reopen_after_window_ms")[0],
            "reuse_hit_share_of_ops": layers.ratio(reused, len(acked)),
            "quadratic_share_of_ops": layers.ratio(main.counts["quadratic_ops"], main.counts["durable_ops"]),
            "quadratic_share_of_ingest_time": layers.ratio(
                sum(main.values["quadratic_submit_to_applied"]), sum(spent)
            ),
            "ingest_time_definition": "summed submit-to-applied seconds of durable ops",
            "result_cache_hit_ratio": layers.hit_ratio(
                layers.result_cache_delta(start_state["result"], end_state["result"])
            ),
            "table_cache_hit_ratio": layers.hit_ratio(layers.cache_delta(start_state["table"], end_state["table"])),
            "commit_batch": layers.ratio(
                end_state["committed_ops"] - start_state["committed_ops"], end_state["commits"] - start_state["commits"]
            ),
            "selectivity_mix": {k: v for k, v in main.counts.items() if k.startswith("sel:")},
            "durable_copies": len(durable_copies),
            "raw_pair_bytes": raw_bytes,
            "stored_bytes": stored,
            "setup_runs_s": timings.raw["setup_s"],
        },
    }
    if traced:
        rec = recorders[1]
        snap = tracer.snapshot()
        ops = rec.counts["queries"] + rec.counts["durable_ops"]
        # cache, write and commit counters span the whole window: tracing
        # does not change them
        before = start_state
        all_ops = ops + main.counts["queries"] + main.counts["durable_ops"]
        tc = layers.cache_delta(before["table"], end_state["table"])
        rc = layers.result_cache_delta(before["result"], end_state["result"])
        writes = {k: end_state["writes"][k] - before["writes"][k] for k in ("coalesced_writes", "coalesced_records")}
        traced_q = summarize(rec.latency_ms["query"])
        extras = {
            "core.query.boxes_per_result": layers.mean(rec.values["boxes"]),
            "core.query.cells_per_result": layers.mean(rec.values["cells"]),
            "storage.store.table_cache_hit_ratio": layers.hit_ratio(tc),
            "storage.store.evictions_per_op": layers.ratio(tc["evictions"], all_ops),
            "storage.segments.records_per_write": layers.ratio(writes["coalesced_records"], writes["coalesced_writes"]),
            "service.pipeline.queue_wait_ms": layers.mean(rec.values["queue_wait"]),
            "service.pipeline.apply_ms": layers.mean(rec.values["apply"]),
            "service.pipeline.commit_wait_ms": layers.mean(rec.values["commit_wait"]),
            "service.pipeline.commit_batch": layers.ratio(
                end_state["committed_ops"] - before["committed_ops"], end_state["commits"] - before["commits"]
            ),
            "service.pipeline.failed": end_state["failed"] - before["failed"],
            "service.query.result_cache_hit_ratio": layers.hit_ratio(rc),
            "service.query.invalidations_per_op": layers.ratio(rc["invalidations"], all_ops),
            "service.rpc.transport_ms": layers.mean(rec.values["rpc_transport"]),
            "service.rpc.retries": end_state["retries"] - before["retries"],
            "trace.overhead.query_p50": traced_q["p50"] / q_lat["p50"] - 1.0,
            "trace.overhead.queries_per_s": 1.0
            - (rec.counts["queries"] / rec.seconds) / (main.counts["queries"] / main.seconds),
        }
        result["trace"] = {"snapshot": snap, "ops": ops, "extras": extras}
    return result


def _tail_ops(acked, recorders) -> int:
    """Acknowledged ops no window timed: the set-up's preload and warm-up
    copies, and ops retired after their window closed.  The durability check
    covers them too."""
    return max(len(acked) - sum(r.counts["durable_ops"] for r in recorders), 0)



