"""The paper's workflows, the catalogs built from them, the seeded query
universes and the independent oracle that answers every query.

The workflows (the paper's fig8 shapes and two fig9 random numpy chains
that each keep one quadratic-lineage step) and the universe of distinct
queries over them are fixed; the ``--seed`` of a run draws the request
stream a caller sends from that universe -- which queries, in what order,
in what form -- and the ingest op order.  A fixed universe keeps set-up and
per-query cost comparable across seeds, so seeds differ by sampling only.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.engine import BaselineDatabase
from repro.baselines.stores import RawStore
from repro.core.relation import LineageRelation
from repro.dslog import DSLog
from repro.experiments.fig8_query_latency import query_cells_for_selectivity
from repro.workloads.pipelines import (
    Pipeline,
    image_pipeline,
    random_numpy_pipeline,
    relational_pipeline,
    resnet_block_pipeline,
)

from calibrate import Timings
from common import SELECTIVITIES, now

NUM_SHARDS = 4
UNIVERSE_SEED = 0  # draws the fixed query blocks of every universe

# fig9 chain seeds: the first seeds whose chain holds exactly one
# quadratic-lineage step (>= n_cells^2 / 8 rows) and none above 0.6 n_cells^2
# (checked in _chain); at n_cells=2000 one such step alone takes seconds
PAPER_CHAINS = ((5, 1000, 1), (10, 1000, 6))
INGEST_CHAINS = ((5, 500, 5), (10, 500, 2))


def _chain(n_ops: int, n_cells: int, seed: int) -> Pipeline:
    pipeline = random_numpy_pipeline(n_ops, n_cells=n_cells, seed=seed)
    rows = [step.rows.shape[0] for step in pipeline.steps]
    quadratic = [r for r in rows if r >= n_cells * n_cells / 8]
    if len(quadratic) != 1 or max(rows) > 0.6 * n_cells * n_cells:
        raise RuntimeError(f"chain {pipeline.name} lost its single quadratic step: {rows}")
    return pipeline


def paper_workflows() -> Dict[str, Pipeline]:
    """fig8's three workflows plus fig9 chains of 5 and 10 ops at n_cells=1000."""
    flows = {
        "image": image_pipeline(64, 64),
        "relational": relational_pipeline(800, 500),
        "resnet": resnet_block_pipeline(24, 24),
    }
    for n_ops, n_cells, seed in PAPER_CHAINS:
        flows[f"chain{n_ops}"] = _chain(n_ops, n_cells, seed)
    return flows


def ingest_templates() -> Dict[str, Pipeline]:
    """The writer's op templates: fig8 steps at reduced size and fig9 chains
    at n_cells=500, quadratic steps kept."""
    flows = {
        "image": image_pipeline(32, 32),
        "relational": relational_pipeline(200, 150),
        "resnet": resnet_block_pipeline(12, 12),
    }
    for n_ops, n_cells, seed in INGEST_CHAINS:
        flows[f"chain{n_ops}"] = _chain(n_ops, n_cells, seed)
    return flows


def is_quadratic(relation: LineageRelation) -> bool:
    cells = int(np.prod(relation.in_shape))
    return relation.rows.shape[0] >= cells * cells / 8


def raw_pair_bytes(relation: LineageRelation) -> int:
    """int64 bytes of the relation's (output cell, input cell) pairs."""
    return int(relation.rows.shape[0] * relation.rows.shape[1] * 8)


# ----------------------------------------------------------------------
# building a catalog
# ----------------------------------------------------------------------
def load_pipeline(log, prefix: str, pipeline: Pipeline) -> None:
    for name, shape in pipeline.arrays:
        log.define_array(prefix + name, shape)
    for relation in pipeline.steps:
        log.add_lineage(prefix + relation.in_name, prefix + relation.out_name, relation=relation)


def build_catalog(root: Path, flows: Dict[str, Pipeline]) -> int:
    """Write *flows* into a fresh 4-shard catalog at *root*; returns the raw
    int64 pair bytes ingested."""
    shutil.rmtree(root, ignore_errors=True)
    log = DSLog(root, backend="sharded", num_shards=NUM_SHARDS, autosync=False)
    try:
        for name, pipeline in flows.items():
            load_pipeline(log, f"{name}.", pipeline)
    finally:
        log.close()
    return sum(raw_pair_bytes(step) for p in flows.values() for step in p.steps)


COLD_OPENS_PER_ROUND = 8


def cold_open_samples(root: Path, rounds: int, timings: Timings, name: str = "cold_open_ms") -> None:
    """Time repeated ``DSLog.load`` + ``close`` on *root* into *timings*
    (ms), in *rounds* spaced 0.1 s apart so one busy moment cannot set the
    median.  The generator's own heap is collected first so its garbage is
    not charged to the program."""
    gc.collect()
    for _ in range(rounds):
        with timings.samples(name) as add:
            for _ in range(COLD_OPENS_PER_ROUND):
                started = now()
                DSLog.load(root).close()
                add((now() - started) * 1000.0)
        time.sleep(0.1)


def hydrated_bytes(root: Path) -> int:
    """In-memory bytes of every table of the catalog, both orientations."""
    log = DSLog.load(root)
    try:
        total = 0
        for entry in log.catalog.entries():
            total += entry.backward.nbytes() + entry.forward.nbytes()
        return total
    finally:
        log.close()


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------
@dataclass
class Query:
    """One distinct query: a path plus a cell block (as cells or slices)."""

    qid: int
    workflow: str
    path: Tuple[str, ...]  # catalog array names (prefixed)
    local_path: Tuple[str, ...]  # the workflow's own names (oracle side)
    selectivity: float
    out_shape: Tuple[int, ...] = ()  # shape of the array the answer lives in
    cells: Optional[List[Tuple[int, ...]]] = None
    slices: Optional[List[Optional[Tuple[int, int]]]] = None
    planned: bool = False  # endpoint-only two-array path, planned through the graph
    count: int = -1  # expected answer (filled by the oracle)
    flat: Optional[np.ndarray] = None  # expected cells, sorted flat indices

    @property
    def kind(self) -> str:
        return "cells" if self.cells is not None else "slices"

    def body(self, include_cells: bool) -> dict:
        """The request body both transports accept."""
        body = {"path": list(self.path), "include_cells": include_cells}
        if self.cells is not None:
            body["cells"] = [list(c) for c in self.cells]
        else:
            body["slices"] = [list(s) if s is not None else None for s in self.slices]
        return body

    def form(self, include_cells: bool = False) -> dict:
        """Keyword arguments of ``prov_query`` on either client."""
        if self.cells is not None:
            return {"cells": self.cells, "include_cells": include_cells}
        return {"slices": self.slices, "include_cells": include_cells}


def _sub_seed(*parts) -> int:
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFF


def _shapes(pipeline: Pipeline) -> Dict[str, Tuple[int, ...]]:
    return dict(pipeline.arrays)


def _band(shape: Tuple[int, ...], selectivity: float, seed: int) -> List[Optional[Tuple[int, int]]]:
    rows = max(int(round(shape[0] * selectivity)), 1)
    start = int(np.random.default_rng(seed).integers(0, max(shape[0] - rows, 0) + 1))
    return [(start, start + rows)] + [None] * (len(shape) - 1)


def _band_cells(shape: Tuple[int, ...], band) -> List[Tuple[int, ...]]:
    ranges = [range(s[0], s[1]) if s is not None else range(d) for s, d in zip(band, shape)]
    grid = np.stack(np.meshgrid(*[np.asarray(r) for r in ranges], indexing="ij"), axis=-1)
    return [tuple(int(v) for v in row) for row in grid.reshape(-1, len(shape))]


def full_path_universe(flows: Dict[str, Pipeline], offsets: int) -> List[Query]:
    """paper-query: every workflow's full path, both directions, the fig8
    selectivities, *offsets* seeded block starts each; plus the same cell
    blocks as endpoint-only two-array queries (graph-planned)."""
    universe: List[Query] = []
    for name, pipeline in flows.items():
        shapes = _shapes(pipeline)
        for direction in ("forward", "backward"):
            local = tuple(pipeline.path if direction == "forward" else pipeline.path[::-1])
            for sel in SELECTIVITIES:
                for j in range(offsets):
                    cells = query_cells_for_selectivity(
                        shapes[local[0]], sel, seed=_sub_seed(UNIVERSE_SEED, name, direction, sel, j)
                    )
                    for planned in (False, True):
                        path = (local[0], local[-1]) if planned else local
                        universe.append(
                            Query(
                                qid=len(universe),
                                workflow=name,
                                path=tuple(f"{name}.{a}" for a in path),
                                local_path=local,
                                selectivity=sel,
                                out_shape=shapes[local[-1]],
                                cells=cells,
                                planned=planned,
                            )
                        )
    return universe


def prefix_universe(flows: Dict[str, Pipeline], offsets: int, bands: Sequence[float]) -> List[Query]:
    """serve-read: every prefix (>= 2 arrays) of every workflow path in both
    directions; cell blocks at the fig8 selectivities with *offsets* seeded
    starts, plus row-band ``slices`` queries at the *bands* selectivities."""
    universe: List[Query] = []
    for name, pipeline in flows.items():
        shapes = _shapes(pipeline)
        for direction in ("forward", "backward"):
            local = tuple(pipeline.path if direction == "forward" else pipeline.path[::-1])
            first = shapes[local[0]]
            blocks = []
            for sel in SELECTIVITIES:
                for j in range(offsets):
                    cells = query_cells_for_selectivity(
                        first, sel, seed=_sub_seed(UNIVERSE_SEED, name, direction, sel, j)
                    )
                    blocks.append((sel, cells, None))
            for sel in bands:
                blocks.append((sel, None, _band(first, sel, _sub_seed(UNIVERSE_SEED, name, direction, "band", sel))))
            for sel, cells, band in blocks:
                for k in range(2, len(local) + 1):
                    universe.append(
                        Query(
                            qid=len(universe),
                            workflow=name,
                            path=tuple(f"{name}.{a}" for a in local[:k]),
                            local_path=local[:k],
                            selectivity=sel,
                            out_shape=shapes[local[k - 1]],
                            cells=cells,
                            slices=band,
                        )
                    )
    return universe


class Oracle:
    """Expected answers from the decode + join baseline over raw int64
    rows (``BaselineDatabase(RawStore())``), independent of ProvRC."""

    def __init__(self, flows: Dict[str, Pipeline]):
        self.dbs = {name: p.load_into_baseline(RawStore()) for name, p in flows.items()}
        self.shapes = {name: _shapes(p) for name, p in flows.items()}

    def fill(self, queries: Sequence[Query]) -> None:
        """Answer every query.  Queries sharing a workflow, a start cell block
        and a path prefix are answered hop by hop in one walk."""
        groups: Dict[tuple, List[Query]] = {}
        for q in queries:
            block = tuple(q.cells) if q.cells is not None else ("band",) + tuple(q.slices)
            groups.setdefault((q.workflow, block, q.local_path[0]), []).append(q)
        for (workflow, _block, _first), members in groups.items():
            db: BaselineDatabase = self.dbs[workflow]
            shapes = self.shapes[workflow]
            cache: Dict[Tuple[str, ...], set] = {}
            for q in sorted(members, key=lambda q: len(q.local_path)):
                frontier = self._walk(db, shapes, q, cache)
                q.count = len(frontier)
                q.flat = flat_cells(np.asarray(list(frontier)), shapes[q.local_path[-1]])

    def _walk(self, db, shapes, q: Query, cache) -> set:
        path = q.local_path
        if path in cache:
            return cache[path]
        # longest cached prefix, then one baseline hop at a time
        k = len(path)
        while k > 1 and path[:k] not in cache:
            k -= 1
        if k <= 1:
            start = q.cells if q.cells is not None else _band_cells(shapes[path[0]], q.slices)
            frontier = {tuple(int(v) for v in c) for c in start}
            k = 1
        else:
            frontier = cache[path[:k]]
        for i in range(k, len(path)):
            if frontier:
                frontier = db.query_path([path[i - 1], path[i]], frontier)
            cache[path[: i + 1]] = frontier
        return frontier


def flat_cells(cells: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Sorted flat indices of a ``(n, ndim)`` cell array."""
    cells = np.asarray(cells, dtype=np.int64)
    if cells.size == 0:
        return np.empty(0, np.int64)
    cells = cells.reshape(cells.shape[0], -1)
    return np.sort(np.ravel_multi_index(tuple(cells.T), tuple(shape)).astype(np.int64))
