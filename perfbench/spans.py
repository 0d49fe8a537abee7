"""Layer spans for the traced run.

Wrappers placed around the public functions of each layer record one
span per call -- ``(name, start, end, parent, op)`` -- into flat
in-memory arrays.  They are installed at class level (or at the
caller's import site for module functions), *before* the database of
the traced pass is built, so bound methods the program caches are
covered, and removed before the correctness oracle runs.  The program's
own tracer (``repro.obs.trace.ACTIVE``) stays off: switching it on
selects different code paths (scalar run pricing, per-fragment store
transfers), so a run with it on would measure different code.

A layer's self time is the duration of its spans minus the part their
direct children cover (execution is single-threaded and strictly
nested, so children never overlap).  ``<layer>.calls`` counts entries
into the layer: spans whose parent belongs to another layer.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

import repro.database
import repro.storage.base
from repro.buffer.pool import BufferPool
from repro.disk.model import DiskModel
from repro.geometry.feature import SpatialObject
from repro.iosched.scheduler import OverlapScheduler, SyncScheduler, VirtualClock
from repro.join.mbr_join import MBRJoin
from repro.join.object_access import ObjectTransfer
from repro.pagestore.store import ShardedPageStore
from repro.reorg import Reorganizer
from repro.rtree.rstar import RStarTree
from repro.storage.base import QueryResult, SpatialOrganization
from repro.workload.engine import WorkloadEngine

# Span name -> the (owner, attribute) pairs it wraps.  An owner is a
# class (patched at class level) or a module (the import site a caller
# resolves the function through).
LAYERS: dict[str, list[tuple[object, tuple[str, ...]]]] = {
    "workload": [(WorkloadEngine, ("run_traffic",))],
    "storage": [
        (
            SpatialOrganization,
            (
                "window_query",
                "point_query",
                "window_query_batch",
                "point_query_batch",
                "insert",
                "delete",
            ),
        )
    ],
    "rtree": [
        (
            RStarTree,
            (
                "insert",
                "delete",
                "window_query",
                "point_query",
                "window_query_batch",
                "point_query_batch",
                "window_leaves",
                "window_leaves_batch",
                "point_leaves_batch",
                "flat_snapshot",
            ),
        )
    ],
    "geometry": [
        (SpatialObject, ("intersects_rect", "contains_point", "intersects")),
        (repro.storage.base, ("polylines_intersect_rects",)),
    ],
    "buffer": [(BufferPool, ("submit", "flush", "write_back", "get", "read"))],
    "iosched": [
        (SyncScheduler, ("execute",)),
        (OverlapScheduler, ("execute",)),
    ],
    "iosched.clock": [(VirtualClock, ("reserve", "dispatch"))],
    "pagestore": [
        (ShardedPageStore, ("read", "read_runs", "write", "write_runs", "charge"))
    ],
    "disk": [
        (
            DiskModel,
            ("price_runs", "read_runs", "write_runs", "read", "write", "charge"),
        )
    ],
    "join": [(repro.database, ("spatial_join",))],
    "join.mbr": [(MBRJoin, ("run",))],
    "join.fetch": [(ObjectTransfer, ("fetch_group",))],
    "reorg": [(Reorganizer, ("step",))],
}

NAMES = tuple(LAYERS)
_WORKLOAD = NAMES.index("workload")


class SpanRecorder:
    """Records layer spans while installed (see the module docstring).

    Besides spans it keeps the counts the layers' return values carry:
    filter candidates, answers and exact tests of every query result,
    and the hit/miss/eviction counters of every buffer pool the run
    touched (read as deltas from the pool's first traced call).
    """

    def __init__(self):
        self._patched: list[tuple[object, str, object, bool]] = []
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._next_op = 0
        self.candidates = 0
        self.answers = 0
        self.exact_tests = 0
        self._pools: dict[int, tuple[BufferPool, int, int, int]] = {}

    def clear(self) -> None:
        """Drop everything recorded so far (the wrappers stay)."""
        for column in (self.name, self.parent, self.op, self.start, self.end):
            del column[:]
        self._stack.clear()
        self._next_op = 0
        self.candidates = 0
        self.answers = 0
        self.exact_tests = 0
        self._pools.clear()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("span wrappers are already installed")
        for name, owners in LAYERS.items():
            code = NAMES.index(name)
            for owner, attributes in owners:
                for attribute in attributes:
                    own = attribute in vars(owner)
                    original = getattr(owner, attribute)
                    setattr(owner, attribute, self._wrapper(code, original))
                    self._patched.append((owner, attribute, original, own))

    def uninstall(self) -> None:
        for owner, attribute, original, own in reversed(self._patched):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patched = []

    def _wrapper(self, code: int, function):
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        now = time.perf_counter_ns
        recorder = self

        def open_span() -> int:
            index = len(starts)
            parent = stack[-1] if stack else -1
            if parent < 0 or names[parent] == _WORKLOAD:
                op = recorder._next_op
                recorder._next_op += 1
            else:
                op = ops[parent]
            names.append(code)
            parents.append(parent)
            ops.append(op)
            ends.append(0)
            stack.append(index)
            starts.append(now())
            return index

        def close_span(index: int) -> None:
            ends[index] = now()
            stack.pop()

        if code == NAMES.index("join.mbr"):
            # MBRJoin.run is a generator: the traversal runs inside
            # each next(), interleaved with the caller's object
            # fetches, so every resumption is its own span.
            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                inner = function(*args, **kwargs)
                while True:
                    index = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(index)
                    yield item

            return generator_wrapper

        after = None
        if code == NAMES.index("storage"):
            after = self._count_results
        before = None
        if code == NAMES.index("buffer"):
            before = self._see_pool

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args[0])
            index = open_span()
            try:
                result = function(*args, **kwargs)
            finally:
                close_span(index)
            if after is not None:
                after(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # counts at the layer boundaries
    # ------------------------------------------------------------------
    def _count_results(self, result) -> None:
        results = result if isinstance(result, list) else (result,)
        for item in results:
            if isinstance(item, QueryResult):
                self.candidates += item.candidates
                self.answers += len(item.objects)
                self.exact_tests += item.exact_tests

    def _see_pool(self, pool: BufferPool) -> None:
        if id(pool) not in self._pools:
            self._pools[id(pool)] = (pool, pool.hits, pool.misses, pool.evictions)

    def pool_counts(self) -> tuple[int, int, int]:
        """Hits, misses and evictions of every traced pool since its
        first traced call."""
        hits = misses = evictions = 0
        for pool, h0, m0, e0 in self._pools.values():
            hits += pool.hits - h0
            misses += pool.misses - m0
            evictions += pool.evictions - e0
        return hits, misses, evictions

    # ------------------------------------------------------------------
    # derived figures
    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def layer_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per span name: self seconds and layer entries; plus the wall
        seconds the root spans cover."""
        spans = self.arrays()
        name, parent = spans["name"], spans["parent"]
        duration = (spans["end"] - spans["start"]).astype(np.float64)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(name)
        )
        own = duration - covered
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        entries = parent_name != name
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for code, layer in enumerate(NAMES):
            mine = name == code
            self_s[layer] = float(own[mine].sum()) / 1e9
            calls[layer] = int((mine & entries).sum())
        root_s = float(duration[~has_parent].sum()) / 1e9
        return self_s, calls, root_s

    def save(self, path: Path) -> None:
        """Write the spans out (numpy ``.npz``: one array per field,
        plus the span-name table)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())
