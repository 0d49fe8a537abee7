"""Common machinery of the three organization models (Section 3.2).

Every organization owns

* an R*-tree over the objects' MBRs (the spatial access method),
* a simulated :class:`~repro.disk.DiskModel` pricing all I/O,
* the in-memory object table (the simulator never serialises payloads —
  it prices page traffic).

The lifecycle has two phases.  During **construction**, node I/O runs
through a write-back LRU buffer (the authors' testbed caches the upper
tree levels).  :meth:`finalize_build` flushes that buffer and switches
to **measurement** mode, where the directory is assumed memory-resident
and every data-page and object access is priced — matching how the
paper reports query I/O cost.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import would be circular at runtime
    from repro.pagestore.store import PageStore

from repro.buffer.pool import BufferPool
from repro.constants import ENTRY_SIZE, PAGE_CAPACITY, PAGE_SIZE
from repro.disk.allocator import PageAllocator
from repro.disk.model import DiskModel, DiskStats
from repro.errors import StorageError
from repro.geometry.feature import SpatialObject
from repro.geometry.intersect import polylines_intersect_rects
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.rect import Rect
from repro.iosched.request import AccessPlan
from repro.iosched.scheduler import SyncScheduler
from repro.rtree.pager import NodePager
from repro.rtree.rstar import LeafGroup, RStarTree

__all__ = ["QueryResult", "SpatialOrganization"]


@dataclass(slots=True)
class QueryResult:
    """Outcome of one spatial query against an organization model.

    Attributes
    ----------
    objects:
        The answers — objects passing the *exact* geometry test.
    candidates:
        Number of filter-step candidates (MBR matches) whose exact
        representation was retrieved.
    bytes_retrieved:
        Exact-representation bytes of the retrieved candidates; queries
        are normalised to this data volume ("I/O-cost per 4 KB of
        queried data", Figures 8/12).
    io:
        I/O statistics of this query alone.
    exact_tests:
        Number of exact geometry tests executed during refinement.
    """

    objects: list[SpatialObject] = field(default_factory=list)
    candidates: int = 0
    bytes_retrieved: int = 0
    io: DiskStats = field(default_factory=DiskStats)
    exact_tests: int = 0

    @property
    def io_ms_per_4kb(self) -> float:
        """The paper's normalised metric: milliseconds of I/O per 4 KB
        of retrieved object data (infinite if nothing was retrieved —
        callers aggregate over many queries, so empty queries simply
        contribute their cost to a shared numerator)."""
        units = self.bytes_retrieved / PAGE_SIZE
        if units == 0:
            return float("inf")
        return self.io.total_ms / units


_SIZE = attrgetter("size_bytes")


class _Refinement:
    """The refinement step shared by single and batched queries.

    Each query hands in its candidates (in read order); :meth:`run`
    evaluates the queued exact tests and fills every result's answers
    in candidate order.  Map polylines have a handful of segments each,
    far below the per-call vectorization crossover, so their tests are
    concatenated across candidates — and across all queries of a batch
    — into one :func:`polylines_intersect_rects` call; polygon point
    tests run as one :meth:`Polygon.contains_points` call per distinct
    polygon; other geometries keep their scalar predicate.
    """

    __slots__ = ("_answers", "_line_coords", "_line_tests", "_polygons")

    def __init__(self):
        self._answers: list[tuple[QueryResult, list[SpatialObject], list]] = []
        self._line_coords: list[np.ndarray] = []
        # (decisions, slots, rect bounds) per query with polyline tests
        self._line_tests: list[tuple[list, list[int], tuple]] = []
        # oid -> (polygon, xs, ys, [(decisions, slot)])
        self._polygons: dict[int, tuple[Polygon, list, list, list]] = {}

    def window(
        self,
        result: QueryResult,
        window: Rect,
        candidates: list[SpatialObject],
        rows: list[np.ndarray],
    ) -> None:
        if not candidates:
            return
        mbrs = rows[0] if len(rows) == 1 else np.concatenate(rows)
        # Rect.contains over all candidate MBRs at once: an object whose
        # MBR lies inside the window necessarily shares points with it.
        inside = (
            (window.xmin <= mbrs[:, 0])
            & (window.ymin <= mbrs[:, 1])
            & (mbrs[:, 2] <= window.xmax)
            & (mbrs[:, 3] <= window.ymax)
        )
        misses = (~inside).nonzero()[0].tolist()
        if not misses:
            result.objects = candidates
            return
        result.exact_tests = len(misses)
        keep = inside.tolist()
        lines: list[int] = []
        coords = self._line_coords
        for slot in misses:
            obj = candidates[slot]
            geometry = obj.geometry
            if isinstance(geometry, Polyline):
                lines.append(slot)
                coords.append(geometry.coords())
            else:
                keep[slot] = obj.intersects_rect(window)
        if lines:
            self._line_tests.append((keep, lines, window.as_tuple()))
        self._answers.append((result, candidates, keep))

    def point(
        self, result: QueryResult, x: float, y: float, candidates: list[SpatialObject]
    ) -> None:
        if not candidates:
            return
        result.exact_tests = len(candidates)
        keep = [False] * len(candidates)
        lines: list[int] = []
        coords = self._line_coords
        for slot, obj in enumerate(candidates):
            geometry = obj.geometry
            if isinstance(geometry, Polygon):
                test = self._polygons.get(obj.oid)
                if test is None:
                    test = self._polygons[obj.oid] = (geometry, [], [], [])
                test[1].append(x)
                test[2].append(y)
                test[3].append((keep, slot))
            elif isinstance(geometry, Polyline):
                lines.append(slot)
                coords.append(geometry.coords())
            else:
                keep[slot] = obj.contains_point(x, y)
        if lines:
            # A point test is a degenerate rect intersection.
            self._line_tests.append((keep, lines, (x, y, x, y)))
        self._answers.append((result, candidates, keep))

    def run(self) -> None:
        """Evaluate the queued tests and fill in the answers."""
        if self._line_coords:
            tests = self._line_tests
            rects = np.repeat(
                np.array([bounds for _, _, bounds in tests], dtype=np.float64),
                [len(slots) for _, slots, _ in tests],
                axis=0,
            )
            verdicts = iter(
                polylines_intersect_rects(self._line_coords, rects).tolist()
            )
            for keep, slots, _ in tests:
                for slot, verdict in zip(slots, verdicts):
                    keep[slot] = verdict
        for polygon, xs, ys, sinks in self._polygons.values():
            verdicts = polygon.contains_points(xs, ys)
            for (keep, slot), verdict in zip(sinks, verdicts.tolist()):
                keep[slot] = verdict
        for result, candidates, keep in self._answers:
            result.objects = list(compress(candidates, keep))


class SpatialOrganization(abc.ABC):
    """Base class of the secondary, primary and cluster organizations."""

    #: subclasses override — used in reports
    name: str = "abstract"

    def __init__(
        self,
        disk: "DiskModel | PageStore | None" = None,
        allocator: PageAllocator | None = None,
        page_size: int = PAGE_SIZE,
        max_entries: int = PAGE_CAPACITY,
        construction_buffer_pages: int = 256,
        region_prefix: str = "",
        pool: BufferPool | None = None,
        scheduler=None,
        prefetch=None,
        metrics=None,
    ):
        self.disk = disk or DiskModel()
        self.allocator = allocator or PageAllocator()
        self.page_size = page_size
        self.max_entries = max_entries
        self.region_prefix = region_prefix or self.name
        self.objects: dict[int, SpatialObject] = {}
        self._construction_io = DiskStats()
        self._measuring = False
        # All measurement-mode page traffic (data pages, cluster units,
        # object extents) funnels through one shared buffer pool.  The
        # default pool is pass-through (capacity 0): every request is
        # priced cold, matching the paper's per-query I/O reporting.
        # The workload engine swaps a caching pool in via `use_pool`.
        # ``scheduler``/``prefetch`` (names or instances) select how
        # the pool services submitted access plans; the defaults keep
        # the bit-identical synchronous pricing.
        self.pool = (
            pool
            if pool is not None
            else BufferPool(
                self.disk,
                capacity=0,
                scheduler=scheduler,
                prefetcher=prefetch,
                allocator=self.allocator,
                metrics=metrics,
                metrics_label=f"{self.region_prefix}.query",
            )
        )

        tree_region = self._claim_region("tree")
        # Construction runs under the same assumption as measurement:
        # the small directory is memory-resident, data pages live on
        # disk behind a modest write-back buffer.  A large buffer would
        # absorb the forced-reinsert I/O that distinguishes the
        # organization models in Figure 5.
        self._construction_pager = NodePager(
            self.disk,
            tree_region,
            buffer_capacity=construction_buffer_pages,
            directory_resident=True,
        )
        self._query_pager = NodePager(
            self.disk, tree_region, directory_resident=True, pool=self.pool
        )
        self.tree = self._build_tree(self._construction_pager)

    def _claim_region(self, suffix: str):
        """Create the region ``<prefix>.<suffix>``, refusing to share an
        existing one — two organizations on one allocator (e.g. the two
        relations of a spatial join) must use distinct prefixes."""
        name = f"{self.region_prefix}.{suffix}"
        if name in self.allocator.regions():
            raise StorageError(
                f"region '{name}' already exists; give each organization "
                f"sharing an allocator a distinct region_prefix"
            )
        return self.allocator.region(name)

    # ------------------------------------------------------------------
    # subclass surface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _build_tree(self, pager: NodePager) -> RStarTree:
        """Create the organization's R*-tree wired to ``pager``."""

    @abc.abstractmethod
    def _store_object(self, obj: SpatialObject) -> object:
        """Physically place a new object; returns the entry payload
        (the organization's locator for the exact representation)."""

    #: True when single-query retrieval submits one access plan per
    #: data-page group (the cluster organization's unit reads); False
    #: submits one plan per query.
    plan_per_group: bool = False

    @abc.abstractmethod
    def _plan_retrieve(
        self,
        plan: AccessPlan,
        groups: list[LeafGroup],
        window: Rect,
        selective: bool,
        candidates: list[SpatialObject],
        rows: list[np.ndarray],
    ) -> None:
        """Append the transfer requests for the exact representations
        of the filter candidates (``groups`` is the output of
        ``tree.window_leaves``) to ``plan``; append the candidate
        objects to ``candidates`` in request order and their MBR rows,
        in the same order, to ``rows`` (one array per group).

        ``window`` is the query region (techniques like the geometric
        threshold need it); ``selective`` marks point queries, which
        access single objects through the cluster unit's relative
        addresses instead of bulk-reading units (Sections 4.2.2/5.5).
        """

    @abc.abstractmethod
    def occupied_pages(self) -> int:
        """Total pages bound by the organization (Figure 6's metric)."""

    # ------------------------------------------------------------------
    # construction phase
    # ------------------------------------------------------------------
    def insert(self, obj: SpatialObject) -> None:
        """Insert one object (Section 4.2.2 steps 1-4).

        Insertions remain legal after :meth:`finalize_build`, but are
        then priced under the measurement-mode assumption of a
        memory-resident directory.
        """
        if obj.oid in self.objects:
            raise StorageError(f"duplicate object id {obj.oid}")
        self.objects[obj.oid] = obj
        payload = self._store_object(obj)
        self.tree.insert(
            obj.oid, obj.mbr, load=self._entry_load(obj), payload=payload
        )

    def delete(self, oid: int) -> SpatialObject:
        """Remove an object; the tree condenses and the organization
        reclaims (or abandons, for the sequential file) its storage."""
        obj = self.objects.get(oid)
        if obj is None:
            raise StorageError(f"unknown object id {oid}")
        self.tree.delete(oid, obj.mbr)
        self._unstore_object(obj)
        del self.objects[oid]
        return obj

    def _unstore_object(self, obj: SpatialObject) -> None:
        """Release physical storage of a deleted object (default: none —
        the secondary organization's sequential file never reclaims)."""

    def _entry_load(self, obj: SpatialObject) -> int:
        """Byte load the object's entry contributes to its data page;
        organizations with byte-aware capacities override this."""
        return ENTRY_SIZE

    def build(
        self, objects: list[SpatialObject], order: str = "insertion"
    ) -> DiskStats:
        """Insert all objects, finalize, and return the construction I/O.

        ``order="insertion"`` is the paper's setting (Section 5.2:
        "the input data were unsorted").  ``order="hilbert"`` is an
        extension following the global-order line of related work
        ([HSW88], [HWZ91]): objects are inserted along the Hilbert
        curve, so consecutive insertions hit neighbouring data pages,
        which improves construction locality and tree quality.
        """
        if self._measuring:
            raise StorageError(
                "build() can run only once — the organization is already "
                "finalized into measurement mode (use insert() for "
                "further dynamic insertions)"
            )
        if order == "hilbert":
            from repro.core.hilbert import sort_by_hilbert

            bound = 1.0
            for obj in objects:
                bound = max(bound, obj.mbr.xmax, obj.mbr.ymax)
            objects = sort_by_hilbert(objects, bound)
        elif order != "insertion":
            raise StorageError(
                f"unknown build order '{order}'; valid: insertion, hilbert"
            )
        before = self.disk.stats()
        for obj in objects:
            self.insert(obj)
        self.finalize_build()
        self._construction_io = self.disk.stats() - before
        return self._construction_io

    def finalize_build(self) -> None:
        """Flush construction buffers and switch to measurement mode."""
        if self._measuring:
            return
        self._construction_pager.flush()
        self.tree.pager = self._query_pager
        self._measuring = True

    @property
    def construction_io(self) -> DiskStats:
        """I/O statistics of the :meth:`build` call (Figure 5)."""
        return self._construction_io

    # ------------------------------------------------------------------
    # queries: filter, retrieval, refinement (Section 2)
    # ------------------------------------------------------------------
    def window_query(self, window: Rect) -> QueryResult:
        """Filter + refinement window query (Section 2)."""
        return self._window_queries([window], None)[0]

    def point_query(self, x: float, y: float) -> QueryResult:
        """Filter + refinement point query (Section 2)."""
        return self._point_queries([(x, y)], None)[0]

    def window_query_batch(self, windows: list[Rect]) -> list[QueryResult]:
        """Run a window workload through the flat batch path: one
        whole-tree traversal filters all queries at once, then each
        query submits a *single* merged access plan (its node reads
        followed by its object transfers); the exact polyline tests of
        the whole batch run as one refinement kernel call.

        Element ``i`` equals ``window_query(windows[i])`` exactly —
        answers, candidate counts and per-query I/O statistics — the
        queries just spend far less Python time getting there.  When
        the flat path cannot guarantee that (scalar-kernel mode, a
        swapped-in caching/prefetching pool, a non-sync scheduler), the
        queries filter and retrieve one by one.
        """
        batched = (
            self.tree.window_leaves_batch(windows)
            if windows and self._batchable()
            else None
        )
        return self._window_queries(windows, batched)

    def point_query_batch(
        self, points: list[tuple[float, float]]
    ) -> list[QueryResult]:
        """Batched point queries; element ``i`` equals
        ``point_query(*points[i])`` exactly (see
        :meth:`window_query_batch`)."""
        batched = (
            self.tree.point_leaves_batch(points)
            if points and self._batchable()
            else None
        )
        return self._point_queries(points, batched)

    def _batchable(self) -> bool:
        """True when the merged-plan batch path prices bit-identically
        to per-query execution: the measurement-mode pager must share
        this organization's pool, the scheduler must be the plain sync
        scheduler (plan boundaries are pricing-neutral there; the
        overlap scheduler dispatches per plan on the virtual clock),
        and no prefetcher may be consulted per plan."""
        pager = self.tree.pager
        if pager is not self._query_pager or pager.pool is not self.pool:
            return False
        pool = self.pool
        if getattr(pool, "prefetcher", None) is not None:
            return False
        # Exact type check: OverlapScheduler subclasses SyncScheduler.
        return type(getattr(pool, "scheduler", None)) is SyncScheduler

    def _window_queries(self, windows: list[Rect], batched) -> list[QueryResult]:
        refinement = _Refinement()
        results = []
        for window, leaves in zip(windows, batched or repeat(None)):
            result, candidates, rows = self._fetch(window, False, leaves)
            refinement.window(result, window, candidates, rows)
            results.append(result)
        refinement.run()
        return results

    def _point_queries(
        self, points: list[tuple[float, float]], batched
    ) -> list[QueryResult]:
        refinement = _Refinement()
        results = []
        for (x, y), leaves in zip(points, batched or repeat(None)):
            result, candidates, _rows = self._fetch(Rect(x, y, x, y), True, leaves)
            refinement.point(result, x, y, candidates)
            results.append(result)
        refinement.run()
        return results

    def _retrieve(
        self,
        groups: list[LeafGroup],
        window: Rect,
        selective: bool,
        candidates: list[SpatialObject],
        rows: list[np.ndarray],
    ) -> None:
        """Single-query retrieval: submit :meth:`_plan_retrieve`'s
        requests as one access plan per data-page group
        (``plan_per_group``) or one per query."""
        label = f"{self.name}.retrieve"
        for chunk in [[g] for g in groups] if self.plan_per_group else [groups]:
            plan = AccessPlan(label)
            self._plan_retrieve(plan, chunk, window, selective, candidates, rows)
            if plan:
                self.pool.submit(plan)

    def _fetch(self, rect: Rect, selective: bool, leaves):
        """Filter and retrieval step of one query: the candidates in
        read order, their MBR rows, and a result carrying the counts
        and the query's I/O statistics (refinement is pure CPU, so the
        statistics are final here).

        ``leaves`` is the query's ``(visited, groups)`` from the flat
        traversal — its node reads and object transfers go into one
        merged plan (plan boundaries are pricing-neutral under the sync
        scheduler) — or ``None`` to walk the tree, pricing node reads
        as they happen, and :meth:`_retrieve` the objects."""
        result = QueryResult()
        before = self.disk.stats()
        candidates: list[SpatialObject] = []
        rows: list[np.ndarray] = []
        if leaves is None:
            groups = self.tree.window_leaves(rect)
            self._retrieve(groups, rect, selective, candidates, rows)
        else:
            visited, groups = leaves
            plan = AccessPlan(f"{self.name}.retrieve")
            self._query_pager.plan_reads(visited, plan)
            self._plan_retrieve(plan, groups, rect, selective, candidates, rows)
            if plan:
                self.pool.submit(plan)
        result.io = self.disk.stats() - before
        result.candidates = len(candidates)
        result.bytes_retrieved = sum(map(_SIZE, candidates))
        return result, candidates, rows

    # ------------------------------------------------------------------
    # buffer-pool wiring
    # ------------------------------------------------------------------
    def _drop_frames(self, extent) -> None:
        """Invalidate pool frames of a freed/relocated extent (its page
        numbers may be re-allocated for different content), and release
        the extent's placement pin on a sharded backing store — stale
        pins would route the re-allocated pages to the wrong shard."""
        for page in extent.pages():
            self.pool.discard(page)
        self.pool.forget_extent(extent)

    @contextmanager
    def use_pool(self, pool: BufferPool) -> Iterator[BufferPool]:
        """Temporarily route all of this organization's page traffic —
        object/unit reads and the query pager's node I/O — through a
        (typically shared, caching) buffer pool.  The workload engine
        and policy ablations use this; on exit the original pool is
        restored."""
        previous = self.pool
        self.pool = pool
        self._query_pager.pool = pool
        try:
            yield pool
        finally:
            self.pool = previous
            self._query_pager.pool = previous

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def tree_pages(self) -> int:
        """Pages occupied by the R*-tree itself."""
        return self.tree.node_count()

    def __len__(self) -> int:
        return len(self.objects)

    def pages_for(self, size_bytes: int) -> int:
        return -(-size_bytes // self.page_size)
