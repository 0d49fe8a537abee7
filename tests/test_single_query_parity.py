"""Single queries on the shared retrieve-and-refine core against a
per-candidate reference.

The reference organizations override ``window_query``/``point_query``
with the straightforward multi-step loop: walk every filter candidate,
declare its transfer request entry by entry (oversize/overflow extents
first, then the cluster unit), and refine it alone — the containment
shortcut then ``intersects_rect`` for windows, ``contains_point`` for
points.  Every query must agree with the reference on the answers (in
order), the candidate and exact-test counts, the retrieved bytes and
the priced I/O, under every combination of organization, scheduler,
buffer pool, prefetcher, ``Smax`` and kernel mode.
"""

from __future__ import annotations

import random
from types import MethodType

import pytest

from repro.buffer.pool import BufferPool
from repro.core import kernels
from repro.core.organization import ClusterOrganization
from repro.database import SpatialDatabase
from repro.geometry.feature import SpatialObject
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.iosched.request import AccessPlan
from repro.storage.base import QueryResult
from repro.storage.primary import PrimaryOrganization
from repro.workload.traffic import make_traffic
from tests.conftest import build_org, make_objects

SPACE = 10_000.0


def reference_retrieve(org, groups, window, selective):
    """Candidates in request order, declared one entry at a time."""
    candidates = []
    if isinstance(org, ClusterOrganization):
        for leaf, entries, _rects in groups:
            plan = AccessPlan("cluster.retrieve")
            in_unit = []
            for entry in entries:
                extent = org.oversize_extent(entry.oid)
                if extent is not None:
                    plan.read_extent(extent)
                    candidates.append(org.objects[entry.oid])
                else:
                    in_unit.append(entry.oid)
            if in_unit:
                org._read_unit(plan, leaf.tag, in_unit, leaf, window, selective)
                candidates.extend(org.objects[oid] for oid in in_unit)
            if plan:
                org.pool.submit(plan)
        return candidates
    plan = AccessPlan(f"{org.name}.retrieve")
    for _leaf, entries, _rects in groups:
        for entry in entries:
            if isinstance(org, PrimaryOrganization):
                if not org.is_inline(entry.oid):
                    plan.read_extent(org.overflow_extent(entry.oid))
            else:
                plan.read_extent(org.object_extent(entry.oid))
            candidates.append(org.objects[entry.oid])
    if plan:
        org.pool.submit(plan)
    return candidates


class ReferenceQueries:
    """Per-candidate filter, retrieval and refinement."""

    def window_query(self, window: Rect) -> QueryResult:
        result = QueryResult()
        before = self.disk.stats()
        groups = self.tree.window_leaves(window)
        candidates = reference_retrieve(self, groups, window, False)
        result.candidates = len(candidates)
        result.bytes_retrieved = sum(o.size_bytes for o in candidates)
        for obj in candidates:
            if window.contains(obj.mbr):
                result.objects.append(obj)
            else:
                result.exact_tests += 1
                if obj.intersects_rect(window):
                    result.objects.append(obj)
        result.io = self.disk.stats() - before
        return result

    def point_query(self, x: float, y: float) -> QueryResult:
        result = QueryResult()
        before = self.disk.stats()
        point = Rect(x, y, x, y)
        groups = self.tree.window_leaves(point)
        candidates = reference_retrieve(self, groups, point, True)
        result.candidates = len(candidates)
        result.bytes_retrieved = sum(o.size_bytes for o in candidates)
        for obj in candidates:
            result.exact_tests += 1
            if obj.contains_point(x, y):
                result.objects.append(obj)
        result.io = self.disk.stats() - before
        return result


def as_reference(org):
    """Switch one organization to the reference query loops."""
    org.window_query = MethodType(ReferenceQueries.window_query, org)
    org.point_query = MethodType(ReferenceQueries.point_query, org)
    org.reference = True
    return org


def mixed_objects(seed: int = 5) -> list[SpatialObject]:
    """Polylines, polygons and objects keyed by enlarged MBRs, with
    sizes up to ~2 pages (primary overflow, cluster oversize under a
    small ``Smax``)."""
    rng = random.Random(seed)
    objects = []
    for obj in make_objects(160, seed=seed, size_range=(200, 9000)):
        roll = rng.random()
        if roll < 0.15:
            x, y = obj.geometry.vertices[0]
            r = rng.uniform(10, 80)
            ring = [(x, y), (x + r, y + r / 3), (x + r / 2, y + r), (x - r / 4, y + r / 2)]
            obj = SpatialObject(obj.oid, Polygon(ring), size_bytes=obj.size_bytes)
        elif roll < 0.35:
            mbr = obj.geometry.mbr.grown(rng.uniform(5, 60))
            obj = SpatialObject(
                obj.oid, obj.geometry, size_bytes=obj.size_bytes, mbr_override=mbr
            )
        objects.append(obj)
    return objects


def query_mix(objects, seed: int = 17):
    """Windows and points of every size, plus the boundary cases:
    windows equal to an object's MBR (containment on the edges) and
    windows/points in a polygon's MBR corner outside the polygon."""
    rng = random.Random(seed)
    polygons = [o for o in objects if isinstance(o.geometry, Polygon)]
    windows = [rng.choice(objects).mbr for _ in range(4)]
    points = []
    for obj in rng.sample(polygons, 4):
        mbr = obj.mbr
        eps = (mbr.xmax - mbr.xmin) / 10
        windows.append(Rect(mbr.xmax - eps, mbr.ymax - eps, mbr.xmax + eps, mbr.ymax + eps))
        points.append((mbr.xmax - eps / 2, mbr.ymax - eps / 2))
    for _ in range(14):
        obj = rng.choice(objects)
        cx, cy = obj.mbr.center()
        half = rng.choice((15.0, 60.0, 250.0, 900.0))
        windows.append(Rect(cx - half, cy - half, cx + half, cy + half))
    for _ in range(14):
        obj = rng.choice(objects)
        if rng.random() < 0.5:
            points.append(obj.geometry.vertices[rng.randrange(2)])
        else:
            points.append(obj.mbr.center())
    return windows, points


def outcome(result: QueryResult):
    return (
        [o.oid for o in result.objects],
        result.candidates,
        result.exact_tests,
        result.bytes_retrieved,
        result.io,
    )


@pytest.fixture(scope="module")
def dataset():
    objects = mixed_objects()
    return objects, query_mix(objects)


@pytest.mark.parametrize("scalar", [False, True], ids=["vector", "scalar"])
@pytest.mark.parametrize("pool", ["passthrough", "lru64", "prefetch"])
@pytest.mark.parametrize("scheduler", ["sync", "overlap"])
@pytest.mark.parametrize(
    "kind, smax_pages",
    # Smax only sizes cluster units; one page forces oversize objects.
    [("cluster", 16), ("cluster", 1), ("primary", 16), ("secondary", 16)],
)
def test_single_queries_match_reference(
    dataset, kind, smax_pages, scheduler, pool, scalar
):
    objects, (windows, points) = dataset
    with kernels.scalar_kernels(scalar):
        orgs = [
            build_org(kind, objects, smax_bytes=smax_pages * 4096, scheduler=scheduler)
            for _ in range(2)
        ]
        as_reference(orgs[1])
        runs = []
        for org in orgs:
            cache = BufferPool(
                org.disk,
                capacity=0 if pool == "passthrough" else 64,
                scheduler=org.pool.scheduler,
                prefetcher="cluster" if pool == "prefetch" else None,
            )
            with org.use_pool(cache):
                results = [org.window_query(w) for w in windows]
                results += [org.point_query(x, y) for x, y in points]
                if getattr(org, "reference", False):
                    results += [org.window_query(w) for w in windows]
                    results += [org.point_query(x, y) for x, y in points]
                else:
                    results += org.window_query_batch(windows)
                    results += org.point_query_batch(points)
            runs.append(([outcome(r) for r in results], org.disk.stats()))
    (got, got_disk), (want, want_disk) = runs
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"query {i}"
    assert got_disk == want_disk
    # The mix exercises both refinement branches and real rejections.
    assert sum(r[2] for r in want) > 0
    assert sum(r[1] - len(r[0]) for r in want) > 0
    if kind == "cluster" and smax_pages == 1:
        assert any(org.oversize_extent(o.oid) for o in objects)
    if kind == "primary":
        assert any(not org.is_inline(o.oid) for o in objects)


def test_traffic_prices_like_reference():
    objects = mixed_objects(seed=9)
    sessions = make_traffic(
        objects, 150, rate_per_s=300.0, seed=4, pool_size=64, data_space=SPACE
    )
    reports = []
    for reference in (False, True):
        db = SpatialDatabase(smax_bytes=16 * 4096, n_disks=4, scheduler="overlap")
        db.build(objects)
        if reference:
            as_reference(db.storage)
        report = db.run_traffic(sessions, buffer_pages=96)
        reports.append(
            (
                report.makespan_ms,
                [s.total_ms for s in db.disk.per_disk_stats()],
                [(p.kind, p.operations, p.results) for p in report.phases],
                report.traffic_class("interactive").latencies,
            )
        )
    assert reports[0] == reports[1]
    assert reports[0][2]
