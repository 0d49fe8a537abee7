"""The page store: the device layer behind the buffer pool.

Section 7 of the paper names multi-disk parallel cluster organizations
as the next challenge; this module puts that parallelism under the
*whole* storage stack instead of a single access path.  A
:class:`PageStore` is anything that prices page requests the way
:class:`~repro.disk.model.DiskModel` does — the protocol is exactly the
request surface the :class:`~repro.buffer.pool.BufferPool` consumes, so
swapping the backing store is invisible to every pool consumer (the
three organizations, the R*-tree pager, the spatial join).

Two implementations exist:

* :class:`~repro.disk.model.DiskModel` itself — the single-disk backend
  every experiment has always used (it satisfies the protocol as-is,
  which is what keeps the paper's figures bit-identical);
* :class:`ShardedPageStore` — ``n_disks`` independent
  :class:`~repro.disk.model.DiskModel` devices behind one logical page
  address space, declustered by a pluggable
  :class:`~repro.pagestore.placement.PlacementPolicy`.

Pricing follows the declustering literature: the devices operate in
parallel, so the **response time** of a vectored request is the maximum
over the per-disk work, while the **device time** (the resource the
whole system consumes) stays the sum.  :meth:`ShardedPageStore.stats`
reports device time — aggregate accounting is therefore comparable
with a single disk — and response time is exposed separately, per
request (the return value of :meth:`ShardedPageStore.read`) and per
measurement interval (:meth:`ShardedPageStore.cost_since` /
:meth:`ShardedPageStore.measure`, which assume the interval's requests
were issued as one parallel batch).
"""

from __future__ import annotations

from typing import Iterator, Protocol, Sequence, runtime_checkable

from repro.disk.extent import Extent
from repro.disk.model import (
    DiskModel,
    DiskStats,
    VectoredCost,
    measure_costs,
)
from repro.disk.params import DiskParameters
from repro.errors import ConfigurationError
from repro.pagestore.placement import PlacementPolicy, make_placement

__all__ = [
    "PageStore",
    "ShardedPageStore",
    "StoreSnapshot",
    "VectoredCost",
    "validate_snapshot_shape",
]


class StoreSnapshot(list):
    """Per-disk statistics marker of a :class:`ShardedPageStore`.

    Behaves as the plain ``list[DiskStats]`` it always was, but also
    carries the store's *reset epoch*: :meth:`ShardedPageStore.reset`
    bumps the epoch, so ``stats_since`` / ``cost_since`` can detect a
    marker taken before a reset and measure from zero instead of
    subtracting stale totals — a pre-reset snapshot used to make
    ``cost_since`` go negative.
    """

    __slots__ = ("epoch",)

    def __init__(self, stats: Sequence[DiskStats], epoch: int):
        super().__init__(stats)
        self.epoch = epoch


def validate_snapshot_shape(snapshot, n_disks: int, store: str) -> None:
    """Refuse a per-disk snapshot whose shape does not match the store.

    ``zip`` used to truncate silently: a marker taken from a store with
    a different device count (or a single-disk :class:`DiskStats`)
    produced a plausible-looking but wrong interval measurement."""
    try:
        length = len(snapshot)
    except TypeError:
        length = -1
    if length != n_disks or not all(
        isinstance(entry, DiskStats) for entry in snapshot
    ):
        raise ConfigurationError(
            f"snapshot does not match {store}: expected {n_disks} "
            f"per-device DiskStats entries, got "
            f"{length if length >= 0 else type(snapshot).__name__}"
        )


@runtime_checkable
class PageStore(Protocol):
    """Anything the buffer pool can price page traffic against.

    :class:`~repro.disk.model.DiskModel` is the canonical single-disk
    implementation; :class:`ShardedPageStore` the multi-disk one.
    Besides the request surface, every store speaks one measurement
    surface — ``snapshot()`` / ``cost_since()`` / ``measure()`` — so
    consumers separate response time from device time without caring
    how many devices sit underneath.
    """

    params: DiskParameters

    def read(self, start: int, npages: int = 1, continuation: bool = False) -> float: ...
    def read_runs(
        self, runs: Sequence[tuple[int, int]], continuation: bool = False
    ) -> float: ...
    def write(self, start: int, npages: int = 1, continuation: bool = False) -> float: ...
    def write_runs(
        self, runs: Sequence[tuple[int, int]], continuation: bool = False
    ) -> float: ...
    def charge(self, seeks: int = 0, rotations: int = 0, pages: int = 0) -> float: ...
    def stats(self) -> DiskStats: ...
    def snapshot(self): ...
    def stats_since(self, snapshot) -> DiskStats: ...
    def cost_since(self, snapshot) -> VectoredCost: ...
    def reset(self) -> None: ...

    @property
    def total_ms(self) -> float: ...


class ShardedPageStore:
    """One logical page space declustered over ``n_disks`` devices.

    Parameters
    ----------
    n_disks:
        Number of independent disks (each a
        :class:`~repro.disk.model.DiskModel` with its own head and
        statistics).
    placement:
        Placement-policy name (``round_robin`` / ``hash`` / ``spatial``)
        or a ready :class:`~repro.pagestore.placement.PlacementPolicy`.
    params:
        Disk timing constants shared by all devices.
    chunk_pages:
        Chunk granularity of the arithmetic placement rules (forwarded
        to the policy; ``None`` keeps the policy default).

    A request spanning pages owned by several disks is split into
    per-disk fragments.  Each disk prices its first fragment with the
    caller's ``continuation`` flag (every device positions its own arm)
    and further fragments of the same request as continuations; the
    request's response time — the returned cost — is the maximum over
    the involved disks, its device time the sum (recorded in the
    per-disk statistics).
    """

    def __init__(
        self,
        n_disks: int,
        placement: str | PlacementPolicy = "round_robin",
        params: DiskParameters | None = None,
        chunk_pages: int | None = None,
    ):
        if n_disks < 1:
            raise ConfigurationError(f"need at least one disk, got {n_disks}")
        self.params = params or DiskParameters()
        self.n_disks = n_disks
        self.disks = [DiskModel(self.params) for _ in range(n_disks)]
        self.placement = make_placement(placement, chunk_pages)
        self.placement.bind(n_disks)
        self._response_ms = 0.0
        self._epoch = 0

    # ------------------------------------------------------------------
    # placement surface
    # ------------------------------------------------------------------
    def disk_of(self, page: int) -> int:
        """Index of the disk owning a page."""
        return self.placement.disk_of(page)

    def place_extent(self, extent: Extent, center=None, disk: int | None = None) -> None:
        """Pin an extent to one disk (see
        :meth:`~repro.pagestore.placement.PlacementPolicy.place_extent`)."""
        self.placement.place_extent(extent, center=center, disk=disk)

    def forget_extent(self, extent: Extent) -> None:
        """Drop the placement of a freed or relocated extent."""
        self.placement.forget_extent(extent)

    def _fragments(self, start: int, npages: int) -> Iterator[tuple[int, int, int]]:
        """Split ``[start, start + npages)`` into maximal runs owned by
        one disk; yields ``(disk, start, npages)``."""
        run_disk = self.disk_of(start)
        run_start = start
        for page in range(start + 1, start + npages):
            disk = self.disk_of(page)
            if disk != run_disk:
                yield run_disk, run_start, page - run_start
                run_disk, run_start = disk, page
        yield run_disk, run_start, start + npages - run_start

    # ------------------------------------------------------------------
    # request pricing
    # ------------------------------------------------------------------
    def _transfer(
        self,
        kind: str,
        runs: Sequence[tuple[int, int]],
        continuation: bool,
    ) -> float:
        """Price one parallel batch of runs.  Every device positions
        its own arm exactly once per batch: a disk's first fragment in
        the batch is priced with the caller's ``continuation`` flag,
        its further fragments as continuations.  As with
        :meth:`~repro.disk.model.DiskModel.read`, the flag is the
        caller's assertion that the arms involved are already
        positioned (Section 5.4.3 reads inside one cluster unit —
        units are pinned whole, so the assertion concerns one arm)."""
        # Group each disk's fragments (in issue order) and price them as
        # one batch per device: the device's first fragment carries the
        # caller's continuation flag, follow-ups are continuations —
        # exactly the per-fragment loop's flags — and large batches hit
        # the vectorized DiskModel pricer.  Per-device request sequences
        # are unchanged, so stats, heads, and costs are bit-identical.
        grouped: dict[int, list[tuple[int, int]]] = {}
        for start, npages in runs:
            for disk, frag_start, frag_pages in self._fragments(start, npages):
                frags = grouped.get(disk)
                if frags is None:
                    grouped[disk] = [(frag_start, frag_pages)]
                else:
                    frags.append((frag_start, frag_pages))
        if not grouped:
            return 0.0
        response = 0.0
        for disk, frags in grouped.items():
            cost = self.disks[disk].price_runs(frags, continuation, kind)
            if cost > response:
                response = cost
        self._response_ms += response
        return response

    def read(self, start: int, npages: int = 1, continuation: bool = False) -> float:
        """Price a read; returns its parallel response time in ms."""
        return self._transfer("read", [(start, npages)], continuation)

    def read_runs(
        self, runs: Sequence[tuple[int, int]], continuation: bool = False
    ) -> float:
        """Price one vectored batch of read runs (the buffer pool's
        coalescing scheduler) as a single declustered request."""
        return self._transfer("read", runs, continuation)

    def write(self, start: int, npages: int = 1, continuation: bool = False) -> float:
        """Price a write (same parallel model as reads)."""
        return self._transfer("write", [(start, npages)], continuation)

    def write_runs(
        self, runs: Sequence[tuple[int, int]], continuation: bool = False
    ) -> float:
        """Price one vectored batch of write runs as a single
        declustered request (the write mirror of :meth:`read_runs`)."""
        return self._transfer("write", runs, continuation)

    def read_extent(self, extent: Extent, continuation: bool = False) -> float:
        return self.read(extent.start, extent.npages, continuation)

    def write_extent(self, extent: Extent, continuation: bool = False) -> float:
        return self.write(extent.start, extent.npages, continuation)

    def charge(self, seeks: int = 0, rotations: int = 0, pages: int = 0) -> float:
        """Account an analytic cost (charged to disk 0, serial).

        Analytic charges carry no page addresses — there is nothing for
        the placement to decluster — so they price exactly as on a
        single disk (response == device time).  Consumers that price
        via ``charge`` (e.g. the spatial join's per-object transfer
        accounting) therefore report parallelism 1 for those phases;
        declustering them would first require pricing them as addressed
        reads, which would change the paper's join figures."""
        cost = self.disks[0].charge(seeks=seeks, rotations=rotations, pages=pages)
        self._response_ms += cost
        return cost

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> DiskStats:
        """Aggregate *device-time* statistics (sum over the disks) —
        directly comparable with a single disk's accounting."""
        total = DiskStats()
        for disk in self.disks:
            total = total + disk.stats()
        return total

    def per_disk_stats(self) -> list[DiskStats]:
        """Snapshot of every device's own statistics."""
        return [disk.stats() for disk in self.disks]

    @property
    def total_ms(self) -> float:
        """Total device time in milliseconds (sum over the disks)."""
        return sum(disk.total_ms for disk in self.disks)

    @property
    def response_ms(self) -> float:
        """Accumulated per-request response time: every request priced
        at the max over the disks it touched."""
        return self._response_ms

    def snapshot(self) -> StoreSnapshot:
        """Per-disk statistics marker for :meth:`cost_since` /
        :meth:`stats_since` (tagged with the current reset epoch)."""
        return StoreSnapshot(self.per_disk_stats(), self._epoch)

    def _baseline(self, snapshot: list[DiskStats]) -> list[DiskStats]:
        """The snapshot to subtract: a marker taken before the last
        :meth:`reset` is stale — its totals no longer underlie the
        current statistics — so the interval starts from zero.  A
        marker whose shape does not match this store (taken from a
        store with a different disk count, or a single-disk
        ``DiskStats``) is rejected instead of silently truncated."""
        validate_snapshot_shape(
            snapshot, len(self.disks), f"this {self.n_disks}-disk store"
        )
        if getattr(snapshot, "epoch", self._epoch) != self._epoch:
            return [DiskStats() for _ in self.disks]
        return snapshot

    def stats_since(self, snapshot: list[DiskStats]) -> DiskStats:
        """Aggregate device-time statistics delta since ``snapshot``."""
        total = DiskStats()
        for disk, before in zip(self.disks, self._baseline(snapshot)):
            total = total + disk.stats_since(before)
        return total

    def cost_since(self, snapshot: list[DiskStats]) -> VectoredCost:
        """Parallel cost of everything priced since ``snapshot``,
        treating the interval as one declustered batch: response time
        is the busiest disk's delta, device time the summed deltas."""
        per_disk = [
            (disk.stats() - before).total_ms
            for disk, before in zip(self.disks, self._baseline(snapshot))
        ]
        return VectoredCost(
            response_ms=max(per_disk, default=0.0),
            total_ms=sum(per_disk),
            per_disk_ms=per_disk,
        )

    def measure(self):
        """Context manager measuring a declustered batch::

            with store.measure() as cost:
                ...issue requests...
            print(cost.response_ms, cost.parallelism)
        """
        return measure_costs(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def invalidate_head(self) -> None:
        """Forget every device's head position."""
        for disk in self.disks:
            disk.invalidate_head()

    def reset(self) -> None:
        """Zero all statistics and forget every head position, as one
        coherent action over all devices (placement pins are kept).
        Bumps the reset epoch: snapshots taken before the reset are
        recognised as stale by :meth:`stats_since` / :meth:`cost_since`
        instead of producing negative deltas."""
        for disk in self.disks:
            disk.reset()
        self._response_ms = 0.0
        self._epoch += 1

    def reset_stats(self) -> None:
        """Zero statistics only — head positions (and placement pins)
        are preserved, so pricing of subsequent requests is unaffected.
        Bumps the reset epoch like :meth:`reset` so stale snapshots are
        measured from zero instead of going negative."""
        for disk in self.disks:
            disk.reset_stats()
        self._response_ms = 0.0
        self._epoch += 1
