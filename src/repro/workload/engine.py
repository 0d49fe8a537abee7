"""The batched workload engine.

Executes mixed streams of operations — window queries, point queries,
inserts, deletes, spatial joins and reorganization rounds — against one
organization, with all page traffic routed through a single shared
:class:`~repro.buffer.pool.BufferPool`.  This is the serving-path
counterpart of the per-figure experiment drivers: instead of measuring
one query type cold, it measures a *workload* warm, where tree pages,
cluster units and object extents compete for the same frames (the
Section 6.1 buffering regime, generalised beyond the join).

Every run goes through one operation loop.  Its input is a list of
sessions — a name, an accounting row, an operation list, an arrival
time and a think time — and it pops one event heap of ready
operations:

* :meth:`WorkloadEngine.run` is one session (``main``);
* :meth:`WorkloadEngine.run_sessions` interleaves client sessions
  round-robin — the heap key is the turn number, so the order is
  deterministic client order;
* :meth:`WorkloadEngine.run_traffic` paces generated sessions by
  arrival and think time — the heap key is the ready time, and an
  admission-throttled operation re-enters the heap at its admitted
  time.

Per operation kind the loop accumulates a :class:`PhaseStats` —
operation count, result volume, pool hits/misses and a
:class:`~repro.disk.model.DiskStats` delta — plus, for sessions and
traffic, a :class:`ClientStats` row per client or traffic class, and
finishes with a ``flush`` phase that writes back the dirty frames
through the pool's coalescing scheduler.  Under the
:class:`~repro.iosched.scheduler.OverlapScheduler` every session's
plans are timed on its own virtual-clock timeline, so declustered disks
serve different sessions concurrently and the makespan drops below the
serial response time.  With a tracer installed
(:func:`repro.obs.trace.tracing`) all three runs emit the same session
→ operation span tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from repro.buffer.policy import hit_ratio
from repro.buffer.pool import BufferPool
from repro.disk.model import DiskStats
from repro.errors import ConfigurationError
from repro.geometry.feature import SpatialObject
from repro.geometry.rect import Rect
from repro.iosched.admission import admission_name, make_admission
from repro.iosched.scheduler import OverlapScheduler, device_times, scheduler_name
from repro.obs import trace as _obs
from repro.obs.metrics import percentile as _percentile
from repro.obs.metrics import percentile_sorted as _percentile_sorted
from repro.storage.base import SpatialOrganization

__all__ = [
    "OP_KINDS",
    "PhaseStats",
    "WorkloadReport",
    "ClientStats",
    "SessionsReport",
    "TrafficReport",
    "WorkloadEngine",
    "latency_percentile",
]


def latency_percentile(latencies, q: float) -> float:
    """Nearest-rank percentile of a latency sample (0.0 when empty).

    Deterministic and interpolation-free: the reported p95 is an actual
    observed operation latency, not a synthetic midpoint.  The shared
    implementation lives in :func:`repro.obs.metrics.percentile` so the
    metrics registry's histograms report identical percentiles."""
    return _percentile(latencies, q)

OP_KINDS = ("window", "point", "insert", "delete", "join", "reorg")
"""Operation kinds understood by the engine.

Operations are plain tuples:

* ``("window", Rect)`` or ``("window", xmin, ymin, xmax, ymax)``
* ``("point", x, y)``
* ``("insert", SpatialObject)``
* ``("delete", oid)``
* ``("join", other[, technique])`` — ``other`` is a
  :class:`~repro.database.SpatialDatabase` or organization sharing this
  database's disk
* ``("reorg", Reorganizer[, budget_pages])`` — run one incremental
  reorganization round (:class:`repro.reorg.Reorganizer`), priced like
  any other operation of its session's class
"""


class _LatencySample:
    """Percentile properties over a ``latencies`` sample, shared by
    :class:`PhaseStats` and :class:`ClientStats` (both declare the
    ``latencies`` list and its ``_sorted`` cache)."""

    __slots__ = ()

    def sorted_latencies(self) -> list[float]:
        """The latencies in ascending order, sorted once per report
        (re-sorted only after new observations): percentile properties
        on a 10^5-operation row must not re-sort the sample per access."""
        cache = self._sorted
        if cache is None or len(cache) != len(self.latencies):
            cache = self._sorted = sorted(self.latencies)
        return cache

    @property
    def p50_ms(self) -> float:
        """Median per-operation latency."""
        return _percentile_sorted(self.sorted_latencies(), 0.50)

    @property
    def p95_ms(self) -> float:
        """95th-percentile per-operation latency."""
        return _percentile_sorted(self.sorted_latencies(), 0.95)

    @property
    def p99_ms(self) -> float:
        """99th-percentile per-operation latency."""
        return _percentile_sorted(self.sorted_latencies(), 0.99)


@dataclass(slots=True)
class PhaseStats(_LatencySample):
    """Accumulated statistics of one operation kind within a workload.

    ``io`` accounts **device time** (the disk resource consumed; summed
    over the devices of a sharded store), ``response_ms`` the
    **response time** the clients observed — per operation the busiest
    disk's share, so declustered execution makes it smaller than the
    device time.  On a single disk the two are equal.
    """

    kind: str
    operations: int = 0
    results: int = 0
    hits: int = 0
    misses: int = 0
    io: DiskStats = field(default_factory=DiskStats)
    response_ms: float = 0.0
    latencies: list[float] = field(default_factory=list)
    _sorted: list[float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def hit_rate(self) -> float:
        return hit_ratio(self.hits, self.misses)

    @property
    def overlap_ms(self) -> float:
        """Device time hidden from the clients by concurrent service:
        device ms minus response ms.  Positive when the disks worked in
        parallel (declustering, overlapped sessions, prefetching);
        negative when queueing behind other clients made an operation
        wait longer than its own I/O."""
        return self.io.total_ms - self.response_ms

    @property
    def parallelism(self) -> float:
        """Achieved parallel speed-up: device time / response time."""
        if self.response_ms <= 0:
            return 1.0
        return self.io.total_ms / self.response_ms


@dataclass(slots=True)
class WorkloadReport:
    """Outcome of one :meth:`WorkloadEngine.run`.

    The ``prefetch_*`` fields carry the pool's prefetch accuracy over
    this run: plans issued, pages read ahead, pages later demand-hit
    (useful) vs evicted unused (wasted).  All zero when the pool has no
    prefetcher."""

    policy: str
    buffer_pages: int
    phases: list[PhaseStats] = field(default_factory=list)
    prefetch_issued: int = 0
    prefetch_pages: int = 0
    prefetch_useful: int = 0
    prefetch_wasted: int = 0

    def phase(self, kind: str) -> PhaseStats | None:
        for p in self.phases:
            if p.kind == kind:
                return p
        return None

    @property
    def operations(self) -> int:
        return sum(p.operations for p in self.phases)

    @property
    def total_io(self) -> DiskStats:
        total = DiskStats()
        for p in self.phases:
            total = total + p.io
        return total

    @property
    def hit_rate(self) -> float:
        return hit_ratio(
            sum(p.hits for p in self.phases),
            sum(p.misses for p in self.phases),
        )

    @property
    def total_response_ms(self) -> float:
        return sum(p.response_ms for p in self.phases)

    @property
    def total_overlap_ms(self) -> float:
        """Workload-wide device time hidden by concurrent service."""
        return self.total_io.total_ms - self.total_response_ms

    def format(self, title: str | None = None) -> str:
        """Aligned per-phase table (the `repro.eval workload` output)."""
        from repro.eval.report import format_table

        rows = []
        for p in self.phases:
            rows.append(
                (
                    p.kind,
                    p.operations,
                    p.results,
                    f"{p.hit_rate:.1%}",
                    p.io.requests,
                    p.io.pages_transferred,
                    p.io.total_ms,
                    p.response_ms,
                    p.overlap_ms,
                )
            )
        rows.append(
            (
                "total",
                self.operations,
                sum(p.results for p in self.phases),
                f"{self.hit_rate:.1%}",
                self.total_io.requests,
                self.total_io.pages_transferred,
                self.total_io.total_ms,
                self.total_response_ms,
                self.total_overlap_ms,
            )
        )
        header = title or (
            f"workload: policy={self.policy}, buffer={self.buffer_pages} pages"
        )
        table = format_table(
            (
                "phase",
                "ops",
                "results",
                "hit rate",
                "requests",
                "pages",
                "device ms",
                "response ms",
                "overlap ms",
            ),
            rows,
            title=header,
        )
        if self.prefetch_pages or self.prefetch_issued:
            table += (
                f"\nprefetch: {self.prefetch_issued} plans, "
                f"{self.prefetch_pages} pages read ahead, "
                f"{self.prefetch_useful} useful, "
                f"{self.prefetch_wasted} wasted"
            )
        return table


@dataclass(slots=True)
class ClientStats(_LatencySample):
    """One client session's share of a :meth:`WorkloadEngine.run_sessions`
    workload, or one traffic class of a :meth:`WorkloadEngine.run_traffic`.

    ``response_ms`` is the time this client spent waiting for its own
    operations — under the overlap scheduler its virtual-clock session
    time, which includes queueing behind other clients; ``device_ms``
    the device time its operations consumed; ``queueing_ms`` the share
    of the response spent waiting — admission delays plus time the
    client's requests sat behind busy arms; ``latencies`` the per-
    operation response times behind the percentile properties."""

    name: str
    operations: int = 0
    results: int = 0
    response_ms: float = 0.0
    device_ms: float = 0.0
    queueing_ms: float = 0.0
    latencies: list[float] = field(default_factory=list)
    #: Sessions aggregated into this row (1 for a plain client; the
    #: per-class rows of a traffic run count their sessions here).
    sessions: int = 0
    _sorted: list[float] | None = field(
        default=None, init=False, repr=False, compare=False
    )


@dataclass(slots=True)
class SessionsReport(WorkloadReport):
    """Outcome of one :meth:`WorkloadEngine.run_sessions`.

    The per-phase table aggregates over the clients; ``clients`` breaks
    the same workload down per session.  ``makespan_ms`` is when the
    whole interleaved workload finished: under the overlap scheduler
    the virtual clock's latest event (clients *and* trailing prefetch
    work), under the sync scheduler the serial sum of the responses.
    """

    scheduler: str = "sync"
    admission: str = "none"
    makespan_ms: float = 0.0
    clients: list[ClientStats] = field(default_factory=list)

    def client(self, name: str) -> ClientStats | None:
        for c in self.clients:
            if c.name == name:
                return c
        return None

    def format(self, title: str | None = None) -> str:
        from repro.eval.report import format_table

        header = title or (
            f"sessions: scheduler={self.scheduler}, "
            f"admission={self.admission}, policy={self.policy}, "
            f"buffer={self.buffer_pages} pages"
        )
        # Explicit base call: zero-argument super() loses its class
        # cell when @dataclass(slots=True) rebuilds the class.
        parts = [WorkloadReport.format(self, header)]
        rows = [
            (
                c.name,
                c.operations,
                c.results,
                c.device_ms,
                c.response_ms,
                c.queueing_ms,
                c.p50_ms,
                c.p95_ms,
            )
            for c in self.clients
        ]
        rows.append(
            (
                "makespan",
                self.operations,
                sum(c.results for c in self.clients),
                self.total_io.total_ms,
                self.makespan_ms,
                sum(c.queueing_ms for c in self.clients),
                "",
                "",
            )
        )
        parts.append(
            format_table(
                (
                    "client",
                    "ops",
                    "results",
                    "device ms",
                    "response ms",
                    "queue ms",
                    "p50 ms",
                    "p95 ms",
                ),
                rows,
                title="per-client sessions",
            )
        )
        return "\n\n".join(parts)


@dataclass(slots=True)
class TrafficReport(WorkloadReport):
    """Outcome of one :meth:`WorkloadEngine.run_traffic`.

    The per-phase table aggregates over all sessions; ``classes``
    breaks the run down per traffic class (``interactive`` /
    ``analytics`` rows instead of one row per generated session —
    10^5-session traffic cannot report per client).  ``makespan_ms`` is
    the virtual clock's latest event; ``throughput_per_s`` the
    completed-sessions rate over that horizon.
    """

    scheduler: str = "overlap"
    admission: str = "none"
    arrival: str = "poisson"
    sessions: int = 0
    makespan_ms: float = 0.0
    classes: list[ClientStats] = field(default_factory=list)

    def traffic_class(self, name: str) -> ClientStats | None:
        for c in self.classes:
            if c.name == name:
                return c
        return None

    @property
    def throughput_per_s(self) -> float:
        """Completed sessions per virtual second of makespan."""
        if self.makespan_ms <= 0.0:
            return 0.0
        return self.sessions / (self.makespan_ms / 1000.0)

    def format(self, title: str | None = None) -> str:
        from repro.eval.report import format_table

        header = title or (
            f"traffic: arrival={self.arrival}, sessions={self.sessions}, "
            f"scheduler={self.scheduler}, admission={self.admission}, "
            f"policy={self.policy}, buffer={self.buffer_pages} pages"
        )
        # Explicit base call: zero-argument super() loses its class
        # cell when @dataclass(slots=True) rebuilds the class.
        parts = [WorkloadReport.format(self, header)]
        rows = [
            (
                c.name,
                c.sessions,
                c.operations,
                c.queueing_ms,
                c.p50_ms,
                c.p95_ms,
                c.p99_ms,
            )
            for c in self.classes
        ]
        parts.append(
            format_table(
                (
                    "class",
                    "sessions",
                    "ops",
                    "queue ms",
                    "p50 ms",
                    "p95 ms",
                    "p99 ms",
                ),
                rows,
                title="per-class latency",
            )
        )
        parts.append(
            f"makespan {self.makespan_ms:.1f} ms, "
            f"{self.throughput_per_s:.1f} sessions/s"
        )
        return "\n\n".join(parts)


class WorkloadEngine:
    """Runs operation streams against one organization and pool.

    Parameters
    ----------
    storage:
        The organization serving the workload (a
        :class:`~repro.database.SpatialDatabase`'s ``storage``).
    pool:
        The shared buffer pool all phases read and write through.
    """

    def __init__(self, storage: SpatialOrganization, pool: BufferPool):
        self.storage = storage
        self.pool = pool
        self._measure_mark = None
        self._hits_mark = 0
        self._misses_mark = 0

    # ------------------------------------------------------------------
    def run(self, operations) -> WorkloadReport:
        """Execute the stream and return the per-phase report.

        The organization's page traffic is routed through the engine's
        pool for the duration; dirty frames are written back (with
        coalesced vectored transfers) in a final ``flush`` phase and
        the original pool wiring is restored.
        """
        report = WorkloadReport(
            policy=self.pool.policy, buffer_pages=self.pool.capacity
        )
        self._serve(report, [("main", None, list(operations), 0.0, 0.0)])
        return report

    def run_sessions(self, sessions, admission=None) -> SessionsReport:
        """Execute several client streams as interleaved sessions.

        ``sessions`` maps client names to operation streams (a dict, or
        a sequence of ``(name, operations)`` pairs).  The streams are
        interleaved round-robin in client order — one operation per
        client per turn — which is deterministic: replaying the same
        streams reproduces the same request sequence bit for bit.

        All clients share this engine's pool (and therefore its I/O
        scheduler).  Under the
        :class:`~repro.iosched.scheduler.OverlapScheduler` each client
        gets its own virtual-clock session: its operations' plans
        dispatch at the client's own time, queue per disk, and overlap
        with the other clients' I/O — on a declustered store the disks
        service different clients concurrently and the makespan drops
        below the serial response time.  Under the default sync
        scheduler the same interleaving executes serially (response
        times match :meth:`run`'s accounting).

        ``admission`` installs an admission-control policy (name or
        :class:`~repro.iosched.admission.AdmissionPolicy`) on the
        overlap scheduler for this run only; admission needs the
        virtual clock, so requesting it under the sync scheduler is a
        configuration error.  The per-client statistics carry each
        session's accumulated queueing delay and per-operation latency
        percentiles (p50/p95) either way.  A name given twice is one
        client: one virtual-clock timeline and one row, counting two
        sessions.
        """
        pairs = sessions.items() if isinstance(sessions, dict) else sessions
        streams = [(str(name), str(name), list(ops), 0.0, 0.0) for name, ops in pairs]
        names = dict.fromkeys(name for name, *_ in streams)
        report = SessionsReport(
            policy=self.pool.policy,
            buffer_pages=self.pool.capacity,
            clients=[ClientStats(name) for name in names],
        )
        self._serve(report, streams, report.clients, "client", admission)
        return report

    def run_traffic(self, sessions, admission=None, arrival="poisson") -> TrafficReport:
        """Drive arriving traffic sessions through the virtual clock.

        ``sessions`` is a sequence of
        :class:`~repro.workload.traffic.TrafficSession` (or anything
        with ``name`` / ``klass`` / ``arrival_ms`` / ``operations`` /
        ``think_ms``).  An event heap orders operation readiness: a
        session's first operation becomes ready at its arrival, each
        follow-up at the previous completion plus think time — so
        open-loop arrivals pile onto the disks regardless of progress
        while closed-loop sessions pace themselves.  Ready operations
        execute in event order (deterministic: ties break on session
        index), each inside its own virtual-clock session, so 10^4-10^5
        concurrent sessions contend for arms exactly like
        :meth:`run_sessions` clients.

        Per-operation latency is measured from the operation's ready
        time (arrival-to-completion for a session's first operation),
        including admission delay and queueing behind busy arms.
        Statistics aggregate per traffic *class*, not per session —
        ``op.latency_ms{class=...}`` histograms in the pool's metrics
        registry carry the full latency distributions (p50/p95/p99) —
        and the scheduler's per-client metrics mirroring is suspended
        for the run so 10^5 generated names don't flood the registry.
        Traffic needs the overlap scheduler.  With a tracer installed
        the run is traced like :meth:`run_sessions`: one ``session``
        span per session, opened at its arrival, with one operation
        span per operation beneath it.

        ``admission`` installs an admission policy for this run only,
        exactly as in :meth:`run_sessions` — but here a throttled
        operation is *re-queued* on the event heap at its admitted time
        rather than served in arrival order, so unthrottled traffic
        genuinely overtakes paced bulk work.  ``arrival`` labels the
        report.
        """
        streams = [
            (s.name, s.klass, s.operations, s.arrival_ms, s.think_ms)
            for s in sessions
        ]
        report = TrafficReport(
            policy=self.pool.policy,
            buffer_pages=self.pool.capacity,
            arrival=arrival,
            sessions=len(streams),
        )
        self._serve(report, streams, report.classes, "class", admission, paced=True)
        return report

    def _serve(
        self,
        report: WorkloadReport,
        sessions: list[tuple],
        rows: list[ClientStats] | None = None,
        label: str = "phase",
        admission=None,
        paced: bool = False,
    ) -> None:
        """The one operation loop behind every run.

        ``sessions`` holds ``(name, row_key, operations, arrival_ms,
        think_ms)`` tuples.  One heap of ``(key, index, step,
        first_ready)`` entries orders the operations: round-robin runs
        key on the turn number (the session's step — so ties break in
        session order), ``paced`` runs on the ready time (arrival, then
        previous completion plus think time), measuring each latency
        from ``first_ready``, the time the operation first became ready.

        Per operation the report's phase row and — when ``rows`` is
        given — the ``row_key`` row of ``rows`` accumulate; latencies
        go to the pool's ``op.latency_ms{label=...}`` histogram, keyed
        by the phase when there are no rows.  With rows, the report is
        a sessions or traffic report and also gets its scheduler and
        admission names and makespan.  The virtual clock is reset so
        the run measures from zero — stale disk queues and client
        timelines from earlier traffic must not leak into the makespan.
        """
        policy = make_admission(admission)
        scheduler = self.pool.scheduler
        timed = isinstance(scheduler, OverlapScheduler)
        if timed:
            scheduler.reset()
            clock = scheduler.clock
            saved = scheduler.admission, scheduler.metrics
        elif paced:
            raise ConfigurationError(
                "traffic runs need the overlap scheduler — arrivals and "
                "queueing live on the virtual clock"
            )
        elif policy is not None:
            raise ConfigurationError(
                "admission control needs the overlap scheduler — "
                "admission delays live on the virtual clock"
            )
        if policy is not None:
            scheduler.admission = policy
            policy.reset()
        if paced:
            # 10^5 generated session names must not flood the registry.
            scheduler.metrics = None
        if rows is not None:
            report.scheduler = scheduler_name(scheduler)
            report.admission = admission_name(scheduler.admission if timed else None)
        tracer = _obs.ACTIVE
        spans = []
        if tracer is not None:
            tracer.use_virtual_clock(timed)
            spans = [
                tracer.begin(
                    "session",
                    cat="session",
                    track=name,
                    ts=arrival if timed else None,
                    parent=None,
                    args={"client": name},
                )
                for name, _, _, arrival, _ in sessions
            ]
        heap = []
        for index, (_, _, ops, arrival, _) in enumerate(sessions):
            if ops:
                key = arrival if paced else 0
                heap.append((key, index, 0, key))
        heapify(heap)
        phases: dict[str, PhaseStats] = {}
        by_key = {row.name: row for row in rows or ()}
        histograms: dict = {}
        prefetch_mark = self.pool.prefetch_stats()
        try:
            with self.storage.use_pool(self.pool):
                while heap:
                    key, index, step, first_ready = heappop(heap)
                    name, row_key, ops, _, think_ms = sessions[index]
                    if paced:
                        gate = scheduler.admission
                        if gate is not None:
                            # A throttled operation re-enters the event
                            # queue at its admitted time instead of
                            # holding its slot, so other clients' ready
                            # work overtakes it — the reordering that
                            # lets interactive operations pass paced
                            # bulk work.  (Token buckets admit
                            # idempotently: when the re-queued event
                            # pops, the drained bucket has refilled to
                            # exactly zero and the scheduler's own admit
                            # adds no second wait.)
                            admitted = gate.admit(name, key, clock)
                            if admitted > key:
                                heappush(heap, (admitted, index, step, first_ready))
                                continue
                        clock.wait(name, key)
                    self._snapshot()
                    started = clock.client_time(name) if timed else None
                    if tracer is not None:
                        tracer.set_track(name)
                        if timed:
                            tracer.virtual_now = started
                        op_span = tracer.begin(
                            "op", cat="operation", ts=started, parent=spans[index]
                        )
                    if timed:
                        if paced:
                            ready = key
                        else:
                            ready = first_ready = started
                        queued_mark = scheduler.client_queueing_ms(name)
                        with scheduler.operation(name):
                            kind, results = self._execute(ops[step])
                        done = clock.client_time(name)
                        waited = done - first_ready
                        queued = (scheduler.client_queueing_ms(name) - queued_mark) + (
                            ready - first_ready
                        )
                    else:
                        kind, results = self._execute(ops[step])
                        waited = None
                    if tracer is not None:
                        # The kind is only known after execution.
                        op_span.name = kind
                        tracer.end(op_span, ts=first_ready + waited if timed else None)
                    phase = phases.get(kind)
                    if phase is None:
                        phase = phases[kind] = PhaseStats(kind)
                        report.phases.append(phase)
                    phase.operations += 1
                    phase.results += results
                    device_before = phase.io.total_ms
                    latency = self._account(phase, response_ms=waited)
                    phase.latencies.append(latency)
                    if rows is not None:
                        row = by_key.get(row_key)
                        if row is None:
                            row = by_key[row_key] = ClientStats(row_key)
                            rows.append(row)
                        if step == 0:
                            row.sessions += 1
                        row.operations += 1
                        row.results += results
                        row.response_ms += latency
                        row.latencies.append(latency)
                        if timed:
                            row.queueing_ms += queued
                        row.device_ms += phase.io.total_ms - device_before
                    tag = kind if rows is None else row_key
                    histogram = histograms.get(tag)
                    if histogram is None:
                        histogram = histograms[tag] = self.pool.metrics.histogram(
                            "op.latency_ms", **{label: tag}
                        )
                    histogram.observe(latency)
                    step += 1
                    if step < len(ops):
                        key = done + think_ms if paced else step
                        heappush(heap, (key, index, step, key))
                self._flush_phase(report, scheduler if timed else None)
        finally:
            if timed:
                scheduler.admission, scheduler.metrics = saved
        prefetch = self.pool.prefetch_stats()
        report.prefetch_issued = prefetch["issued"] - prefetch_mark["issued"]
        report.prefetch_pages = prefetch["pages"] - prefetch_mark["pages"]
        report.prefetch_useful = prefetch["useful"] - prefetch_mark["useful"]
        report.prefetch_wasted = prefetch["wasted"] - prefetch_mark["wasted"]
        if rows is not None:
            report.makespan_ms = clock.makespan if timed else report.total_response_ms
        # Reverse opening order: each end pops the tracer's stack top
        # (forward order would search the stack — O(n^2) at 10^5).
        for session, span in zip(reversed(sessions), reversed(spans)):
            tracer.end(span, ts=clock.client_time(session[0]) if timed else None)

    def _flush_phase(
        self, report: WorkloadReport, scheduler: OverlapScheduler | None = None
    ) -> None:
        """Write back dirty frames as the report's final phase.

        Under a virtual-clock scheduler the write-back's device work is
        dispatched onto the per-disk queues (issued when the last
        client finished), so the makespan covers the flush exactly as
        the synchronous accounting does."""
        flush = PhaseStats("flush")
        self._snapshot()
        tracer = _obs.ACTIVE
        if scheduler is not None:
            issued = max(scheduler.clock.clients.values(), default=0.0)
            flush_span = None
            if tracer is not None:
                # Anchor the flush's device spans at the issue time; the
                # write-back prices outside scheduler.execute, so they
                # fall back to per-device cursors >= virtual_now.
                tracer.virtual_now = issued
                flush_span = tracer.begin(
                    "flush", cat="flush", track="main", ts=issued, parent=None
                )
            before = device_times(self.storage.disk)
            # The flush's write plans execute inline: the engine prices
            # the whole phase as one batch dispatched at the issue time
            # below — a second dispatch per plan would double-count.
            with scheduler.inline():
                self.pool.flush(coalesce=True)
            work = [
                now - then
                for now, then in zip(device_times(self.storage.disk), before)
            ]
            completion = scheduler.clock.dispatch(issued, work)
            if tracer is not None:
                tracer.end(flush_span, ts=completion)
            self._account(flush, response_ms=completion - issued)
        else:
            if tracer is not None:
                with tracer.span("flush", cat="flush", track="main"):
                    self.pool.flush(coalesce=True)
            else:
                self.pool.flush(coalesce=True)
            self._account(flush)
        if flush.io.requests:
            flush.operations = 1
            report.phases.append(flush)

    # ------------------------------------------------------------------
    def _snapshot(self) -> None:
        self._measure_mark = self.storage.disk.snapshot()
        self._hits_mark = self.pool.hits
        self._misses_mark = self.pool.misses

    def _account(self, phase: PhaseStats, response_ms: float | None = None) -> float:
        """Fold the interval since the last :meth:`_snapshot` into a
        phase; returns the operation's response-time contribution (the
        per-operation latency the percentile reporting collects)."""
        disk = self.storage.disk
        phase.io = phase.io + disk.stats_since(self._measure_mark)
        if response_ms is None:
            # Per operation, the response time is the busiest disk's
            # delta (equal to the device time on a single disk).
            response_ms = disk.cost_since(self._measure_mark).response_ms
        # Otherwise the caller timed the operation itself (a virtual-
        # clock session under the overlap scheduler).
        phase.response_ms += response_ms
        phase.hits += self.pool.hits - self._hits_mark
        phase.misses += self.pool.misses - self._misses_mark
        return response_ms

    def _execute(self, op) -> tuple[str, int]:
        """Execute one operation (the caller snapshots the statistics
        marks beforehand)."""
        if not isinstance(op, tuple) or not op:
            raise ConfigurationError(f"malformed workload operation: {op!r}")
        kind = op[0]
        if kind == "window":
            window = op[1] if isinstance(op[1], Rect) else Rect(*op[1:5])
            return kind, len(self.storage.window_query(window).objects)
        if kind == "point":
            return kind, len(self.storage.point_query(op[1], op[2]).objects)
        if kind == "insert":
            obj = op[1]
            if not isinstance(obj, SpatialObject):
                raise ConfigurationError(
                    f"insert operations carry a SpatialObject, got {obj!r}"
                )
            self.storage.insert(obj)
            return kind, 1
        if kind == "delete":
            self.storage.delete(op[1])
            return kind, 1
        if kind == "join":
            other = getattr(op[1], "storage", op[1])
            technique = op[2] if len(op) > 2 else "complete"
            from repro.join.multistep import spatial_join

            result = spatial_join(
                self.storage, other, technique=technique, pool=self.pool
            )
            return kind, result.candidate_pairs
        if kind == "reorg":
            budget = op[2] if len(op) > 2 else None
            return kind, op[1].step(budget_pages=budget)
        raise ConfigurationError(
            f"unknown workload operation '{kind}'; valid: {OP_KINDS}"
        )
