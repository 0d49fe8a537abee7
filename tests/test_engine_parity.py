"""The one-loop workload engine against the three loops it replaced.

``ReferenceEngine`` carries the previous ``run`` / ``run_sessions`` /
``run_traffic`` bodies (and the private helpers only they used)
verbatim: three separate loops with their own dispatch, accounting and
tracing.  Over {run, sessions, traffic} x {sync, overlap} x {1, 4 disks}
x {no prefetch, cluster prefetch} x {no admission, priority} x {traced,
untraced} the single-loop engine must reproduce every report field
(latency lists, makespan, prefetch counters), the metrics snapshot,
and — for traced round-robin runs — every span and instant.  The one
intended difference: ``ClientStats.sessions`` now counts 1 per plain
client (the reference left it at 0).

A traced traffic run (which the reference never traced) is checked
against its own invariants: no open spans, one session span per session
opened at its arrival, one operation span per operation, per-disk span
totals equal to the device time, and a report equal to the untraced run.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush

import pytest

from repro.database import SpatialDatabase
from repro.errors import ConfigurationError
from repro.iosched.admission import PriorityAdmission, admission_name, make_admission
from repro.iosched.scheduler import OverlapScheduler, scheduler_name
from repro.obs import trace as _obs
from repro.obs.trace import Tracer, register_store_devices, tracing
from repro.workload.engine import (
    ClientStats,
    PhaseStats,
    SessionsReport,
    TrafficReport,
    WorkloadEngine,
    WorkloadReport,
)
from repro.workload.streams import mixed_stream
from repro.workload.traffic import class_of_session, make_traffic

from tests.conftest import make_objects

SMAX = 16 * 4096
SPACE = 10_000.0


class ReferenceEngine(WorkloadEngine):
    """The three separate loops of the previous engine, kept verbatim."""

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
        scheduler = self._timed_scheduler()
        tracer = _obs.ACTIVE
        session_span = None
        if tracer is not None:
            tracer.use_virtual_clock(scheduler is not None)
            tracer.set_track("main")
            session_span = tracer.begin(
                "session",
                cat="session",
                ts=0.0 if scheduler is not None else None,
                parent=None,
                args={"client": "main"},
            )
        prefetch_mark = self.pool.prefetch_stats()
        phases: dict[str, PhaseStats] = {}
        with self.storage.use_pool(self.pool):
            for op in operations:
                self._snapshot()
                if scheduler is not None:
                    started = scheduler.clock.client_time("main")
                    op_span = self._begin_op(tracer, session_span, started)
                    with scheduler.operation("main"):
                        kind, results = self._execute(op)
                    waited = scheduler.clock.client_time("main") - started
                    self._end_op(tracer, op_span, kind, started + waited)
                else:
                    op_span = self._begin_op(tracer, session_span, None)
                    kind, results = self._execute(op)
                    self._end_op(tracer, op_span, kind, None)
                    waited = None
                phase = phases.get(kind)
                if phase is None:
                    phase = phases[kind] = PhaseStats(kind)
                    report.phases.append(phase)
                phase.operations += 1
                phase.results += results
                latency = self._account(phase, response_ms=waited)
                phase.latencies.append(latency)
                self.pool.metrics.histogram("op.latency_ms", phase=kind).observe(
                    latency
                )
            self._flush_phase(report, scheduler)
        self._fold_prefetch(report, prefetch_mark)
        if tracer is not None:
            tracer.end(session_span)
        return report

    @staticmethod
    def _begin_op(tracer, session_span, started):
        """Open an operation span under the client's session span; the
        kind is only known after execution, so it starts as ``op`` and
        :meth:`_end_op` renames it."""
        if tracer is None:
            return None
        if started is not None:
            tracer.virtual_now = started
        return tracer.begin(
            "op", cat="operation", ts=started, parent=session_span
        )

    @staticmethod
    def _end_op(tracer, op_span, kind, finished):
        if tracer is None:
            return
        op_span.name = kind
        tracer.end(op_span, ts=finished)

    def _fold_prefetch(self, report: WorkloadReport, mark) -> None:
        """Record the run's prefetch accuracy delta in the report."""
        now = self.pool.prefetch_stats()
        report.prefetch_issued = now["issued"] - mark["issued"]
        report.prefetch_pages = now["pages"] - mark["pages"]
        report.prefetch_useful = now["useful"] - mark["useful"]
        report.prefetch_wasted = now["wasted"] - mark["wasted"]

    def _timed_scheduler(self) -> OverlapScheduler | None:
        """The pool's scheduler when it times operations on a virtual
        clock (reset so this run measures from zero — stale disk queues
        and client timelines from earlier traffic must not leak into
        the makespan), else ``None``."""
        scheduler = self.pool.scheduler
        if isinstance(scheduler, OverlapScheduler):
            scheduler.reset()
            return scheduler
        return None

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
        percentiles (p50/p95) either way.
        """
        pairs = (
            list(sessions.items())
            if isinstance(sessions, dict)
            else [(name, ops) for name, ops in sessions]
        )
        admission_policy = make_admission(admission)
        scheduler = self._timed_scheduler()
        timed = scheduler is not None
        if admission_policy is not None and not timed:
            raise ConfigurationError(
                "admission control needs the overlap scheduler — "
                "admission delays live on the virtual clock"
            )
        previous_admission = scheduler.admission if timed else None
        if admission_policy is not None:
            scheduler.admission = admission_policy
            admission_policy.reset()
        report = SessionsReport(
            policy=self.pool.policy,
            buffer_pages=self.pool.capacity,
            scheduler=scheduler_name(self.pool.scheduler),
            admission=admission_name(
                scheduler.admission if timed else None
            ),
        )
        phases: dict[str, PhaseStats] = {}
        clients: list[ClientStats] = []
        queues: list[tuple[ClientStats, deque]] = []
        for name, ops in pairs:
            stats = ClientStats(str(name))
            clients.append(stats)
            queues.append((stats, deque(ops)))
        report.clients = clients
        tracer = _obs.ACTIVE
        session_spans: dict[str, object] = {}
        if tracer is not None:
            tracer.use_virtual_clock(timed)
            for client in clients:
                session_spans[client.name] = tracer.begin(
                    "session",
                    cat="session",
                    track=client.name,
                    ts=0.0 if timed else None,
                    parent=None,
                    args={"client": client.name},
                )
        prefetch_mark = self.pool.prefetch_stats()
        try:
            with self.storage.use_pool(self.pool):
                while any(queue for _, queue in queues):
                    for client, queue in queues:
                        if not queue:
                            continue
                        op = queue.popleft()
                        self._snapshot()
                        if tracer is not None:
                            tracer.set_track(client.name)
                        if timed:
                            started = scheduler.clock.client_time(client.name)
                            queued_mark = scheduler.client_queueing_ms(
                                client.name
                            )
                            op_span = self._begin_op(
                                tracer, session_spans.get(client.name), started
                            )
                            with scheduler.operation(client.name):
                                kind, results = self._execute(op)
                            waited = (
                                scheduler.clock.client_time(client.name)
                                - started
                            )
                            self._end_op(tracer, op_span, kind, started + waited)
                            client.queueing_ms += (
                                scheduler.client_queueing_ms(client.name)
                                - queued_mark
                            )
                        else:
                            op_span = self._begin_op(
                                tracer, session_spans.get(client.name), None
                            )
                            kind, results = self._execute(op)
                            self._end_op(tracer, op_span, kind, None)
                            waited = self.storage.disk.cost_since(
                                self._measure_mark
                            ).response_ms
                        phase = phases.get(kind)
                        if phase is None:
                            phase = phases[kind] = PhaseStats(kind)
                            report.phases.append(phase)
                        phase.operations += 1
                        phase.results += results
                        device_before = phase.io.total_ms
                        self._account(phase, response_ms=waited)
                        phase.latencies.append(waited)
                        client.operations += 1
                        client.results += results
                        client.response_ms += waited
                        client.latencies.append(waited)
                        client.device_ms += phase.io.total_ms - device_before
                        self.pool.metrics.histogram(
                            "op.latency_ms", client=client.name
                        ).observe(waited)
                self._flush_phase(report, scheduler)
        finally:
            if admission_policy is not None:
                scheduler.admission = previous_admission
        self._fold_prefetch(report, prefetch_mark)
        if timed:
            report.makespan_ms = scheduler.clock.makespan
        else:
            report.makespan_ms = report.total_response_ms
        if tracer is not None:
            for client in clients:
                span = session_spans.get(client.name)
                if span is not None:
                    tracer.end(
                        span,
                        ts=(
                            scheduler.clock.client_time(client.name)
                            if timed
                            else None
                        ),
                    )
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
        Traffic needs the overlap scheduler; per-operation span tracing
        is not emitted (a 10^5-session trace would be unreadable —
        use :meth:`run_sessions` for traced small-scale replays).

        ``admission`` installs an admission policy for this run only,
        exactly as in :meth:`run_sessions` — but here a throttled
        operation is *re-queued* on the event heap at its admitted time
        rather than served in arrival order, so unthrottled traffic
        genuinely overtakes paced bulk work.  ``arrival`` labels the
        report.
        """
        sessions = list(sessions)
        scheduler = self._timed_scheduler()
        if scheduler is None:
            raise ConfigurationError(
                "traffic runs need the overlap scheduler — arrivals and "
                "queueing live on the virtual clock"
            )
        admission_policy = make_admission(admission)
        previous_admission = scheduler.admission
        if admission_policy is not None:
            scheduler.admission = admission_policy
            admission_policy.reset()
        saved_metrics = scheduler.metrics
        scheduler.metrics = None
        report = TrafficReport(
            policy=self.pool.policy,
            buffer_pages=self.pool.capacity,
            scheduler=scheduler_name(self.pool.scheduler),
            admission=admission_name(scheduler.admission),
            arrival=arrival,
            sessions=len(sessions),
        )
        phases: dict[str, PhaseStats] = {}
        classes: dict[str, ClientStats] = {}
        class_hists: dict[str, object] = {}
        clock = scheduler.clock
        # Event heap of (ready_ms, session_index, operation_index,
        # first_ready_ms) — the last element survives admission
        # re-queues so latency stays measured from the time the
        # operation first became ready.
        heap = [
            (s.arrival_ms, i, 0, s.arrival_ms)
            for i, s in enumerate(sessions)
            if s.operations
        ]
        heapify(heap)
        prefetch_mark = self.pool.prefetch_stats()
        try:
            with self.storage.use_pool(self.pool):
                while heap:
                    ready, index, step, first_ready = heappop(heap)
                    session = sessions[index]
                    name = session.name
                    admission = scheduler.admission
                    if admission is not None:
                        # A throttled operation re-enters the event
                        # queue at its admitted time instead of holding
                        # its slot, so other clients' ready work
                        # overtakes it — the reordering that lets
                        # interactive operations pass paced bulk work.
                        # (Token buckets admit idempotently: when the
                        # re-queued event pops, the drained bucket has
                        # refilled to exactly zero and the scheduler's
                        # own admit adds no second wait.)
                        admitted = admission.admit(name, ready, clock)
                        if admitted > ready:
                            heappush(heap, (admitted, index, step, first_ready))
                            continue
                    clock.wait(name, ready)
                    queued_mark = scheduler.client_queueing_ms(name)
                    self._snapshot()
                    with scheduler.operation(name):
                        kind, results = self._execute(session.operations[step])
                    done = clock.client_time(name)
                    waited = done - first_ready
                    phase = phases.get(kind)
                    if phase is None:
                        phase = phases[kind] = PhaseStats(kind)
                        report.phases.append(phase)
                    phase.operations += 1
                    phase.results += results
                    device_before = phase.io.total_ms
                    self._account(phase, response_ms=waited)
                    phase.latencies.append(waited)
                    klass = classes.get(session.klass)
                    if klass is None:
                        klass = classes[session.klass] = ClientStats(
                            session.klass
                        )
                        report.classes.append(klass)
                        class_hists[session.klass] = self.pool.metrics.histogram(
                            "op.latency_ms", **{"class": session.klass}
                        )
                    if step == 0:
                        klass.sessions += 1
                    klass.operations += 1
                    klass.results += results
                    klass.response_ms += waited
                    klass.latencies.append(waited)
                    klass.queueing_ms += (
                        scheduler.client_queueing_ms(name) - queued_mark
                    ) + (ready - first_ready)
                    klass.device_ms += phase.io.total_ms - device_before
                    class_hists[session.klass].observe(waited)
                    step += 1
                    if step < len(session.operations):
                        follow_up = done + session.think_ms
                        heappush(heap, (follow_up, index, step, follow_up))
                self._flush_phase(report, scheduler)
        finally:
            scheduler.metrics = saved_metrics
            if admission_policy is not None:
                scheduler.admission = previous_admission
        self._fold_prefetch(report, prefetch_mark)
        report.makespan_ms = clock.makespan
        return report


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------
OBJECTS = make_objects(170, seed=23)
RESIDENT = OBJECTS[:150]
EXTRA = OBJECTS[150:]


def stream():
    return mixed_stream(
        RESIDENT,
        n_windows=8,
        n_points=4,
        inserts=EXTRA[:6],
        deletes=[0, 1, 2, 3],
        seed=3,
        data_space=SPACE,
    )


def client_streams():
    return {
        "alpha": mixed_stream(
            RESIDENT, n_windows=6, n_points=3, inserts=EXTRA[6:10], seed=4,
            data_space=SPACE,
        ),
        "beta": mixed_stream(
            RESIDENT, n_windows=5, n_points=2, deletes=[10, 11], seed=5,
            data_space=SPACE,
        ),
        "gamma": mixed_stream(
            RESIDENT, n_windows=2, n_points=1, seed=6, data_space=SPACE
        ),
        "idle": [],
    }


def traffic(n=60):
    return make_traffic(
        RESIDENT,
        n,
        rate_per_s=2000.0,
        analytics_fraction=0.3,
        ops_per_session=3,
        seed=9,
        data_space=SPACE,
    )


def priority(mode):
    if mode == "traffic":
        return PriorityAdmission(classifier=class_of_session, rate=0.02, burst_ms=5.0)
    return PriorityAdmission(classes={"beta": "analytics"}, rate=0.05, burst_ms=5.0)


def execute(engine_cls, config, work=None):
    """One run on a freshly built database; returns the report, the
    metrics snapshot and the tracer (``None`` when untraced)."""
    mode, scheduler, n_disks, prefetch, admission, traced = config
    db = SpatialDatabase(
        smax_bytes=SMAX, n_disks=n_disks, scheduler=scheduler, prefetch=prefetch
    )
    db.build(RESIDENT)
    engine = engine_cls(db.storage, db._workload_pool(64, "lru"))
    policy = priority(mode) if admission == "priority" else None

    def call():
        if mode == "run":
            return engine.run(stream())
        if mode == "sessions":
            return engine.run_sessions(client_streams(), admission=policy)
        sessions = work if work is not None else traffic()
        return engine.run_traffic(sessions, admission=policy)

    tracer = None
    if traced:
        tracer = Tracer()
        register_store_devices(tracer, db.disk)
        with tracing(tracer):
            report = call()
    else:
        report = call()
    return report, db.metrics.snapshot(), tracer


def span_rows(tracer):
    def args(a):
        return None if a is None else sorted(a.items())

    spans = [
        (
            s.name,
            s.cat,
            s.track,
            s.start_ms,
            s.end_ms,
            None if s.parent is None else s.parent.name,
            args(s.args),
        )
        for s in tracer.spans
    ]
    instants = [
        (i.name, i.cat, i.track, i.ts_ms, args(i.args)) for i in tracer.instants
    ]
    return spans, instants


def matrix():
    for mode in ("run", "sessions", "traffic"):
        for scheduler in ("sync", "overlap"):
            if mode == "traffic" and scheduler == "sync":
                continue
            for n_disks in (1, 4):
                for prefetch in (None, "cluster"):
                    for admission in ("none", "priority"):
                        if admission == "priority" and (
                            mode == "run" or scheduler == "sync"
                        ):
                            continue
                        for traced in (False, True):
                            yield mode, scheduler, n_disks, prefetch, admission, traced


CASES = list(matrix())


def test_matrix_covers_56_configurations():
    assert len(CASES) == 56


@pytest.mark.parametrize(
    "mode,scheduler,n_disks,prefetch,admission,traced",
    CASES,
    ids=["-".join(str(part) for part in case) for case in CASES],
)
def test_engine_matches_reference(
    mode, scheduler, n_disks, prefetch, admission, traced
):
    config = (mode, scheduler, n_disks, prefetch, admission, traced)
    report, metrics, tracer = execute(WorkloadEngine, config)
    expected, expected_metrics, expected_tracer = execute(ReferenceEngine, config)
    if mode == "sessions":
        # The only intended change: a plain client is one session.
        streams = client_streams()
        for client in report.clients:
            assert client.sessions == (1 if streams[client.name] else 0)
        for client in expected.clients:
            assert client.sessions == 0
            client.sessions = 1 if streams[client.name] else 0
    assert report.operations > 0
    assert report == expected
    assert [p.latencies for p in report.phases] == [
        p.latencies for p in expected.phases
    ]
    assert metrics == expected_metrics
    if traced and mode != "traffic":
        assert span_rows(tracer) == span_rows(expected_tracer)
        assert tracer.open_spans() == []


def test_plain_client_counts_one_session():
    db = SpatialDatabase(smax_bytes=SMAX)
    db.build(RESIDENT)
    report = db.run_sessions(client_streams(), buffer_pages=64)
    assert report.client("alpha").sessions == 1
    assert report.client("idle").sessions == 0


# ----------------------------------------------------------------------
# traced traffic
# ----------------------------------------------------------------------
def test_traced_traffic():
    sessions = traffic(200)
    plain, plain_metrics, _ = execute(
        WorkloadEngine,
        ("traffic", "overlap", 4, "cluster", "priority", False),
        sessions,
    )
    db = SpatialDatabase(
        smax_bytes=SMAX, n_disks=4, scheduler="overlap", prefetch="cluster"
    )
    db.build(RESIDENT)
    devices = list(db.disk.disks)
    before = [d.total_ms for d in devices]
    tracer = Tracer()
    register_store_devices(tracer, db.disk)
    engine = WorkloadEngine(db.storage, db._workload_pool(64, "lru"))
    with tracing(tracer):
        report = engine.run_traffic(sessions, admission=priority("traffic"))

    assert report == plain
    assert db.metrics.snapshot() == plain_metrics
    assert tracer.open_spans() == []
    session_spans = [s for s in tracer.spans if s.cat == "session"]
    assert [(s.track, s.start_ms) for s in session_spans] == [
        (s.name, s.arrival_ms) for s in sessions
    ]
    op_spans = [s for s in tracer.spans if s.cat == "operation"]
    assert len(op_spans) == sum(len(s.operations) for s in sessions)
    assert all(
        s.parent.cat == "session" and s.parent.track == s.track for s in op_spans
    )
    assert sorted(s.name for s in op_spans) == sorted(
        op[0] for s in sessions for op in s.operations
    )
    totals = tracer.device_totals()
    for device, then in zip(devices, before):
        measured = device.total_ms - then
        assert totals.get(tracer.device_track(device), 0.0) == pytest.approx(
            measured, abs=1e-6
        )
