"""Batched workload execution over the shared buffer pool.

:class:`~repro.workload.engine.WorkloadEngine` runs mixed operation
streams (window/point queries, inserts, deletes, joins, reorganization
rounds) against one organization with all page traffic flowing through
a single :class:`~repro.buffer.pool.BufferPool`, and reports per-phase
:class:`~repro.disk.model.DiskStats` plus pool hit rates.  Its three
entry points — one stream (``run``), round-robin client sessions
(``run_sessions``) and arrival-paced traffic (``run_traffic``) — share
one event-heap operation loop, so accounting, admission and tracing
behave the same in all three.  :func:`~repro.workload.streams.mixed_stream`
builds deterministic paper-style streams,
:func:`~repro.workload.traffic.make_traffic` generates traffic
sessions, and :mod:`repro.workload.trace` persists streams as
replayable JSONL traces.  The high-level entry points are
:meth:`repro.database.SpatialDatabase.run_workload`,
:meth:`~repro.database.SpatialDatabase.run_sessions` and
:meth:`~repro.database.SpatialDatabase.run_traffic`.
"""

from repro.workload.engine import (
    OP_KINDS,
    ClientStats,
    PhaseStats,
    SessionsReport,
    TrafficReport,
    WorkloadEngine,
    WorkloadReport,
)
from repro.workload.streams import mixed_stream
from repro.workload.trace import load_trace, save_trace
from repro.workload.traffic import (
    ARRIVALS,
    TRAFFIC_CLASSES,
    TrafficSession,
    class_of_session,
    load_traffic,
    make_traffic,
    save_traffic,
)

__all__ = [
    "OP_KINDS",
    "PhaseStats",
    "ClientStats",
    "SessionsReport",
    "TrafficReport",
    "WorkloadEngine",
    "WorkloadReport",
    "mixed_stream",
    "save_trace",
    "load_trace",
    "ARRIVALS",
    "TRAFFIC_CLASSES",
    "TrafficSession",
    "class_of_session",
    "make_traffic",
    "save_traffic",
    "load_traffic",
]
