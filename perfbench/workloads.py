"""The three benchmark workloads.

Each workload generates its inputs from the seed with the in-repo
TIGER-like generator, sets up outside the clock, measures its *main
phase* for the requested number of seconds (repeating an identical
pass, so the priced ``sim_*`` figures are per pass and repeat exactly),
then runs a *query sweep* -- single queries, then the same list through
the batch API -- over the database state the main phase left behind.
For ``paper_queries`` the sweep *is* the main phase.  Every answer is
checked against :mod:`oracle`.

All timings are calibration-normalized (see :mod:`measure`).
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from statistics import median

from measure import Calibrator, peak_rss_mb, percentile
from oracle import BruteForce
from spans import NAMES, SpanRecorder

from repro import SpatialDatabase
from repro.data.series import scaled, spec_for
from repro.data.tiger import generate_map
from repro.data.workload import window_workload
from repro.reorg import Reorganizer
from repro.workload.traffic import make_traffic

SCALE = 0.08
"""Map scale: ~10.5k objects per map (the repository's default)."""

MAP_SEED = 1994
"""The maps are the repository's standard maps (the figures' seed);
``--seed`` draws the workload over them -- queries, traffic, deletions.
A map drawn per seed moves every priced figure by 10-20% between seeds
(the generator's 40 urban clusters land differently), which would
drown the differences the benchmark exists to show."""

SETUP_REPEATS = 3
"""Set-ups per untraced run; ``setup_s`` is their median."""

AREAS = (1e-5, 1e-4, 1e-3, 1e-2)
"""Window areas of the query sweep (Section 5.4), equal shares."""

SWEEP_WINDOWS_PER_AREA = 128
"""Windows per area; each window's centre is also a point query
(Section 5.5), so a sweep holds 1024 queries."""

SWEEP_BATCH = 64
"""Queries per batch-API call in the sweep's batch phase."""

CLOSING_SWEEPS = 3
"""Sweep passes after the main phase of ``traffic`` and ``lifecycle``;
their wall figures are medians (throughput) and pooled samples
(latency) over the passes, as for ``paper_queries``."""

TRAFFIC_DISKS = 4
TRAFFIC_STREAMS = 12
TRAFFIC_SESSIONS = 1000
"""Sessions per stream.  A traffic pass runs :data:`TRAFFIC_STREAMS`
independent session lists, each drawn with its own query pools, and
pools their figures: one list's 512-window hot set decides its hit rate,
and the interactive median sits on the cliff between cache hits (0 ms)
and misses, so a single list moves the latency percentiles by 20-40%
between seeds."""
TRAFFIC_RATE_PER_S = 14.0
TRAFFIC_POOL_PAGES = 1024
TRAFFIC_SAMPLE = 200
BACKLOG_LIMIT = 0.05
"""Largest backlog (makespan minus the last arrival, summed over the
streams) the traffic may leave, as a share of the summed arrival spans;
beyond it the offered load is past the disks' capacity and the run
measures an overload, not the stable serving point it claims."""

JOIN_BUFFER_PAGES = 128
"""The Fig. 14 join buffer (1600 pages at full scale) scaled to 0.08."""

REORG_BUDGET_PAGES = 64
REORG_ROUND_CAP = 64


@dataclass
class Outcome:
    """What a workload run reports."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, ops: int, what: str) -> None:
        """Count ``ops`` attempted operations; all of them fail when
        the check does not hold."""
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.fail(what)

    def fail(self, what: str) -> None:
        """Record a failed check; any failure makes the run incorrect."""
        if len(self.problems) < 20:
            self.problems.append(what)


# ----------------------------------------------------------------------
# inputs and set-up
# ----------------------------------------------------------------------
def make_map(key: str):
    spec = scaled(spec_for(key), SCALE)
    return spec, generate_map(spec, seed=MAP_SEED)


def cluster_db(spec, **kwargs) -> SpatialDatabase:
    return SpatialDatabase(
        organization="cluster",
        smax_bytes=spec.smax_bytes,
        technique="complete",
        **kwargs,
    )


def built_db(spec, objects, **kwargs) -> SpatialDatabase:
    """A built database ready for timing: the lazy flat snapshot is
    made and construction I/O is cleared from every counter."""
    db = cluster_db(spec, **kwargs)
    db.build(objects)
    db.storage.tree.flat_snapshot()
    db.reset_stats()
    return db


def timed_setups(cal: Calibrator, repeats: int, setup):
    """Run ``setup`` ``repeats`` times; returns the last result, the
    median normalized set-up seconds and the median of the normalized
    build seconds ``setup`` reports through its second return value."""
    totals, builds = [], []
    result = None
    for _ in range(repeats):
        # Drop the previous set-up first: two databases alive at once
        # would make the peak memory depend on collection timing.
        result = None
        gc.collect()
        t0 = time.perf_counter()
        result, build_span = setup()
        t1 = time.perf_counter()
        totals.append(cal.normalized(t0, t1))
        if build_span is not None:
            builds.append(cal.normalized(*build_span))
    return result, median(totals), (median(builds) if builds else None)


def sweep_batches(objects, seed: int) -> list[tuple[list, list]]:
    """The query sweep: windows at every area plus their centres as
    point queries, shuffled by seed and cut into fixed-size batches.
    Within a batch the windows go first, then the points; the single
    phase sends the queries in that same order, so both phases issue
    identical request sequences to the disk."""
    ops: list[tuple] = []
    for area in AREAS:
        windows = window_workload(
            objects, area, n_queries=SWEEP_WINDOWS_PER_AREA, seed=seed + 17
        )
        ops.extend(("window", w) for w in windows)
        ops.extend(("point",) + w.center() for w in windows)
    random.Random(seed + 19).shuffle(ops)
    batches = []
    for lo in range(0, len(ops), SWEEP_BATCH):
        chunk = ops[lo : lo + SWEEP_BATCH]
        batches.append(
            (
                [op[1] for op in chunk if op[0] == "window"],
                [(op[1], op[2]) for op in chunk if op[0] == "point"],
            )
        )
    return batches


def expected_answers(oracle: BruteForce, batches) -> list[tuple[int, ...]]:
    answers = []
    for windows, points in batches:
        answers.extend(oracle.window(w) for w in windows)
        answers.extend(oracle.point(x, y) for x, y in points)
    return answers


# ----------------------------------------------------------------------
# the query sweep (single API, then batch API)
# ----------------------------------------------------------------------
@dataclass
class SweepPass:
    single: list  # (answer oids, priced ms) per query
    batch: list
    latencies_s: list[float]  # normalized, per single query
    single_s: float
    batch_s: float


def _outcome(result) -> tuple[tuple[int, ...], float]:
    return tuple(o.oid for o in result.objects), result.io.total_ms


def sweep_pass(db: SpatialDatabase, batches, cal: Calibrator) -> SweepPass:
    org = db.storage
    clock = time.perf_counter
    # Both phases start from a forgotten head position, so their first
    # requests price alike whatever ran before.
    gc.collect()
    db.disk.invalidate_head()
    results, stamps = [], []
    start = clock()
    for windows, points in batches:
        for window in windows:
            t0 = clock()
            result = org.window_query(window)
            stamps.append((t0, clock()))
            results.append(result)
        for x, y in points:
            t0 = clock()
            result = org.point_query(x, y)
            stamps.append((t0, clock()))
            results.append(result)
    end = clock()
    single = [_outcome(r) for r in results]
    latencies = [cal.normalized(t0, t1) for t0, t1 in stamps]
    single_s = cal.normalized(start, end)

    gc.collect()
    db.disk.invalidate_head()
    results = []
    start = clock()
    for windows, points in batches:
        results.extend(org.window_query_batch(windows))
        results.extend(org.point_query_batch(points))
    end = clock()
    return SweepPass(
        single=single,
        batch=[_outcome(r) for r in results],
        latencies_s=latencies,
        single_s=single_s,
        batch_s=cal.normalized(start, end),
    )


def check_sweep(out: Outcome, sweep: SweepPass, expected, reference) -> None:
    """Every answer must equal the brute-force scan, and both phases
    must agree exactly with the reference pass on answers and priced
    milliseconds."""
    for phase, outcomes in (("single", sweep.single), ("batch", sweep.batch)):
        for index, (got, want, ref) in enumerate(
            zip_longest(outcomes, expected, reference)
        ):
            out.check(
                got is not None and tuple(sorted(got[0])) == want and got == ref,
                1,
                f"sweep {phase} query {index}: answers or priced ms differ",
            )


def closing_sweeps(out: Outcome, db, batches, expected, cal) -> list[SweepPass]:
    sweeps = [sweep_pass(db, batches, cal) for _ in range(CLOSING_SWEEPS)]
    for sweep in sweeps:
        check_sweep(out, sweep, expected, sweeps[0].single)
    return sweeps


def sweep_metrics(out: Outcome, sweeps: list[SweepPass]) -> None:
    n = len(sweeps[0].single)
    latencies = [s for sweep in sweeps for s in sweep.latencies_s]
    out.metrics["batch_ops_per_s"] = median(n / s.batch_s for s in sweeps)
    out.metrics["op_p50_ms"] = percentile(latencies, 0.50) * 1e3
    out.metrics["op_p99_ms"] = percentile(latencies, 0.99) * 1e3
    out.details["op_latency_samples"] = len(latencies)
    out.details["sweep_queries"] = n
    out.details["sweep_passes"] = len(sweeps)


def priced_percentiles(out: Outcome, sweep: SweepPass) -> None:
    priced = [ms for _answers, ms in sweep.single]
    out.metrics["sim_p50_ms"] = percentile(priced, 0.50)
    out.metrics["sim_p95_ms"] = percentile(priced, 0.95)


def disk_metrics(stats) -> dict[str, float]:
    return {
        "disk.seek_ms": stats.seek_ms,
        "disk.latency_ms": stats.latency_ms,
        "disk.transfer_ms": stats.transfer_ms,
        "disk.pages": stats.pages_transferred,
    }


# ----------------------------------------------------------------------
# traced pass
# ----------------------------------------------------------------------
def layer_metrics(
    recorder: SpanRecorder, raw_s: float, traced_s: float, untraced_s: float
) -> dict[str, float]:
    """Per-layer figures of one traced pass.  Span times are raw wall
    nanoseconds; they are scaled by the pass's normalization factor so
    they sum to the normalized pass time like every other figure."""
    self_s, calls, root_s = recorder.layer_times()
    scale = traced_s / raw_s
    metrics: dict[str, float] = {}
    for layer in NAMES:
        metrics[f"{layer}.self_s"] = self_s[layer] * scale
        metrics[f"{layer}.calls"] = calls[layer]
    hits, misses, evictions = recorder.pool_counts()
    metrics["buffer.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["buffer.evictions"] = evictions
    metrics["storage.candidates"] = recorder.candidates
    metrics["storage.answers"] = recorder.answers
    metrics["storage.exact_tests"] = recorder.exact_tests
    metrics["storage.answer_ratio"] = (
        recorder.answers / recorder.candidates if recorder.candidates else 0.0
    )
    metrics["bench.unattributed_s"] = max(raw_s - root_s, 0.0) * scale
    metrics["bench.trace_overhead"] = traced_s / untraced_s - 1.0
    for name in (
        "disk.seek_ms",
        "disk.latency_ms",
        "disk.transfer_ms",
        "disk.pages",
        "pagestore.util_max",
        "pagestore.util_mean",
        "iosched.queueing_ms",
        "join.candidate_pairs",
        "join.result_pairs",
        "join.answer_ratio",
        "reorg.moved_pages",
        "reorg.quality",
    ):
        metrics.setdefault(name, 0.0)
    return metrics


def traced(cal: Calibrator, recorder: SpanRecorder, run_pass):
    """Run one pass with the span recorder cleared first; returns the
    pass result and its raw and normalized seconds."""
    gc.collect()
    recorder.clear()
    t0 = time.perf_counter()
    result = run_pass()
    t1 = time.perf_counter()
    return result, t1 - t0, cal.normalized(t0, t1)


# ----------------------------------------------------------------------
# paper_queries
# ----------------------------------------------------------------------
def paper_queries(
    seed: int, seconds: float, trace: bool, cal: Calibrator, out_dir: Path
) -> Outcome:
    out = Outcome()

    def setup():
        spec, objects = make_map("A-1")
        t0 = time.perf_counter()
        db = built_db(spec, objects)
        return (spec, objects, db), (t0, time.perf_counter())

    (spec, objects, db), setup_s, build_s = timed_setups(
        cal, 1 if trace else SETUP_REPEATS, setup
    )
    batches = sweep_batches(objects, seed)
    expected = expected_answers(BruteForce(objects), batches)

    if trace:
        untraced = sweep_pass(db, batches, cal)
        recorder = SpanRecorder()
        recorder.install()
        try:
            db2 = built_db(spec, objects)
            before = db2.io_stats()
            sweep, raw_s, traced_s = traced(
                cal, recorder, lambda: sweep_pass(db2, batches, cal)
            )
            stats = db2.io_stats() - before
        finally:
            recorder.uninstall()
        reference = untraced.single
        check_sweep(out, untraced, expected, reference)
        check_sweep(out, sweep, expected, reference)
        out.metrics = layer_metrics(
            recorder, raw_s, traced_s, untraced.single_s + untraced.batch_s
        )
        out.metrics.update(disk_metrics(stats))
        recorder.save(out_dir / "paper_queries-spans.npz")
        return out

    sweeps: list[SweepPass] = []
    deadline = time.perf_counter() + seconds
    while not sweeps or time.perf_counter() < deadline:
        sweeps.append(sweep_pass(db, batches, cal))
    reference = sweeps[0].single
    for sweep in sweeps:
        check_sweep(out, sweep, expected, reference)
    n = len(reference)
    sim_io_ms = sum(ms for _answers, ms in reference)
    out.metrics.update(
        setup_s=setup_s,
        build_s=build_s,
        ops_per_s=median(n / s.single_s for s in sweeps),
        sim_io_ms=sim_io_ms,
        sim_capacity_per_s=n / (sim_io_ms / 1e3),
    )
    sweep_metrics(out, sweeps)
    priced_percentiles(out, sweeps[0])
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    return out


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
@dataclass
class StreamRun:
    report: object
    per_disk_ms: list[float]
    seconds: float


def traffic_stream(db: SpatialDatabase, sessions, cal: Calibrator) -> StreamRun:
    gc.collect()
    # Every run starts with forgotten arm positions, so identical runs
    # price identically (run_traffic resets the clock, not the arms).
    db.disk.invalidate_head()
    before = db.disk.per_disk_stats()
    t0 = time.perf_counter()
    report = db.run_traffic(sessions, buffer_pages=TRAFFIC_POOL_PAGES)
    t1 = time.perf_counter()
    after = db.disk.per_disk_stats()
    return StreamRun(
        report=report,
        per_disk_ms=[a.total_ms - b.total_ms for a, b in zip(after, before)],
        seconds=cal.normalized(t0, t1),
    )


def traffic_pass(db: SpatialDatabase, streams, cal: Calibrator) -> list[StreamRun]:
    return [traffic_stream(db, sessions, cal) for sessions in streams]


def _signature(run: StreamRun):
    report = run.report
    return (
        report.makespan_ms,
        tuple(run.per_disk_ms),
        tuple((p.kind, p.operations, p.results) for p in report.phases),
        tuple(report.traffic_class("interactive").latencies),
    )


def _served_ops(report) -> int:
    return sum(p.operations for p in report.phases if p.kind in ("window", "point"))


def traffic(
    seed: int, seconds: float, trace: bool, cal: Calibrator, out_dir: Path
) -> Outcome:
    out = Outcome()
    options = dict(n_disks=TRAFFIC_DISKS, placement="spatial", scheduler="overlap")

    def setup():
        spec, objects = make_map("A-1")
        t0 = time.perf_counter()
        db = built_db(spec, objects, **options)
        return (spec, objects, db), (t0, time.perf_counter())

    (spec, objects, db), setup_s, build_s = timed_setups(
        cal, 1 if trace else SETUP_REPEATS, setup
    )
    streams = [
        make_traffic(
            objects,
            TRAFFIC_SESSIONS,
            arrival="poisson",
            rate_per_s=TRAFFIC_RATE_PER_S,
            seed=(seed * TRAFFIC_STREAMS + k) * 7 + 23,
        )
        for k in range(TRAFFIC_STREAMS)
    ]
    oracle = BruteForce(objects)
    want = []
    for sessions in streams:
        totals = {"window": 0, "point": 0}
        for session in sessions:
            for op in session.operations:
                if op[0] == "window":
                    totals["window"] += len(oracle.window(op[1]))
                else:
                    totals["point"] += len(oracle.point(op[1], op[2]))
        want.append(totals)

    if trace:
        untraced = traffic_pass(db, streams, cal)
        recorder = SpanRecorder()
        recorder.install()
        try:
            db2 = built_db(spec, objects, **options)
            traced_runs, raw_s, traced_s = traced(
                cal, recorder, lambda: traffic_pass(db2, streams, cal)
            )
        finally:
            recorder.uninstall()
        passes = [untraced, traced_runs]
    else:
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(traffic_pass(db, streams, cal))

    first = passes[0]
    for index, runs in enumerate(passes):
        for stream, (run, reference, totals) in enumerate(zip(runs, first, want)):
            report = run.report
            wrong = []
            for kind in ("window", "point"):
                phase = report.phase(kind)
                answers = phase.results if phase is not None else 0
                if answers != totals[kind]:
                    wrong.append(f"{kind} answer total {answers} != {totals[kind]}")
            if _signature(run) != _signature(reference):
                wrong.append("priced differently from pass 0")
            out.check(
                not wrong,
                _served_ops(report),
                f"traffic pass {index} stream {stream}: {'; '.join(wrong)}",
            )

    arrival_ms = [max(s.arrival_ms for s in sessions) for sessions in streams]
    makespans = [run.report.makespan_ms for run in first]
    backlogs = [m - a for m, a in zip(makespans, arrival_ms)]
    per_disk = [sum(ms) for ms in zip(*(run.per_disk_ms for run in first))]
    utilization = [ms / sum(makespans) for ms in per_disk]
    offered_per_s = TRAFFIC_SESSIONS * len(streams) / (sum(arrival_ms) / 1e3)
    out.details.update(
        offered_per_s=offered_per_s,
        utilization=utilization,
        backlog_ms=backlogs,
        backlog_share=sum(backlogs) / sum(arrival_ms),
        hit_rate=[run.report.hit_rate for run in first],
        sessions=TRAFFIC_SESSIONS * len(streams),
        streams=len(streams),
        passes=len(passes),
    )
    # Pooled over the streams: one bulk session arriving near the end
    # of a short stream leaves a few seconds of backlog without any
    # overload, while an overloaded disk grows every stream's backlog in
    # proportion to its span.
    if sum(backlogs) > BACKLOG_LIMIT * sum(arrival_ms):
        out.fail(
            f"traffic overloaded: backlog {sum(backlogs):.0f} ms exceeds "
            f"{BACKLOG_LIMIT:.0%} of the {sum(arrival_ms):.0f} ms arrival span"
        )

    # Exact answer sets for a seeded sample of the traffic's operations.
    flat_ops = [op for sessions in streams for s in sessions for op in s.operations]
    for op in random.Random(seed + 29).sample(flat_ops, TRAFFIC_SAMPLE):
        if op[0] == "window":
            got = db.storage.window_query(op[1])
            want_ids = oracle.window(op[1])
        else:
            got = db.storage.point_query(op[1], op[2])
            want_ids = oracle.point(op[1], op[2])
        out.check(
            tuple(sorted(o.oid for o in got.objects)) == want_ids,
            1,
            f"traffic sample {op[0]} answers differ",
        )

    if trace:
        out.metrics = layer_metrics(
            recorder, raw_s, traced_s, sum(run.seconds for run in untraced)
        )
        stats = traced_runs[0].report.total_io
        for run in traced_runs[1:]:
            stats = stats + run.report.total_io
        out.metrics.update(disk_metrics(stats))
        out.metrics["pagestore.util_max"] = max(utilization)
        out.metrics["pagestore.util_mean"] = sum(utilization) / len(utilization)
        out.metrics["iosched.queueing_ms"] = sum(
            c.queueing_ms for run in traced_runs for c in run.report.classes
        )
        recorder.save(out_dir / "traffic-spans.npz")
        return out

    batches = sweep_batches(objects, seed)
    expected = expected_answers(oracle, batches)
    sweeps = closing_sweeps(out, db, batches, expected, cal)
    # Per stream, then the median over the streams (like ops_per_s): a
    # pooled tail is set by the one or two streams whose analytics
    # sessions happened to bunch up.
    latencies = [run.report.traffic_class("interactive").latencies for run in first]
    out.metrics.update(
        setup_s=setup_s,
        build_s=build_s,
        ops_per_s=median(
            _served_ops(run.report) / run.seconds for runs in passes for run in runs
        ),
        sim_io_ms=sum(per_disk),
        sim_p50_ms=median(percentile(sample, 0.50) for sample in latencies),
        sim_p95_ms=median(percentile(sample, 0.95) for sample in latencies),
        sim_capacity_per_s=offered_per_s / max(utilization),
    )
    sweep_metrics(out, sweeps)
    out.details["interactive_samples_per_stream"] = [len(x) for x in latencies]
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    return out


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
@dataclass
class LifecyclePass:
    r: SpatialDatabase
    join: object
    reorganizer: Reorganizer
    rounds: int
    build_s: float
    join_s: float
    update_s: float
    device: object


def lifecycle_pass(spec_r, objects_r, spec_s, objects_s, victims, cal) -> LifecyclePass:
    gc.collect()
    clock = time.perf_counter
    t0 = clock()
    r = cluster_db(spec_r, scheduler="sync", name="r")
    s = r.attach(
        "s", organization="cluster", smax_bytes=spec_s.smax_bytes, technique="complete"
    )
    r.build(objects_r)
    s.build(objects_s)
    t1 = clock()
    join = r.join(s, buffer_pages=JOIN_BUFFER_PAGES, evaluate_exact=True)
    t2 = clock()
    for oid in victims:
        r.delete(oid)
    reorganizer = Reorganizer(r, budget_pages=REORG_BUDGET_PAGES)
    rounds = 0
    while rounds < REORG_ROUND_CAP:
        rounds += 1
        if reorganizer.step() == 0:
            break
    t3 = clock()
    return LifecyclePass(
        r=r,
        join=join,
        reorganizer=reorganizer,
        rounds=rounds,
        build_s=cal.normalized(t0, t1),
        join_s=cal.normalized(t1, t2),
        update_s=cal.normalized(t2, t3),
        device=r.io_stats(),
    )


def _lifecycle_signature(run: LifecyclePass):
    return (
        run.join.candidate_pairs,
        run.join.result_pairs,
        run.join.io_ms,
        run.reorganizer.moved_pages,
        run.rounds,
        run.device.total_ms,
    )


def _lifecycle_ops(run: LifecyclePass, n_objects: int, n_victims: int) -> int:
    return n_objects + 1 + n_victims + run.rounds


def lifecycle(
    seed: int, seconds: float, trace: bool, cal: Calibrator, out_dir: Path
) -> Outcome:
    out = Outcome()

    def setup():
        return (make_map("A-1"), make_map("A-2")), None

    ((spec_r, objects_r), (spec_s, objects_s)), setup_s, _ = timed_setups(
        cal, 1 if trace else SETUP_REPEATS, setup
    )
    rng = random.Random(seed + 31)
    victims = [
        objects_r[i].oid
        for i in rng.sample(range(len(objects_r)), len(objects_r) // 2)
    ]
    gone = set(victims)
    survivors = [o for o in objects_r if o.oid not in gone]
    n_objects = len(objects_r) + len(objects_s)

    def one_pass():
        return lifecycle_pass(spec_r, objects_r, spec_s, objects_s, victims, cal)

    if trace:
        untraced = one_pass()
        recorder = SpanRecorder()
        recorder.install()
        try:
            run, raw_s, traced_s = traced(cal, recorder, one_pass)
        finally:
            recorder.uninstall()
        runs = [untraced, run]
    else:
        runs = []
        deadline = time.perf_counter() + seconds
        while not runs or time.perf_counter() < deadline:
            runs.append(one_pass())

    candidates, results = BruteForce(objects_r).join_counts(objects_s)
    first = runs[0]
    survivor_oracle = BruteForce(survivors)
    for index, run in enumerate(runs):
        join = run.join
        out.check(
            (join.candidate_pairs, join.result_pairs) == (candidates, results)
            and len(run.r) == len(survivors)
            and _lifecycle_signature(run) == _lifecycle_signature(first),
            _lifecycle_ops(run, n_objects, len(victims)),
            f"lifecycle pass {index}: join ({join.candidate_pairs}, "
            f"{join.result_pairs}) vs brute force ({candidates}, {results}), "
            f"{len(run.r)} objects left vs {len(survivors)}, or the pass "
            f"differs from pass 0",
        )
        # Window queries over the survivors of every pass.
        for area in AREAS:
            windows = window_workload(survivors, area, n_queries=8, seed=seed + 37)
            for window in windows:
                got = run.r.window_query(*window.as_tuple())
                out.check(
                    tuple(sorted(o.oid for o in got.objects))
                    == survivor_oracle.window(window),
                    1,
                    f"lifecycle pass {index}: survivor window answers differ",
                )

    if trace:
        out.metrics = layer_metrics(
            recorder,
            raw_s,
            traced_s,
            untraced.build_s + untraced.join_s + untraced.update_s,
        )
        out.metrics.update(disk_metrics(run.device))
        out.metrics["join.candidate_pairs"] = run.join.candidate_pairs
        out.metrics["join.result_pairs"] = run.join.result_pairs
        out.metrics["join.answer_ratio"] = (
            run.join.result_pairs / run.join.candidate_pairs
        )
        out.metrics["reorg.moved_pages"] = run.reorganizer.moved_pages
        out.metrics["reorg.quality"] = run.reorganizer.quality()
        recorder.save(out_dir / "lifecycle-spans.npz")
        return out

    # The read sweep over the reorganized survivors of the last pass.
    last = runs[-1]
    last.r.reset_stats()
    batches = sweep_batches(survivors, seed)
    expected = expected_answers(survivor_oracle, batches)
    sweeps = closing_sweeps(out, last.r, batches, expected, cal)
    ops = _lifecycle_ops(first, n_objects, len(victims))
    sim_io_ms = first.device.total_ms
    out.metrics.update(
        setup_s=setup_s,
        build_s=median(run.build_s for run in runs),
        ops_per_s=median(
            ops / (run.build_s + run.join_s + run.update_s) for run in runs
        ),
        sim_io_ms=sim_io_ms,
        sim_capacity_per_s=ops / (sim_io_ms / 1e3),
    )
    sweep_metrics(out, sweeps)
    priced_percentiles(out, sweeps[0])
    out.details.update(
        join_s=median(run.join_s for run in runs),
        update_s=median(run.update_s for run in runs),
        join_candidate_pairs=first.join.candidate_pairs,
        join_result_pairs=first.join.result_pairs,
        reorg_rounds=first.rounds,
        reorg_moved_pages=first.reorganizer.moved_pages,
        reorg_quality=first.reorganizer.quality(),
        passes=len(runs),
    )
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    return out


WORKLOADS = {
    "paper_queries": paper_queries,
    "traffic": traffic,
    "lifecycle": lifecycle,
}
