"""Epoch-based cluster stream engine.

A stream of jobs arrives over simulated hours or days; an online
scheduler claims nodes; the co-scheduled jobs interfere on one shared
dragonfly. Simulating the whole stream packet-by-packet (or even
flow-by-flow) in one pass would couple every job to every other and
make the result a single monolithic, uncacheable artifact. Instead the
engine discretises the stream into **epochs** — maximal intervals
during which the running-job set is constant — and evaluates each
epoch's co-scheduled network state as one content-addressed cell on
:mod:`repro.exec`:

* an :class:`EpochSpec` (job names, rank counts, node allocations,
  stream seed, workload mix) rides in ``RunSpec.epoch`` and is part of
  the cell's identity hash, so a recurring co-schedule — common under
  steady load — is *cached*, and a warm re-run of a whole stream
  simulates nothing;
* cells within an epoch batch (the epoch snapshot, isolated baselines
  for newly started jobs, optional packet twins) are independent and
  run on the executor's process pool; results are bit-identical for
  any worker count because scheduling decisions consume only
  deterministic cell outputs.

The work model: a job's trace is one *iteration block*. When the job
first starts, an isolated cell on its own allocation measures the
block's makespan ``iso``; the job's target runtime then fixes
``iterations = round(service / iso)`` and its total isolated work.
During an epoch where the co-run block makespan is ``shared``, the job
burns wall time at slowdown ``shared / iso`` — a piecewise-constant
progress model that converts one cached network evaluation per epoch
into completion times over days of simulated time.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.cluster.accounting import (
    EpochRecord,
    JobRecord,
    StreamResult,
    ValidationRecord,
    fragmentation_index,
)
from repro.cluster.scheduler import ClusterScheduler
from repro.cluster.workload import StreamJob, WorkloadMix, generate_stream
from repro.config import SimulationConfig
from repro.core.runner import (
    RunResult,
    assemble,
    build_topology,
    check_cell_options,
)
from repro.exec.cache import ResultCache
from repro.exec.plan import (
    DEFAULT_MAX_EVENTS,
    ExperimentPlan,
    RunSpec,
    config_digest,
    field_payload,
    ops_fingerprint,
    trace_op_bytes,
)
from repro.exec.pool import execute_plan
from repro.metrics.collector import RunMetrics
from repro.mpi.replay import JobResult
from repro.mpi.trace import JobTrace, RankTrace
from repro.placement.machine import Machine
from repro.routing import make_routing

__all__ = ["EpochSpec", "merge_epoch_trace", "run_stream", "simulate_epoch"]

#: Floor for an epoch slowdown — guards the degenerate case of a
#: shared makespan under float noise of zero.
_MIN_SLOWDOWN = 1e-6

#: Completion-time comparison slack (simulated seconds).
_T_EPS = 1e-9


@dataclass(frozen=True)
class EpochSpec:
    """Identity of one co-scheduled network snapshot.

    ``jobs`` is ordered by job id: ``(name, num_ranks, nodes)`` per
    live job. The stream seed and mix label are included so epochs of
    *different* streams never share cache entries even if their
    snapshots coincide (the traces could still differ in content —
    ``trace_digest`` covers that — but keeping streams disjoint by
    construction makes cache forensics tractable).
    """

    jobs: tuple[tuple[str, int, tuple[int, ...]], ...]
    stream_seed: int
    mix: str

    @property
    def digest(self) -> str:
        payload = json.dumps(field_payload(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def merge_epoch_trace(
    jobs: list[tuple[str, JobTrace]], label: str
) -> JobTrace:
    """Concatenate job traces into one epoch container trace.

    :class:`~repro.mpi.trace.JobTrace` requires rank ids ``0..n-1``, so
    each job's ranks are *renumbered* into a global span — the op lists
    are shared, not copied (ops are immutable NamedTuples). The runner
    splits the container back into per-job traces by the spans recorded
    in the :class:`EpochSpec`.
    """
    ranks: list[RankTrace] = []
    for _, trace in jobs:
        for rt in trace.ranks:
            ranks.append(RankTrace(len(ranks), rt.ops))
    return JobTrace(label, ranks)


def simulate_epoch(
    config: SimulationConfig, spec: RunSpec, trace: JobTrace
) -> RunResult:
    """Cell runner for epoch snapshots (module-level: pool-picklable).

    Replays every job of ``spec.epoch`` concurrently from t=0 on one
    shared fabric (flow or packet per ``spec.backend``) and returns a
    :class:`~repro.core.runner.RunResult` whose
    ``extra["epoch_jobs"]`` carries per-job telemetry — most
    importantly each job's block makespan ``finish_ns``, which the
    stream driver turns into progress rates.

    Packet cells honour ``spec.faults`` (onsets are epoch-relative);
    the driver only ever fences *router* faults into allocations, so a
    flow cell never sees a plan.
    """
    wall_start = time.perf_counter()
    epoch: EpochSpec = spec.epoch
    if epoch is None:
        raise ValueError("simulate_epoch requires spec.epoch")
    # Epoch cells stay on the object fabric until the stream reference
    # is re-pinned for the array fabric (DESIGN.md §12).
    from repro.flow.fabric import FlowFabric

    cell = assemble(
        config,
        spec.routing,
        spec.seed,
        compute_scale=spec.compute_scale,
        faults=spec.faults,
        backend=spec.backend,
        flow_fabric=FlowFabric,
    )
    engine = cell.engine
    offset = 0
    placements: list[tuple[str, list[int]]] = []
    for idx, (name, num_ranks, nodes) in enumerate(epoch.jobs):
        sub = JobTrace(
            name,
            [
                RankTrace(i, rt.ops)
                for i, rt in enumerate(
                    trace.ranks[offset : offset + num_ranks]
                )
            ],
        )
        offset += num_ranks
        engine.add_job(idx, sub, list(nodes))
        placements.append((name, list(nodes)))
    if offset != trace.num_ranks:
        raise ValueError(
            f"epoch trace has {trace.num_ranks} ranks but spec spans {offset}"
        )
    engine.run(max_events=spec.max_events)

    per_job: dict[str, dict[str, float]] = {}
    parts: list[JobResult] = []
    for idx, (name, nodes) in enumerate(placements):
        jr = engine.job_result(idx)
        parts.append(jr)
        per_job[name] = {
            "ranks": float(jr.num_ranks),
            "finish_ns": float(jr.finish_time_ns.max()),
            "comm_ns": float(np.median(jr.comm_time_ns)),
            "max_comm_ns": float(jr.comm_time_ns.max()),
            "blocked_ns": float(np.median(jr.blocked_time_ns)),
            "avg_hops": float(jr.avg_hops.mean()),
            "bytes": float(jr.bytes_sent.sum()),
        }

    merged = JobResult(
        spec.app,
        np.concatenate([p.comm_time_ns for p in parts]),
        np.concatenate([p.finish_time_ns for p in parts]),
        np.concatenate([p.blocked_time_ns for p in parts]),
        np.concatenate([p.avg_hops for p in parts]),
        np.concatenate([p.bytes_sent for p in parts]),
        np.concatenate([p.bytes_recv for p in parts]),
    )
    all_nodes = [n for _, nodes in placements for n in nodes]
    metrics = RunMetrics.from_run(cell.fabric, cell.topo, merged, all_nodes)
    return RunResult(
        app=spec.app,
        placement=spec.placement,
        routing=spec.routing,
        seed=spec.seed,
        job=merged,
        metrics=metrics,
        nodes=all_nodes,
        sim_time_ns=cell.sim.now,
        events=cell.sim.events_run,
        nonminimal_fraction=cell.nonminimal_fraction,
        extra={"epoch_jobs": per_job},
        backend=spec.backend,
        wall_s=time.perf_counter() - wall_start,
    )


class _Running:
    """Mutable progress state of one running job."""

    __slots__ = ("job", "nodes", "iso_ns", "work_left_s", "slowdown")

    def __init__(self, job: StreamJob, nodes: list[int]) -> None:
        self.job = job
        self.nodes = nodes
        self.iso_ns = math.nan
        self.work_left_s = math.inf
        self.slowdown = 1.0

    @property
    def eta_s(self) -> float:
        return self.work_left_s * self.slowdown


def run_stream(
    config: SimulationConfig,
    mix: WorkloadMix | str = "AMG=1,CR=1,FB=1",
    duration_s: float = 7200.0,
    load: float = 0.6,
    policy: str = "cont",
    routing: str = "adp",
    backend: str = "flow",
    seed: int | None = None,
    backfill: bool = False,
    max_workers: int = 1,
    cache: ResultCache | str | None = None,
    progress=None,
    validate_every: int = 0,
    faults=None,
    max_events: int | None = DEFAULT_MAX_EVENTS,
    timeout_s: float | None = None,
    jobs: list[StreamJob] | None = None,
    surrogate_model=None,
) -> StreamResult:
    """Drive one seeded cluster stream end to end.

    Jobs are drawn by :func:`~repro.cluster.workload.generate_stream`
    (or supplied via ``jobs``), scheduled FCFS (+``backfill``) under
    ``policy`` (a placement name, ``"advisor"``, or ``"surrogate"`` —
    the latter requires ``surrogate_model``, a fitted
    :class:`~repro.advisor.model.RidgeSurrogate`), and every epoch is
    evaluated as a cached cell on the ``backend`` network model.

    ``validate_every=k`` additionally runs every k-th non-empty flow
    epoch on the packet backend and records per-job block-makespan
    relative errors (:class:`~repro.cluster.accounting
    .ValidationRecord`) — physics spot-checks that never influence the
    stream's own dynamics.

    ``faults`` (a :class:`~repro.faults.FaultPlan`) fences nodes of
    failed routers out of the machine before any allocation, on either
    backend; link-level faults additionally require
    ``backend="packet"`` (the flow model has no fault support) and are
    installed in every epoch cell at epoch-relative onset times.

    Determinism: identical arguments yield an identical
    :class:`~repro.cluster.accounting.StreamResult` for any
    ``max_workers``, and identical epoch-cell keys across runs — a warm
    ``cache`` makes a re-run simulate zero cells.
    """
    wall_start = time.perf_counter()
    if seed is None:
        seed = config.seed
    if isinstance(mix, str):
        mix = WorkloadMix.parse(mix)
    if isinstance(cache, str):
        cache = ResultCache(cache)
    check_cell_options(backend)
    make_routing(routing)  # an unknown name fails here, not in every epoch
    if jobs is not None:
        dup = sorted(i for i, n in Counter(j.id for j in jobs).items() if n > 1)
        if dup:
            raise ValueError(f"duplicate job ids in jobs: {dup}")

    machine = Machine(config.topology)
    fault_plan = None
    if faults is not None and not faults.is_empty():
        topo = build_topology(config.topology)
        faults.validate(topo)
        if backend == "flow" and faults.link_faults:
            raise ValueError(
                "link faults require backend='packet'; the flow model "
                "only supports router fencing"
            )
        fault_plan = faults
        dead = faults.dead_nodes(topo)
        if dead:
            machine.mark_down(dead)
    #: Plan handed to epoch cells: only packet cells simulate faults.
    cell_faults = fault_plan if backend == "packet" else None

    stream = (
        sorted(jobs, key=lambda j: (j.arrival_s, j.id))
        if jobs is not None
        else generate_stream(mix, duration_s, load, machine.num_free, seed)
    )
    sched = ClusterScheduler(
        machine,
        config,
        policy=policy,
        stream_seed=seed,
        backfill=backfill,
        routing=routing,
        surrogate=surrogate_model,
    )
    cfg_digest = config_digest(config)

    result = StreamResult(
        mix=mix.label,
        policy=policy,
        routing=routing,
        backend=backend,
        seed=seed,
        duration_s=duration_s,
        load=load,
        num_nodes=machine.num_free,
    )
    records: dict[int, JobRecord] = {}
    for j in stream:
        records[j.id] = JobRecord(
            id=j.id,
            name=j.name,
            app=j.app,
            ranks=j.ranks,
            arrival_s=j.arrival_s,
            service_s=j.service_s,
            bytes_sent=j.trace.total_bytes(),
        )
        result.jobs.append(records[j.id])

    running: dict[int, _Running] = {}
    #: Each started job's encoded op reprs, rendered once per call and
    #: hashed into every epoch cell it joins. Keyed by the job id (unique,
    #: checked above); a trace changed between calls is rendered afresh.
    op_bytes: dict[int, bytes] = {}
    counters = {
        "epochs": 0,
        "epochs_nonempty": 0,
        "cells_planned": 0,
        "cells_simulated": 0,
        "cells_cached": 0,
        "backfilled": 0,
    }

    def _close_epoch(t: float) -> None:
        if result.epochs and math.isnan(result.epochs[-1].t1_s):
            last = result.epochs[-1]
            last.t1_s = t
            dur = t - last.t0_s
            # Every job in the epoch's slowdown map ran for the whole
            # interval (epochs close exactly at running-set changes).
            for jid in last.slowdowns:
                records[jid].slow_work_s += dur
                records[jid].epochs += 1

    def _evaluate(now: float, new_ids: list[int]) -> None:
        """Run the epoch batch for the current running set."""
        entries = sorted(running.items())
        epoch = EpochSpec(
            jobs=tuple(
                (r.job.name, r.job.ranks, tuple(r.nodes))
                for _, r in entries
            ),
            stream_seed=seed,
            mix=mix.label,
        )
        merged = merge_epoch_trace(
            [(r.job.name, r.job.trace) for _, r in entries],
            f"epoch:{epoch.digest[:16]}",
        )
        traces = {merged.name: merged}
        for jid, r in entries:
            if jid not in op_bytes:
                op_bytes[jid] = trace_op_bytes(r.job.trace)
        # Equal to trace_fingerprint(merged): the merged ranks are the
        # jobs' ranks, in job order.
        tdigest = ops_fingerprint(
            merged.name, merged.num_ranks, [op_bytes[jid] for jid, _ in entries]
        )

        def _cell(ep: EpochSpec, app: str, td: str, be: str) -> RunSpec:
            return RunSpec(
                app=app,
                placement=policy,
                routing=routing,
                seed=seed,
                config_digest=cfg_digest,
                trace_digest=td,
                max_events=max_events,
                faults=cell_faults if be == "packet" else None,
                backend=be,
                epoch=ep,
            )

        specs = [_cell(epoch, merged.name, tdigest, backend)]
        iso_index: dict[int, int] = {}
        for jid in new_ids:
            r = running[jid]
            iso = EpochSpec(
                jobs=((r.job.name, r.job.ranks, tuple(r.nodes)),),
                stream_seed=seed,
                mix=mix.label,
            )
            iso_trace = merge_epoch_trace(
                [(r.job.name, r.job.trace)], f"iso:{iso.digest[:16]}"
            )
            traces[iso_trace.name] = iso_trace
            iso_index[jid] = len(specs)
            iso_digest = ops_fingerprint(
                iso_trace.name, iso_trace.num_ranks, [op_bytes[jid]]
            )
            specs.append(_cell(iso, iso_trace.name, iso_digest, backend))
        validate = (
            backend == "flow"
            and validate_every > 0
            and counters["epochs_nonempty"] % validate_every == 0
        )
        if validate:
            specs.append(_cell(epoch, merged.name, tdigest, "packet"))

        plan = ExperimentPlan(
            config=config, specs=tuple(specs), traces=traces
        )
        report = execute_plan(
            plan,
            max_workers=max_workers,
            cache=cache,
            progress=progress,
            timeout_s=timeout_s,
            runner=simulate_epoch,
            strict=True,
        )
        counters["cells_planned"] += report.planned
        counters["cells_simulated"] += report.done
        counters["cells_cached"] += report.cached

        # Isolated baselines first: they fix iterations and total work.
        for jid, si in iso_index.items():
            r = running[jid]
            out = report.outcomes[si].result
            assert out is not None
            iso_ns = out.extra["epoch_jobs"][r.job.name]["finish_ns"]
            r.iso_ns = max(iso_ns, 1.0)
            rec = records[jid]
            rec.iso_finish_ns = r.iso_ns
            rec.iterations = max(
                1, round(r.job.service_s * 1e9 / r.iso_ns)
            )
            rec.work_s = rec.iterations * r.iso_ns / 1e9
            rec.avg_hops = out.extra["epoch_jobs"][r.job.name]["avg_hops"]
            r.work_left_s = rec.work_s

        shared = report.outcomes[0].result
        assert shared is not None
        slowdowns: dict[int, float] = {}
        for jid, r in entries:
            fin = shared.extra["epoch_jobs"][r.job.name]["finish_ns"]
            r.slowdown = max(fin / r.iso_ns, _MIN_SLOWDOWN)
            slowdowns[jid] = r.slowdown

        m = shared.metrics
        peak_bytes = max(
            (
                int(a.max())
                for a in (m.local_traffic_bytes, m.global_traffic_bytes)
                if a.size
            ),
            default=0,
        )
        peak_sat_ns = max(
            (float(a.max()) for a in (m.local_sat_ns, m.global_sat_ns) if a.size),
            default=0.0,
        )
        makespan_ns = max(
            (v["finish_ns"] for v in shared.extra["epoch_jobs"].values()),
            default=0.0,
        )

        counters["epochs_nonempty"] += 1
        result.epochs.append(
            EpochRecord(
                index=counters["epochs"],
                t0_s=now,
                job_ids=tuple(jid for jid, _ in entries),
                apps=tuple(r.job.app for _, r in entries),
                key=specs[0].key,
                status=report.outcomes[0].status,
                sim_wall_s=report.wall_s,
                busy_nodes=sum(r.job.ranks for _, r in entries),
                slowdowns=slowdowns,
                peak_link_bytes=peak_bytes,
                peak_link_sat_ns=peak_sat_ns,
                makespan_ns=makespan_ns,
            )
        )
        if validate:
            twin = report.outcomes[-1].result
            assert twin is not None
            rel = {}
            for _, r in entries:
                f = shared.extra["epoch_jobs"][r.job.name]["finish_ns"]
                p = twin.extra["epoch_jobs"][r.job.name]["finish_ns"]
                rel[r.job.name] = abs(f - p) / max(p, 1.0)
            result.validations.append(
                ValidationRecord(
                    epoch_index=counters["epochs"],
                    flow_key=specs[0].key,
                    packet_key=specs[-1].key,
                    rel_err=rel,
                )
            )
        counters["epochs"] += 1

    # ------------------------------------------------------------------
    # event loop: completions and arrivals drive epoch transitions
    # ------------------------------------------------------------------
    now = 0.0
    arr_i = 0
    while running or sched.queue or arr_i < len(stream):
        t_arr = stream[arr_i].arrival_s if arr_i < len(stream) else math.inf
        t_fin = math.inf
        if running:
            t_fin = min(now + r.eta_s for r in running.values())
        t_next = min(t_arr, t_fin)
        if math.isinf(t_next):
            raise RuntimeError(
                "stream wedged: queued jobs cannot start on an idle machine"
            )
        # Burn progress over [now, t_next] at current epoch slowdowns.
        elapsed = t_next - now
        if elapsed > 0:
            for r in running.values():
                r.work_left_s -= elapsed / r.slowdown
        now = t_next

        changed = False
        finishing = [
            jid
            for jid, r in running.items()
            if r.work_left_s <= _T_EPS * max(1.0, records[jid].work_s)
        ]
        for jid in sorted(finishing):
            sched.finish(jid)
            rec = records[jid]
            rec.status = "completed"
            rec.finish_s = now
            del running[jid]
            changed = True
        while arr_i < len(stream) and stream[arr_i].arrival_s <= now + _T_EPS:
            job = stream[arr_i]
            arr_i += 1
            if not sched.submit(job):
                records[job.id].status = "rejected"
        launched = sched.schedule()
        if launched:
            result.frag_samples.append(
                (now, fragmentation_index(machine.free_nodes()))
            )
        new_ids: list[int] = []
        for job, nodes, placement in launched:
            rec = records[job.id]
            rec.status = "running"
            rec.start_s = now
            rec.placement = placement
            rec.nodes = tuple(nodes)
            running[job.id] = _Running(job, nodes)
            new_ids.append(job.id)
            changed = True

        if changed:
            _close_epoch(now)
            if running:
                _evaluate(now, new_ids)
            else:
                result.epochs.append(
                    EpochRecord(index=counters["epochs"], t0_s=now)
                )
                counters["epochs"] += 1
    _close_epoch(now)

    counters["backfilled"] = sched.backfilled
    result.counters = counters
    result.wall_s = time.perf_counter() - wall_start
    result.check_invariants()
    return result
