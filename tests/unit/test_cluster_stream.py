"""repro.cluster: workloads, scheduler, stream engine, export."""

import dataclasses
import json
import math

import pytest

import repro
from repro.cluster import (
    ClusterScheduler,
    EpochSpec,
    JobClass,
    StreamResult,
    WorkloadMix,
    fragmentation_index,
    generate_stream,
    interference_matrix,
    merge_epoch_trace,
    run_stream,
    save_json,
    simulate_epoch,
    to_doc,
    utilization_timeline,
)
from repro.cluster.workload import default_mix
from repro.exec.plan import RunSpec, config_digest, trace_fingerprint
from repro.mpi.trace import JobTrace
from repro.placement.machine import Machine


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------
class TestWorkload:
    def test_mix_parse_and_canonical_label(self):
        mix = WorkloadMix.parse("FB=2, CR , AMG=0.5")
        assert mix.label == "AMG=0.5,CR=1,FB=2"
        assert [c.app for c in mix.classes] == ["AMG", "CR", "FB"]
        assert WorkloadMix.parse("CR,FB=2,AMG=0.5").label == mix.label

    def test_mix_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown app"):
            WorkloadMix.parse("NOPE=1")
        with pytest.raises(ValueError, match="bad weight"):
            WorkloadMix.parse("CR=heavy")
        with pytest.raises(ValueError, match="empty"):
            WorkloadMix.parse(" , ")
        with pytest.raises(ValueError, match="duplicate"):
            WorkloadMix.parse("CR=1,CR=2")

    def test_ml_mix_generates_training_jobs(self):
        from repro.cluster.workload import ml_mix

        mix = ml_mix()
        assert {c.app for c in mix.classes} == {"DP", "PP", "TP", "MOE"}
        jobs = generate_stream(mix, 7200.0, 0.6, 24, seed=3)[:12]
        assert jobs
        for job in jobs:
            assert job.app in ("DP", "PP", "TP", "MOE")
            job.trace.validate()
            assert job.trace.meta["family"] == "mlcomms"

    def test_ml_apps_have_default_scales(self):
        for app in ("DP", "PP", "TP", "MOE"):
            scales = JobClass(app).scales
            assert scales and all(0 < s < 1 for s in scales)

    def test_job_class_validation(self):
        with pytest.raises(ValueError, match="weight"):
            JobClass("CR", weight=0)
        with pytest.raises(ValueError, match="ranks"):
            JobClass("CR", ranks=())
        with pytest.raises(ValueError, match="service_s"):
            JobClass("CR", service_s=(10.0, 5.0))
        with pytest.raises(ValueError, match="msg_scales"):
            JobClass("CR", msg_scales=(0.0,))

    def test_stream_is_deterministic(self):
        a = generate_stream(default_mix(), 7200.0, 0.6, 24, seed=7)
        b = generate_stream("AMG=1,CR=1,FB=1", 7200.0, 0.6, 24, seed=7)
        assert len(a) == len(b) > 0
        for x, y in zip(a, b):
            assert (x.id, x.app, x.ranks, x.arrival_s, x.service_s) == (
                y.id,
                y.app,
                y.ranks,
                y.arrival_s,
                y.service_s,
            )
            assert trace_fingerprint(x.trace) == trace_fingerprint(y.trace)

    def test_different_seeds_differ(self):
        a = generate_stream(default_mix(), 7200.0, 0.6, 24, seed=1)
        b = generate_stream(default_mix(), 7200.0, 0.6, 24, seed=2)
        assert [j.arrival_s for j in a] != [j.arrival_s for j in b]

    def test_arrivals_sorted_and_capped(self):
        jobs = generate_stream(default_mix(), 36_000.0, 0.8, 24, seed=5)
        arr = [j.arrival_s for j in jobs]
        assert arr == sorted(arr) and arr[-1] <= 36_000.0
        assert all(j.ranks <= 12 for j in jobs)  # half of 24 nodes

    def test_infeasible_class_raises(self):
        big = WorkloadMix((JobClass("CR", ranks=(64,)),))
        with pytest.raises(ValueError, match="no rank choice"):
            generate_stream(big, 1e3, 0.5, 24, seed=0)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="duration"):
            generate_stream(default_mix(), 0.0, 0.5, 24)
        with pytest.raises(ValueError, match="load"):
            generate_stream(default_mix(), 1e3, 0.0, 24)
        with pytest.raises(ValueError, match="num_nodes"):
            generate_stream(default_mix(), 1e3, 0.5, 0)


# ---------------------------------------------------------------------------
# machine claims (satellite)
# ---------------------------------------------------------------------------
class TestMachineClaims:
    def test_claim_release_roundtrip(self, tiny_config):
        m = Machine(tiny_config.topology)
        nodes = m.claim_nodes("a", "cont", 4, seed=1)
        assert len(nodes) == 4
        assert m.num_claimed == 4
        assert m.num_free == m.num_nodes - 4
        assert m.allocation_of("a") == nodes
        assert m.claimed_jobs() == ["a"]
        released = m.release_job("a")
        assert sorted(released) == sorted(nodes)
        assert m.num_claimed == 0 and m.num_free == m.num_nodes

    def test_double_claim_rejected(self, tiny_config):
        m = Machine(tiny_config.topology)
        m.claim_nodes(1, "cont", 2)
        with pytest.raises(ValueError, match="already holds"):
            m.claim_nodes(1, "rand", 2)

    def test_release_unknown_job_rejected(self, tiny_config):
        m = Machine(tiny_config.topology)
        with pytest.raises(KeyError, match="no allocation"):
            m.release_job("ghost")

    def test_claims_share_pool_with_allocate(self, tiny_config):
        m = Machine(tiny_config.topology)
        m.claim_nodes("a", "cont", m.num_nodes - 2)
        with pytest.raises(ValueError, match="free"):
            m.allocate("cont", 3)


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------
def _job(jid: int, ranks: int, arrival: float = 0.0):
    from repro.cluster import StreamJob

    return StreamJob(
        id=jid,
        app="CR",
        ranks=ranks,
        arrival_s=arrival,
        service_s=100.0,
        msg_scale=1.0,
        trace=repro.crystal_router_trace(num_ranks=ranks, seed=jid),
    )


class TestScheduler:
    def test_fcfs_no_double_allocation(self, tiny_config):
        m = Machine(tiny_config.topology)
        s = ClusterScheduler(m, tiny_config, policy="cont", stream_seed=1)
        stream = generate_stream(default_mix(), 3600.0, 0.9, 24, seed=2)[:6]
        used: set[int] = set()
        for job in stream:
            assert s.submit(job)
        for job, nodes, placement in s.schedule():
            assert placement == "cont"
            assert not used & set(nodes)
            used |= set(nodes)
        assert m.num_claimed == len(used)

    def test_head_blocks_without_backfill(self, tiny_config):
        m = Machine(tiny_config.topology)
        s = ClusterScheduler(m, tiny_config, policy="cont")
        m.claim_nodes("wall", "cont", 20)  # 4 of 24 left
        big, small = _job(0, 8), _job(1, 2)
        s.submit(big)
        s.submit(small)
        assert s.schedule() == []
        assert s.num_queued == 2

    def test_backfill_starts_fitting_job(self, tiny_config):
        m = Machine(tiny_config.topology)
        s = ClusterScheduler(m, tiny_config, policy="cont", backfill=True)
        m.claim_nodes("wall", "cont", 20)
        big, small = _job(0, 8), _job(1, 2)
        s.submit(big)
        s.submit(small)
        launched = s.schedule()
        assert [j.id for j, _, _ in launched] == [small.id]
        assert s.backfilled == 1
        assert [j.id for j in s.queue] == [big.id]

    def test_oversized_job_rejected(self, tiny_config):
        m = Machine(tiny_config.topology)
        s = ClusterScheduler(m, tiny_config)
        job = _job(0, 25)
        assert job.ranks > 24
        assert not s.submit(job)

    def test_advisor_policy_resolves(self, tiny_config):
        m = Machine(tiny_config.topology)
        s = ClusterScheduler(m, tiny_config, policy="advisor")
        assert s.placement_for(_job(0, 8)) in repro.PLACEMENT_NAMES

    def test_unknown_policy_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            ClusterScheduler(
                Machine(tiny_config.topology), tiny_config, policy="best"
            )


# ---------------------------------------------------------------------------
# epoch cells
# ---------------------------------------------------------------------------
def _epoch_spec_for(
    config, jobs_nodes, backend="flow", seed=0, mix="CR=1", routing="adp"
):
    epoch = EpochSpec(
        jobs=tuple(
            (t.name, t.num_ranks, tuple(nodes)) for t, nodes in jobs_nodes
        ),
        stream_seed=seed,
        mix=mix,
    )
    merged = merge_epoch_trace(
        [(t.name, t) for t, _ in jobs_nodes], f"epoch:{epoch.digest[:16]}"
    )
    spec = RunSpec(
        app=merged.name,
        placement="cont",
        routing=routing,
        seed=seed,
        config_digest=config_digest(config),
        trace_digest=trace_fingerprint(merged),
        backend=backend,
        epoch=epoch,
    )
    return spec, merged


class TestEpochCells:
    def test_merge_renumbers_and_shares_ops(self, tiny_config):
        a = repro.crystal_router_trace(num_ranks=4, seed=1)
        b = repro.amg_trace(num_ranks=6, seed=2)
        merged = merge_epoch_trace([("a", a), ("b", b)], "epoch:x")
        assert merged.num_ranks == 10
        assert [rt.rank for rt in merged.ranks] == list(range(10))
        # Ops are shared (not deep-copied): renumbering is O(ranks).
        assert merged.ranks[4].ops[0] is b.ranks[0].ops[0]

    def test_simulate_epoch_splits_jobs(self, tiny_config):
        a = repro.crystal_router_trace(num_ranks=4, seed=1).scaled(0.1)
        b = repro.amg_trace(num_ranks=4, seed=2)
        spec, merged = _epoch_spec_for(
            tiny_config, [(a, list(range(4))), (b, list(range(8, 12)))]
        )
        out = simulate_epoch(tiny_config, spec, merged)
        per = out.extra["epoch_jobs"]
        assert set(per) == {a.name, b.name}
        for tele in per.values():
            assert tele["finish_ns"] > 0
        assert out.job.num_ranks == 8
        assert out.backend == "flow"

    def test_packet_cells_report_nonminimal_share(self, tiny_config):
        """A packet epoch cell reports its routing policy's non-minimal
        share: adaptive routing detours under contention, minimal never."""
        a = repro.crystal_router_trace(num_ranks=8, seed=1).scaled(0.2)
        b = repro.fill_boundary_trace(num_ranks=8, seed=2).scaled(0.2)
        jobs = [(a, list(range(8))), (b, list(range(8, 16)))]
        share = {}
        for routing in ("adp", "min"):
            spec, merged = _epoch_spec_for(
                tiny_config, jobs, backend="packet", routing=routing
            )
            out = simulate_epoch(tiny_config, spec, merged)
            share[routing] = out.nonminimal_fraction
        assert share["adp"] > 0.0
        assert share["min"] == 0.0

    def test_simulate_epoch_span_mismatch(self, tiny_config):
        a = repro.crystal_router_trace(num_ranks=4, seed=1)
        spec, merged = _epoch_spec_for(tiny_config, [(a, list(range(4)))])
        bigger = merge_epoch_trace([("x", a), ("y", a)], merged.name)
        with pytest.raises(ValueError, match="spans"):
            simulate_epoch(tiny_config, spec, bigger)

    def test_flow_cell_rejects_fault_plan(self, tiny_config):
        from repro.faults import FaultPlan, LinkFault

        a = repro.crystal_router_trace(num_ranks=4, seed=1)
        spec, merged = _epoch_spec_for(tiny_config, [(a, list(range(4)))])
        spec = RunSpec(
            **{
                **{
                    f: getattr(spec, f)
                    for f in (
                        "app placement routing seed config_digest "
                        "trace_digest backend epoch"
                    ).split()
                },
                "faults": FaultPlan(link_faults=(LinkFault(0),)),
            }
        )
        with pytest.raises(ValueError, match="fault plans"):
            simulate_epoch(tiny_config, spec, merged)

    def test_epoch_identity_covers_stream_and_mix(self, tiny_config):
        a = repro.crystal_router_trace(num_ranks=4, seed=1)
        jn = [(a, list(range(4)))]
        base, _ = _epoch_spec_for(tiny_config, jn, seed=0)
        other_seed, _ = _epoch_spec_for(tiny_config, jn, seed=1)
        other_mix, _ = _epoch_spec_for(tiny_config, jn, mix="FB=1")
        single, _ = _epoch_spec_for(tiny_config, jn)
        no_epoch = RunSpec(
            app=base.app,
            placement=base.placement,
            routing=base.routing,
            seed=base.seed,
            config_digest=base.config_digest,
            trace_digest=base.trace_digest,
            backend=base.backend,
        )
        keys = {
            base.key,
            other_mix.key,
            no_epoch.key,
            single.key,
        }
        assert len(keys) == 3  # single == base; others all distinct
        assert base.key == single.key
        # The stream seed alone splits keys, even with identical specs.
        import dataclasses

        reseeded = dataclasses.replace(
            base, epoch=dataclasses.replace(base.epoch, stream_seed=99)
        )
        assert reseeded.key != base.key
        assert other_seed.key != base.key


class TestInterferencePhysics:
    @staticmethod
    def _mean_slowdown(config, placement, backend):
        """Mean over both jobs of the shared cell's median comm time
        relative to the job's own single-job cell."""
        machine = Machine(config.topology)
        jobs = []
        for i in range(2):
            fb = repro.fill_boundary_trace(num_ranks=24, seed=i + 1).scaled(0.03)
            nodes = machine.claim_nodes(i, placement, 24, seed=5 + i)
            jobs.append((JobTrace(f"FB-{i}", fb.ranks), nodes))

        def comm_ns(members):
            spec, merged = _epoch_spec_for(
                config, members, backend=backend, seed=5, mix="FB=1",
                routing="min",
            )
            per_job = simulate_epoch(config, spec, merged).extra["epoch_jobs"]
            return {name: tele["comm_ns"] for name, tele in per_job.items()}

        shared = comm_ns(jobs)
        slowdowns = [
            shared[t.name] / comm_ns([(t, nodes)])[t.name] for t, nodes in jobs
        ]
        return sum(slowdowns) / len(slowdowns)

    @pytest.mark.parametrize("backend", ["packet", "flow"])
    def test_interleaved_jobs_slow_more(self, small_config, backend):
        """Two heavy jobs interleaved node-by-node slow each other more
        than the same jobs placed contiguously apart (the bully effect
        from the authors' prior work)."""
        spread = self._mean_slowdown(small_config, "rand", backend)
        apart = self._mean_slowdown(small_config, "cont", backend)
        assert apart <= spread + 0.05


# ---------------------------------------------------------------------------
# stream engine
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_stream():
    cfg = repro.tiny()
    return run_stream(
        cfg, duration_s=1800.0, load=0.5, policy="cont", seed=3
    )


class TestRunStream:
    def test_invariants_and_completion(self, tiny_stream):
        tiny_stream.check_invariants()  # raises on violation
        assert len(tiny_stream.completed) == len(tiny_stream.jobs) > 0
        for j in tiny_stream.completed:
            assert j.finish_s >= j.start_s >= j.arrival_s
            assert j.iterations >= 1
            assert j.work_s > 0
            assert j.mean_slowdown > 0

    def test_epochs_tile_the_run(self, tiny_stream):
        epochs = tiny_stream.epochs
        assert epochs[0].t0_s > 0  # machine idle until the first arrival
        for a, b in zip(epochs, epochs[1:]):
            assert a.t1_s == b.t0_s
        busy = [e for e in epochs if e.job_ids]
        assert busy and all(e.key for e in busy)
        assert all(e.busy_nodes <= tiny_stream.num_nodes for e in epochs)

    def test_warm_rerun_simulates_nothing(self, tmp_path):
        cfg = repro.tiny()
        kw = dict(duration_s=900.0, load=0.5, seed=3, cache=str(tmp_path))
        cold = run_stream(cfg, **kw)
        assert cold.counters["cells_simulated"] > 0
        warm = run_stream(cfg, **kw)
        assert warm.counters["cells_simulated"] == 0
        assert warm.counters["cells_cached"] == cold.counters["cells_planned"]
        assert to_doc_stable(warm) == to_doc_stable(cold)

    def test_serial_matches_parallel(self):
        cfg = repro.tiny()
        kw = dict(duration_s=900.0, load=0.5, seed=3)
        serial = run_stream(cfg, **kw, max_workers=1)
        parallel = run_stream(cfg, **kw, max_workers=3)
        assert to_doc_stable(serial) == to_doc_stable(parallel)

    def test_validation_records(self):
        cfg = repro.tiny()
        res = run_stream(
            cfg, duration_s=900.0, load=0.5, seed=3, validate_every=2
        )
        assert res.validations
        for v in res.validations:
            assert v.flow_key != v.packet_key
            assert math.isfinite(v.max_rel_err)

    def test_explicit_jobs_and_packet_backend(self, tiny_config):
        from repro.cluster import StreamJob

        jobs = [
            StreamJob(
                id=i,
                app="CR",
                ranks=ranks,
                arrival_s=arrival,
                service_s=service,
                msg_scale=scale,
                trace=repro.crystal_router_trace(
                    num_ranks=ranks, seed=1_000_003 + i
                ).scaled(scale),
            )
            for i, (ranks, arrival, service, scale) in enumerate(
                [(4, 50.0, 573.0, 0.1), (8, 70.0, 251.0, 0.2)]
            )
        ]
        res = run_stream(
            tiny_config,
            mix="CR=1",
            duration_s=600.0,
            load=0.5,
            backend="packet",
            seed=1,
            jobs=jobs,
        )
        assert len(res.completed) == 2
        assert res.backend == "packet"

    def test_router_fault_fences_nodes(self, tiny_config):
        from repro.faults import FaultPlan, RouterFault

        plan = FaultPlan(router_faults=(RouterFault(0),))
        res = run_stream(
            tiny_config,
            duration_s=900.0,
            load=0.5,
            seed=3,
            faults=plan,
        )
        from repro.core.runner import build_topology

        dead = set(plan.dead_nodes(build_topology(tiny_config.topology)))
        for j in res.completed:
            assert not dead & set(j.nodes)
        assert res.num_nodes == 24 - len(dead)

    def test_flow_rejects_link_faults(self, tiny_config):
        from repro.core.runner import build_topology
        from repro.faults import FaultPlan, LinkFault

        topo = build_topology(tiny_config.topology)
        link = next(
            i
            for i in range(topo.num_links)
            if not topo.links.kind_of(i).is_terminal
        )
        with pytest.raises(ValueError, match="packet"):
            run_stream(
                tiny_config,
                duration_s=900.0,
                load=0.5,
                faults=FaultPlan(link_faults=(LinkFault(link),)),
            )

    def test_bad_backend_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="backend"):
            run_stream(tiny_config, backend="quantum")

    @pytest.mark.parametrize("twin", [7, 1], ids=["after-finish", "overlapping"])
    def test_duplicate_job_ids_rejected_before_scheduling(
        self, tiny_config, monkeypatch, twin
    ):
        """Job 7 arrives long after job 0 finished, job 1 while job 0
        runs; either way a repeated id is refused before any cell runs
        (unchecked, the first corrupts the records and the second fails
        mid-stream on a double allocation)."""
        from repro.cluster import engine

        jobs = generate_stream("AMG=1,CR=1,FB=1", 3600.0, 0.6, 24, seed=7)
        jobs[twin] = dataclasses.replace(jobs[twin], id=jobs[0].id)

        def no_cells(*args, **kwargs):
            raise AssertionError("a cell was scheduled")

        monkeypatch.setattr(engine, "execute_plan", no_cells)
        with pytest.raises(ValueError, match=r"duplicate job ids in jobs: \[0\]"):
            run_stream(
                tiny_config, duration_s=3600.0, load=0.6, seed=7, jobs=jobs
            )


def to_doc_stable(result: StreamResult) -> str:
    """Canonical JSON of a stream doc minus wall-clock noise."""
    doc = to_doc(result)
    doc["wall_s"] = 0.0
    doc["counters"] = {}
    for e in doc["epochs"]:
        e.pop("status", None)  # cached-vs-done differs, values must not
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# accounting + export
# ---------------------------------------------------------------------------
class TestAccounting:
    def test_fragmentation_index(self):
        assert fragmentation_index([]) == 0.0
        assert fragmentation_index([4, 5, 6, 7]) == 0.0
        assert fragmentation_index([0, 2, 4, 6]) == 0.75
        assert 0.0 < fragmentation_index([0, 1, 5]) < 1.0

    def test_utilization_timeline(self, tiny_stream):
        util = utilization_timeline(tiny_stream)
        assert util
        for t0, t1, u in util:
            assert t1 > t0 and 0.0 <= u <= 1.0

    def test_interference_matrix(self, tiny_stream):
        apps, mat = interference_matrix(tiny_stream)
        assert mat.shape == (len(apps), len(apps))
        finite = mat[~(mat != mat)]  # drop NaNs
        assert (finite > 0).all()

    def test_export_schema_and_invariants(self, tiny_stream, tmp_path):
        path = save_json(tiny_stream, tmp_path / "stream.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-cluster-stream/v1"
        inv = doc["invariants"]
        assert inv["conserved"] and inv["warm_rerun_ready"]
        assert inv["submitted"] == len(doc["jobs"])
        assert doc["aggregates"]["makespan_s"] > 0
        for j in doc["jobs"]:
            if j["status"] == "completed":
                assert j["finish_s"] is not None

    def test_peak_link_accounting(self, tiny_stream):
        busy = [
            e
            for e in tiny_stream.epochs
            if e.job_ids and e.status != "empty"
        ]
        assert busy
        for e in busy:
            assert e.peak_link_bytes > 0
            assert e.makespan_ns > 0
            assert 0.0 <= e.peak_link_sat_frac <= 1.0
        peaks = tiny_stream.heavy_epoch_peaks()
        assert peaks["mean_bytes"] > 0
        assert 0.0 <= peaks["mean_sat_frac"] <= 1.0
        assert peaks["max_sat_frac"] >= peaks["mean_sat_frac"] >= 0.0
        doc = to_doc(tiny_stream)
        agg = doc["aggregates"]["heavy_peak_link"]
        assert agg["mean_bytes"] == peaks["mean_bytes"]
        for e in doc["epochs"]:
            if e["status"] != "empty":
                assert e["peak_link_bytes"] > 0
