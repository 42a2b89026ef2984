"""Fault determinism: plans are part of the physics, not of the engine.

Two contracts (ISSUE 4 acceptance):

* a fault-free :class:`FaultPlan` — ``None`` or empty — leaves every
  result *bit-identical* to a run with no plan at all, down to the
  exported obs telemetry bytes;
* a seeded plan yields identical results across repeat runs and
  under serial vs. parallel execution, because fault onsets are
  ordinary ``(time, seq)`` calendar events.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.runner import build_topology
from repro.engine import Simulator
from repro.exec.plan import plan_grid
from repro.faults import FaultPlan, LinkFault, random_fault_plan
from repro.faults.plan import _undirected_pairs
from repro.mpi import ReplayEngine
from repro.network import Fabric
from repro.obs import ObsConfig
from repro.obs.export import write_jsonl
from repro.placement.machine import Machine
from repro.routing import make_routing


def _trace():
    return repro.fill_boundary_trace(num_ranks=8, seed=3).scaled(0.05)


def _fingerprint(result):
    return (
        result.metrics.summary(),
        result.sim_time_ns,
        result.events,
        result.nonminimal_fraction,
        result.extra.get("faults"),
        result.job.finish_time_ns.tolist(),
        result.job.blocked_time_ns.tolist(),
    )


def _busiest_channel(cfg, trace):
    """(forward, reverse, healthy_finish_ns) of the hottest channel.

    A healthy low-level replay under cont/min finds the non-terminal
    link carrying the most bytes — killing it mid-run is guaranteed to
    strand queued or upstream packets, which is what exercises reroute.
    """
    topo = build_topology(cfg.topology)
    machine = Machine(cfg.topology)
    nodes = machine.allocate("cont", trace.num_ranks, seed=7)
    sim = Simulator()
    fab = Fabric(sim, topo, cfg.network, make_routing("min", seed=7))
    engine = ReplayEngine(sim, fab)
    engine.add_job(0, trace, nodes)
    engine.run(target_job=0)
    links = topo.links
    busiest = max(
        (
            lid
            for lid in range(topo.num_links)
            if not links.kind_of(lid).is_terminal
        ),
        key=lambda lid: (fab.bytes_tx[lid], -lid),
    )
    assert fab.bytes_tx[busiest] > 0
    rev = next(
        other
        for other in range(topo.num_links)
        if links._src[other] == links._dst[busiest]
        and links._dst[other] == links._src[busiest]
        and not links.kind_of(other).is_terminal
    )
    return busiest, rev, sim.now


class TestFaultFreeBitIdentity:
    """No plan, ``None``, and the empty plan are the same physics."""

    def test_empty_plan_matches_no_plan_exactly(self):
        cfg = repro.tiny()
        trace = _trace()
        bare = repro.run_single(cfg, trace, "rand", "adp", seed=7)
        empty = repro.run_single(
            cfg, trace, "rand", "adp", seed=7, faults=FaultPlan()
        )
        assert _fingerprint(empty) == _fingerprint(bare)

    def test_empty_plan_obs_export_bytes_identical(self, tmp_path):
        cfg = repro.tiny()
        trace = _trace()
        obs = ObsConfig(window_ns=25_000.0)
        blobs = {}
        for tag, faults in (("none", None), ("empty", FaultPlan())):
            res = repro.run_single(
                cfg, trace, "rand", "adp", seed=7, obs=obs, faults=faults
            )
            path = tmp_path / f"{tag}.jsonl"
            write_jsonl(res.obs, path)
            blobs[tag] = path.read_bytes()
        assert blobs["none"]  # the export actually contains windows
        assert blobs["empty"] == blobs["none"]

    def test_empty_plan_shares_cache_identity_with_none(self):
        cfg = repro.tiny()
        trace = _trace()

        def key_for(faults):
            plan = plan_grid(
                cfg, {"FB": trace}, ("cont",), ("min",), seed=7, faults=faults
            )
            (spec,) = plan.specs
            return spec.key

        assert key_for(FaultPlan()) == key_for(None)
        seeded = random_fault_plan(build_topology(cfg.topology), 0.3, seed=1)
        assert key_for(seeded) != key_for(None)
        # Same plan content -> same key (value identity, not object).
        again = random_fault_plan(build_topology(cfg.topology), 0.3, seed=1)
        assert key_for(again) == key_for(seeded)


class TestSeededPlanDeterminism:
    @pytest.mark.parametrize("routing", ["min", "adp"])
    def test_midrun_kill_reroutes_identically_across_runs(self, routing):
        cfg = repro.tiny()
        trace = _trace()
        fwd, rev, finish_ns = _busiest_channel(cfg, trace)
        onset = 0.4 * finish_ns
        plan = FaultPlan(
            link_faults=(LinkFault(fwd, onset), LinkFault(rev, onset))
        )
        prints = []
        for _ in range(2):
            res = repro.run_single(
                cfg, trace, "cont", routing, seed=7, faults=plan
            )
            assert res.extra["faults"]["packets_rerouted"] > 0
            assert res.extra["faults"]["links_failed"] == 2
            prints.append(_fingerprint(res))
        assert prints[0] == prints[1]

    def test_grid_identical_serial_vs_parallel(self):
        cfg = repro.tiny()
        trace = _trace()
        topo = build_topology(cfg.topology)
        drawn = random_fault_plan(topo, 0.2, seed=11)
        # One degraded (not dead) channel beside the drawn dead ones.
        dead = {f.link for f in drawn.link_faults}
        fwd, rev = next(p for p in _undirected_pairs(topo) if p[0] not in dead)
        plan = FaultPlan(
            link_faults=drawn.link_faults
            + (LinkFault(fwd, 0.0, 0.5), LinkFault(rev, 0.0, 0.5)),
            seed=drawn.seed,
        )
        assert drawn.link_faults

        def grid(workers):
            study = repro.TradeoffStudy(
                cfg,
                {"FB": trace},
                placements=("cont", "rand"),
                routings=("min", "adp"),
                seed=7,
                faults=plan,
            ).run(max_workers=workers)
            return {
                key: _fingerprint(result)
                for key, result in study.runs.items()
            }

        serial = grid(1)
        assert len(serial) == 4
        assert grid(2) == serial

    def test_fault_events_land_in_obs_trace(self):
        cfg = repro.tiny()
        trace = _trace()
        fwd, rev, finish_ns = _busiest_channel(cfg, trace)
        onset = 0.4 * finish_ns
        plan = FaultPlan(
            link_faults=(LinkFault(fwd, onset), LinkFault(rev, onset))
        )
        res = repro.run_single(
            cfg,
            trace,
            "cont",
            "min",
            seed=7,
            faults=plan,
            obs=ObsConfig(window_ns=25_000.0),
        )
        faults = [e for e in res.obs.events if e.kind == "fault"]
        reroutes = [e for e in res.obs.events if e.kind == "reroute"]
        assert {e.link for e in faults} == {fwd, rev}
        assert all(e.t_ns == pytest.approx(onset) for e in faults)
        assert len(reroutes) == res.extra["faults"]["packets_rerouted"] > 0
        # Rerouted packets never enter the dead channel.
        assert all(e.link not in (fwd, rev) for e in reroutes)
