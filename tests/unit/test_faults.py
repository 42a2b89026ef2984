"""Fault-plan layer: validation, identity, generation, application."""

from __future__ import annotations

import json

import pytest

import repro
from repro.core.runner import build_topology
from repro.engine import Simulator
from repro.faults import (
    FaultPlan,
    LinkFault,
    RouterFault,
    load_fault_plan,
    random_fault_plan,
    save_fault_plan,
)
from repro.faults.plan import FaultPlanError, _LiveGraph, _undirected_pairs, install_plan
from repro.network import Fabric
from repro.placement.machine import Machine
from repro.routing import MinimalRouting
from repro.topology.links import LinkKind


@pytest.fixture(scope="module")
def topo():
    return build_topology(repro.tiny().topology)


def _nonterminal_links(topo, kind=None):
    out = []
    for lid in range(topo.num_links):
        k = topo.links.kind_of(lid)
        if k.is_terminal:
            continue
        if kind is None or k == kind:
            out.append(lid)
    return out


def _reverse_of(topo, lid):
    links = topo.links
    s, d = links._src[lid], links._dst[lid]
    for other in range(topo.num_links):
        if (
            links._src[other] == d
            and links._dst[other] == s
            and not links.kind_of(other).is_terminal
        ):
            return other
    raise AssertionError(f"no reverse link for {lid}")


def _terminal_link(topo):
    for lid in range(topo.num_links):
        if topo.links.kind_of(lid).is_terminal:
            return lid
    raise AssertionError("topology has no terminal links")


class TestFaultValidation:
    def test_link_fault_rejects_bad_fields(self):
        with pytest.raises(FaultPlanError):
            LinkFault(-1)
        with pytest.raises(FaultPlanError):
            LinkFault(0, time_ns=-1.0)
        with pytest.raises(FaultPlanError):
            LinkFault(0, bw_scale=1.0)  # 1.0 would be a no-op fault
        with pytest.raises(FaultPlanError):
            LinkFault(0, bw_scale=-0.5)

    def test_router_fault_must_be_at_start(self):
        with pytest.raises(FaultPlanError):
            RouterFault(-1)
        with pytest.raises(FaultPlanError):
            RouterFault(0, time_ns=100.0)
        RouterFault(0)  # t=0 is the only legal onset

    def test_plan_rejects_duplicates(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(link_faults=(LinkFault(3), LinkFault(3, bw_scale=0.5)))
        with pytest.raises(FaultPlanError):
            FaultPlan(router_faults=(RouterFault(1), RouterFault(1)))

    def test_plan_coerces_lists_to_tuples(self):
        plan = FaultPlan(link_faults=[LinkFault(3)], router_faults=[RouterFault(0)])
        assert isinstance(plan.link_faults, tuple)
        assert isinstance(plan.router_faults, tuple)

    def test_validate_against_topology(self, topo):
        ok = _nonterminal_links(topo)[0]
        FaultPlan(link_faults=(LinkFault(ok),)).validate(topo)
        with pytest.raises(FaultPlanError):
            FaultPlan(link_faults=(LinkFault(topo.num_links),)).validate(topo)
        with pytest.raises(FaultPlanError):
            FaultPlan(
                link_faults=(LinkFault(_terminal_link(topo)),)
            ).validate(topo)
        with pytest.raises(FaultPlanError):
            FaultPlan(
                router_faults=(RouterFault(topo.num_routers),)
            ).validate(topo)


class TestPlanIdentity:
    def test_empty_plan(self):
        assert FaultPlan().is_empty()
        assert not FaultPlan(link_faults=(LinkFault(0),)).is_empty()

    def test_digest_is_content_addressed(self):
        a = FaultPlan(link_faults=(LinkFault(3), LinkFault(5)))
        b = FaultPlan(link_faults=(LinkFault(3), LinkFault(5)))
        assert a.digest == b.digest
        # Any content change — faults, timing, scale, or provenance
        # seed — must change the digest.
        assert a.digest != FaultPlan(link_faults=(LinkFault(3),)).digest
        assert (
            a.digest
            != FaultPlan(link_faults=(LinkFault(3), LinkFault(5, 100.0))).digest
        )
        assert (
            a.digest
            != FaultPlan(link_faults=(LinkFault(3), LinkFault(5)), seed=1).digest
        )

    def test_json_round_trip(self, tmp_path, topo):
        drawn = random_fault_plan(topo, 0.3, seed=42)
        dead = {f.link for f in drawn.link_faults}
        fwd, rev = next(p for p in _undirected_pairs(topo) if p[0] not in dead)
        plan = FaultPlan(
            link_faults=drawn.link_faults
            + (LinkFault(fwd, 0.0, 0.5), LinkFault(rev, 250.0, 0.5)),
            seed=drawn.seed,
        )
        path = save_fault_plan(plan, tmp_path / "plan.json")
        loaded = load_fault_plan(path)
        assert loaded == plan
        assert loaded.digest == plan.digest
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-faults/v1"

    def test_malformed_payload_raises(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json({"link_faults": [{"bogus_field": 1}]})


class TestTopologyProjection:
    def test_dead_nodes_are_routers_nodes(self, topo):
        plan = FaultPlan(router_faults=(RouterFault(1),))
        dead = plan.dead_nodes(topo)
        assert dead == sorted(dead)
        assert dead  # tiny has nodes on every router
        assert all(topo.router_of(n) == 1 for n in dead)
        assert FaultPlan().dead_nodes(topo) == []

    def test_materialize_expands_router_faults(self, topo):
        plan = FaultPlan(router_faults=(RouterFault(0),))
        events = plan.materialize(topo)
        links = topo.links
        incident = {
            lid
            for lid in _nonterminal_links(topo)
            if links._src[lid] == 0 or links._dst[lid] == 0
        }
        assert {lid for _, lid, _ in events} == incident
        assert all(t == 0.0 and scale == 0.0 for t, _, scale in events)

    def test_materialize_router_fault_wins_collision(self, topo):
        links = topo.links
        incident = next(
            lid for lid in _nonterminal_links(topo) if links._src[lid] == 0
        )
        plan = FaultPlan(
            link_faults=(LinkFault(incident, time_ns=500.0, bw_scale=0.5),),
            router_faults=(RouterFault(0),),
        )
        events = {lid: (t, scale) for t, lid, scale in plan.materialize(topo)}
        # The scheduled degrade is overridden by the dead-at-t=0 router.
        assert events[incident] == (0.0, 0.0)

    def test_materialize_is_sorted(self, topo):
        lids = _nonterminal_links(topo)[:3]
        plan = FaultPlan(
            link_faults=(
                LinkFault(lids[2], 900.0),
                LinkFault(lids[0], 100.0),
                LinkFault(lids[1], 500.0),
            )
        )
        events = plan.materialize(topo)
        assert events == sorted(events)


class TestRandomFaultPlan:
    def test_deterministic_for_seed(self, topo):
        a = random_fault_plan(topo, 0.2, seed=5, router_rate=0.1)
        b = random_fault_plan(topo, 0.2, seed=5, router_rate=0.1)
        assert a == b and a.digest == b.digest
        assert a != random_fault_plan(topo, 0.2, seed=6, router_rate=0.1)

    def test_zero_rate_is_empty(self, topo):
        assert random_fault_plan(topo, 0.0, seed=1).is_empty()

    def test_plan_validates_and_pairs_fault_together(self, topo):
        plan = random_fault_plan(topo, 0.4, seed=3)
        plan.validate(topo)
        assert not plan.is_empty()
        faulted = {f.link for f in plan.link_faults}
        for lid in faulted:
            assert _reverse_of(topo, lid) in faulted

    def test_connectivity_guard_at_full_rate(self, topo):
        """rate=1.0 samples every channel; the survivors keep the router
        graph connected (a spanning structure is always preserved)."""
        plan = random_fault_plan(topo, 1.0, seed=0, router_rate=0.5)
        dead_links = {f.link for f in plan.link_faults if f.bw_scale == 0.0}
        graph = _LiveGraph(topo, _undirected_pairs(topo))
        for router in plan.dead_routers():
            graph.remove_router(router)
        for fwd, _rev in _undirected_pairs(topo):
            if fwd in dead_links:
                graph.remove_edge(fwd)
        assert graph.connected()
        # And the guard actually kicked in: not every channel can die.
        assert len(dead_links) < 2 * len(_undirected_pairs(topo))

    def test_rejects_bad_arguments(self, topo):
        with pytest.raises(FaultPlanError):
            random_fault_plan(topo, 1.5)
        with pytest.raises(FaultPlanError):
            random_fault_plan(topo, 0.1, router_rate=-0.1)


class TestApplication:
    def _fabric(self, topo):
        cfg = repro.tiny()
        sim = Simulator()
        return sim, Fabric(sim, topo, cfg.network, MinimalRouting(seed=0))

    def test_apply_link_fault_rejects_terminals(self, topo):
        _, fab = self._fabric(topo)
        with pytest.raises(ValueError):
            fab.apply_link_fault(_terminal_link(topo))

    def test_kill_sets_liveness_and_epoch(self, topo):
        _, fab = self._fabric(topo)
        lid = _nonterminal_links(topo)[0]
        assert fab.fault_epoch == 0
        fab.apply_link_fault(lid)
        assert fab.link_down[lid]
        assert fab.fault_epoch == 1 and fab.faults_applied == 1

    def test_degrade_rescales_bandwidth_in_place(self, topo):
        _, fab = self._fabric(topo)
        lid = _nonterminal_links(topo)[0]
        before = fab.bw[lid]
        fab.apply_link_fault(lid, bw_scale=0.5)
        assert fab.bw[lid] == pytest.approx(0.5 * before)
        assert not fab.link_down[lid]  # degraded, not dead

    def test_install_plan_splits_now_vs_scheduled(self, topo):
        sim, fab = self._fabric(topo)
        lids = _nonterminal_links(topo)
        plan = FaultPlan(
            link_faults=(LinkFault(lids[0]), LinkFault(lids[1], 5_000.0))
        )
        installed = install_plan(sim, fab, plan)
        assert installed == 2
        # t=0 applied synchronously; the scheduled one waits on the calendar.
        assert fab.faults_applied == 1 and fab.link_down[lids[0]]
        assert not fab.link_down[lids[1]]
        sim.run()
        assert fab.faults_applied == 2 and fab.link_down[lids[1]]

    def test_machine_mark_down_fences_nodes(self):
        cfg = repro.tiny()
        machine = Machine(cfg.topology)
        total = len(machine.free_nodes())
        machine.mark_down([0, 1])
        assert len(machine.free_nodes()) == total - 2
        machine.mark_down([1])  # already-removed nodes are tolerated
        assert len(machine.free_nodes()) == total - 2
        with pytest.raises(ValueError):
            machine.mark_down([10**6])
        nodes = machine.allocate("cont", 4, seed=0)
        assert not {0, 1} & set(nodes)


def test_link_kind_enum_covers_faultable_kinds(topo):
    kinds = {topo.links.kind_of(lid) for lid in _nonterminal_links(topo)}
    assert kinds == {LinkKind.LOCAL_ROW, LinkKind.LOCAL_COL, LinkKind.GLOBAL}
