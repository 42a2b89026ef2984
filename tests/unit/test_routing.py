"""Routing-policy behaviour tests (on a live fabric)."""

import pytest

from repro.config import tiny
from repro.core.runner import build_topology
from repro.engine.simulator import Simulator
from repro.network.fabric import Fabric
from repro.network.packet import Message
from repro.routing import AdaptiveRouting, MinimalRouting, make_routing
from repro.routing.tables import route_tables


def make_fabric(routing):
    cfg = tiny()
    topo = build_topology(cfg.topology)
    sim = Simulator()
    return sim, topo, Fabric(sim, topo, cfg.network, routing)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("min", MinimalRouting),
            ("minimal", MinimalRouting),
            ("adp", AdaptiveRouting),
            ("adaptive", AdaptiveRouting),
        ],
    )
    def test_make_routing(self, name, cls):
        assert isinstance(make_routing(name), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_routing("wormhole")


class TestMinimalRouting:
    def test_route_ends_with_terminal_out(self):
        policy = MinimalRouting(seed=0)
        sim, topo, fabric = make_fabric(policy)
        dst_node = topo.params.nodes_per_router  # router 1
        route = policy.route(fabric, 0, dst_node, 1000)
        assert route[-1] == topo.terminal_out(dst_node)

    def test_intra_group_is_direct(self):
        policy = MinimalRouting(seed=0)
        sim, topo, fabric = make_fabric(policy)
        dst_node = topo.params.nodes_per_router
        route = policy.route(fabric, 0, dst_node, 1000)
        assert len(route) == 2  # one local link + terminal out

    def test_same_router_route(self):
        policy = MinimalRouting(seed=0)
        sim, topo, fabric = make_fabric(policy)
        route = policy.route(fabric, 0, 1, 1000)  # node 1 is on router 0
        assert route == [topo.terminal_out(1)]

    def test_randomizes_among_candidates(self):
        policy = MinimalRouting(seed=0)
        sim, topo, fabric = make_fabric(policy)
        # Cross-group destination with several tied global links.
        dst_node = topo.params.routers_per_group * topo.params.nodes_per_router
        seen = {tuple(policy.route(fabric, 0, dst_node, 1000)) for _ in range(40)}
        tables = route_tables(topo)
        dst_router = topo.router_of(dst_node)
        assert len(seen) == len(tables.minimal(0, dst_router))


class TestAdaptiveRouting:
    def test_counters_advance(self):
        policy = AdaptiveRouting(seed=0)
        sim, topo, fabric = make_fabric(policy)
        dst_node = topo.params.routers_per_group * topo.params.nodes_per_router
        for _ in range(20):
            policy.route(fabric, 0, dst_node, 1000)
        assert policy.minimal_taken + policy.nonminimal_taken == 20

    def test_uncongested_prefers_minimal(self):
        policy = AdaptiveRouting(seed=0)
        sim, topo, fabric = make_fabric(policy)
        dst_node = topo.params.routers_per_group * topo.params.nodes_per_router
        for _ in range(50):
            policy.route(fabric, 0, dst_node, 1000)
        assert policy.nonminimal_taken == 0

    def test_congestion_triggers_detour(self):
        policy = AdaptiveRouting(seed=0)
        sim, topo, fabric = make_fabric(policy)
        dst_node = topo.params.routers_per_group * topo.params.nodes_per_router
        # Pile fake backlog onto every minimal first hop.
        tables = route_tables(topo)
        for path in tables.minimal(0, topo.router_of(dst_node)):
            fabric.queued_bytes[path[0]] += 10_000_000
        for _ in range(20):
            policy.route(fabric, 0, dst_node, 1000)
        assert policy.nonminimal_taken > 0

    def test_modes_validate(self):
        with pytest.raises(ValueError):
            AdaptiveRouting(mode="global")

    def test_path_mode_senses_downstream_congestion(self):
        local = AdaptiveRouting(seed=0, mode="local")
        ideal = AdaptiveRouting(seed=0, mode="path")
        sim, topo, fabric = make_fabric(local)
        dst_node = topo.params.routers_per_group * topo.params.nodes_per_router
        dst_router = topo.router_of(dst_node)
        # Congest a *non-first* link of every minimal route: only "path"
        # mode can see it.
        tables = route_tables(topo)
        for path in tables.minimal(0, dst_router):
            if len(path) > 1:
                fabric.queued_bytes[path[-1]] += 10_000_000
        for _ in range(30):
            local.route(fabric, 0, dst_node, 1000)
            ideal.route(fabric, 0, dst_node, 1000)
        assert ideal.nonminimal_taken >= local.nonminimal_taken

    def test_end_to_end_delivery_under_adaptive(self):
        policy = AdaptiveRouting(seed=0)
        sim, topo, fabric = make_fabric(policy)
        p = topo.params
        msgs = []
        for i in range(30):
            src, dst = i % p.num_nodes, (i * 11 + 2) % p.num_nodes
            if src == dst:
                continue
            m = Message(i, src, dst, 5000)
            msgs.append(m)
            fabric.inject(m)
        sim.run()
        assert all(m.arrived_bytes == m.wire_size for m in msgs)
        assert fabric.bytes_injected == fabric.bytes_delivered
