"""Fabric flow-control unit tests: delivery, backpressure, conservation."""

import pytest

from repro.config import NetworkParams, tiny
from repro.core.runner import build_topology
from repro.engine.simulator import Simulator
from repro.network.fabric import Fabric
from repro.network.packet import Message
from repro.routing import MinimalRouting
from repro.topology.links import LinkKind
from tests.engine_helpers import run_until


def make_fabric(net=None, seed=0):
    cfg = tiny()
    topo = build_topology(cfg.topology)
    net = net or cfg.network
    sim = Simulator()
    fabric = Fabric(sim, topo, net, MinimalRouting(seed=seed))
    return sim, topo, fabric


def nodes_same_router(topo):
    return 0, 1


def nodes_same_group_other_router(topo):
    p = topo.params
    return 0, p.nodes_per_router  # node 0 on router 0, first node of router 1


def nodes_other_group(topo):
    p = topo.params
    return 0, p.nodes_per_group * p.nodes_per_router * 0 + p.routers_per_group * p.nodes_per_router


class TestDelivery:
    def test_same_router_message_delivered(self):
        sim, topo, fabric = make_fabric()
        src, dst = nodes_same_router(topo)
        msg = Message(1, src, dst, 1000)
        done = []
        msg.on_delivered = lambda m, t: done.append(t)
        fabric.inject(msg)
        sim.run()
        assert done and msg.delivered_time == done[0]
        assert msg.arrived_bytes == 1000
        assert msg.avg_hops == 0.0  # no router-to-router hops

    def test_same_router_delivery_time_vct(self):
        """Cut-through: one serialisation + per-hop latencies."""
        sim, topo, fabric = make_fabric()
        net = fabric.net
        src, dst = nodes_same_router(topo)
        msg = Message(1, src, dst, 1000)
        fabric.inject(msg)
        sim.run()
        dur = 1000 / net.terminal_bw
        hop_lat = net.terminal_latency_ns + net.router_delay_ns
        expected = dur + 2 * hop_lat
        assert msg.delivered_time == pytest.approx(expected, rel=1e-9)

    def test_same_router_delivery_time_store_forward(self):
        """Store-and-forward: every hop pays the full serialisation."""
        import dataclasses

        cfg = tiny()
        net = dataclasses.replace(cfg.network, switching="store_forward")
        topo = build_topology(cfg.topology)
        sim = Simulator()
        fabric = Fabric(sim, topo, net, MinimalRouting(seed=0))
        src, dst = nodes_same_router(topo)
        msg = Message(1, src, dst, 1000)
        fabric.inject(msg)
        sim.run()
        dur = 1000 / net.terminal_bw
        hop_lat = net.terminal_latency_ns + net.router_delay_ns
        expected = 2 * (dur + hop_lat)
        assert msg.delivered_time == pytest.approx(expected, rel=1e-9)

    def test_vct_faster_than_store_forward_on_long_paths(self):
        import dataclasses

        cfg = tiny()
        topo = build_topology(cfg.topology)
        src = 0
        dst = topo.params.routers_per_group * topo.params.nodes_per_router
        times = {}
        for mode in ("vct", "store_forward"):
            net = dataclasses.replace(cfg.network, switching=mode)
            sim = Simulator()
            fabric = Fabric(sim, topo, net, MinimalRouting(seed=0))
            msg = Message(1, src, dst, 2000)
            fabric.inject(msg)
            sim.run()
            times[mode] = msg.delivered_time
        assert times["vct"] < times["store_forward"]

    def test_cross_group_message_uses_global_link(self):
        sim, topo, fabric = make_fabric()
        src = 0
        dst = topo.params.routers_per_group * topo.params.nodes_per_router
        msg = Message(1, src, dst, 500)
        fabric.inject(msg)
        sim.run()
        assert msg.delivered_time > 0
        global_ids = topo.links.global_ids()
        global_bytes = sum(fabric.bytes_tx[int(l)] for l in global_ids)
        assert global_bytes == 500
        assert msg.avg_hops >= 1

    def test_injected_callback_fires_before_delivery(self):
        sim, topo, fabric = make_fabric()
        order = []
        src, dst = nodes_same_group_other_router(topo)
        msg = Message(1, src, dst, 6000)
        msg.on_injected = lambda m, t: order.append(("inj", t))
        msg.on_delivered = lambda m, t: order.append(("del", t))
        fabric.inject(msg)
        sim.run()
        assert [kind for kind, _ in order] == ["inj", "del"]
        assert order[0][1] <= order[1][1]

    def test_multi_packet_reassembly(self):
        sim, topo, fabric = make_fabric()
        src, dst = nodes_same_group_other_router(topo)
        size = 10_000  # five 2 KiB packets
        msg = Message(1, src, dst, size)
        fabric.inject(msg)
        sim.run()
        assert msg.arrived_bytes == size
        assert msg.num_packets == 5


class TestConservation:
    def test_bytes_injected_equal_delivered(self):
        sim, topo, fabric = make_fabric()
        p = topo.params
        msgs = []
        for i in range(40):
            src = i % p.num_nodes
            dst = (i * 7 + 3) % p.num_nodes
            if src == dst:
                continue
            m = Message(i, src, dst, 1000 + 137 * i)
            msgs.append(m)
            fabric.inject(m)
        sim.run()
        assert fabric.bytes_injected == fabric.bytes_delivered
        assert fabric.messages_delivered == len(msgs)
        for m in msgs:
            assert m.arrived_bytes == m.wire_size

    def test_terminal_traffic_matches_wire_size(self):
        sim, topo, fabric = make_fabric()
        src, dst = nodes_other_group(topo)
        msg = Message(1, src, dst, 9999)
        fabric.inject(msg)
        sim.run()
        t_in = topo.terminal_in(src)
        t_out = topo.terminal_out(dst)
        assert fabric.bytes_tx[t_in] == 9999
        assert fabric.bytes_tx[t_out] == 9999


class TestBackpressure:
    def test_saturation_recorded_under_overload(self):
        """Many senders into one destination node saturate its links."""
        sim, topo, fabric = make_fabric()
        p = topo.params
        dst = 0
        for i, src in enumerate(range(1, p.num_nodes)):
            fabric.inject(Message(i, src, dst, 50_000))
        sim.run()
        assert fabric.bytes_injected == fabric.bytes_delivered
        assert sum(fabric.sat_ns) > 0.0

    def test_no_saturation_for_single_light_message(self):
        sim, topo, fabric = make_fabric()
        src, dst = nodes_same_group_other_router(topo)
        fabric.inject(Message(1, src, dst, 1000))
        sim.run()
        assert sum(fabric.sat_ns) == 0.0

    def test_buffer_occupancy_returns_to_zero(self):
        sim, topo, fabric = make_fabric()
        p = topo.params
        for i in range(20):
            fabric.inject(Message(i, i % p.num_nodes, (i + 5) % p.num_nodes, 4000))
        sim.run()
        assert all(v == 0 for v in fabric._buf_used)

    def test_drain_saturation_closes_open_intervals(self):
        sim, topo, fabric = make_fabric()
        p = topo.params
        dst = 0
        for i, src in enumerate(range(1, p.num_nodes)):
            fabric.inject(Message(i, src, dst, 60_000))
        # Stop mid-flight: some links are likely blocked right now.
        run_until(sim, 2000.0)
        before = sum(fabric.sat_ns)
        fabric.drain_saturation()
        after = sum(fabric.sat_ns)
        assert after >= before


class TestVcBound:
    def test_route_exceeding_vcs_raises(self):
        cfg = tiny()
        net = NetworkParams(num_vcs=1)
        topo = build_topology(cfg.topology)
        sim = Simulator()
        fabric = Fabric(sim, topo, net, MinimalRouting(seed=0))
        src, dst = nodes_other_group(topo)
        fabric.inject(Message(1, src, dst, 100))
        with pytest.raises(RuntimeError, match="VCs"):
            sim.run()

    def test_too_many_vcs_rejected_by_fabric(self):
        cfg = tiny()
        net = NetworkParams(num_vcs=16 + 1)
        topo = build_topology(cfg.topology)
        with pytest.raises(ValueError, match="num_vcs"):
            Fabric(Simulator(), topo, net, MinimalRouting(seed=0))


class TestTrafficAccounting:
    def test_local_vs_global_split(self):
        sim, topo, fabric = make_fabric()
        src, dst = nodes_same_group_other_router(topo)
        fabric.inject(Message(1, src, dst, 2000))
        sim.run()
        local = sum(fabric.bytes_tx[int(l)] for l in topo.links.local_ids())
        glob = sum(fabric.bytes_tx[int(l)] for l in topo.links.global_ids())
        assert local == 2000
        assert glob == 0

    def test_kind_masks_cover_all_links(self, tiny_topo):
        kinds = {LinkKind(int(k)) for k in tiny_topo.links.kind}
        assert kinds == {
            LinkKind.TERMINAL_IN,
            LinkKind.TERMINAL_OUT,
            LinkKind.LOCAL_ROW,
            LinkKind.LOCAL_COL,
            LinkKind.GLOBAL,
        }
