"""White-box fabric tests: VC arbitration, credit accounting, stalls."""

import pytest

from repro.config import tiny
from repro.core.runner import build_topology
from repro.engine.simulator import Simulator
from repro.network.fabric import MAX_VCS, Fabric
from repro.network.packet import Message, Packet
from repro.routing import MinimalRouting
from tests.engine_helpers import run_until


def make_fabric(**net_overrides):
    import dataclasses

    cfg = tiny()
    net = dataclasses.replace(cfg.network, **net_overrides)
    topo = build_topology(cfg.topology)
    sim = Simulator()
    return sim, topo, Fabric(sim, topo, net, MinimalRouting(seed=0))


def manual_packet(fabric, link, vc_hop, size=1000):
    """A packet positioned to request ``link`` at a given VC index.

    Builds a synthetic route so that ``link`` sits at router-to-router
    hop ``vc_hop`` (VC index = hop - 1); earlier hops are dummies the
    packet pretends to have traversed.
    """
    msg = Message(1, 0, 1, size)
    pkt = Packet(msg, size, first_link=fabric.topo.terminal_in(0), last=True)
    pkt.route = [fabric.topo.terminal_in(0)] + [link] * (vc_hop + 1)
    pkt.hop = vc_hop + 1  # index of `link` occurrence we request
    pkt.route = pkt.route + [fabric.topo.terminal_out(1)]
    return pkt


class TestVcArbitration:
    def test_round_robin_across_vcs(self):
        """With two VCs holding traffic, service alternates."""
        sim, topo, fabric = make_fabric()
        link = topo.local_link(0, 1)
        assert link is not None
        # Enqueue two packets on different VCs of the same link.
        p1 = manual_packet(fabric, link, vc_hop=0)
        p2 = manual_packet(fabric, link, vc_hop=1)
        fabric._enqueue(p1, link)
        fabric._enqueue(p2, link)
        # Both scheduled; the serializer processes them sequentially.
        assert fabric.busy_until[link] > 0
        assert fabric._wait_count[link] == 1  # one waiting, one in flight

    def test_blocked_head_does_not_block_other_vcs(self):
        """A credit-starved VC must not stall traffic on another VC
        (the deadlock-freedom prerequisite)."""
        sim, topo, fabric = make_fabric()
        link = topo.local_link(0, 1)
        cap = fabric.buf[link]
        # Exhaust VC 0's downstream buffer artificially.
        fabric._buf_used[link * MAX_VCS + 0] = cap
        p_vc0 = manual_packet(fabric, link, vc_hop=0)  # hop 1 -> VC 0
        p_vc1 = manual_packet(fabric, link, vc_hop=1)  # hop 2 -> VC 1
        fabric._enqueue(p_vc0, link)  # cannot go: VC0 buffer full
        assert fabric.busy_until[link] == 0.0
        fabric._enqueue(p_vc1, link)  # must go despite VC0's stall
        assert fabric.busy_until[link] > 0.0

    def test_saturation_interval_opens_and_closes(self):
        sim, topo, fabric = make_fabric()
        link = topo.local_link(0, 1)
        cap = fabric.buf[link]
        fabric._buf_used[link * MAX_VCS + 0] = cap
        pkt = manual_packet(fabric, link, vc_hop=0)
        fabric._enqueue(pkt, link)
        assert fabric._blocked_since[link] == 0.0  # opened at t=0
        # Free the buffer and re-kick at a later time.
        sim.at(1000.0, lambda: None)
        sim.run()
        fabric._buf_used[link * MAX_VCS + 0] = 0
        fabric._try_transmit(link)
        assert fabric.sat_ns[link] == pytest.approx(1000.0)
        assert fabric._blocked_since[link] == -1.0


class TestCreditAccounting:
    def test_inflight_packet_holds_downstream_buffer(self):
        sim, topo, fabric = make_fabric()
        src, dst = 0, topo.params.nodes_per_router  # adjacent routers
        msg = Message(1, src, dst, 1000)
        fabric.inject(msg)
        # After the injection event, the terminal-in buffer is claimed.
        t_in = topo.terminal_in(src)
        run_until(sim, 1.0)
        assert fabric._buf_used[t_in * MAX_VCS] == 1000
        sim.run()
        assert fabric._buf_used[t_in * MAX_VCS] == 0

    def test_queued_bytes_track_waiting_traffic(self):
        sim, topo, fabric = make_fabric()
        src, dst = 0, topo.params.nodes_per_router
        for i in range(5):
            fabric.inject(Message(i + 1, src, dst, 2000))
        t_in = topo.terminal_in(src)
        # One packet is already in flight (transmission starts at
        # enqueue time); the other four wait at the NIC.
        assert fabric.queued_bytes[t_in] == 8_000
        sim.run()
        assert fabric.queued_bytes[t_in] == 0


class TestTieredBuffers:
    def test_global_buffer_larger_than_local(self):
        sim, topo, fabric = make_fabric()
        local = topo.links.local_ids()
        glob = topo.links.global_ids()
        assert fabric.buf[int(local[0])] == fabric.net.local_vc_buffer
        assert fabric.buf[int(glob[0])] == fabric.net.global_vc_buffer
        assert fabric.buf[int(glob[0])] > fabric.buf[int(local[0])]
