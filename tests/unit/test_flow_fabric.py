"""Whitebox tests of the fluid fabric: analytic rates, NIC
serialisation, fair sharing, and the saturation proxy."""

from __future__ import annotations

import math

import pytest

import repro
from repro.engine.simulator import Simulator
from repro.flow.fabric import FlowFabric
from repro.network.packet import Message


@pytest.fixture(scope="module")
def cfg():
    return repro.tiny()


@pytest.fixture(scope="module")
def topo(cfg):
    return repro.Dragonfly(cfg.topology)


def make_fabric(cfg, topo, routing="min"):
    sim = Simulator()
    return sim, FlowFabric(sim, topo, cfg.network, routing)


def send(fabric, msg_id, src, dst, size, at=0.0):
    """Inject one message at time ``at`` and return it."""
    msg = Message(msg_id, src, dst, size)
    fabric.sim.at(at, fabric.inject, msg)
    return msg


def same_router_pair(topo):
    for s in range(topo.num_nodes):
        for d in range(topo.num_nodes):
            if s != d and topo.router_of(s) == topo.router_of(d):
                return s, d
    raise AssertionError("tiny preset has multi-node routers")


class TestSingleFlow:
    def test_analytic_drain_and_delivery(self, cfg, topo):
        """A lone same-router flow drains at terminal bandwidth and is
        delivered one path latency later."""
        sim, fabric = make_fabric(cfg, topo)
        src, dst = same_router_pair(topo)
        size = 64 * 1024
        msg = send(fabric, 0, src, dst, size)
        sim.run()
        bw = cfg.network.terminal_bw
        assert math.isclose(msg.injected_time, size / bw, rel_tol=1e-9)
        entry = fabric.routes.entry(src, dst)
        assert math.isclose(
            msg.delivered_time - msg.injected_time,
            entry.latency_ns,
            rel_tol=1e-9,
        )
        assert msg.arrived_bytes == size
        assert fabric.messages_delivered == 1
        assert fabric.bytes_delivered == size

    def test_lone_flow_never_counts_as_saturation(self, cfg, topo):
        """A single flow pinned at its own bottleneck is healthy
        progress — the proxy requires two contending flows."""
        sim, fabric = make_fabric(cfg, topo)
        src, dst = same_router_pair(topo)
        send(fabric, 0, src, dst, 1024 * 1024)
        sim.run()
        fabric.drain_saturation()
        assert sum(fabric.sat_ns) == 0.0

    def test_bytes_tx_counts_wire_bytes_per_link(self, cfg, topo):
        sim, fabric = make_fabric(cfg, topo)
        src, dst = same_router_pair(topo)
        size = 16 * 1024
        send(fabric, 0, src, dst, size)
        sim.run()
        fabric.drain_saturation()
        assert fabric.bytes_tx[topo.terminal_in(src)] == size
        assert fabric.bytes_tx[topo.terminal_out(dst)] == size
        assert sum(fabric.bytes_tx) == 2 * size

    def test_min_routing_is_all_minimal(self, cfg, topo):
        sim, fabric = make_fabric(cfg, topo)
        send(fabric, 0, 0, topo.num_nodes - 1, 64 * 1024)
        sim.run()
        assert fabric.nonminimal_fraction == 0.0

    def test_hop_accounting_matches_entry(self, cfg, topo):
        """Delivered hop metadata reproduces the route expectation."""
        sim, fabric = make_fabric(cfg, topo)
        src, dst = 0, topo.num_nodes - 1
        size = 64 * 1024
        msg = send(fabric, 0, src, dst, size)
        sim.run()
        entry = fabric.routes.entry(src, dst)
        assert msg.num_packets == -(-size // cfg.network.packet_size)
        assert math.isclose(msg.avg_hops, entry.rr_hops, rel_tol=1e-9)


class TestNicSerialisation:
    def test_same_source_messages_serialise(self, cfg, topo):
        """The packet NIC is FIFO, so two concurrent messages from one
        node inject back-to-back, not in parallel."""
        sim, fabric = make_fabric(cfg, topo)
        src, dst = same_router_pair(topo)
        size = 32 * 1024
        first = send(fabric, 0, src, dst, size)
        second = send(fabric, 1, src, dst, size)
        sim.run()
        bw = cfg.network.terminal_bw
        assert math.isclose(first.injected_time, size / bw, rel_tol=1e-9)
        assert math.isclose(
            second.injected_time, 2 * size / bw, rel_tol=1e-9
        )

    def test_successor_starts_at_exact_finish(self, cfg, topo):
        """NIC turnaround is not quantised to the admission epoch."""
        sim, fabric = make_fabric(cfg, topo)
        src, dst = same_router_pair(topo)
        size = 3000  # drains mid-epoch
        first = send(fabric, 0, src, dst, size)
        second = send(fabric, 1, src, dst, size)
        sim.run()
        assert math.isclose(
            second.injected_time - first.injected_time,
            size / cfg.network.terminal_bw,
            rel_tol=1e-9,
        )

    def test_distinct_sources_inject_in_parallel(self, cfg, topo):
        sim, fabric = make_fabric(cfg, topo)
        src, dst = same_router_pair(topo)
        other = next(
            n
            for n in range(topo.num_nodes)
            if n not in (src, dst) and topo.router_of(n) != topo.router_of(src)
        )
        size = 32 * 1024
        a = send(fabric, 0, src, dst, size)
        b = send(fabric, 1, other, dst, size)
        sim.run()
        # Different NICs drain concurrently: each flow finishes before
        # the *sum* of their stand-alone drain times (a serialising NIC
        # would force one of them past it). Flow b's stand-alone floor
        # is its slowest path link, not the terminal.
        alone_a = size / cfg.network.terminal_bw
        alone_b = size / min(
            fabric.bw[lid] for lid, _ in fabric.routes.entry(other, dst).links
        )
        assert a.injected_time < alone_a + alone_b
        assert b.injected_time < alone_a + alone_b


def contended_trio(topo, fabric):
    """Two sources whose minimal routes both put weight 1.0 on one
    router-to-router link toward a common destination."""
    for dst in range(topo.num_nodes):
        t_out = topo.terminal_out(dst)
        by_link: dict[int, list[int]] = {}
        for src in range(topo.num_nodes):
            if src == dst or topo.router_of(src) == topo.router_of(dst):
                continue
            t_in = topo.terminal_in(src)
            for lid, w in fabric.routes.entry(src, dst).links:
                if lid not in (t_in, t_out) and w == 1.0:
                    by_link.setdefault(lid, []).append(src)
        for lid, srcs in by_link.items():
            if len(srcs) >= 2:
                return srcs[0], srcs[1], dst, lid
    raise AssertionError("tiny topology offers no shared weight-1 link")


class TestFairSharing:
    def test_shared_link_splits_bandwidth(self, cfg, topo):
        """Two flows forced over one router link get half its rate
        each (weighted max-min with weight 2 on the bottleneck)."""
        sim, fabric = make_fabric(cfg, topo)
        src_a, src_b, dst, lid = contended_trio(topo, fabric)
        size = 64 * 1024
        a = send(fabric, 0, src_a, dst, size)
        b = send(fabric, 1, src_b, dst, size)
        sim.run()
        expect = 2 * size / fabric.bw[lid]
        assert math.isclose(a.injected_time, expect, rel_tol=1e-6)
        assert math.isclose(b.injected_time, expect, rel_tol=1e-6)

    def test_contended_bottleneck_accrues_sat_time(self, cfg, topo):
        sim, fabric = make_fabric(cfg, topo)
        src_a, src_b, dst, lid = contended_trio(topo, fabric)
        send(fabric, 0, src_a, dst, 256 * 1024)
        send(fabric, 1, src_b, dst, 256 * 1024)
        sim.run()
        fabric.drain_saturation()
        assert fabric.sat_ns[lid] > 0.0
        # Only the contended link saturates; each ingress terminal
        # serves one flow and stays congestion-free.
        assert fabric.sat_ns[topo.terminal_in(src_a)] == 0.0


class TestConservation:
    def test_every_injected_byte_is_delivered(self, cfg, topo):
        sim, fabric = make_fabric(cfg, topo, routing="adp")
        rng_pairs = [
            (0, 9),
            (3, 17),
            (5, 23),
            (8, 2),
            (12, 21),
        ]
        total = 0
        t = 0.0
        for i, (s, d) in enumerate(rng_pairs):
            size = (i + 1) * 24 * 1024
            send(fabric, i, s, d, size, at=t)
            total += size
            t += 700.0
        sim.run()
        assert fabric.bytes_injected == total
        assert fabric.bytes_delivered == total
        assert fabric.messages_delivered == len(rng_pairs)
        assert fabric.packets_delivered == fabric.packets_injected
        # The pending-load ledger fully reconciles once traffic drains.
        assert max(map(abs, fabric._load)) < 1e-6

    def test_adaptive_flows_count_nonminimal_bytes(self, cfg, topo):
        sim, fabric = make_fabric(cfg, topo, routing="adp")
        # A large inter-group message spills onto Valiant paths.
        src = 0
        dst = topo.num_nodes - 1
        send(fabric, 0, src, dst, 512 * 1024)
        sim.run()
        assert 0.0 < fabric.nonminimal_fraction < 1.0


class TestWakeRearm:
    """Regression: the wake machinery must make progress even when
    floating-point time resolution collapses the next finish time."""

    def test_no_livelock_when_finish_time_rounds_to_now(self, cfg, topo):
        """At huge simulated times ``now + remaining/rate`` can round
        back to ``now``; re-arming the wake at the same instant then
        spins forever (same-timestamp wakes re-arm without settling any
        bytes). The fix bumps the re-arm one ulp forward, which
        over-covers the sub-ulp residual and finishes the flow.
        Before the fix this raised ``RuntimeError: simulation exceeded
        10000 events`` with zero deliveries."""
        sim = Simulator()
        fabric = FlowFabric(sim, topo, cfg.network, "min")
        src, dst = same_router_pair(topo)
        msg = Message(0, src, dst, 100)
        sim.at(1e18, fabric.inject, msg)
        sim.run(max_events=10_000)
        assert fabric.messages_delivered == 1
        assert fabric.bytes_delivered == 100
        assert msg.delivered_time > 1e18

    def test_normal_times_unaffected_by_ulp_guard(self, cfg, topo):
        """At ordinary magnitudes the guard never engages: delivery
        matches the analytic drain + latency exactly (the existing
        single-flow timing test pins the same arithmetic; this one
        pins it right next to the collapse regression)."""
        sim, fabric = make_fabric(cfg, topo)
        src, dst = same_router_pair(topo)
        size = 4096
        msg = send(fabric, 0, src, dst, size)
        sim.run()
        bw = cfg.network.terminal_bw
        entry = fabric.routes.entry(src, dst)
        assert math.isclose(
            msg.delivered_time,
            size / bw + entry.latency_ns,
            rel_tol=1e-12,
        )
