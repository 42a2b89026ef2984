"""Background-traffic injector tests (paper Section IV-C)."""

import pytest

from repro.apps.synthetic import BACKGROUND_JOB_ID, BurstyTraffic, UniformRandomTraffic
from repro.config import tiny
from repro.core.runner import build_topology
from repro.engine.simulator import Simulator
from repro.network.fabric import Fabric
from repro.routing import MinimalRouting
from tests.engine_helpers import run_until


def make_fabric():
    cfg = tiny()
    topo = build_topology(cfg.topology)
    sim = Simulator()
    return sim, topo, Fabric(sim, topo, cfg.network, MinimalRouting(seed=0))


class TestUniformRandom:
    def test_emits_one_message_per_node_per_interval(self):
        sim, topo, fabric = make_fabric()
        nodes = list(range(8))
        inj = UniformRandomTraffic(nodes, 1000, interval_ns=10_000.0, seed=1)
        inj.start(sim, fabric)
        run_until(sim, 100_000.0)
        # ~10 intervals x 8 nodes (start offsets shave off < 1 interval).
        assert 60 <= inj.messages_sent <= 88
        assert inj.bytes_sent == inj.messages_sent * 1000

    def test_destinations_stay_within_job(self):
        sim, topo, fabric = make_fabric()
        nodes = [2, 5, 7, 11]
        seen = set()
        inj = UniformRandomTraffic(nodes, 100, interval_ns=1000.0, seed=1)
        original = inj._send

        def spy(src, dst, size):
            seen.add((src, dst))
            original(src, dst, size)

        inj._send = spy
        inj.start(sim, fabric)
        run_until(sim, 50_000.0)
        for src, dst in seen:
            assert src in nodes and dst in nodes
            assert src != dst

    def test_peak_load(self):
        inj = UniformRandomTraffic(list(range(10)), 500, interval_ns=1.0)
        assert inj.peak_load_bytes() == 10 * 500

    def test_messages_tagged_background(self):
        sim, topo, fabric = make_fabric()
        captured = []
        orig_inject = fabric.inject
        fabric.inject = lambda m: (captured.append(m), orig_inject(m))
        inj = UniformRandomTraffic(list(range(4)), 100, interval_ns=1000.0, seed=1)
        inj.start(sim, fabric)
        run_until(sim, 5000.0)
        assert captured
        assert all(m.job == BACKGROUND_JOB_ID for m in captured)

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformRandomTraffic([0], 100, 1000.0)  # needs >= 2 nodes
        with pytest.raises(ValueError):
            UniformRandomTraffic([0, 1], 0, 1000.0)
        with pytest.raises(ValueError):
            UniformRandomTraffic([0, 1], 100, 0.0)


class TestBursty:
    def test_full_fanout_by_default(self):
        sim, topo, fabric = make_fabric()
        nodes = list(range(6))
        inj = BurstyTraffic(nodes, 200, interval_ns=1_000_000.0, seed=1)
        inj.start(sim, fabric)
        run_until(sim, 999_999.0)  # stop just before the second pulse
        # One burst per node: 6 nodes x 5 peers, all at t=0 (synchronised).
        assert inj.messages_sent == 30

    def test_fanout_capped(self):
        inj = BurstyTraffic(list(range(4)), 100, 1000.0, fanout=10)
        assert inj.fanout == 3

    def test_limited_fanout(self):
        sim, topo, fabric = make_fabric()
        inj = BurstyTraffic(list(range(6)), 100, 1_000_000.0, fanout=2, seed=1)
        inj.start(sim, fabric)
        run_until(sim, 999_999.0)
        assert inj.messages_sent == 12

    def test_peak_load_table2_formula(self):
        """Table II: total message load among all ranks per interval."""
        inj = BurstyTraffic(list(range(8)), 1_000_000, 1.0)
        assert inj.peak_load_bytes() == 8 * 7 * 1_000_000

    def test_start_offset(self):
        sim, topo, fabric = make_fabric()
        inj = BurstyTraffic(
            list(range(4)), 100, 50_000.0, fanout=1, seed=1, start_ns=200_000.0
        )
        inj.start(sim, fabric)
        run_until(sim, 150_000.0)
        assert inj.messages_sent == 0
        run_until(sim, 400_000.0)
        assert inj.messages_sent > 0
