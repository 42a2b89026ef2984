"""Property tests of the max-min fill.

``tests/unit/test_solver_oracle.py`` proves ``solve_scalar`` equal to
the historical fill bit for bit; this suite checks the max-min
invariants *themselves* on ``solve_scalar``, so a bug shared by the
pair (or a wrong "invariant") cannot hide behind agreement. Synthetic
flow/unit stand-ins mirror the fabric's duck-typed contract
(``flow.units``, ``unit.links``, ``unit.rate``, ``flow.rate``). A
conservation check then drives the object fabric, which calls the
same fill, end to end.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

import repro
from repro.engine.simulator import Simulator
from repro.flow.fabric import FlowFabric
from repro.flow.solver import solve_scalar
from repro.network.packet import Message
from tests.flow_oracle import build, link_loads


@st.composite
def instances(draw):
    n_links = draw(st.integers(1, 8))
    caps = draw(
        st.lists(
            st.floats(0.5, 64.0), min_size=n_links, max_size=n_links
        )
    )
    flow_specs = []
    for _ in range(draw(st.integers(1, 6))):
        units = []
        for _ in range(draw(st.integers(1, 2))):
            lids = draw(
                st.lists(
                    st.integers(0, n_links - 1),
                    min_size=1,
                    max_size=min(4, n_links),
                    unique=True,
                )
            )
            units.append(
                [(lid, draw(st.floats(0.25, 4.0))) for lid in lids]
            )
        flow_specs.append(units)
    return caps, flow_specs


def _solve(caps, flow_specs):
    flows = build(flow_specs)
    solve_scalar(flows, caps)
    return flows


class TestMaxMinProperties:
    """The max-min invariants, asserted on ``solve_scalar``."""

    @settings(max_examples=60, deadline=None)
    @given(inst=instances())
    def test_capacity_feasibility(self, inst):
        """No link is loaded beyond its capacity."""
        caps, flow_specs = inst
        flows = _solve(caps, flow_specs)
        for lid, load in enumerate(link_loads(caps, flows)):
            assert load <= caps[lid] * (1.0 + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(inst=instances())
    def test_bottleneck_condition(self, inst):
        """Every unit is pinned by at least one saturated link — the
        defining property of a max-min fair allocation (no unit can be
        raised without lowering another)."""
        caps, flow_specs = inst
        flows = _solve(caps, flow_specs)
        load = link_loads(caps, flows)
        for f in flows:
            for u in f.units:
                slack = min(
                    (caps[lid] - load[lid]) / caps[lid] for lid, _ in u.links
                )
                assert slack <= 1e-6, (slack, u.links)

    @settings(max_examples=40, deadline=None)
    @given(inst=instances(), data=st.data())
    def test_min_rate_monotone_in_capacity(self, inst, data):
        """Raising one link's capacity never lowers the *minimum* unit
        rate (the first bottleneck's fill level). NOTE: per-unit and
        total-throughput monotonicity are NOT max-min theorems — see
        ``test_total_throughput_not_monotone_counterexample``."""
        caps, flow_specs = inst
        lid = data.draw(st.integers(0, len(caps) - 1))
        factor = data.draw(st.floats(1.0, 8.0))
        flows = _solve(caps, flow_specs)
        raised_caps = list(caps)
        raised_caps[lid] *= factor
        raised = _solve(raised_caps, flow_specs)
        lo = min(u.rate for f in flows for u in f.units)
        hi = min(u.rate for f in raised for u in f.units)
        assert hi >= lo * (1.0 - 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(inst=instances(), k=st.integers(-3, 6))
    def test_power_of_two_homogeneity_is_exact(self, inst, k):
        """Scaling every capacity by 2**k scales every rate by exactly
        2**k — bit-exact, because binary scaling commutes with every
        float add/multiply/divide the fill performs."""
        caps, flow_specs = inst
        scale = 2.0 ** k
        flows = _solve(caps, flow_specs)
        scaled = _solve([c * scale for c in caps], flow_specs)
        for f, g in zip(flows, scaled):
            assert g.rate == f.rate * scale
            for u, v in zip(f.units, g.units):
                assert v.rate == u.rate * scale

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 12),
        cap=st.floats(0.5, 64.0),
        w=st.floats(0.25, 4.0),
    )
    def test_identical_units_share_equally(self, n, cap, w):
        """n identical single-link units each get cap/(n*w), exhausting
        the link: fair-share equality inside one bottleneck."""
        flow_specs = [[[(0, w)]] for _ in range(n)]
        flows = _solve([cap], flow_specs)
        rates = [f.units[0].rate for f in flows]
        assert len(set(rates)) == 1
        assert math.isclose(sum(r * w for r in rates), cap, rel_tol=1e-9)

    def test_total_throughput_not_monotone_counterexample(self):
        """Documents why the suite does NOT assert per-unit or total
        monotonicity in capacity: raising link L's capacity from 1 to 5
        lets the three-hop flow B grab more of links M and N, squeezing
        the single-hop flows C and D and *lowering* the total. (B
        crosses L, M, N; C crosses M; D crosses N; caps M = N = 10.)"""
        spec = [
            [[(0, 1.0), (1, 1.0), (2, 1.0)]],
            [[(1, 1.0)]],
            [[(2, 1.0)]],
        ]
        before = _solve([1.0, 10.0, 10.0], spec)
        after = _solve([5.0, 10.0, 10.0], spec)
        assert [f.rate for f in before] == [1.0, 9.0, 9.0]
        assert [f.rate for f in after] == [5.0, 5.0, 5.0]
        total_before = sum(f.rate for f in before)
        total_after = sum(f.rate for f in after)
        assert total_after < total_before  # 19 -> 15


class TestFabricConservation:
    """End-to-end conservation through the object fabric."""

    def test_every_injected_byte_is_delivered(self):
        cfg = repro.tiny()
        topo = repro.Dragonfly(cfg.topology)
        sim = Simulator()
        fabric = FlowFabric(sim, topo, cfg.network, "adp")
        rng = random.Random(13)
        total = 0
        for i in range(40):
            src, dst = rng.sample(range(topo.num_nodes), 2)
            size = rng.randint(1, 96 * 1024)
            total += size
            sim.at(
                rng.uniform(0.0, 5000.0), fabric.inject,
                Message(i, src, dst, size),
            )
        sim.run()
        assert fabric.bytes_delivered == total
        assert fabric.messages_delivered == 40
        assert fabric.packets_delivered == fabric.packets_injected
