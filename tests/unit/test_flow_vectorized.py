"""Differential and property-based tests of the max-min solvers.

The vectorized solver (``repro.flow.solver.solve_vector``) must match
the historical scalar fill (``tests/flow_oracle.py``) on every
allocation it produces; the property suite then checks the max-min
invariants *themselves* on both production implementations, so a bug
shared by the pair (or a wrong "invariant") cannot hide behind
agreement. Synthetic flow/unit stand-ins mirror the fabric's
duck-typed contract (``flow.units``, ``unit.links``, ``unit.rate``,
``flow.rate``) and let the harness drive the solvers at sizes and
shapes the tiny grid never reaches — including forcing the numpy path
below its adaptive-dispatch floor with ``min_units=0``.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.engine.simulator import Simulator
from repro.flow.fabric import FlowFabric
from repro.flow.solver import (
    DEFAULT_SOLVER,
    SOLVER_NAMES,
    VECTOR_MIN_UNITS,
    get_solver,
    solve_scalar,
    solve_vector,
)
from repro.network.packet import Message
from tests.flow_oracle import build, random_instance, rates_of, solve_scalar_oracle

REL_TOL = 1e-9


def assert_allocations_match(caps, flow_specs, rel_tol=REL_TOL):
    """Solve one instance with the numpy path and the oracle and compare
    everything."""
    fs = build(flow_specs)
    sat_s = solve_scalar_oracle(fs, caps)
    fv = build(flow_specs)
    sat_v = solve_vector(fv, caps, min_units=0)
    assert sat_s == sat_v
    for got, want in zip(rates_of(fv), rates_of(fs)):
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=rel_tol, abs_tol=1e-30), (
                g, w, caps, flow_specs,
            )
    return fs, fv


def link_loads(caps, flows):
    """Recompute per-link load from the final unit rates."""
    load = [0.0] * len(caps)
    for f in flows:
        for u in f.units:
            for lid, w in u.links:
                load[lid] += w * u.rate
    return load


class TestDifferential:
    @pytest.mark.parametrize("seed", range(25))
    def test_vector_matches_scalar_on_random_instances(self, seed):
        rng = random.Random(seed)
        caps, flow_specs = random_instance(rng)
        assert_allocations_match(caps, flow_specs)

    def test_numpy_path_engages_above_dispatch_floor(self):
        """A large instance runs the real numpy path under the default
        dispatch and still matches the oracle."""
        rng = random.Random(99)
        flow_specs = []
        n_links = 40
        caps = [rng.uniform(1.0, 50.0) for _ in range(n_links)]
        while sum(len(u) for u in flow_specs) < 2 * VECTOR_MIN_UNITS:
            units = []
            for _ in range(rng.randint(1, 2)):
                lids = rng.sample(range(n_links), rng.randint(1, 4))
                units.append([(lid, rng.uniform(0.25, 4.0)) for lid in lids])
            flow_specs.append(units)
        fs = build(flow_specs)
        sat_s = solve_scalar_oracle(fs, caps)
        fv = build(flow_specs)
        sat_v = solve_vector(fv, caps)  # default min_units: numpy path
        assert sat_s == sat_v
        for got, want in zip(rates_of(fv), rates_of(fs)):
            for g, w in zip(got, want):
                assert math.isclose(g, w, rel_tol=REL_TOL, abs_tol=1e-30)

    def test_small_instances_dispatch_bit_identically(self):
        """Below the floor ``solve_vector`` delegates to the scalar
        fill, so results equal the oracle exactly, not just closely."""
        rng = random.Random(7)
        for _ in range(10):
            caps, flow_specs = random_instance(rng, max_links=6, max_flows=5)
            assert sum(len(u) for u in flow_specs) < VECTOR_MIN_UNITS
            fs = build(flow_specs)
            sat_s = solve_scalar_oracle(fs, caps)
            fv = build(flow_specs)
            sat_v = solve_vector(fv, caps)
            assert sat_s == sat_v
            assert rates_of(fv) == rates_of(fs)

    def test_single_unit_fast_path_is_exact(self):
        caps = [8.0, 2.0, 12.0]
        spec = [[[(0, 1.0), (1, 0.5), (2, 2.0)]]]
        fv = build(spec)
        assert solve_vector(fv, caps, min_units=0) == []
        # Bottleneck is link 1: 2.0 / 0.5.
        assert fv[0].units[0].rate == 4.0
        assert fv[0].rate == 4.0
        fs = build(spec)
        assert solve_scalar_oracle(fs, caps) == []
        assert rates_of(fs) == rates_of(fv)

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_empty_instance(self, name):
        assert get_solver(name)([], [1.0, 2.0]) == []

    def test_get_solver_rejects_unknown_names(self):
        assert get_solver("scalar") is solve_scalar
        assert get_solver("vector") is solve_vector
        assert DEFAULT_SOLVER in SOLVER_NAMES
        with pytest.raises(ValueError, match="unknown flow solver"):
            get_solver("gurobi")


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


def _solve(name, caps, flow_specs):
    flows = build(flow_specs)
    if name == "vector":
        solve_vector(flows, caps, min_units=0)
    else:
        solve_scalar(flows, caps)
    return flows


class TestMaxMinProperties:
    """The max-min invariants, asserted on both implementations."""

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(inst=instances())
    def test_capacity_feasibility(self, name, inst):
        """No link is loaded beyond its capacity."""
        caps, flow_specs = inst
        flows = _solve(name, caps, flow_specs)
        for lid, load in enumerate(link_loads(caps, flows)):
            assert load <= caps[lid] * (1.0 + 1e-9)

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(inst=instances())
    def test_bottleneck_condition(self, name, inst):
        """Every unit is pinned by at least one saturated link — the
        defining property of a max-min fair allocation (no unit can be
        raised without lowering another)."""
        caps, flow_specs = inst
        flows = _solve(name, caps, flow_specs)
        load = link_loads(caps, flows)
        for f in flows:
            for u in f.units:
                slack = min(
                    (caps[lid] - load[lid]) / caps[lid] for lid, _ in u.links
                )
                assert slack <= 1e-6, (slack, u.links)

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(inst=instances(), data=st.data())
    def test_min_rate_monotone_in_capacity(self, name, inst, data):
        """Raising one link's capacity never lowers the *minimum* unit
        rate (the first bottleneck's fill level). NOTE: per-unit and
        total-throughput monotonicity are NOT max-min theorems — see
        ``test_total_throughput_not_monotone_counterexample``."""
        caps, flow_specs = inst
        lid = data.draw(st.integers(0, len(caps) - 1))
        factor = data.draw(st.floats(1.0, 8.0))
        flows = _solve(name, caps, flow_specs)
        raised_caps = list(caps)
        raised_caps[lid] *= factor
        raised = _solve(name, raised_caps, flow_specs)
        lo = min(u.rate for f in flows for u in f.units)
        hi = min(u.rate for f in raised for u in f.units)
        assert hi >= lo * (1.0 - 1e-9)

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(inst=instances(), k=st.integers(-3, 6))
    def test_power_of_two_homogeneity_is_exact(self, name, inst, k):
        """Scaling every capacity by 2**k scales every rate by exactly
        2**k — bit-exact, because binary scaling commutes with every
        float add/multiply/divide the solvers perform."""
        caps, flow_specs = inst
        scale = 2.0 ** k
        flows = _solve(name, caps, flow_specs)
        scaled = _solve(name, [c * scale for c in caps], flow_specs)
        for f, g in zip(flows, scaled):
            assert g.rate == f.rate * scale
            for u, v in zip(f.units, g.units):
                assert v.rate == u.rate * scale

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 12),
        cap=st.floats(0.5, 64.0),
        w=st.floats(0.25, 4.0),
    )
    def test_identical_units_share_equally(self, name, n, cap, w):
        """n identical single-link units each get cap/(n*w), exhausting
        the link: fair-share equality inside one bottleneck."""
        flow_specs = [[[(0, w)]] for _ in range(n)]
        flows = _solve(name, [cap], flow_specs)
        rates = [f.units[0].rate for f in flows]
        assert len(set(rates)) == 1
        assert math.isclose(sum(r * w for r in rates), cap, rel_tol=1e-9)

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_total_throughput_not_monotone_counterexample(self, name):
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
        before = _solve(name, [1.0, 10.0, 10.0], spec)
        after = _solve(name, [5.0, 10.0, 10.0], spec)
        assert [f.rate for f in before] == [1.0, 9.0, 9.0]
        assert [f.rate for f in after] == [5.0, 5.0, 5.0]
        total_before = sum(f.rate for f in before)
        total_after = sum(f.rate for f in after)
        assert total_after < total_before  # 19 -> 15


class TestFabricConservation:
    """End-to-end conservation through the fabric, on both solvers."""

    @pytest.fixture(scope="class")
    def cfg(self):
        return repro.tiny()

    @pytest.fixture(scope="class")
    def topo(self, cfg):
        return repro.Dragonfly(cfg.topology)

    @pytest.mark.parametrize("solver", SOLVER_NAMES)
    def test_every_injected_byte_is_delivered(self, cfg, topo, solver):
        sim = Simulator()
        fabric = FlowFabric(sim, topo, cfg.network, "adp", solver=solver)
        assert fabric.solver == solver
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

    def test_env_knob_selects_solver(self, cfg, topo, monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_SOLVER", "scalar")
        sim = Simulator()
        fabric = FlowFabric(sim, topo, cfg.network, "min")
        assert fabric.solver == "scalar"
        assert fabric._solve_fn is solve_scalar
        monkeypatch.delenv("REPRO_FLOW_SOLVER")
        fabric = FlowFabric(Simulator(), topo, cfg.network, "min")
        assert fabric.solver == DEFAULT_SOLVER

    def test_unknown_solver_rejected(self, cfg, topo):
        with pytest.raises(ValueError, match="unknown flow solver"):
            FlowFabric(Simulator(), topo, cfg.network, "min", solver="nope")
