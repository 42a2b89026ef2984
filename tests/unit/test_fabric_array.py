"""Whitebox tests of the array flow fabric and its support layers:
the fast spill path's bit-exactness against the oracle emulation, the
maintained link-aggregate invariants, and the fill check at every size.

The cross-driver physics equivalence (object vs array fabric over the
full grid, repeat runs, worker pools) lives in
``tests/integration/test_flow_equivalence.py``; this module pins the
internals those promises rest on.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import repro
from repro.core.runner import build_topology
from repro.engine.simulator import Simulator
from repro.flow.fabric_array import ArrayFlowFabric
from repro.flow.routes import FlowRouteModel
from repro.network.packet import Message
from tests.flow_oracle import checked_array_fabric, emulate_oracle, spill_oracle


@pytest.fixture(scope="module")
def cfg():
    return repro.tiny()


@pytest.fixture(scope="module")
def topo(cfg):
    return repro.Dragonfly(cfg.topology)


def _workload(topo, n_msgs, seed, max_size=96 * 1024):
    """A deterministic random burst of distinct-pair messages."""
    rng = random.Random(seed)
    nodes = range(topo.num_nodes)
    out = []
    for i in range(n_msgs):
        src, dst = rng.sample(nodes, 2)
        size = rng.randrange(512, max_size)
        at = rng.uniform(0.0, 5_000.0)
        out.append((i, src, dst, size, at))
    return out


def _run_workload(fabric, msgs):
    """Inject ``msgs``, drain the sim, and return the physics."""
    sim = fabric.sim
    out = []
    for mid, src, dst, size, at in msgs:
        msg = Message(mid, src, dst, size)
        out.append(msg)
        sim.at(at, fabric.inject, msg)
    sim.run()
    fabric.drain_saturation()
    return out


class TestSpillFastExactness:
    def test_spill_fast_matches_reference_bit_for_bit(self, cfg, topo):
        """The restructured spill emulation returns the *same tuple of
        entries* as the oracle, idle and under random cross-flow load.
        Two separate models, and an unmemoised oracle, so the idle-spill
        memo cannot mask a divergence."""
        ref = FlowRouteModel(topo, cfg.network, "adp")
        fast = FlowRouteModel(topo, cfg.network, "adp")
        rng = random.Random(42)
        n_links = topo.num_links
        for _ in range(60):
            src, dst = rng.sample(range(topo.num_nodes), 2)
            size = rng.randrange(256, 512 * 1024)
            if rng.random() < 0.4:
                load = None
                load_np = None
            else:
                load = [0.0] * n_links
                for _ in range(rng.randrange(1, 12)):
                    load[rng.randrange(n_links)] = rng.uniform(0.0, 8e5)
                load_np = np.asarray(load)
            a = spill_oracle(ref, src, dst, size, load)
            b = fast.spill_fast(src, dst, size, load_np)
            assert a == b, (src, dst, size)

    def test_emulate_empty_candidate_set(self, cfg, topo):
        """No scoreable candidates (degenerate inputs) must yield an
        empty spread, not an IndexError in the quantum loop."""
        model = FlowRouteModel(topo, cfg.network, "adp")
        no_rows = ((),) * 8
        assert model._emulate_fast(0, no_rows, 4, None) == ()
        assert emulate_oracle(model, 0, (), 4, None) == ()


def _check_invariants(fabric):
    """The maintained link aggregates match a from-scratch rebuild over
    the currently admitted units."""
    lw: dict[int, float] = {}
    lc: dict[int, int] = {}
    lu: dict[int, list[int]] = {}
    lb: dict[int, float] = {}
    for us in fabric._act_units:
        ub = fabric._u_bound[us]
        for lid, w in fabric._u_links[us]:
            lw[lid] = lw.get(lid, 0.0) + w
            lc[lid] = lc.get(lid, 0) + 1
            lu.setdefault(lid, []).append(us)
            lb[lid] = lb.get(lid, 0.0) + w * ub
    assert {lid: rec[9] for lid, rec in fabric._lrec.items()} == lc
    assert set(fabric._lrec) == set(lw)
    for lid, w in lw.items():
        rec = fabric._lrec[lid]
        assert math.isclose(rec[7], w, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(rec[11], lb[lid], rel_tol=1e-12)
        assert rec[4] == lid
        assert rec[8] == fabric.bw[lid]
    assert {
        lid: sorted(rec[10]) for lid, rec in fabric._lrec.items()
    } == {lid: sorted(us) for lid, us in lu.items()}
    lx: dict[int, int] = {}
    for fs in fabric._act_flows:
        for lid in fabric._f_links[fs]:
            lx[lid] = lx.get(lid, 0) + 1
    assert fabric._lx == lx


class TestAggregateInvariants:
    def test_invariants_hold_through_churn(self, cfg, topo):
        """Snapshots taken mid-run, after admissions and finishes,
        always agree with a from-scratch rebuild of the aggregates."""
        sim = Simulator()
        fabric = ArrayFlowFabric(sim, topo, cfg.network, "adp")
        msgs = _workload(topo, 48, seed=9, max_size=32 * 1024)
        checks = 0

        def snap():
            nonlocal checks
            _check_invariants(fabric)
            checks += 1

        for t in (500.0, 2_000.0, 6_000.0, 20_000.0, 60_000.0):
            sim.at(t, snap)
        _run_workload(fabric, msgs)
        assert checks == 5
        # Fully drained: nothing admitted, nothing crossed.
        _check_invariants(fabric)
        assert not fabric._act_flows and not fabric._act_units
        assert not fabric._lrec and not fabric._lx

    def test_min_routing_skips_ledger(self, cfg, topo):
        """Minimal cells never read the UGAL ledger, so the array
        fabric skips that bookkeeping wholesale: it stays zero."""
        sim = Simulator()
        fabric = ArrayFlowFabric(sim, topo, cfg.network, "min")
        _run_workload(fabric, _workload(topo, 12, seed=3))
        assert not fabric._adaptive
        assert not any(fabric._load)


class TestFillCheck:
    @pytest.mark.parametrize(
        ("routing", "preset"), [("adp", "small"), ("min", "medium")]
    )
    def test_burst_fills_match_scalar(self, routing, preset):
        """Every solve of a 400-message burst, full and disjoint-delta,
        equals a from-scratch ``solve_scalar_oracle`` of the flows it
        rated (``check_fill``), with solves well past 96 active units.
        ``min`` keeps one unit per busy source node, so it needs the
        medium preset's 432 nodes to get there; ``adp`` spills a
        message over several units. Both kinds of solve must occur, and
        the fill must leave some links out, or the pruning has silently
        turned off."""
        cfg = getattr(repro, preset)()
        topo = build_topology(cfg.topology)
        solves: list[tuple[int, int, bool]] = []
        fabric = checked_array_fabric(solves)(
            Simulator(), topo, cfg.network, routing
        )
        msgs = _run_workload(fabric, _workload(topo, 400, seed=5))
        assert fabric.messages_delivered == len(msgs)
        most = max(units for units, _, _ in solves)
        assert most > 96, most
        assert any(subset for _, _, subset in solves)
        assert not all(subset for _, _, subset in solves)
        assert any(left_out for _, left_out, _ in solves)
