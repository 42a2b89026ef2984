"""Whitebox tests of the array flow fabric and its support layers:
the fast spill path's bit-exactness against the oracle emulation, the
incremental CSR + link-aggregate invariants, and the vectorized settle
and solve dispatch.

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
from repro.engine.simulator import Simulator
from repro.flow.fabric_array import ArrayFlowFabric
from repro.flow.routes import FlowRouteModel
from repro.network.packet import Message
from tests.flow_oracle import emulate_oracle, spill_oracle


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
        no_rows = ((),) * 8 + (np.zeros(0, dtype=np.intp),)
        assert model._emulate_fast(0, no_rows, 4, None) == ()
        assert emulate_oracle(model, 0, (), 4, None) == ()


def _check_invariants(fabric):
    """The incremental CSR and link aggregates match a from-scratch
    rebuild over the currently admitted units."""
    n = fabric._csr_n
    lw: dict[int, float] = {}
    lc: dict[int, int] = {}
    lu: dict[int, list[int]] = {}
    n_live = 0
    for us in sorted(
        fabric._act_units, key=lambda u: fabric._u_span[u][0]
    ):
        s, e = fabric._u_span[us]
        assert 0 <= s <= e <= n
        assert fabric._csr_live[s:e].all(), us
        assert (fabric._csr_unit[s:e] == us).all(), us
        np.testing.assert_array_equal(
            fabric._csr_cols[s:e], fabric._u_cols[us]
        )
        np.testing.assert_array_equal(
            fabric._csr_wgts[s:e], fabric._u_wgts[us]
        )
        n_live += e - s
        for lid, w in fabric._u_links[us]:
            lw[lid] = lw.get(lid, 0.0) + w
            lc[lid] = lc.get(lid, 0) + 1
            lu.setdefault(lid, []).append(us)
    assert int(fabric._csr_live[:n].sum()) == n_live
    assert fabric._csr_dead == n - n_live
    assert {lid: rec[9] for lid, rec in fabric._lrec.items()} == lc
    assert set(fabric._lrec) == set(lw)
    for lid, w in lw.items():
        rec = fabric._lrec[lid]
        assert math.isclose(rec[7], w, rel_tol=1e-9, abs_tol=1e-9)
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


class TestCSRInvariants:
    def test_invariants_hold_through_churn(self, cfg, topo):
        """Snapshots taken mid-run — after admissions, finishes, and
        the growth/compaction cycles they trigger — always agree with
        a from-scratch rebuild of the CSR and the aggregates."""
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
        # Fully drained: nothing admitted, nothing live.
        _check_invariants(fabric)
        assert not fabric._act_flows and not fabric._act_units

    def test_compaction_preserves_live_rows(self, cfg, topo):
        """Forcing a compaction mid-flight keeps exactly the live rows
        in admission order and resets the dead counter."""
        sim = Simulator()
        fabric = ArrayFlowFabric(sim, topo, cfg.network, "adp")
        msgs = _workload(topo, 40, seed=13, max_size=24 * 1024)
        ran = 0

        def force_compact():
            nonlocal ran
            before = [
                (us, fabric._csr_cols[slice(*fabric._u_span[us])].copy())
                for us in fabric._act_units
            ]
            fabric._csr_compact()
            assert fabric._csr_dead == 0
            _check_invariants(fabric)
            for us, cols in before:
                np.testing.assert_array_equal(
                    fabric._csr_cols[slice(*fabric._u_span[us])], cols
                )
            ran += 1

        for t in (3_000.0, 30_000.0):
            sim.at(t, force_compact)
        _run_workload(fabric, msgs)
        assert ran == 2


class TestVectorizedDispatch:
    @pytest.mark.parametrize("routing", ["adp", "min"])
    def test_forced_vector_paths_match_scalar_paths(
        self, cfg, topo, routing
    ):
        """Pinning ``vec_min_units`` to 0 (every settle/solve takes the
        numpy path) and to infinity (never) must agree: rates and sat
        clocks to 1e-9, byte counters to their one-byte rint quantum."""
        results = {}
        for vec_min in (0, 10**9):
            sim = Simulator()
            fabric = ArrayFlowFabric(
                sim, topo, cfg.network, routing, vec_min_units=vec_min
            )
            msgs = _run_workload(fabric, _workload(topo, 36, seed=21))
            results[vec_min] = (
                fabric.bytes_tx,
                list(fabric.sat_ns),
                [m.delivered_time for m in msgs],
                [m.injected_time for m in msgs],
                fabric.nonminimal_fraction,
            )
        tx_a, sat_a, del_a, inj_a, nm_a = results[0]
        tx_b, sat_b, del_b, inj_b, nm_b = results[10**9]
        assert np.abs(np.array(tx_a) - np.array(tx_b)).max() <= 1
        np.testing.assert_allclose(sat_a, sat_b, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(del_a, del_b, rtol=1e-9)
        np.testing.assert_allclose(inj_a, inj_b, rtol=1e-9)
        assert math.isclose(nm_a, nm_b, rel_tol=1e-9, abs_tol=1e-12)

    def test_min_routing_skips_ledger(self, cfg, topo):
        """Minimal cells never read the UGAL ledger, so the array
        fabric skips that bookkeeping wholesale: it stays zero."""
        sim = Simulator()
        fabric = ArrayFlowFabric(sim, topo, cfg.network, "min")
        _run_workload(fabric, _workload(topo, 12, seed=3))
        assert not fabric._adaptive
        assert not any(fabric._load)
