"""Differential equivalence of the flow backend's reference fabric
through the real drivers.

The unit harnesses (``tests/unit/test_solver_oracle.py``,
``tests/unit/test_fabric_array.py``) prove the max-min fills agree with
their oracles on synthetic instances; this module runs the fabric
comparison through ``TradeoffStudy``:

* the full tiny 5x2 placement x routing grid produces the same physics
  (every summary metric, the saturation clocks, per-rank finish and
  blocked times, ``sim_time_ns``) on the object fabric (the
  differential reference, reached through ``tests/flow_oracle.py``)
  and the array fabric ``run_single`` builds, to relative error below
  ``1e-9``;
* the array fabric's results are bit-identical across worker counts;
* a seeded fuzz sweep over traces and message scales keeps the
  agreement honest away from the committed golden scenarios (full
  sweep is ``slow``; one slice always runs in CI).

Fabric fingerprints compare *raw* (full-precision) metric values, not
the rounded ``summary()`` view: the summary quantises to 1e-6, which
amplifies a one-byte rounding flip on an 11 MB counter (raw rel err
~1e-13, honestly inside the 1e-9 contract) into an apparent 1e-7 gap.
"""

from __future__ import annotations

import math

import pytest

import repro
from repro.flow import fabric_array
from repro.flow.solver import SAT_RTOL
from tests.flow_oracle import use_object_fabric

REL_ERR = 1e-9

# The fuzz grid: (trace builder, num_ranks, trace seed, message scale).
_FUZZ_CASES = [
    ("fill_boundary_trace", 8, 3, 0.05),
    ("fill_boundary_trace", 8, 11, 0.2),
    ("fill_boundary_trace", 16, 4, 0.1),
    ("crystal_router_trace", 8, 5, 0.05),
    ("crystal_router_trace", 16, 9, 0.02),
    ("amg_trace", 8, 2, 0.05),
    ("amg_trace", 16, 7, 0.1),
]
# The non-slow CI slice: one case per distinct trace family.
_FAST_SLICE = {0, 3, 5}


def _trace(builder: str, num_ranks: int, seed: int, scale: float):
    make = getattr(repro, builder)
    return make(num_ranks=num_ranks, seed=seed).scaled(scale)


def _run_grid(monkeypatch, *, fabric="object", trace=None, **run_kw):
    """Run the tiny FB grid on one fabric."""
    if trace is None:
        trace = _trace("fill_boundary_trace", 8, 3, 0.05)
    with monkeypatch.context() as m:
        if fabric == "object":
            use_object_fabric(m)
        return repro.TradeoffStudy(
            repro.tiny(), {"FB": trace}, seed=7, backend="flow"
        ).run(**run_kw)


def _raw_fingerprint(fabric: str, monkeypatch, *, trace=None, **run_kw):
    """Full-precision per-cell physics on one fabric."""
    study = _run_grid(monkeypatch, fabric=fabric, trace=trace, **run_kw)
    out = {}
    for key, result in study.runs.items():
        m = result.metrics
        out[key] = (
            {
                "max_comm_time_ns": m.max_comm_time_ns,
                "median_comm_time_ns": m.median_comm_time_ns,
                "avg_hops": float(m.avg_hops.mean()),
                "local_traffic_bytes": m.local_traffic_bytes.tolist(),
                "global_traffic_bytes": m.global_traffic_bytes.tolist(),
                "local_sat_ns": float(m.local_sat_ns.sum()),
                "global_sat_ns": float(m.global_sat_ns.sum()),
            },
            result.sim_time_ns,
            result.nonminimal_fraction,
            result.job.finish_time_ns.tolist(),
            result.job.blocked_time_ns.tolist(),
        )
    return out


#: Per-field absolute tolerance floors, applied per element. The
#: ``bytes_tx`` counters are integers rounded from a float transfer
#: ledger, so a sub-ulp accumulation-order difference between
#: fabrics can flip one boundary byte per link; one byte is each
#: counter's honest resolution — rel 1e-9 of a <1 GB counter is *below*
#: one byte, so without this floor the contract would demand
#: sub-quantum agreement (the fingerprints keep these per-link so the
#: quantum never has to scale with link count).
_FIELD_ABS = {"local_traffic_bytes": 1.0, "global_traffic_bytes": 1.0}


def _assert_cells_close(a, b, rel=REL_ERR):
    """Every metric of every cell agrees to relative error < ``rel``."""
    assert a.keys() == b.keys()
    for key in a:
        sa, ta, nma, fa, ba = a[key]
        sb, tb, nmb, fb, bb = b[key]
        assert sa.keys() == sb.keys(), key
        for name in sa:
            abs_tol = _FIELD_ABS.get(name, 0.0)
            va, vb = sa[name], sb[name]
            pairs = (
                zip(va, vb, strict=True)
                if isinstance(va, list)
                else ((va, vb),)
            )
            for xa, xb in pairs:
                assert math.isclose(
                    xa, xb, rel_tol=rel, abs_tol=abs_tol
                ), (key, name, xa, xb)
        assert math.isclose(ta, tb, rel_tol=rel, abs_tol=0.0), key
        assert math.isclose(nma, nmb, rel_tol=rel, abs_tol=0.0), key
        for xa, xb in zip(fa, fb, strict=True):
            assert math.isclose(xa, xb, rel_tol=rel, abs_tol=0.0), key
        for xa, xb in zip(ba, bb, strict=True):
            assert math.isclose(xa, xb, rel_tol=rel, abs_tol=0.0), key


class TestFabricEquivalence:
    def test_full_grid_object_vs_array(self, monkeypatch):
        """The array fabric reproduces the object reference on every
        cell of the full tiny 5x2 grid to raw rel err < 1e-9."""
        obj = _raw_fingerprint("object", monkeypatch)
        arr = _raw_fingerprint("array", monkeypatch)
        assert len(obj) == 10
        _assert_cells_close(obj, arr)

    def test_fidelity_grid_object_vs_array(self, monkeypatch):
        """The same proof on the grid the fidelity check runs (message
        scale 0.2): rel err < 1e-9, byte counters to their one-byte
        quantum."""
        trace = _trace("fill_boundary_trace", 8, 3, 0.2)
        obj = _raw_fingerprint("object", monkeypatch, trace=trace)
        arr = _raw_fingerprint("array", monkeypatch, trace=trace)
        assert len(obj) == 10
        _assert_cells_close(obj, arr)

    def test_default_is_array(self, monkeypatch):
        """``run_single`` builds the array fabric for every flow cell;
        the object fabric is reached only from the test tree."""
        built = []

        class Spy(fabric_array.ArrayFlowFabric):
            def __init__(self, *args, **kwargs):
                built.append(type(self))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fabric_array, "ArrayFlowFabric", Spy)
        study = _run_grid(monkeypatch, fabric="array")
        assert len(built) == len(study.runs) == 10

    def test_fabric_tolerance_is_tighter_than_saturation_band(self):
        """The equivalence bar must out-resolve the physics it guards:
        if fabrics drifted apart past the saturation tolerance,
        saturated-link sets could legitimately diverge and the
        comparison would be meaningless."""
        assert REL_ERR <= SAT_RTOL

    def test_array_bit_identical_across_workers(self, monkeypatch):
        """Sharding cells over a process pool never perturbs the array
        fabric's results — each cell is a self-contained simulation."""
        serial = _raw_fingerprint("array", monkeypatch)
        pooled = _raw_fingerprint("array", monkeypatch, max_workers=2)
        assert serial == pooled


def _fuzz_params():
    for i, case in enumerate(_FUZZ_CASES):
        marks = [] if i in _FAST_SLICE else [pytest.mark.slow]
        yield pytest.param(*case, id=f"{case[0]}-r{case[1]}-s{case[2]}", marks=marks)


class TestDifferentialFuzz:
    @pytest.mark.parametrize(
        ("builder", "ranks", "seed", "scale"), list(_fuzz_params())
    )
    def test_random_cells_fabrics_agree(
        self, builder, ranks, seed, scale, monkeypatch
    ):
        """Seeded random workloads through ``TradeoffStudy``: object and
        array physics agree to < 1e-9 (raw values) on every cell."""
        trace = _trace(builder, ranks, seed, scale)
        obj = _raw_fingerprint("object", monkeypatch, trace=trace)
        arr = _raw_fingerprint("array", monkeypatch, trace=trace)
        _assert_cells_close(obj, arr)
