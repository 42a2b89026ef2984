"""Integration tests of the flow backend through the real drivers.

Covers the load-bearing promises of DESIGN.md S16:

* the fluid model is deterministic — bit-identical across repeat runs
  and executor worker counts;
* predicted communication time is monotone in message size;
* on the tiny 5x2 grid it reproduces the packet backend's placement
  ranking (top-1 per routing, positive rank correlation) while being
  measurably faster;
* ``backend`` is part of the exec cache identity, while the default
  (``"packet"``) leaves existing keys and goldens untouched.
"""

from __future__ import annotations

import pytest

import repro
from repro.exec.plan import plan_grid
from repro.flow.fidelity import fidelity_report


def _trace(scale=0.05):
    return repro.fill_boundary_trace(num_ranks=8, seed=3).scaled(scale)


def _grid_fingerprint(max_workers=1):
    """Every per-cell flow-backend summary of the tiny 5x2 FB grid.

    ``wall_s`` is deliberately absent: it is measurement, not physics.
    """
    study = repro.TradeoffStudy(
        repro.tiny(),
        {"FB": _trace()},
        seed=7,
        backend="flow",
    ).run(max_workers=max_workers)
    out = {}
    for key, result in study.runs.items():
        out[key] = (
            result.metrics.summary(),
            result.sim_time_ns,
            result.nonminimal_fraction,
            result.job.finish_time_ns.tolist(),
            result.job.blocked_time_ns.tolist(),
        )
    return out


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self):
        serial = _grid_fingerprint(max_workers=1)
        parallel = _grid_fingerprint(max_workers=2)
        assert parallel == serial

    def test_repeat_run_is_bit_identical(self):
        """Shared route-model memo warmth must never change results."""
        assert _grid_fingerprint() == _grid_fingerprint()


class TestMonotonicity:
    @pytest.mark.parametrize(
        ("placement", "routing"),
        [("cont", "min"), ("rand", "adp")],
    )
    def test_comm_time_grows_with_message_size(self, placement, routing):
        """Scaling every message up never speeds communication up."""
        cfg = repro.tiny()
        last_max = last_median = 0.0
        for scale in (0.05, 0.2, 0.5, 1.0):
            res = repro.run_single(
                cfg,
                _trace(scale),
                placement,
                routing,
                seed=7,
                backend="flow",
            )
            summary = res.metrics.summary()
            assert summary["max_comm_ms"] > last_max
            assert summary["median_comm_ms"] > last_median
            last_max = summary["max_comm_ms"]
            last_median = summary["median_comm_ms"]


class TestCrossFidelity:
    @pytest.fixture(scope="class")
    def fid(self):
        return fidelity_report(
            repro.tiny(), {"FB": _trace(scale=0.2)}, seed=7
        )

    def test_top1_placement_agrees_per_routing(self, fid):
        assert fid.top1_agreement(), fid.format_table()

    def test_rank_correlation_positive(self, fid):
        for routing in ("min", "adp"):
            tau = fid.rank["FB"][routing]["kendall_tau"]
            assert tau >= 0.2, (routing, tau, fid.format_table())

    def test_flow_is_faster_than_packet(self, fid):
        # The flow smoke's fidelity step demands 5x on a grid of this
        # shape (tiny FB-8 at msg-scale 0.2, seed 7; its trace seed is 7,
        # this one's 3); here a lenient floor keeps the signal robust on
        # noisy CI hosts.
        assert fid.speedup > 2.0, fid.format_table()

    def test_traffic_volume_tracks_packet_model(self, fid):
        errs = fid.metric_errors()
        assert errs["global_traffic_mb"]["mean_abs"] < 0.25
        assert errs["local_traffic_mb"]["mean_abs"] < 0.25


class TestCacheIdentity:
    def test_backend_splits_cache_keys(self):
        cfg = repro.tiny()
        keys = {}
        for backend in ("packet", "flow"):
            plan = plan_grid(
                cfg,
                {"FB": _trace()},
                ("cont",),
                ("min",),
                seed=7,
                backend=backend,
            )
            (spec,) = plan.specs
            assert spec.backend == backend
            keys[backend] = spec.key
        assert keys["packet"] != keys["flow"]

    def test_default_backend_is_packet(self):
        plan = plan_grid(
            repro.tiny(), {"FB": _trace()}, ("cont",), ("min",), seed=7
        )
        (spec,) = plan.specs
        assert spec.backend == "packet"

    def test_flow_result_is_tagged(self):
        res = repro.run_single(
            repro.tiny(), _trace(), "cont", "min", seed=7, backend="flow"
        )
        assert res.backend == "flow"
        assert res.wall_s > 0.0

    def test_flow_rejects_observability(self):
        from repro.obs import ObsConfig

        with pytest.raises(ValueError, match="obs"):
            repro.run_single(
                repro.tiny(),
                _trace(),
                "cont",
                "min",
                seed=7,
                backend="flow",
                obs=ObsConfig(window_ns=10_000.0),
            )

    def test_flow_rejects_fault_plans(self):
        cfg = repro.tiny()
        topo = repro.Dragonfly(cfg.topology)
        plan = repro.random_fault_plan(topo, rate=0.5, seed=3)
        assert not plan.is_empty()
        with pytest.raises(ValueError, match="fault"):
            repro.run_single(
                cfg,
                _trace(),
                "cont",
                "min",
                seed=7,
                backend="flow",
                faults=plan,
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            repro.run_single(
                repro.tiny(), _trace(), "cont", "min", backend="fluid"
            )
