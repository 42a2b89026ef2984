"""run_single end-to-end unit tests."""

import pytest

import repro
from repro.core.interference import BackgroundSpec
from repro.core.runner import build_topology, run_single


@pytest.fixture(scope="module")
def cr_trace():
    return repro.crystal_router_trace(num_ranks=12, seed=1).scaled(0.05)


class TestRunSingle:
    def test_basic_run(self, cr_trace):
        cfg = repro.tiny()
        result = run_single(cfg, cr_trace, "cont", "min", seed=1)
        assert result.app == "CR"
        assert result.label == "cont-min"
        assert result.job.num_ranks == 12
        assert result.sim_time_ns > 0
        assert result.events > 0
        assert (result.job.comm_time_ns >= 0).all()

    def test_seed_defaults_to_config(self, cr_trace):
        cfg = repro.tiny().with_seed(9)
        result = run_single(cfg, cr_trace, "rand", "min")
        assert result.seed == 9

    def test_deterministic(self, cr_trace):
        cfg = repro.tiny()
        a = run_single(cfg, cr_trace, "rand", "adp", seed=3)
        b = run_single(cfg, cr_trace, "rand", "adp", seed=3)
        assert a.sim_time_ns == b.sim_time_ns
        assert (a.job.comm_time_ns == b.job.comm_time_ns).all()
        assert a.nodes == b.nodes

    def test_seeds_differ(self, cr_trace):
        cfg = repro.tiny()
        a = run_single(cfg, cr_trace, "rand", "adp", seed=3)
        b = run_single(cfg, cr_trace, "rand", "adp", seed=4)
        assert a.nodes != b.nodes

    def test_nonminimal_fraction_only_for_adaptive(self, cr_trace):
        cfg = repro.tiny()
        r_min = run_single(cfg, cr_trace, "cont", "min", seed=1)
        assert r_min.nonminimal_fraction == 0.0

    def test_background_runs(self, cr_trace):
        cfg = repro.tiny()
        bg = BackgroundSpec("uniform", message_bytes=512, interval_ns=5_000.0)
        result = run_single(cfg, cr_trace, "cont", "min", seed=1, background=bg)
        assert result.background_messages > 0

    def test_record_sends(self, cr_trace):
        cfg = repro.tiny()
        result = run_single(cfg, cr_trace, "cont", "min", seed=1, record_sends=True)
        assert result.job.send_events
        times = [t for t, _, _ in result.job.send_events]
        assert times == sorted(times)

    def test_max_events_guard(self, cr_trace, monkeypatch):
        monkeypatch.setattr("repro.mpi.replay.MAX_EVENTS", 10)
        cfg = repro.tiny()
        with pytest.raises(RuntimeError, match="exceeded 10 events"):
            run_single(cfg, cr_trace, "cont", "min", seed=1)


class TestBuildTopology:
    def test_memoised(self):
        cfg = repro.tiny()
        assert build_topology(cfg.topology) is build_topology(cfg.topology)

    def test_distinct_params_distinct_topologies(self):
        assert build_topology(repro.tiny().topology) is not build_topology(
            repro.small().topology
        )
