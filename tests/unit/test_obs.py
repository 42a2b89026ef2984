"""Unit tests for repro.obs: recorder, time series, export, overhead."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro
from repro.engine.simulator import Simulator
from repro.metrics.timeseries import SCHEMA_VERSION, CongestionEvent
from repro.obs import ObsConfig, ObsRecorder, read_jsonl, write_csv, write_jsonl
from repro.topology.links import LinkKind
from tests.engine_helpers import run_until


@pytest.fixture(scope="module")
def observed_run():
    cfg = repro.tiny()
    trace = repro.fill_boundary_trace(num_ranks=10, seed=5).scaled(0.05)
    return repro.run_single(
        cfg, trace, "cont", "min", seed=11, obs=ObsConfig(window_ns=20_000.0)
    )


class TestHeartbeat:
    def test_fires_at_exact_multiples(self):
        sim = Simulator()
        beats = []
        sim.add_heartbeat(10.0, beats.append)
        for t in (5.0, 12.0, 47.0):
            sim.at(t, lambda: None)
        sim.run()
        assert beats == [10.0, 20.0, 30.0, 40.0]

    def test_fires_before_event_at_same_time(self):
        sim = Simulator()
        order = []
        sim.add_heartbeat(10.0, lambda t: order.append(("beat", t)))
        sim.at(10.0, lambda: order.append(("event", sim.now)))
        sim.run()
        assert order == [("beat", 10.0), ("event", 10.0)]

    def test_multiple_heartbeats_registration_order_on_ties(self):
        sim = Simulator()
        order = []
        sim.add_heartbeat(10.0, lambda t: order.append("a"))
        sim.add_heartbeat(5.0, lambda t: order.append("b"))
        sim.at(10.0, lambda: None)
        sim.run()
        assert order == ["b", "a", "b"]

    def test_does_not_count_as_events(self):
        sim = Simulator()
        sim.add_heartbeat(1.0, lambda t: None)
        sim.at(10.0, lambda: None)
        sim.run()
        assert sim.events_run == 1

    def test_until_bound_fires_due_beats(self):
        sim = Simulator()
        beats = []
        sim.add_heartbeat(10.0, beats.append)
        sim.at(100.0, lambda: None)
        run_until(sim, 35.0)
        assert beats == [10.0, 20.0, 30.0]
        assert sim.now == 35.0

    def test_rejects_bad_interval(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.add_heartbeat(0.0, lambda t: None)

    def test_no_heartbeat_run_unchanged(self):
        a, b = Simulator(), Simulator()
        b_beats = []
        ran = []
        for sim in (a, b):
            for t in (1.0, 2.5, 7.0):
                sim.at(t, ran.append, t)
        a.run()
        b.add_heartbeat(2.0, b_beats.append)
        b.run()
        assert a.now == b.now and a.events_run == b.events_run


class TestObsConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObsConfig(window_ns=0)

    def test_frozen_and_hashable(self):
        c = ObsConfig(window_ns=123.0)
        assert hash(c)
        with pytest.raises(Exception):
            c.window_ns = 5.0


class TestRecorder:
    def test_observation_does_not_perturb_physics(self):
        cfg = repro.tiny()
        trace = repro.amg_trace(num_ranks=8, seed=5).scaled(0.3)
        off = repro.run_single(cfg, trace, "rand", "adp", seed=4)
        on = repro.run_single(
            cfg, trace, "rand", "adp", seed=4, obs=ObsConfig(window_ns=7_000.0)
        )
        assert on.sim_time_ns == off.sim_time_ns
        assert on.events == off.events
        assert (on.job.comm_time_ns == off.job.comm_time_ns).all()
        assert (
            on.metrics.local_traffic_bytes == off.metrics.local_traffic_bytes
        ).all()
        assert (on.metrics.local_sat_ns == off.metrics.local_sat_ns).all()
        assert (on.metrics.global_sat_ns == off.metrics.global_sat_ns).all()
        assert on.obs is not None and off.obs is None

    def test_windows_cover_run_and_bytes_telescope(self, observed_run):
        ts = observed_run.obs
        assert ts.num_windows >= 2
        assert ts.edges[-1] == observed_run.sim_time_ns
        assert (np.diff(ts.edges) > 0).all()
        # Exact integer telescoping of per-window byte counters.
        per_link = ts.link_traffic_bytes()
        assert per_link.dtype == np.int64
        assert per_link.sum() == ts.bytes_fwd.sum()

    def test_windowed_saturation_matches_aggregate(self, observed_run):
        ts = observed_run.obs
        m = observed_run.metrics
        total_windowed = ts.link_saturation_ns().sum()
        total_aggregate = m.total_local_sat_ns + m.total_global_sat_ns
        # The serving-router masks select a subset of all links, so the
        # windowed machine-wide total must dominate the job-scoped one.
        assert total_windowed >= total_aggregate - 1e-6

    def test_double_observer_rejected(self):
        cfg = repro.tiny()
        from repro.core.runner import build_topology
        from repro.network.fabric import Fabric
        from repro.routing import make_routing

        sim = Simulator()
        fabric = Fabric(
            sim, build_topology(cfg.topology), cfg.network, make_routing("min")
        )
        ObsRecorder(sim, fabric).install()
        with pytest.raises(RuntimeError):
            ObsRecorder(sim, fabric).install()

    def test_finalize_idempotent(self, observed_run):
        ts = observed_run.obs
        assert ts.schema_version == SCHEMA_VERSION

    def test_event_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr("repro.obs.recorder.MAX_TRACE_EVENTS", 3)
        cfg = repro.tiny()
        trace = repro.amg_trace(num_ranks=8, seed=5).scaled(0.3)
        r = repro.run_single(
            cfg, trace, "rand", "adp", seed=4, obs=ObsConfig(window_ns=30_000.0)
        )
        assert len(r.obs.events) == 3
        assert r.obs.events_dropped > 0

    def test_congestion_events_ordered_and_typed(self):
        cfg = repro.tiny()
        trace = repro.amg_trace(num_ranks=8, seed=5).scaled(0.3)
        r = repro.run_single(
            cfg, trace, "rand", "adp", seed=4, obs=ObsConfig(window_ns=30_000.0)
        )
        events = r.obs.events
        assert events, "congested adaptive run should produce events"
        kinds = {ev.kind for ev in events}
        assert kinds <= {
            "stall_onset", "stall_clear", "buffer_full", "adaptive_divert"
        }
        times = [ev.t_ns for ev in events]
        assert times == sorted(times)
        clears = [ev for ev in events if ev.kind == "stall_clear"]
        assert all(ev.value > 0 for ev in clears)


class TestTimeSeriesDerived:
    def test_link_utilisation_bounded(self, observed_run):
        util = observed_run.obs.link_utilisation()
        assert (util >= 0).all() and (util <= 1 + 1e-9).all()

    def test_saturation_onset(self, observed_run):
        onset = observed_run.obs.saturation_onset_ns(frac=1e-9)
        ts = observed_run.obs
        stalled = ts.link_saturation_ns() > 0
        assert np.isfinite(onset[stalled]).all()
        assert np.isinf(onset[~stalled]).all()
        with pytest.raises(ValueError):
            ts.saturation_onset_ns(frac=0.0)

    def test_class_series_partitions_traffic(self, observed_run):
        ts = observed_run.obs
        per_class = [
            ts.class_series(LinkKind.TERMINAL_IN)["bytes_fwd"],
            ts.class_series(LinkKind.TERMINAL_OUT)["bytes_fwd"],
            ts.class_series(LinkKind.LOCAL_ROW, LinkKind.LOCAL_COL)["bytes_fwd"],
            ts.class_series(LinkKind.GLOBAL)["bytes_fwd"],
        ]
        total = sum(series.sum() for series in per_class)
        assert total == ts.bytes_fwd.sum()

    def test_pickle_round_trip(self, observed_run):
        ts = observed_run.obs
        clone = pickle.loads(pickle.dumps(ts))
        assert clone.schema_version == SCHEMA_VERSION
        assert clone.window_ns == ts.window_ns
        assert (clone.edges == ts.edges).all()
        assert (clone.bytes_fwd == ts.bytes_fwd).all()
        assert (clone.busy_ns == ts.busy_ns).all()
        assert (clone.stall_ns == ts.stall_ns).all()
        assert (clone.queue_bytes == ts.queue_bytes).all()
        assert (clone.injected_packets == ts.injected_packets).all()
        assert clone.events == ts.events
        assert isinstance(clone.events[0], CongestionEvent)
        assert clone.events_dropped == ts.events_dropped


class TestExport:
    def test_jsonl_round_trip(self, observed_run, tmp_path):
        ts = observed_run.obs
        path = write_jsonl(ts, tmp_path / "run.jsonl")
        clone = read_jsonl(path)
        assert clone.schema_version == SCHEMA_VERSION
        assert (clone.bytes_fwd == ts.bytes_fwd).all()
        assert np.allclose(clone.stall_ns, ts.stall_ns)
        assert np.allclose(clone.busy_ns, ts.busy_ns)
        assert (clone.link_kind == ts.link_kind).all()
        assert clone.events == ts.events

    def test_jsonl_rejects_unknown_schema(self, observed_run, tmp_path):
        path = write_jsonl(observed_run.obs, tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        import json

        header = json.loads(lines[0])
        header["schema_version"] = 999
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="schema version"):
            read_jsonl(path)

    def test_csv_long_format(self, observed_run, tmp_path):
        ts = observed_run.obs
        path = write_csv(ts, tmp_path / "run.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("window_end_ns,link,link_kind,bytes_fwd")
        assert len(lines) == 1 + ts.num_windows * ts.num_links

    def test_export_dispatches_on_suffix(self, observed_run, tmp_path):
        from repro.obs import export

        assert export(observed_run.obs, tmp_path / "a.csv").suffix == ".csv"
        assert export(observed_run.obs, tmp_path / "a.jsonl").suffix == ".jsonl"
