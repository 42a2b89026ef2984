"""Cross-backend agreement for the DL training family (ISSUE 10).

Three load-bearing guarantees:

* every synthetic generator's tiny instance is *bit-identical* across
  serial/parallel execution (the family inherits the executor's
  determinism contract);
* the flow backend agrees with the packet engine on the *top-1*
  placement per routing on the full tiny 5×2 grid for the DP-ring and
  MoE all-to-all jobs (the paper's conclusion survives the fluid
  approximation on ML traffic);
* an imported param-style fixture trace replays bit-identically across
  serial and parallel execution (the CI ``mlcomms-smoke`` gate).
"""

from pathlib import Path

import numpy as np
import pytest

import repro
from repro.flow import fidelity_report
from repro.mlcomms import load_comms_trace, training_tradeoff
from repro.mlcomms.study import default_training_traces

FIXTURE = Path(__file__).parent.parent / "data" / "comms_trace_dp8.json"


@pytest.fixture(scope="module")
def config():
    return repro.tiny().with_seed(1)


@pytest.fixture(scope="module")
def family_traces():
    return default_training_traces(8, msg_scale=0.02, seed=1)


def assert_identical_runs(a, b):
    assert set(a.runs) == set(b.runs)
    for key in a.runs:
        ra, rb = a.runs[key], b.runs[key]
        assert ra.metrics.summary() == rb.metrics.summary(), key
        assert ra.sim_time_ns == rb.sim_time_ns, key
        assert np.array_equal(
            ra.job.finish_time_ns, rb.job.finish_time_ns
        ), key


class TestParallelDeterminism:
    def test_family_grid_parallel_matches_serial(self, config, family_traces):
        study = repro.TradeoffStudy(
            config,
            family_traces,
            placements=("cont", "rand"),
            routings=("min", "adp"),
            seed=1,
        )
        serial = study.run()
        parallel = study.run(max_workers=2)
        assert list(serial.runs) == list(parallel.runs)
        assert_identical_runs(serial, parallel)

    def test_fixture_import_replays_identically(self, config):
        trace = load_comms_trace(FIXTURE).scaled(0.05)
        study = repro.TradeoffStudy(
            config,
            {trace.name: trace},
            placements=("cont", "rotr", "rand"),
            routings=("min", "adp"),
            seed=3,
        )
        serial = study.run()
        parallel = study.run(max_workers=2)
        assert_identical_runs(serial, parallel)


@pytest.mark.slow
class TestFlowPacketAgreement:
    def test_top1_placement_agrees_on_full_grid(self, config, family_traces):
        traces = {app: family_traces[app] for app in ("DP", "MOE")}
        fid = fidelity_report(config, traces, seed=1)
        for app in traces:
            for routing in ("min", "adp"):
                rec = fid.rank[app][routing]
                assert rec["top1_agree"], (app, routing, rec)


class TestTrainingTradeoff:
    def test_report_has_winner_per_routing(self, config, family_traces):
        report = training_tradeoff(
            config,
            {app: family_traces[app] for app in ("DP", "MOE")},
            seed=1,
            backend="flow",
        )
        doc = report.to_json()
        assert doc["schema"] == "repro-mlcomms/v1"
        for app in ("DP", "MOE"):
            for routing in ("min", "adp"):
                rec = doc["winners"][app][routing]
                assert rec["placement"] in report.placements
                assert rec["median_ms"] > 0
            assert doc["leaning"][app] in ("localize", "balance", "split")
        assert len(doc["cells"]) == 2 * 5 * 2

    def test_save_and_format(self, config, family_traces, tmp_path):
        import json

        report = training_tradeoff(
            config,
            {"DP": family_traces["DP"]},
            placements=("cont", "rand"),
            seed=1,
            backend="flow",
        )
        out = tmp_path / "report.json"
        report.save_json(out)
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-mlcomms/v1"
        table = report.format_table()
        assert "DP" in table and "leaning" in table
