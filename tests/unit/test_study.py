"""TradeoffStudy / StudyResult unit tests (on a tiny machine)."""

import numpy as np
import pytest

import repro
from repro.core.study import TradeoffStudy


@pytest.fixture(scope="module")
def study_result():
    cfg = repro.tiny()
    traces = {
        "CR": repro.crystal_router_trace(num_ranks=10, seed=1).scaled(0.05),
        "AMG": repro.amg_trace(num_ranks=10, seed=1).scaled(0.5),
    }
    return TradeoffStudy(
        cfg, traces, placements=("cont", "rand"), routings=("min", "adp"), seed=1
    ).run()


class TestTradeoffStudy:
    def test_grid_complete(self, study_result):
        assert len(study_result.runs) == 2 * 2 * 2
        assert study_result.labels() == [
            "cont-min", "rand-min", "cont-adp", "rand-adp",
        ]

    def test_get_by_label(self, study_result):
        r = study_result.get("CR", "cont-min")
        assert r.app == "CR" and r.placement == "cont" and r.routing == "min"

    def test_comm_time_boxes(self, study_result):
        boxes = study_result.comm_time_boxes("CR")
        assert set(boxes) == set(study_result.labels())
        for b in boxes.values():
            assert b.minimum <= b.median <= b.maximum

    def test_hops_cdf_monotone(self, study_result):
        for label, (x, pct) in study_result.hops_cdf("CR").items():
            assert (np.diff(x) >= 0).all()
            assert pct[-1] == 100.0

    def test_random_placement_raises_hops(self, study_result):
        cont = study_result.get("CR", "cont-min").metrics.mean_hops
        rand = study_result.get("CR", "rand-min").metrics.mean_hops
        assert rand > cont

    def test_traffic_cdf_channels(self, study_result):
        curves = study_result.traffic_cdf("CR", "local")
        assert set(curves) == set(study_result.labels())
        curves_g = study_result.traffic_cdf("CR", "global")
        assert set(curves_g) == set(study_result.labels())

    def test_saturation_cdf(self, study_result):
        for label, (x, pct) in study_result.saturation_cdf("AMG", "local").items():
            assert (x >= 0).all()

    def test_best_label(self, study_result):
        best = study_result.best_label("CR")
        assert best in study_result.labels()
        best_val = study_result._stat("CR", best, "median")
        for label in study_result.labels():
            assert best_val <= study_result._stat("CR", label, "median")

    def test_improvement_antisymmetric_sign(self, study_result):
        a = study_result.improvement_pct("CR", "rand-min", "cont-min")
        b = study_result.improvement_pct("CR", "cont-min", "rand-min")
        assert (a > 0) != (b > 0) or (a == 0 and b == 0)

    def test_unknown_stat(self, study_result):
        with pytest.raises(ValueError):
            study_result._stat("CR", "cont-min", "p99")


class TestValidation:
    def test_requires_traces(self):
        with pytest.raises(ValueError):
            TradeoffStudy(repro.tiny(), {})

    def test_accepts_trace_list(self):
        trace = repro.amg_trace(num_ranks=8, seed=0).scaled(0.2)
        study = TradeoffStudy(
            repro.tiny(), [trace], placements=("cont",), routings=("min",)
        )
        result = study.run()
        assert ("AMG", "cont", "min") in result.runs

    def test_verbose_prints(self, capsys):
        trace = repro.amg_trace(num_ranks=8, seed=0).scaled(0.2)
        TradeoffStudy(
            repro.tiny(), [trace], placements=("cont",), routings=("min",)
        ).run(verbose=True)
        out = capsys.readouterr().out
        assert "cont-min" in out
