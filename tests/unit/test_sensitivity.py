"""Sensitivity-sweep unit tests (paper Section IV-B machinery)."""

import numpy as np
import pytest

import repro
from repro.core.sensitivity import (
    EXTREME_CONFIGS,
    PAPER_SCALES,
    sensitivity_sweep,
)


@pytest.fixture(scope="module")
def sweep():
    cfg = repro.tiny()
    trace = repro.crystal_router_trace(num_ranks=10, seed=1).scaled(0.05)
    return sensitivity_sweep(cfg, trace, scales=(0.5, 1.0, 2.0), seed=1)


class TestSweep:
    def test_all_configs_swept(self, sweep):
        assert set(sweep.labels()) == {f"{p}-{r}" for p, r in EXTREME_CONFIGS}

    def test_series_lengths(self, sweep):
        for series in sweep.max_comm_ns.values():
            assert len(series) == 3

    def test_comm_time_grows_with_message_size(self, sweep):
        for series in sweep.max_comm_ns.values():
            assert series[-1] > series[0]

    def test_relative_baseline_is_100(self, sweep):
        rel = sweep.relative()
        assert np.allclose(rel["rand-adp"], 100.0)

    def test_rows_shape(self, sweep):
        rows = sweep.to_rows()
        assert len(rows) == 3
        scale, by_label = rows[0]
        assert scale == 0.5
        assert set(by_label) == set(sweep.labels())

    def test_paper_scales_defined_per_app(self):
        assert set(PAPER_SCALES) == {"CR", "FB", "AMG"}
        assert max(PAPER_SCALES["AMG"]) == 20.0
        assert min(PAPER_SCALES["CR"]) == 0.01


class TestValidation:
    def test_empty_scales_rejected(self):
        cfg = repro.tiny()
        trace = repro.amg_trace(num_ranks=8, seed=0)
        with pytest.raises(ValueError):
            sensitivity_sweep(cfg, trace, scales=())

    def test_baseline_must_be_swept(self):
        cfg = repro.tiny()
        trace = repro.amg_trace(num_ranks=8, seed=0)
        with pytest.raises(ValueError, match="baseline"):
            sensitivity_sweep(
                cfg,
                trace,
                scales=(1.0,),
                configs=(("cont", "min"),),
                baseline=("rand", "adp"),
            )
