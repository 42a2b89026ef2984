"""Planning: grid/sweep enumeration and content-addressed spec keys."""

import dataclasses

import pytest

import repro
from repro.cluster.engine import EpochSpec
from repro.core.interference import BackgroundSpec
from repro.core.study import TradeoffStudy
from repro.exec.plan import (
    RunSpec,
    config_digest,
    plan_grid,
    plan_sensitivity,
    trace_fingerprint,
)
from repro.faults import FaultPlan, LinkFault
from repro.obs import ObsConfig

from tests.exec_helpers import tiny_trace


def small_traces():
    return {"A": tiny_trace("A"), "B": tiny_trace("B")}


#: One RunSpec field per entry, with a valid value that differs from the
#: one a default ``plan_grid`` cell carries.
OTHER_FIELD_VALUES = {
    "app": "B",
    "placement": "rand",
    "routing": "adp",
    "seed": 9,
    "config_digest": config_digest(repro.small()),
    "trace_digest": trace_fingerprint(tiny_trace("A").scaled(2.0)),
    "background": BackgroundSpec("uniform", 1024, 1000.0),
    "obs": ObsConfig(window_ns=1e4),
    "faults": FaultPlan(link_faults=(LinkFault(48),)),
    "backend": "flow",
    "epoch": EpochSpec(jobs=(("A", 2, (0, 1)),), stream_seed=1, mix="A=1"),
}


class TestFingerprints:
    def test_config_digest_stable_and_sensitive(self):
        assert config_digest(repro.tiny()) == config_digest(repro.tiny())
        assert config_digest(repro.tiny()) != config_digest(repro.small())
        assert config_digest(repro.tiny()) != config_digest(
            repro.tiny().with_seed(3)
        )

    def test_trace_fingerprint_stable(self):
        assert trace_fingerprint(tiny_trace()) == trace_fingerprint(tiny_trace())

    def test_trace_fingerprint_sees_content(self):
        t = repro.amg_trace(num_ranks=8, seed=1)
        assert trace_fingerprint(t) != trace_fingerprint(t.scaled(0.5))
        assert trace_fingerprint(t) != trace_fingerprint(
            repro.amg_trace(num_ranks=8, seed=2)
        )

    def test_trace_fingerprint_ignores_meta(self):
        a, b = tiny_trace(), tiny_trace()
        b.meta["note"] = "annotation only"
        assert trace_fingerprint(a) == trace_fingerprint(b)


class TestGridPlan:
    def test_order_matches_serial_loop_nest(self):
        plan = plan_grid(
            repro.tiny(), small_traces(), ("cont", "rand"), ("min", "adp")
        )
        cells = [(s.app, s.placement, s.routing) for s in plan.specs]
        expected = [
            (app, p, r)
            for app in ("A", "B")
            for p in ("cont", "rand")
            for r in ("min", "adp")
        ]
        assert cells == expected

    def test_keys_deterministic_across_plans(self):
        make = lambda: plan_grid(
            repro.tiny(), small_traces(), ("cont",), ("min",), seed=3
        )
        assert make().keys() == make().keys()

    def test_key_sensitivity(self):
        base = plan_grid(repro.tiny(), small_traces(), ("cont",), ("min",))
        spec = base.specs[0]
        fields = {f.name for f in dataclasses.fields(RunSpec)}
        assert set(OTHER_FIELD_VALUES) == fields and len(fields) == 11
        for name, value in OTHER_FIELD_VALUES.items():
            assert dataclasses.replace(spec, **{name: value}).key != spec.key, name
        # An empty plan runs the healthy path, so it shares the healthy key.
        assert dataclasses.replace(spec, faults=FaultPlan()).key == spec.key
        rescaled = plan_grid(
            repro.tiny(),
            {"A": tiny_trace("A").scaled(2.0), "B": tiny_trace("B")},
            ("cont",),
            ("min",),
        )
        # only A's trace changed, so only A's key moves
        assert base.specs[0].key != rescaled.specs[0].key
        assert base.specs[1].key == rescaled.specs[1].key

    def test_spec_label_and_trace_lookup(self):
        plan = plan_grid(repro.tiny(), small_traces(), ("rand",), ("adp",))
        spec = plan.specs[0]
        assert spec.label == "rand-adp"
        assert plan.trace_for(spec).name == "A"


class TestSensitivityPlan:
    def test_scale_major_order_and_scaled_traces(self):
        trace = repro.amg_trace(num_ranks=8, seed=1)
        configs = (("cont", "min"), ("rand", "adp"))
        plan = plan_sensitivity(repro.tiny(), trace, (0.5, 2.0), configs)
        assert len(plan) == 4
        assert [s.app for s in plan.specs] == [
            "AMG@x0.5", "AMG@x0.5", "AMG@x2", "AMG@x2"
        ]
        assert [s.label for s in plan.specs] == [
            "cont-min", "rand-adp", "cont-min", "rand-adp"
        ]
        half = plan.trace_for(plan.specs[0])
        double = plan.trace_for(plan.specs[2])
        assert half.total_bytes() < trace.total_bytes() < double.total_bytes()

    def test_each_scale_gets_distinct_keys(self):
        trace = repro.amg_trace(num_ranks=8, seed=1)
        plan = plan_sensitivity(
            repro.tiny(), trace, (0.5, 1.0), (("cont", "min"),)
        )
        assert len(set(plan.keys())) == 2


#: Option sets no cell can run, and the word each error names.
BAD_OPTIONS = {
    "unknown-backend": (dict(backend="bogus"), "backend"),
    "flow-obs": (dict(backend="flow", obs=ObsConfig(window_ns=1e4)), "obs"),
    "flow-faults": (
        dict(backend="flow", faults=FaultPlan(link_faults=(LinkFault(48),))),
        "fault",
    ),
}


#: Grids with one unknown name, and the quoted name each error gives.
BAD_NAMES = {
    "placement": ((("cont", "bogus"), ("min",)), "'bogus'"),
    "routing": ((("cont",), ("min", "ugal")), "'ugal'"),
}


def no_cells(*args, **kwargs):
    raise AssertionError("a cell was executed")


class TestPlanBoundary:
    """Bad cell options fail when the plan is built, not in every cell."""

    @pytest.mark.parametrize("case", BAD_NAMES)
    def test_plan_grid_rejects_unknown_names(self, case):
        (placements, routings), word = BAD_NAMES[case]
        with pytest.raises(ValueError, match=word):
            plan_grid(repro.tiny(), small_traces(), placements, routings)

    @pytest.mark.parametrize("case", BAD_NAMES)
    def test_plan_sensitivity_rejects_unknown_names(self, case):
        (placements, routings), word = BAD_NAMES[case]
        configs = [(p, r) for p in placements for r in routings]
        with pytest.raises(ValueError, match=word):
            plan_sensitivity(repro.tiny(), tiny_trace(), (1.0,), configs)

    def test_run_stream_rejects_unknown_routing(self, monkeypatch):
        from repro.cluster import engine

        monkeypatch.setattr(engine, "execute_plan", no_cells)
        with pytest.raises(ValueError, match="'ugal'"):
            engine.run_stream(
                repro.tiny(), duration_s=900.0, load=0.5, seed=3, routing="ugal"
            )

    @pytest.mark.parametrize("case", BAD_OPTIONS)
    def test_plan_grid_rejects(self, case):
        options, word = BAD_OPTIONS[case]
        with pytest.raises(ValueError, match=word):
            plan_grid(repro.tiny(), small_traces(), ["cont"], ["min"], **options)

    # The sweep records no telemetry, so it takes no obs option.
    @pytest.mark.parametrize("case", [c for c in BAD_OPTIONS if c != "flow-obs"])
    def test_plan_sensitivity_rejects(self, case):
        options, word = BAD_OPTIONS[case]
        with pytest.raises(ValueError, match=word):
            plan_sensitivity(
                repro.tiny(), tiny_trace(), (1.0,), (("cont", "min"),), **options
            )

    @pytest.mark.parametrize("case", BAD_OPTIONS)
    def test_study_raises_before_any_cell_runs(self, case, monkeypatch):
        from repro.core import study

        monkeypatch.setattr(study, "execute_plan", no_cells)
        options, word = BAD_OPTIONS[case]
        amg = repro.amg_trace(num_ranks=8, seed=1)
        with pytest.raises(ValueError, match=word):
            TradeoffStudy(repro.tiny(), {"AMG": amg}, **options).run()
