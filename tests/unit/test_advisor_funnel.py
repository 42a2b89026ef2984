"""Funnel mechanics: tier escalation, caching, and result structure."""

import numpy as np
import pytest

import repro
from repro.advisor.features import FEATURE_NAMES, FeatureExtractor
from repro.advisor.funnel import FUNNEL_SCHEMA, suggest_placement
from repro.advisor.model import RidgeSurrogate
from repro.advisor import store as store_mod
from repro.advisor.store import build_training_set, train_surrogate
from repro.exec import plan as plan_mod
from repro.exec import pool as pool_mod
from repro.exec.cache import ResultCache
from repro.exec.plan import plan_grid
from repro.exec.pool import execute_plan
from repro.placement.policies import PLACEMENT_NAMES
from repro.routing import ROUTING_NAMES

from tests.advisor_helpers import advisor_trace
from tests.exec_helpers import make_stub_result, tiny_trace


@pytest.fixture(scope="module")
def config():
    return repro.tiny()


@pytest.fixture(scope="module")
def trace():
    return advisor_trace()


@pytest.fixture(scope="module")
def model():
    """A tiny synthetic surrogate — funnel mechanics don't need a good
    model, only a deterministic one."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=(40, len(FEATURE_NAMES)))
    y = x @ rng.normal(size=len(FEATURE_NAMES)) * 0.01 + 14.0
    return RidgeSurrogate.fit(x, y)


class TestFunnel:
    def test_tier_escalation_ordering(self, config, trace, model, tmp_path):
        res = suggest_placement(
            config,
            trace,
            "min",
            model,
            per_policy=2,
            screen_top=3,
            validate_top=1,
            seed=5,
            cache=ResultCache(tmp_path),
        )
        names = [t.name for t in res.tiers]
        assert names == ["surrogate", "flow-screen", "packet-val"]
        assert res.ranked >= res.screened >= res.validated >= 1
        assert res.screened == 3
        assert res.validated == 1
        counts = [t.candidates for t in res.tiers]
        assert counts[0] >= counts[1] >= counts[2]

    def test_chosen_came_from_the_validated_set(
        self, config, trace, model, tmp_path
    ):
        res = suggest_placement(
            config,
            trace,
            "min",
            model,
            per_policy=2,
            screen_top=3,
            validate_top=2,
            seed=5,
            cache=ResultCache(tmp_path),
        )
        assert res.chosen.packet_ns is not None
        assert res.chosen.flow_ns is not None
        validated = [c for c in res.ranking if c.packet_ns is not None]
        assert res.chosen in validated
        assert res.chosen.packet_ns == min(c.packet_ns for c in validated)

    def test_validate_top_zero_recommends_flow_winner(
        self, config, trace, model, tmp_path
    ):
        res = suggest_placement(
            config,
            trace,
            "min",
            model,
            per_policy=1,
            screen_top=3,
            validate_top=0,
            seed=5,
            cache=ResultCache(tmp_path),
        )
        assert [t.name for t in res.tiers] == ["surrogate", "flow-screen"]
        assert res.validated == 0
        assert res.chosen.packet_ns is None
        screened = [c for c in res.ranking if c.flow_ns is not None]
        assert res.chosen.flow_ns == min(c.flow_ns for c in screened)

    def test_warm_cache_rerun_simulates_nothing(
        self, config, trace, model, tmp_path
    ):
        cache = ResultCache(tmp_path)
        kwargs = dict(
            per_policy=2, screen_top=3, validate_top=1, seed=5, cache=cache
        )
        first = suggest_placement(config, trace, "min", model, **kwargs)
        second = suggest_placement(config, trace, "min", model, **kwargs)
        for tier in second.tiers[1:]:
            assert tier.simulated == 0
            assert tier.cached == tier.candidates
        assert second.chosen.nodes == first.chosen.nodes
        assert second.chosen.flow_ns == first.chosen.flow_ns
        assert second.chosen.packet_ns == first.chosen.packet_ns

    def test_exhaustive_reports_agreement_fields(
        self, config, trace, model, tmp_path
    ):
        res = suggest_placement(
            config,
            trace,
            "min",
            model,
            per_policy=1,
            screen_top=5,
            validate_top=0,
            seed=5,
            cache=ResultCache(tmp_path),
            exhaustive=True,
        )
        ex = res.exhaustive
        assert ex is not None
        assert set(ex) >= {
            "best_placement",
            "best_draw",
            "best_nodes",
            "best_flow_ns",
            "chosen_flow_ns",
            "agree_placement",
            "agree_nodes",
        }
        # screen_top covers every candidate, so the flow winner IS the
        # exhaustive optimum by construction.
        assert ex["agree_nodes"] is True
        assert ex["agree_placement"] is True
        assert [t.name for t in res.tiers][-1] == "flow-exhaust"

    def test_payload_round_trip(self, config, trace, model, tmp_path):
        res = suggest_placement(
            config,
            trace,
            "min",
            model,
            per_policy=1,
            screen_top=2,
            validate_top=0,
            seed=5,
            cache=ResultCache(tmp_path / "c"),
        )
        out = tmp_path / "funnel.json"
        res.save_json(out)
        import json

        payload = json.loads(out.read_text())
        assert payload["schema"] == FUNNEL_SCHEMA
        assert payload["chosen"]["placement"] == res.chosen.placement
        assert payload["counts"]["ranked"] == res.ranked
        assert res.format_table()  # renders without raising

    def test_parameter_validation(self, config, trace, model):
        with pytest.raises(ValueError, match="screen_top"):
            suggest_placement(
                config, trace, "min", model, screen_top=0
            )
        with pytest.raises(ValueError, match="validate_top"):
            suggest_placement(
                config, trace, "min", model, validate_top=-1
            )


class TestTrainingSet:
    def test_skips_unusable_results(self, config):
        trace = tiny_trace("A")
        good = make_stub_result(
            type(
                "S",
                (),
                {
                    "app": "A",
                    "placement": "cont",
                    "routing": "min",
                    "seed": 0,
                },
            )()
        )
        good.metrics.comm_time_ns[:] = 1000.0
        epoch = make_stub_result(
            type(
                "S",
                (),
                {
                    "app": "A",
                    "placement": "cont",
                    "routing": "min",
                    "seed": 1,
                },
            )()
        )
        epoch.metrics.comm_time_ns[:] = 1000.0
        epoch.extra["epoch_jobs"] = []
        unknown = make_stub_result(
            type(
                "S",
                (),
                {
                    "app": "NOPE",
                    "placement": "cont",
                    "routing": "min",
                    "seed": 2,
                },
            )()
        )
        ts = build_training_set(
            [good, epoch, unknown, "not-a-result"],
            config,
            {"A": trace},
        )
        assert ts.n_samples == 1
        assert ts.per_app == {"A": 1}
        assert ts.skipped == {
            "epoch_merged": 1,
            "unknown_app": 1,
            "not_a_run_result": 1,
        }

    def test_feature_vector_matches_direct_extraction(self, config):
        trace = tiny_trace("A")
        spec = type(
            "S",
            (),
            {"app": "A", "placement": "cont", "routing": "min", "seed": 0},
        )()
        result = make_stub_result(spec)
        result.metrics.comm_time_ns[:] = 5000.0
        ts = build_training_set([result], config, {"A": trace})
        fx = FeatureExtractor(config, trace, "min")
        assert np.array_equal(ts.features[0], fx.vector(result.nodes))
        assert ts.targets[0] == pytest.approx(np.log1p(5000.0))

    def test_rewarmed_cache_trains_on_current_salt_only(
        self, config, tmp_path, monkeypatch
    ):
        """A cache warmed before and after a salt bump holds every cell
        twice; only the current salt's copy is a training sample."""
        fb = repro.fill_boundary_trace(num_ranks=8, seed=3).scaled(0.05)
        traces = {"FB": fb}
        cache = ResultCache(tmp_path)

        def warm():
            plan = plan_grid(
                config, traces, PLACEMENT_NAMES, ROUTING_NAMES, seed=7,
                backend="flow",
            )
            execute_plan(plan, cache=cache).raise_if_failed()

        warm()
        for mod in (plan_mod, pool_mod, store_mod):
            monkeypatch.setattr(mod, "CODE_SALT", "repro-exec/next")
        warm()
        assert len(cache) == 20
        _model, training = train_surrogate(config, traces, cache)
        assert training.n_samples == 10
        assert training.skipped == {"stale_salt": 10}
