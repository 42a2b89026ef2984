"""End-to-end advisor pipeline: warm cache -> train -> funnel -> stream.

Covers the load-bearing promises of DESIGN.md S20:

* a surrogate trained on an ordinary study cache ranks the real
  placement grid well enough that the funnel's final recommendation
  matches the *exhaustive* flow-backend optimum on the tiny 5x2 grid,
  for both minimal and adaptive routing (the PR's acceptance gate);
* the whole pipeline is deterministic: same cache, same seeds, same
  recommendation — and a warm funnel re-run simulates zero cells;
* the ``surrogate`` cluster-stream policy produces valid, reproducible
  streams whose allocations obey the machine invariants;
* the funnel report for both routings (ranking with flow and packet
  scores, chosen candidate, exhaustive block) matches
  ``tests/data/golden_advisor.json`` (rewritten by ``--update-goldens``),
  which pins the funnel's flow-screen and packet-validate epoch cells.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.advisor import suggest_placement, train_surrogate
from repro.apps import APP_BUILDERS
from repro.cluster import run_stream
from repro.exec.cache import ResultCache
from repro.exec.plan import plan_grid
from repro.exec.pool import execute_plan
from repro.placement.policies import PLACEMENT_NAMES
from tests.golden_helpers import load_golden, same

RANKS = 8
SEED = 7
SCALE = 0.2


@pytest.fixture(scope="module")
def config():
    return repro.tiny()


@pytest.fixture(scope="module")
def traces():
    return {
        app: APP_BUILDERS[app](num_ranks=RANKS, seed=SEED).scaled(SCALE)
        for app in ("FB", "CR", "AMG")
    }


@pytest.fixture(scope="module")
def warm_cache(config, traces, tmp_path_factory):
    """A study-shaped training cache: full grid, both routings, flow."""
    cache = ResultCache(tmp_path_factory.mktemp("advisor-cache"))
    plan = plan_grid(
        config,
        traces,
        PLACEMENT_NAMES,
        ("min", "adp"),
        seed=SEED,
        backend="flow",
    )
    report = execute_plan(plan, cache=cache)
    report.raise_if_failed()
    return cache


@pytest.fixture(scope="module")
def model(config, traces, warm_cache):
    fitted, training = train_surrogate(config, traces, warm_cache)
    assert training.n_samples == 30  # 3 apps x 5 placements x 2 routings
    assert fitted.score(training.features, training.targets) > 0.9
    return fitted


class TestFunnelAgreement:
    @pytest.mark.parametrize("routing", ["min", "adp"])
    def test_funnel_matches_exhaustive_flow_optimum(
        self, config, traces, model, warm_cache, routing
    ):
        """The acceptance criterion: on the tiny 5x2 grid the funnel's
        recommendation equals the best placement found by exhaustively
        running the flow backend, for both routings."""
        res = suggest_placement(
            config,
            traces["FB"],
            routing,
            model,
            per_policy=1,
            screen_top=3,
            validate_top=2,
            seed=3,
            cache=warm_cache,
            exhaustive=True,
        )
        ex = res.exhaustive
        assert ex is not None
        assert ex["agree_placement"], (
            f"funnel chose {res.chosen.label}, exhaustive optimum is "
            f"{ex['best_placement']}#{ex['best_draw']}"
        )
        assert ex["agree_nodes"]
        # The funnel saw strictly fewer full-fidelity cells than the
        # exhaustive sweep at its widest tier.
        assert res.screened < res.ranked or res.ranked <= 3

    @pytest.mark.parametrize("routing", ["min", "adp"])
    def test_funnel_is_deterministic_and_cache_warm(
        self, config, traces, model, warm_cache, routing
    ):
        kwargs = dict(
            per_policy=1,
            screen_top=3,
            validate_top=2,
            seed=3,
            cache=warm_cache,
        )
        a = suggest_placement(
            config, traces["FB"], routing, model, **kwargs
        )
        b = suggest_placement(
            config, traces["FB"], routing, model, **kwargs
        )
        assert a.chosen.nodes == b.chosen.nodes
        assert a.chosen.flow_ns == b.chosen.flow_ns
        assert a.chosen.packet_ns == b.chosen.packet_ns
        assert [c.predicted for c in a.ranking] == [
            c.predicted for c in b.ranking
        ]
        for tier in b.tiers[1:]:
            assert tier.simulated == 0


GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_advisor.json"

#: The funnel call the golden pins, for both routings.
FUNNEL = dict(per_policy=1, screen_top=3, validate_top=2, seed=3, exhaustive=True)


class TestFunnelGolden:
    def test_report_matches_golden(self, config, traces, model, update_goldens):
        """Every funnel cell is simulated afresh (no cache), so the
        golden holds the epoch-cell physics, not cached results."""
        reports = {}
        for routing in ("min", "adp"):
            res = suggest_placement(
                config, traces["FB"], routing, model, cache=None, **FUNNEL
            )
            payload = res.to_payload()
            reports[routing] = {
                k: payload[k] for k in ("chosen", "ranking", "exhaustive")
            }
        doc = json.loads(
            json.dumps({"scenario": {"app": "FB", **FUNNEL}, "reports": reports})
        )
        golden = load_golden(GOLDEN_PATH, doc, update_goldens)
        assert golden["scenario"] == doc["scenario"]
        for routing, report in doc["reports"].items():
            assert same(report, golden["reports"][routing]), routing


class TestSurrogateStreamPolicy:
    def test_stream_runs_and_is_deterministic(self, config, model, tmp_path):
        kwargs = dict(
            mix="AMG=1,CR=1,FB=1",
            duration_s=900.0,
            load=0.5,
            policy="surrogate",
            routing="adp",
            backend="flow",
            seed=5,
            surrogate_model=model,
            cache=ResultCache(tmp_path / "stream-cache"),
        )
        a = run_stream(config, **kwargs)
        b = run_stream(config, **kwargs)
        assert len(a.completed) == len(b.completed)
        assert [j.id for j in a.jobs] == [j.id for j in b.jobs]
        assert [j.placement for j in a.jobs] == [
            j.placement for j in b.jobs
        ]
        assert [tuple(j.nodes) for j in a.jobs] == [
            tuple(j.nodes) for j in b.jobs
        ]
        # every allocation is a valid node set of the right size
        for job in a.jobs:
            assert len(set(job.nodes)) == len(job.nodes)

    def test_surrogate_policy_requires_model(self, config):
        with pytest.raises(ValueError, match="surrogate"):
            run_stream(config, policy="surrogate", duration_s=60.0)
