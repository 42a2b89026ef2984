"""Golden-metrics regression fixtures over the full 5x2 study grid.

``RunMetrics.summary()`` for every placement x routing cell of a tiny
preset is checked against a committed JSON fixture, so a perf refactor
that silently changes the *physics* (routing, flow control, replay
semantics, metric extraction) fails loudly here even if every unit
test still passes. The packet grid is pinned in
``golden_metrics.json``; the same grid on the flow backend (the
production array fabric) in ``golden_flow_metrics.json``.

Approved-update flow::

    PYTHONPATH=src python -m pytest tests/integration/test_golden_metrics.py \
        --update-goldens

then review the fixture diff like any other code change.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import repro
from repro.core.study import TradeoffStudy
from repro.placement.policies import PLACEMENT_NAMES
from repro.routing import ROUTING_NAMES
from tests.flow_oracle import use_checked_fabric

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_metrics.json"
FLOW_GOLDEN_PATH = GOLDEN_PATH.with_name("golden_flow_metrics.json")

#: Fixture identity: bump when the *intended* scenario changes (not
#: when physics drifts — that is exactly what this test must catch).
SCENARIO = {
    "preset": "tiny",
    "app": "FB",
    "ranks": 8,
    "trace_seed": 3,
    "msg_scale": 0.05,
    "study_seed": 7,
}

REL_TOL = 1e-9


def _grid(backend: str) -> dict[str, dict[str, float]]:
    cfg = repro.tiny()
    trace = repro.fill_boundary_trace(
        num_ranks=SCENARIO["ranks"], seed=SCENARIO["trace_seed"]
    ).scaled(SCENARIO["msg_scale"])
    result = TradeoffStudy(
        cfg, {SCENARIO["app"]: trace}, seed=SCENARIO["study_seed"],
        backend=backend,
    ).run()
    return {
        f"{placement}-{routing}": result.runs[
            (SCENARIO["app"], placement, routing)
        ].metrics.summary()
        for placement in PLACEMENT_NAMES
        for routing in ROUTING_NAMES
    }


def _check_golden(path: Path, summaries: dict, update: bool) -> None:
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"scenario": SCENARIO, "summaries": summaries},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    golden = json.loads(path.read_text())
    assert golden["scenario"] == SCENARIO, (
        "golden fixture was generated for a different scenario; "
        "regenerate with --update-goldens"
    )
    expected = golden["summaries"]
    assert set(expected) == set(summaries)
    for label, summary in summaries.items():
        assert set(summary) == set(expected[label]), label
        for key, value in summary.items():
            want = expected[label][key]
            assert math.isclose(value, want, rel_tol=REL_TOL, abs_tol=1e-12), (
                f"{label}.{key}: got {value!r}, golden {want!r} "
                "(physics changed? regenerate with --update-goldens only "
                "if the change is intended)"
            )


@pytest.fixture(scope="module")
def grid_summaries() -> dict[str, dict[str, float]]:
    return _grid("packet")


@pytest.fixture(scope="module")
def flow_grid_summaries() -> dict[str, dict[str, float]]:
    return _grid("flow")


def test_grid_covers_full_nomenclature(grid_summaries):
    assert len(grid_summaries) == len(PLACEMENT_NAMES) * len(ROUTING_NAMES) == 10


def test_golden_summaries(grid_summaries, update_goldens):
    _check_golden(GOLDEN_PATH, grid_summaries, update_goldens)


def test_flow_golden_summaries(flow_grid_summaries, update_goldens):
    assert len(flow_grid_summaries) == 10
    _check_golden(FLOW_GOLDEN_PATH, flow_grid_summaries, update_goldens)


def test_flow_grid_fills_match_scalar(flow_grid_summaries, monkeypatch):
    """The flow grid again, with every full solve of every cell checked
    against a from-scratch ``solve_scalar`` (``tests/flow_oracle.py``'s
    ``check_fill``); the check changes nothing it observes. The fill
    must leave some links out, or the pruning has silently turned off."""
    solves = use_checked_fabric(monkeypatch)
    assert _grid("flow") == flow_grid_summaries
    assert solves
    assert any(left_out for _units, left_out in solves)
