"""Cluster-stream results and cache keys are pinned across host-side rewrites.

The stream path's fill (``repro.flow.solver.solve_scalar``) and its key
hashing (per-call op reprs, memoised ``RunSpec.key``, shallow epoch
payloads) are performance work only. These tests hold them to that:

* a one-hour flow stream (AMG, CR and FB at load 0.6, seed 7) replays
  identically when the fill is swapped for the historical loop in
  ``tests/flow_oracle.py``;
* three pinned keys stay byte-identical: the ``EpochSpec`` digest
  carries no salt and has never moved, and the two salted spec keys
  move only at a ``CODE_SALT`` bump, which re-pins them;
* every job record and epoch key of that stream matches
  ``tests/data/golden_stream.json`` (rewritten by ``--update-goldens``),
  and a tiny packet stream under a link-fault plan matches
  ``tests/data/golden_stream_faults.json``;
* the per-call op-repr memo never outlives its ``run_stream`` call.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import repro
from repro.cluster import engine, generate_stream, run_stream
from repro.exec.plan import plan_grid
from repro.mpi.ops import Compute
from tests.flow_oracle import solve_scalar_oracle
from tests.golden_helpers import load_golden, same

#: A one-hour ``cont``/``adp`` flow stream of one job class per app at
#: load 0.6: about 8 jobs, 16 epochs, 22 cells.
MIX = "AMG=1,CR=1,FB=1"
SCENARIO = dict(
    mix=MIX, duration_s=3600.0, load=0.6, policy="cont", routing="adp",
    backend="flow", seed=7,
)

#: The first epoch cell of the scenario (job CR-0 alone on nodes 0-3),
#: its EpochSpec digest, and one ``plan_grid`` flow cell. The digest
#: was captured from the original code and carries no salt. The two
#: keys fold in ``CODE_SALT`` and were re-pinned at ``repro-exec/v10``,
#: when the key payload became every ``RunSpec`` field.
FIRST_EPOCH_KEY = "5189426e2e60751d1b52d16d2d8a031c76f63d7f614900df528d435444873f44"
FIRST_EPOCH_DIGEST = "6a99839fb7112922dfcbedb5cfe1dab49f932600dc9aea898d668cd64fed9157"
PLAN_GRID_KEY = "753070a6105efe4236c065364e40628b3e0796f25e70fde44396fb99abb6d095"

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_stream.json"
FAULTS_GOLDEN_PATH = GOLDEN_PATH.with_name("golden_stream_faults.json")


def _rows(result):
    """Job and epoch records minus wall-clock time, NaN-safe via repr."""
    jobs = [repr(dataclasses.asdict(j)) for j in result.jobs]
    epochs = []
    for e in result.epochs:
        doc = dataclasses.asdict(e)
        doc.pop("sim_wall_s")
        epochs.append(repr(doc))
    return jobs, epochs


@pytest.fixture(scope="module")
def stream_specs(tmp_path_factory):
    """The scenario on a fresh cache, plus every spec it planned."""
    planned = []
    execute = engine.execute_plan

    def spy(plan, **kwargs):
        planned.extend(plan.specs)
        return execute(plan, **kwargs)

    engine.execute_plan = spy
    try:
        result = run_stream(
            repro.tiny(), cache=str(tmp_path_factory.mktemp("cache")), **SCENARIO
        )
    finally:
        engine.execute_plan = execute
    return result, planned


class TestOracleFill:
    def test_stream_identical_under_oracle_fill(
        self, stream_specs, monkeypatch, tmp_path
    ):
        result, _ = stream_specs
        solves = []

        def oracle_fill(flows, bw):
            solves.append(len(flows))
            return solve_scalar_oracle(flows, bw)

        # Epoch cells run on the object fabric, which calls the
        # solve_scalar it imported.
        monkeypatch.setattr("repro.flow.fabric.solve_scalar", oracle_fill)
        oracle = run_stream(repro.tiny(), cache=str(tmp_path), **SCENARIO)
        assert solves
        assert oracle.counters == result.counters
        assert _rows(oracle) == _rows(result)


class TestGoldenKeys:
    def test_first_epoch_cell(self, stream_specs):
        result, planned = stream_specs
        first = planned[0]
        assert first.epoch.jobs == (("CR-0", 4, (0, 1, 2, 3)),)
        assert first.epoch.digest == FIRST_EPOCH_DIGEST
        assert first.key == FIRST_EPOCH_KEY
        assert next(e.key for e in result.epochs if e.key) == FIRST_EPOCH_KEY

    def test_plan_grid_cell(self):
        trace = repro.fill_boundary_trace(num_ranks=8, seed=3).scaled(0.2)
        plan = plan_grid(
            repro.tiny(), {"FB": trace}, ["cont"], ["adp"], seed=7, backend="flow"
        )
        assert plan.specs[0].key == PLAN_GRID_KEY


class TestStreamGolden:
    def test_job_records_and_epoch_keys(self, stream_specs, update_goldens):
        result, _ = stream_specs
        doc = json.loads(
            json.dumps(
                {
                    "scenario": SCENARIO,
                    "jobs": [dataclasses.asdict(j) for j in result.jobs],
                    "epoch_keys": [e.key for e in result.epochs],
                }
            )
        )
        _check_stream_golden(GOLDEN_PATH, doc, update_goldens)


def _check_stream_golden(path: Path, doc: dict, update: bool) -> None:
    golden = load_golden(path, doc, update)
    assert golden["scenario"] == doc["scenario"]
    assert doc["epoch_keys"] == golden["epoch_keys"]
    assert len(doc["jobs"]) == len(golden["jobs"])
    for got, want in zip(doc["jobs"], golden["jobs"]):
        assert same(got, want), (got["name"], got, want)


#: A packet stream under link faults: one dead link from the start, one
#: dying mid-block and one degraded lane, so every epoch cell routes
#: fault-aware and installs the plan. Link ids are router-to-router
#: links of the tiny preset.
FAULT_SCENARIO = dict(
    mix=MIX, duration_s=1800.0, load=0.6, policy="cont", routing="adp",
    backend="packet", seed=7,
)
FAULT_LINKS = [(48, 0.0, 0.0), (68, 20_000.0, 0.0), (57, 0.0, 0.5)]


class TestFaultStreamGolden:
    def test_job_records_and_epoch_keys(self, tmp_path, update_goldens):
        from repro.faults import FaultPlan, LinkFault

        plan = FaultPlan(
            link_faults=tuple(
                LinkFault(link, time_ns=t, bw_scale=scale)
                for link, t, scale in FAULT_LINKS
            )
        )
        result = run_stream(
            repro.tiny(), cache=str(tmp_path), faults=plan, **FAULT_SCENARIO
        )
        assert result.counters["cells_simulated"] > 0
        doc = json.loads(
            json.dumps(
                {
                    "scenario": {**FAULT_SCENARIO, "link_faults": FAULT_LINKS},
                    "jobs": [dataclasses.asdict(j) for j in result.jobs],
                    "epoch_keys": [e.key for e in result.epochs],
                }
            )
        )
        _check_stream_golden(FAULTS_GOLDEN_PATH, doc, update_goldens)


class TestReprMemoScope:
    def test_trace_mutated_between_calls_rekeys_its_epochs(self, tmp_path):
        """Every epoch holding a job whose trace changed in place gets a
        new key on the next call over the same cache."""
        cfg = repro.tiny()
        jobs = generate_stream(MIX, 3600.0, 0.6, 24, seed=7)
        kw = dict(SCENARIO, cache=str(tmp_path), jobs=jobs)
        first = run_stream(cfg, **kw)
        before = {e.key for e in first.epochs if e.key}

        target = jobs[1]
        target.trace.ranks[0].ops.append(Compute(0.0))
        second = run_stream(cfg, **kw)
        touched = [e for e in second.epochs if target.id in e.job_ids]
        assert touched
        assert all(e.key not in before for e in touched)
        assert second.counters["cells_simulated"] > 0
