"""Cluster-stream results and cache keys are pinned across host-side rewrites.

The stream path's fill (``repro.flow.solver.solve_scalar``) and its key
hashing (per-call op reprs, memoised ``RunSpec.key``, shallow epoch
payloads) are performance work only. These tests hold them to that:

* the ``bench_cluster.py`` stream replays identically when the fill is
  swapped for the historical loop in ``tests/flow_oracle.py``;
* three keys captured from the original code stay byte-identical, so
  caches written before the rewrite keep serving;
* the per-call op-repr memo never outlives its ``run_stream`` call.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.cluster import engine, generate_stream, run_stream
from repro.exec.plan import plan_grid
from repro.mpi.ops import Compute
from tests.flow_oracle import solve_scalar_oracle

#: The ``bench_cluster.py`` scenario: about 8 jobs, 16 epochs, 22 cells.
MIX = "AMG=1,CR=1,FB=1"
SCENARIO = dict(
    mix=MIX, duration_s=3600.0, load=0.6, policy="cont", routing="adp",
    backend="flow", seed=7,
)

#: Captured from the original code: the first epoch cell of the
#: scenario (job CR-0 alone on nodes 0-3), its EpochSpec digest, and
#: one ``plan_grid`` flow cell.
FIRST_EPOCH_KEY = "4e2e91c7bbe8ed264c193e3747bf399fa544b39c8963550d0cbf0025449d45ab"
FIRST_EPOCH_DIGEST = "6a99839fb7112922dfcbedb5cfe1dab49f932600dc9aea898d668cd64fed9157"
PLAN_GRID_KEY = "a53111e612b7966ef0cb28e4f2697621a3b0b40db8bc9d808529c3cbe0c29f53"


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

        # The object fabric's default solver delegates every solve below
        # VECTOR_MIN_UNITS to the module's solve_scalar.
        monkeypatch.setattr("repro.flow.solver.solve_scalar", oracle_fill)
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
