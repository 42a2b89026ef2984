"""The shared route-table memo does not depend on which cells filled it.

Every cell of a process reads one :class:`~repro.routing.tables.RouteTables`
per topology: the packet policies, the fault-aware policies' healthy
tables and the flow route model. Its entries must therefore be a pure
function of the router pair, so a cell gives the same result whatever
ran before it in the process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.runner import build_topology, run_single
from repro.faults import random_fault_plan
from repro.routing.tables import RouteTables, route_tables

ROOT = Path(__file__).resolve().parents[2]


def probe() -> str:
    """Metrics of one packet cell, as canonical JSON."""
    trace = repro.fill_boundary_trace(num_ranks=8, seed=1).scaled(0.05)
    result = run_single(repro.tiny(), trace, "rand", "min", seed=3)
    return json.dumps(result.metrics.summary(), sort_keys=True)


def _fill_memo_from_every_kind_of_cell() -> None:
    cfg = repro.tiny()
    trace = repro.fill_boundary_trace(num_ranks=8, seed=1).scaled(0.05)
    plan = random_fault_plan(build_topology(cfg.topology), 0.2, seed=11)
    assert not plan.is_empty()
    for routing in ("min", "adp"):
        run_single(cfg, trace, "cont", routing, seed=1)
        run_single(cfg, trace, "cont", routing, seed=1, backend="flow")
        run_single(cfg, trace, "rand", routing, seed=1, faults=plan)


def test_memo_entries_match_fresh_tables():
    _fill_memo_from_every_kind_of_cell()
    topo = build_topology(repro.tiny().topology)
    memo = route_tables(topo)._minimal
    fresh = RouteTables(topo)
    assert memo
    for (r1, r2), routes in memo.items():
        assert routes == fresh.minimal(r1, r2), (r1, r2)


def test_probe_cell_matches_a_fresh_process():
    _fill_memo_from_every_kind_of_cell()
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(ROOT)))}
    fresh = subprocess.run(
        [
            sys.executable,
            "-c",
            "from tests.integration.test_route_memo import probe; print(probe())",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert probe() == fresh
