"""Flow-vs-packet backend throughput benchmark (the repro.flow gate).

Times two scenarios, each a full 5x2 placement x routing grid —
serial, cache off:

* ``xfid`` (cross-fidelity): the tiny-preset fill-boundary workload at
  a realistic message scale, timed under ``packet`` (the reference
  backend) and ``flow`` (the fluid backend on the production array
  fabric).  This is the workload behind the flow-over-packet speedup
  claim; packet runs are affordable here.
* ``contention`` (fabric gate): the small-preset crystal-router
  workload at 64 ranks, where thousands of concurrent flows contend on
  shared links and the max-min solver dominates.  Timed under
  ``flow_obj`` (the *object* fabric, the baseline the array fabric
  replaced, swapped into ``run_single`` for the run) and ``flow_vec``
  (the array fabric ``run_single`` builds).  Packet is not timed here —
  at this scale a single packet run costs minutes and the
  cross-fidelity claim is already covered by ``xfid``.

Reports wall-clock mean/stdev, grid cells per second, the
flow-over-packet speedup (``xfid``) and the array-fabric speedup over
the object fabric (``contention``).  Repeats are interleaved A/B
(every configuration once per rep) so slow clock drift or thermal
throttling biases every configuration equally instead of whichever ran
last.  This is the workload behind the speedup claims in
``BENCH_flow.json`` and the CI flow smoke gate.

Usage::

    python benchmarks/bench_flow.py                   # full run
    python benchmarks/bench_flow.py --quick           # CI smoke
    python benchmarks/bench_flow.py --out BENCH.json
    python benchmarks/bench_flow.py --quick \\
        --compare BENCH_flow.json --max-regression 0.25

``--compare`` exits non-zero when any configuration's cells/s fall
more than ``--max-regression`` below the reference file, the measured
flow speedup drops under ``--min-speedup`` (default 5x, the
acceptance floor from DESIGN.md S16), or the array-fabric speedup
drops under ``--min-vec-speedup`` (default 1.5x, the S19 CI floor under
the 2x acceptance target).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import repro
from repro.core.study import TradeoffStudy
from repro.flow import fabric_array
from repro.flow.fabric import FlowFabric
from repro.flow.routes import BACKEND_NAMES

#: Versioned result-file schema. v2 added the ``flow_batch``
#: configuration and the ``batch_speedup`` field; v3 split the bench
#: into the ``xfid`` and ``contention`` scenarios, added the
#: ``flow_obj``/``flow_vec`` fabric pair and ``vec_speedup``, and
#: redefined ``batch_speedup`` as flow_vec/flow_batch. The
#: ``flow_batch`` configuration, ``batch_speedup`` and the contention
#: scenario's ``flow_batch`` parameter were later dropped without a
#: bump: the gate reads only fields that remain.
SCHEMA = "repro-bench-flow/v3"

#: Scenario parameters. ``xfid`` keeps a non-degenerate message scale
#: (0.05 leaves only 1-3 packets per message, which understates the
#: fluid model's advantage; 0.2 keeps the packet runs short enough to
#: repeat while the speedup is already representative).
#: ``contention`` picks the regime the array fabric was built for:
#: many ranks on the small preset so solves see hundreds of contended
#: links and the per-flow Python overhead of the object fabric is the
#: bottleneck being measured.
SCENARIOS = {
    "xfid": {
        "preset": "tiny",
        "app": "FB",
        "ranks": 8,
        "trace_seed": 3,
        "msg_scale": 0.2,
        "study_seed": 7,
    },
    "contention": {
        "preset": "small",
        "app": "CR",
        "ranks": 64,
        "trace_seed": 3,
        "msg_scale": 0.2,
        "study_seed": 7,
    },
}

#: Timed configurations: scenario, backend, and fabric. ``flow``
#: measures the array fabric ``run_single`` builds; ``flow_obj``
#: measures the object fabric, the baseline the vec gate compares
#: against.
CONFIGS: dict[str, dict] = {
    "packet": {"scenario": "xfid", "backend": "packet", "fabric": None},
    "flow": {"scenario": "xfid", "backend": "flow", "fabric": "array"},
    "flow_obj": {
        "scenario": "contention", "backend": "flow", "fabric": "object",
    },
    "flow_vec": {
        "scenario": "contention", "backend": "flow", "fabric": "array",
    },
}

assert set(BACKEND_NAMES) <= set(CONFIGS)


def _trace(sc: dict):
    if sc["app"] == "CR":
        base = repro.crystal_router_trace(
            num_ranks=sc["ranks"], seed=sc["trace_seed"]
        )
    else:
        base = repro.fill_boundary_trace(
            num_ranks=sc["ranks"], seed=sc["trace_seed"]
        )
    return base.scaled(sc["msg_scale"])


@contextlib.contextmanager
def _object_fabric():
    """Make ``run_single`` build the object fabric for the duration."""
    array = fabric_array.ArrayFlowFabric
    fabric_array.ArrayFlowFabric = FlowFabric
    try:
        yield
    finally:
        fabric_array.ArrayFlowFabric = array


def _grid_once(config_name: str) -> tuple[float, int]:
    """One full 5x2 grid run; returns (wall seconds, grid cells)."""
    spec = CONFIGS[config_name]
    sc = SCENARIOS[spec["scenario"]]
    cfg = getattr(repro, sc["preset"])()
    trace = _trace(sc)
    fabric = (
        _object_fabric() if spec["fabric"] == "object"
        else contextlib.nullcontext()
    )
    with fabric:
        t0 = time.perf_counter()
        result = TradeoffStudy(
            cfg,
            {sc["app"]: trace},
            seed=sc["study_seed"],
            backend=spec["backend"],
        ).run()
        wall = time.perf_counter() - t0
    return wall, len(result.runs)


def bench(repeats: int, warmup: int = 1) -> dict:
    """Time every configuration A/B-interleaved; return the result doc."""
    times: dict[str, list[float]] = {c: [] for c in CONFIGS}
    cells: dict[str, int] = {c: 0 for c in CONFIGS}
    for config in CONFIGS:
        for _ in range(warmup):
            _grid_once(config)
    for rep in range(repeats):
        for config in CONFIGS:  # interleaved: packet, flow, ...
            wall, n = _grid_once(config)
            times[config].append(wall)
            cells[config] = n
            print(
                f"rep {rep + 1}/{repeats} {config:>10}: {wall:.4f}s",
                file=sys.stderr,
            )
    configs = {}
    for config, walls in times.items():
        mean = statistics.mean(walls)
        configs[config] = {
            "scenario": CONFIGS[config]["scenario"],
            "mean_s": round(mean, 4),
            "stdev_s": round(
                statistics.stdev(walls) if len(walls) > 1 else 0.0, 4
            ),
            "min_s": round(min(walls), 4),
            "repeats": repeats,
            "cells": cells[config],
            "cells_per_s": round(cells[config] / mean, 2),
        }
    speedup = configs["packet"]["mean_s"] / configs["flow"]["mean_s"]
    vec_speedup = configs["flow_obj"]["mean_s"] / configs["flow_vec"]["mean_s"]
    print(f"flow speedup over packet: {speedup:.1f}x", file=sys.stderr)
    print(
        f"array-fabric speedup over object: {vec_speedup:.2f}x",
        file=sys.stderr,
    )
    return {
        "schema": SCHEMA,
        "scenarios": SCENARIOS,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "configs": configs,
        "speedup": round(speedup, 2),
        "vec_speedup": round(vec_speedup, 2),
    }


def compare(
    doc: dict,
    ref_path: Path,
    max_regression: float,
    min_speedup: float,
    min_vec_speedup: float,
) -> int:
    """Gate ``doc`` against a reference file; returns the exit code."""
    ref = json.loads(ref_path.read_text())
    baseline = ref.get("after", ref)  # PR files keep before/after blocks
    if baseline.get("schema") != SCHEMA:
        print(f"schema mismatch in {ref_path}, skipping gate", file=sys.stderr)
        return 0
    failed = False
    for config, cfg in baseline["configs"].items():
        cur = doc["configs"].get(config)
        if cur is None:
            print(f"MISSING  {config}: not measured", file=sys.stderr)
            failed = True
            continue
        ratio = cur["cells_per_s"] / cfg["cells_per_s"]
        status = "OK" if ratio >= 1.0 - max_regression else "REGRESSED"
        print(
            f"{status:>9}  {config}: {cur['cells_per_s']:,} cells/s vs "
            f"reference {cfg['cells_per_s']:,} ({ratio:.2f}x)",
            file=sys.stderr,
        )
        if status != "OK":
            failed = True
    status = "OK" if doc["speedup"] >= min_speedup else "REGRESSED"
    print(
        f"{status:>9}  speedup: {doc['speedup']:.1f}x "
        f"(floor {min_speedup:.1f}x)",
        file=sys.stderr,
    )
    if status != "OK":
        failed = True
    status = "OK" if doc["vec_speedup"] >= min_vec_speedup else "REGRESSED"
    print(
        f"{status:>9}  vec speedup: {doc['vec_speedup']:.2f}x "
        f"(floor {min_vec_speedup:.2f}x)",
        file=sys.stderr,
    )
    if status != "OK":
        failed = True
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed runs per backend"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="2 repeats (CI smoke mode)",
    )
    parser.add_argument(
        "--out", default=None, metavar="JSON", help="write results to file"
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="JSON",
        help="reference BENCH_flow.json to gate cells/s against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="tolerated fractional cells/s drop vs reference (default 0.25)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="minimum flow-over-packet speedup (default 5.0)",
    )
    parser.add_argument(
        "--min-vec-speedup",
        type=float,
        default=1.5,
        help=(
            "minimum array-fabric speedup over the frozen object "
            "fabric (default 1.5, the CI floor under the 2x "
            "acceptance target of DESIGN.md S19)"
        ),
    )
    args = parser.parse_args(argv)

    repeats = 2 if args.quick else args.repeats
    doc = bench(repeats=repeats, warmup=1)

    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(json.dumps(doc, indent=2))

    if args.compare:
        return compare(
            doc,
            Path(args.compare),
            args.max_regression,
            args.min_speedup,
            args.min_vec_speedup,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
