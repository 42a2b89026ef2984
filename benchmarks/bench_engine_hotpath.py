"""Engine hot-path throughput benchmark (the repro.perf gate).

Times the tiny-preset 5x2 placement x routing grid — the golden-metrics
scenario, serial, cache off — with observability off and on, and
reports wall-clock mean/stdev plus event throughput. Configurations
keep their historical ``heap/`` label prefix so ``BENCH_engine.json``
stays comparable.
This is the workload the PR-level speedup claims in ``BENCH_engine.json``
are measured on, and the CI perf smoke gate compares against.

Usage::

    python benchmarks/bench_engine_hotpath.py                   # full run
    python benchmarks/bench_engine_hotpath.py --quick           # CI smoke
    python benchmarks/bench_engine_hotpath.py --out BENCH.json
    python benchmarks/bench_engine_hotpath.py --quick \\
        --compare BENCH_engine.json --max-regression 0.20

``--compare`` exits non-zero when any configuration's events/s fall more
than ``--max-regression`` below the reference file's ``after`` numbers —
a wide gate by design: it catches accidental hot-path regressions, not
machine-to-machine noise.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import repro
from repro.core.study import TradeoffStudy
from repro.obs import ObsConfig

#: Versioned result-file schema.
SCHEMA = "repro-bench-engine/v1"

#: The golden-metrics scenario (tests/integration/test_golden_metrics.py).
SCENARIO = {
    "preset": "tiny",
    "app": "FB",
    "ranks": 8,
    "trace_seed": 3,
    "msg_scale": 0.05,
    "study_seed": 7,
}


def _grid_once(obs: bool) -> tuple[float, int]:
    """One full 5x2 grid run; returns (wall seconds, total events)."""
    cfg = repro.tiny()
    trace = repro.fill_boundary_trace(
        num_ranks=SCENARIO["ranks"], seed=SCENARIO["trace_seed"]
    ).scaled(SCENARIO["msg_scale"])
    kwargs = {"obs": ObsConfig()} if obs else {}
    t0 = time.perf_counter()
    result = TradeoffStudy(
        cfg,
        {SCENARIO["app"]: trace},
        seed=SCENARIO["study_seed"],
        **kwargs,
    ).run()
    wall = time.perf_counter() - t0
    events = sum(run.events for run in result.runs.values())
    return wall, events


def bench(repeats: int, warmup: int = 1) -> dict:
    """Time the obs-off and obs-on configurations; return the result doc."""
    configs = {}
    for obs in (False, True):
        label = f"heap/{'obs_on' if obs else 'obs_off'}"
        for _ in range(warmup):
            _grid_once(obs)
        times = []
        events = 0
        for _ in range(repeats):
            wall, events = _grid_once(obs)
            times.append(wall)
        mean = statistics.mean(times)
        configs[label] = {
            "mean_s": round(mean, 4),
            "stdev_s": round(
                statistics.stdev(times) if len(times) > 1 else 0.0, 4
            ),
            "min_s": round(min(times), 4),
            "repeats": repeats,
            "events": events,
            "events_per_s": round(events / mean),
        }
        print(
            f"{label:>18}: {mean:.4f}s +- {configs[label]['stdev_s']:.4f} "
            f"({configs[label]['events_per_s']:,} ev/s)",
            file=sys.stderr,
        )
    return {
        "schema": SCHEMA,
        "scenario": SCENARIO,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "configs": configs,
    }


def compare(doc: dict, ref_path: Path, max_regression: float) -> int:
    """Gate ``doc`` against a reference file; returns the exit code."""
    ref = json.loads(ref_path.read_text())
    baseline = ref.get("after", ref)  # PR files keep before/after blocks
    if baseline.get("schema") != SCHEMA:
        print(f"schema mismatch in {ref_path}, skipping gate", file=sys.stderr)
        return 0
    failed = False
    for label, cfg in baseline["configs"].items():
        cur = doc["configs"].get(label)
        if cur is None:
            print(f"MISSING  {label}: not measured", file=sys.stderr)
            failed = True
            continue
        ratio = cur["events_per_s"] / cfg["events_per_s"]
        status = "OK" if ratio >= 1.0 - max_regression else "REGRESSED"
        print(
            f"{status:>9}  {label}: {cur['events_per_s']:,} ev/s vs "
            f"reference {cfg['events_per_s']:,} ({ratio:.2f}x)",
            file=sys.stderr,
        )
        if status != "OK":
            failed = True
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed runs per config"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="2 repeats, no warmup discard (CI smoke mode)",
    )
    parser.add_argument(
        "--out", default=None, metavar="JSON", help="write results to file"
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="JSON",
        help="reference BENCH_engine.json to gate events/s against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="tolerated fractional events/s drop vs reference (default 0.20)",
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
        return compare(doc, Path(args.compare), args.max_regression)
    return 0


if __name__ == "__main__":
    sys.exit(main())
