"""The repository benchmark: whole-run workloads, end to end and per layer.

Sets each workload up in ``--repeats`` fresh worker processes, one after
another; the last of them also times runs for ``--seconds``. Prints
every end-to-end metric with its unit, checks the outputs, and prints,
as the last line of standard output, one JSON object per workload::

    {"correct": true, "attempted": 240, "failed": 0, "metrics": {...}}

With ``--trace 1`` it instead runs one untraced and one traced worker and
reports the per-layer metrics of ``BENCHMARK.json``, including the
tracing overhead. Usage, from the repository root::

    python3 benchmarks/suite/run.py --workload grid-flow --seed 1
    python3 benchmarks/suite/run.py --seed 2 --out set.json   # every workload
    python3 benchmarks/suite/run.py --workload advisor --trace 1

The correctness gate counts, per run: cells not done; cells whose bytes
sent and received differ or whose metrics are not finite; stream-state
invariant failures; warm stream passes that miss the cache or differ
from the cold pass; runs whose result fingerprint differs from the
first; and fingerprint entries that differ from ``reference.json``
(relative tolerance ``rel_tol``) for the seeds it holds. Any violation
makes the run incorrect and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "_out"
REFERENCE = HERE / "reference.json"

#: Seconds one workload may take; a worker still running then is killed.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A worker failed or overran; no result can be reported."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summary(samples: list[float], unit: str) -> dict:
    """Median, quartiles and count of one metric's samples."""
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {
        "value": median, "unit": unit, "q1": q1, "q3": q3,
        "n": len(samples), "samples": samples,
    }


def mismatches(got: list, want: list, rel_tol: float = 0.0) -> int:
    """Top-level entries (cells, jobs, routings) of ``got`` unlike ``want``."""

    def same(a, b) -> bool:
        if isinstance(a, float) or isinstance(b, float):
            if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                return False
            return (math.isnan(a) and math.isnan(b)) or math.isclose(
                a, b, rel_tol=rel_tol, abs_tol=0.0
            )
        if isinstance(a, list) and isinstance(b, list):
            return len(a) == len(b) and all(map(same, a, b))
        return a == b

    return abs(len(got) - len(want)) + sum(not same(a, b) for a, b in zip(got, want))


def spawn(workload, seed, seconds, trace, params, deadline, tag) -> dict:
    """Run one worker process; returns its document plus ``setup_s``."""
    OUT.mkdir(exist_ok=True)
    result = OUT / f"{workload}-{seed}-{tag}.json"
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
        "--result", str(result), "--spans", str(spans), "--workdir", str(OUT),
    ]
    if params:
        cmd += ["--params", json.dumps(params)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload}: worker overran the {DEADLINE_S:g} s budget")
    if code != 0:
        raise BenchError(f"{workload}: worker exited with code {code}")
    doc = json.loads(result.read_text())
    result.unlink()
    doc["setup_s"] = doc["ready"] - start
    return doc


def measure_workload(
    name, seed, seconds, repeats, trace, spec, params=None, reference=None
) -> dict:
    """Measure one workload; returns its record (metrics, checks, layers).

    ``params`` overrides the workload's sizes; ``reference.json`` only
    holds fingerprints of the default sizes, so with ``params`` the
    fingerprints are checked against ``reference`` only when given.
    """
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        docs = [
            spawn(name, seed, seconds / 2, False, params, deadline, "plain"),
            spawn(name, seed, seconds / 2, True, params, deadline, "traced"),
        ]
        setups = []
    else:
        setups = [
            spawn(name, seed, 0, False, params, deadline, k)
            for k in range(repeats - 1)
        ]
        docs = [spawn(name, seed, seconds, False, params, deadline, "timed")]
    runs = [run for doc in docs for run in doc["runs"]]
    attempted = sum(run["cells"] for run in runs)
    failed = sum(run["violations"] for run in runs)
    for doc in docs:
        first = doc["runs"][0]["digest"]
        failed += sum(run["digest"] != first for run in doc["runs"])
        failed += mismatches(doc["fingerprint"], docs[0]["fingerprint"])
    if reference is None and not params:
        reference = load_reference()
    want = reference and reference["fingerprints"].get(name, {}).get(str(seed))
    if want is not None:
        failed += mismatches(docs[0]["fingerprint"], want, reference["rel_tol"])

    plain = [doc for doc in docs if "layers" not in doc]
    plain_runs = [run for doc in plain for run in doc["runs"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = {
        "setup_s": [doc["setup_s"] for doc in setups + plain],
        "run_s": [run["wall_s"] for run in plain_runs],
        "cells_per_s": [run["cells"] / run["wall_s"] for run in plain_runs],
        "peak_rss_mb": [doc["peak_rss_mb"] for doc in plain],
    }
    record = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and attempted > 0,
        "metrics": {m: summary(v, units[m]) for m, v in e2e.items()},
        "fingerprint": docs[0]["fingerprint"],
    }
    if trace:
        layers = dict(docs[1]["layers"])
        traced = statistics.median(run["wall_s"] for run in docs[1]["runs"])
        layers["trace.overhead_frac"] = traced / record["metrics"]["run_s"]["value"] - 1
        record["layers"] = {m: {"value": v, "unit": units[m]} for m, v in layers.items()}
    return record


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {"rel_tol": 1e-6, "fingerprints": {}}


def contract_line(record: dict, trace: bool) -> str:
    """The last output line: metrics as measured, no rounding."""
    metrics = record["layers"] if trace else record["metrics"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                m: {"value": v["value"], "unit": v["unit"]} for m, v in metrics.items()
            },
        }
    )


def print_table(name: str, record: dict, trace: bool) -> None:
    frac = record["failed"] / max(record["attempted"], 1)
    print(
        f"== {name}: {'correct' if record['correct'] else 'INCORRECT'}, "
        f"{record['attempted']} cells attempted, {record['failed']} failed "
        f"(failed_frac {frac:.4g})"
    )
    if trace:
        for m, v in record["layers"].items():
            print(f"  {m:<26} {v['value']:>14.6g} {v['unit']}")
        return
    for m, v in record["metrics"].items():
        print(
            f"  {m:<14} {v['value']:>12.6g} {v['unit']:<6} "
            f"q1 {v['q1']:.6g}  q3 {v['q3']:.6g}  n {v['n']}"
        )


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="fresh set-ups per workload; the last one also times runs",
    )
    parser.add_argument("--out", default=None, help="write the full record here")
    parser.add_argument(
        "--update-reference", action="store_true",
        help="store this seed's fingerprints in reference.json",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seconds <= 0:
        parser.error("--repeats and --seconds must be positive")

    doc = {
        "schema": "repro-suite/v1",
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    ok = True
    for name in args.workload or names:
        try:
            record = measure_workload(
                name, args.seed, args.seconds, args.repeats, bool(args.trace), spec
            )
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        doc["workloads"][name] = record
        ok = ok and record["correct"]
        print_table(name, record, bool(args.trace))
        print(contract_line(record, bool(args.trace)), flush=True)
    if args.update_reference:
        reference = load_reference()
        for name, record in doc["workloads"].items():
            reference["fingerprints"].setdefault(name, {})[str(args.seed)] = (
                record["fingerprint"]
            )
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
