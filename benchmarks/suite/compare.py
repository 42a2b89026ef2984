"""Compare suite records against the bounds in BENCHMARK.json.

Usage, with records written by ``run.py --out``::

    python3 benchmarks/suite/compare.py parent.json change.json
    python3 benchmarks/suite/compare.py 'parent-*.json' 'change-*.json'

Each side is a record or a quoted glob pattern; the samples of every
record a pattern matches are pooled per (metric, workload). For every
pair in both sides the verdict is ``worse`` or ``better`` when the
change's median moved in that direction by more than the metric's
bound, else ``unchanged``. When either side has a single sample, or its
spread between quartiles is wider than the bound, the verdict is
``unresolved``, unless both sides have several samples and every sample
of the change is better than every sample of the parent. Exits 1 if
any pair is worse.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from pathlib import Path

from run import summary

ROOT = Path(__file__).resolve().parents[2]


def spread(metric: dict) -> float:
    """Distance between the quartiles as a share of the median."""
    return (metric["q3"] - metric["q1"]) / metric["value"]


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """Verdict and relative change (positive = worse) from ``a`` to ``b``."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / a["value"]
    several = min(a["n"], b["n"]) > 1
    if not several or max(spread(a), spread(b)) > bound:
        if better == "lower":
            clear = max(b["samples"]) < min(a["samples"])
        else:
            clear = min(b["samples"]) > max(a["samples"])
        return ("better" if several and clear else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "unchanged", change


def pooled(pattern: str) -> dict:
    """``{workload: {metric: summary}}`` over every record ``pattern`` matches."""
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise SystemExit(f"error: no record matches {pattern!r}")
    samples: dict = {}
    for path in paths:
        for workload, record in json.loads(Path(path).read_text())["workloads"].items():
            for name, metric in record["metrics"].items():
                unit, values = samples.setdefault(workload, {}).setdefault(
                    name, (metric["unit"], [])
                )
                values.extend(metric["samples"])
    return {
        workload: {name: summary(values, unit) for name, (unit, values) in metrics.items()}
        for workload, metrics in samples.items()
    }


def compare(a_side: dict, b_side: dict, spec: dict) -> list[tuple]:
    rows = []
    for workload, a_metrics in a_side.items():
        if workload not in b_side:
            continue
        for m in spec["end_to_end"]:
            a, b = a_metrics[m["name"]], b_side[workload][m["name"]]
            word, change = verdict(a, b, m["better"], m["bound"])
            rows.append(
                (workload, m["name"], a["value"], b["value"], a["n"], b["n"], change, word)
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="record, or quoted glob of records")
    parser.add_argument("change", help="record, or quoted glob of records")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(pooled(args.parent), pooled(args.change), spec)
    print(
        f"{'workload':<12} {'metric':<12} {'parent':>11} {'change':>11} {'n':>7}"
        f" {'worse by':>9}  verdict"
    )
    for workload, metric, a, b, na, nb, change, word in rows:
        print(
            f"{workload:<12} {metric:<12} {a:>11.5g} {b:>11.5g} {f'{na}/{nb}':>7}"
            f" {change:>+9.1%}  {word}"
        )
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
