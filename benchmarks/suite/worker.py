"""One repeat of a suite workload, in a fresh process.

``run.py`` starts this script once per repeat and times it from the
moment it spawns the process until the workload reports ready, so
``setup_s`` covers interpreter start, imports, input generation,
topology and route-model builds and surrogate training. With
``--seconds 0`` the script stops there. Otherwise it repeats the
workload's timed run while the next run, predicted to take as long as
the last, ends within ``--seconds`` (at least once), checks each run's
output outside the timed region, and writes one JSON document to
``--result``::

    PYTHONPATH=src python benchmarks/suite/worker.py --workload grid-flow \\
        --seed 1 --seconds 5 --result out.json --workdir benchmarks/suite/_out

With ``--trace 1`` the layer wrappers of :mod:`tracing` are installed
before setup, the spans are written to ``--spans`` and the per-layer
metrics join the document.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import multiprocessing
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def digest(fingerprint) -> str:
    return hashlib.sha256(json.dumps(fingerprint).encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    A forked pool worker's peak counts the pages it shares with this
    process, so for the pooled workload those pages count twice. Call
    it after every child has been joined, or which children count
    depends on timing.
    """
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def measure(name, seed, seconds, params=None, trace=False, workdir=None, spans=None):
    """Set up ``name`` and time its runs for ``seconds``; return the document.

    With ``seconds`` 0 nothing is timed: the document carries the set-up
    only, with no runs and no fingerprint.
    """
    begun = time.perf_counter()
    wl = workloads.WORKLOADS[name]
    params = {**wl.params, **(params or {})}
    tracer = tracing.Tracer(Path(workdir) / "ship") if trace else None
    span = tracer.span if tracer else (lambda _name: contextlib.nullcontext())
    if tracer:
        tracer.install()
    try:
        state = wl.setup(seed, params, span, Path(workdir))
        ready = time.monotonic()
        setup_phase = time.perf_counter() - begun
        runs, first, counters = [], None, {}
        deadline = time.perf_counter() + seconds
        while seconds > 0 and (
            not runs or time.perf_counter() + runs[-1]["wall_s"] <= deadline
        ):
            if tracer:
                tracer.run = len(runs)
            start = time.perf_counter()
            raw = wl.run(state)
            wall = time.perf_counter() - start
            if tracer:
                tracer.run = "check"
            out = wl.summarize(state, raw)
            first = out.fingerprint if first is None else first
            counters = out.counters
            runs.append(
                {
                    "wall_s": wall,
                    "cells": out.cells,
                    "violations": out.violations,
                    "digest": digest(out.fingerprint),
                }
            )
    finally:
        if tracer:
            tracer.restore()
    # The executor shuts its pools down without waiting; end with them.
    for child in multiprocessing.active_children():
        child.join(timeout=60)
    doc = {
        "ready": ready,
        "runs": runs,
        "fingerprint": first,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        tracer.collect()
        doc["layers"] = tracing.layer_metrics(
            tracer.spans, [run["wall_s"] for run in runs], setup_phase, counters
        )
        if spans:
            tracer.dump(spans)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--params", default=None, help="JSON overrides of the sizes")
    parser.add_argument("--workdir", required=True, help="scratch directory to use")
    args = parser.parse_args(argv)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        doc = measure(
            args.workload, args.seed, args.seconds,
            params=json.loads(args.params) if args.params else None,
            trace=bool(args.trace), workdir=workdir, spans=args.spans,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
