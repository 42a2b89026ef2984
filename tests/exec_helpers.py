"""Picklable cell runners used by the repro.exec tests.

These live in an importable module (not inside a test function) because
the parallel executor ships runners to worker processes by reference.
Fault injection is parameterised through ``RunSpec.tags``
(``"name=value"`` pairs) and coordinated across processes/attempts via
marker files in a scratch directory the test supplies.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

import repro
from repro.core.runner import RunResult
from repro.exec.plan import CODE_SALT, ExperimentPlan, plan_grid
from repro.metrics.collector import RunMetrics
from repro.mpi.trace import JobTrace, RankTrace


def tiny_trace(name: str = "T") -> JobTrace:
    """A two-rank ping trace — enough to exercise the machinery."""
    t0 = RankTrace(0)
    t0.send(1, 64)
    t1 = RankTrace(1)
    t1.recv(0, 64)
    return JobTrace(name, [t0, t1])


def make_stub_result(spec) -> RunResult:
    """A minimal but structurally complete RunResult for a spec, stamped
    with the current salt as the executor stamps what it simulates."""
    arr = np.zeros(2)
    metrics = RunMetrics(arr, arr, arr, arr, arr, arr)
    return RunResult(
        app=spec.app,
        placement=spec.placement,
        routing=spec.routing,
        seed=spec.seed,
        job=None,
        metrics=metrics,
        nodes=[0, 1],
        sim_time_ns=1.0,
        events=1,
        salt=CODE_SALT,
    )


def stub_plan(n_seeds: int = 1, tags: tuple = (), **kw) -> ExperimentPlan:
    """A small 2-cell-per-seed plan whose cells carry ``tags``."""
    plans = [
        plan_grid(
            repro.tiny(),
            {"A": tiny_trace("A")},
            ("cont", "rand"),
            ("min",),
            seed=s,
            **kw,
        )
        for s in range(n_seeds)
    ]
    specs = tuple(
        dataclasses.replace(s, tags=tuple(tags))
        for p in plans
        for s in p.specs
    )
    return ExperimentPlan(
        config=plans[0].config, specs=specs, traces=plans[0].traces
    )


def _tag(spec, name: str) -> str | None:
    for tag in spec.tags:
        key, _, value = tag.partition("=")
        if key == name:
            return value
    return None


def stub_runner(config, spec, trace) -> RunResult:
    """Instant success — for scheduling/caching/progress tests."""
    return make_stub_result(spec)


def flaky_runner(config, spec, trace) -> RunResult:
    """Raises on the first ``fail_times`` attempts, then succeeds.

    Attempts are counted in ``<scratch>/attempts-<key>`` so the count
    survives retries in other worker processes.
    """
    scratch = _tag(spec, "scratch")
    fail_times = int(_tag(spec, "fail_times"))
    marker = os.path.join(scratch, f"attempts-{spec.key}")
    n = 0
    if os.path.exists(marker):
        with open(marker) as fh:
            n = int(fh.read())
    with open(marker, "w") as fh:
        fh.write(str(n + 1))
    if n < fail_times:
        raise RuntimeError(f"injected failure on attempt {n + 1}")
    return make_stub_result(spec)


def crashing_runner(config, spec, trace) -> RunResult:
    """Hard-kills the worker process once, then succeeds.

    ``os._exit`` bypasses all exception handling, so the executor sees
    a BrokenProcessPool — the real worker-crash path, not a pickled
    exception.
    """
    scratch = _tag(spec, "scratch")
    marker = os.path.join(scratch, f"crash-{spec.key}")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("x")
        os._exit(17)
    return make_stub_result(spec)


def sleepy_runner(config, spec, trace) -> RunResult:
    """Sleeps ``sleep`` seconds — for per-cell timeout tests."""
    time.sleep(float(_tag(spec, "sleep")))
    return make_stub_result(spec)


