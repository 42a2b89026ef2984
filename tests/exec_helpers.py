"""Picklable cell runners used by the repro.exec tests.

These live in an importable module (not inside a test function) because
the parallel executor ships runners to worker processes by reference.
The fault-injecting runners are frozen dataclasses that carry their own
parameters, so a pickled runner arrives in a worker with them; they
coordinate across processes and attempts via marker files in a scratch
directory the test supplies.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

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


def stub_plan(n_seeds: int = 1) -> ExperimentPlan:
    """A small 2-cell-per-seed plan."""
    plans = [
        plan_grid(
            repro.tiny(), {"A": tiny_trace("A")}, ("cont", "rand"), ("min",), seed=s
        )
        for s in range(n_seeds)
    ]
    specs = tuple(s for p in plans for s in p.specs)
    return ExperimentPlan(
        config=plans[0].config, specs=specs, traces=plans[0].traces
    )


def stub_runner(config, spec, trace) -> RunResult:
    """Instant success — for scheduling/caching/progress tests."""
    return make_stub_result(spec)


@dataclass(frozen=True)
class FlakyRunner:
    """Raises on the first ``fail_times`` attempts of each cell, then succeeds.

    Attempts are counted in ``<scratch>/attempts-<key>`` so the count
    survives retries in other worker processes.
    """

    scratch: str
    fail_times: int

    def __call__(self, config, spec, trace) -> RunResult:
        marker = os.path.join(self.scratch, f"attempts-{spec.key}")
        n = 0
        if os.path.exists(marker):
            with open(marker) as fh:
                n = int(fh.read())
        with open(marker, "w") as fh:
            fh.write(str(n + 1))
        if n < self.fail_times:
            raise RuntimeError(f"injected failure on attempt {n + 1}")
        return make_stub_result(spec)


@dataclass(frozen=True)
class CrashingRunner:
    """Hard-kills the worker process once per cell, then succeeds.

    ``os._exit`` bypasses all exception handling, so the executor sees
    a BrokenProcessPool — the real worker-crash path, not a pickled
    exception.
    """

    scratch: str

    def __call__(self, config, spec, trace) -> RunResult:
        marker = os.path.join(self.scratch, f"crash-{spec.key}")
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("x")
            os._exit(17)
        return make_stub_result(spec)


@dataclass(frozen=True)
class SleepyRunner:
    """Sleeps ``seconds`` — for per-cell timeout tests."""

    seconds: float

    def __call__(self, config, spec, trace) -> RunResult:
        time.sleep(self.seconds)
        return make_stub_result(spec)
