"""The suite's workloads: whole runs of the library's user-facing entry points.

Each workload is a ``setup`` that builds every input from the seed, a
``run`` that is timed, and a ``summarize`` that checks the run's output
(untimed) and reduces it to cells, a result fingerprint and a violation
count. Why each workload is in the suite, and what it stresses, is in
README.md. ``params`` are the benchmark sizes; ``small`` shrinks each
workload to a few seconds for the suite's own tests.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import repro
from repro.advisor import suggest_placement, train_surrogate
from repro.apps import APP_BUILDERS
from repro.cluster import StreamJob, generate_stream, run_stream
from repro.core.runner import build_topology
from repro.core.study import TradeoffStudy
from repro.exec.cache import ResultCache
from repro.exec.plan import plan_grid
from repro.exec.pool import execute_plan
from repro.flow.routes import flow_route_model
from repro.placement.policies import PLACEMENT_NAMES
from repro.routing import ROUTING_NAMES

PRESETS = {"tiny": repro.tiny, "small": repro.small, "medium": repro.medium}

#: Pool width of the pooled workload: two workers, fewer on a 1-CPU host.
POOL_WORKERS = min(2, os.cpu_count() or 1)


@dataclass
class Outcome:
    """What one timed run produced, reduced for ``run.py``."""

    cells: int
    fingerprint: list
    violations: int
    #: Workload outputs reported as per-layer metrics (cluster counts).
    counters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (seed, params, span, workdir) -> state
    run: Callable  # (state) -> raw output, the timed part
    summarize: Callable  # (state, raw) -> Outcome
    params: dict
    small: dict


def _traces(apps: dict, seed: int) -> dict:
    """``{app: [ranks, message scale]}`` -> seeded, scaled traces."""
    return {
        app: APP_BUILDERS[app](num_ranks=ranks, seed=seed).scaled(scale)
        for app, (ranks, scale) in apps.items()
    }


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _sound(result) -> bool:
    """Bytes sent equal bytes received and the headline metrics are finite."""
    job, m = result.job, result.metrics
    return int(job.bytes_sent.sum()) == int(job.bytes_recv.sum()) and _finite(
        m.median_comm_time_ns, m.max_comm_time_ns, m.mean_hops, result.sim_time_ns
    )


# -- grid-packet / grid-flow ---------------------------------------------


def grid_setup(seed, p, span, workdir):
    config = PRESETS[p["preset"]]().with_seed(seed)
    with span("apps.trace_build"):
        traces = _traces(p["apps"], seed)
    topo = build_topology(config.topology)
    if p["backend"] == "flow":
        for routing in ROUTING_NAMES:
            flow_route_model(topo, config.network, routing)
    return TradeoffStudy(config, traces, seed=seed, backend=p["backend"])


def grid_run(study):
    return study.run()


def grid_summarize(study, result):
    fingerprint, bad = [], 0
    for outcome in result.report.outcomes:
        r = outcome.result
        m = r.metrics
        fingerprint.append(
            [
                outcome.spec.app, outcome.spec.label, m.median_comm_time_ns,
                m.max_comm_time_ns, r.sim_time_ns, m.mean_hops,
            ]
        )
        bad += outcome.status != "done" or not _sound(r)
    return Outcome(len(fingerprint), fingerprint, bad)


# -- stream ----------------------------------------------------------------


def _stream_jobs(config, seed: int, p: dict) -> list[StreamJob]:
    """The library's job stream drawn once at ``schedule_seed``, traces by ``seed``.

    Apps, sizes, message scales, arrivals and run times are
    ``generate_stream``'s own draw for the mix, duration and load, made
    with the fixed ``schedule_seed``; each job's trace is then rebuilt
    from the benchmark seed the way ``generate_stream`` builds it. A
    fresh draw per seed changes the job count from 12 to 24 (seeds 0 to
    11) and the cold pass from 3.9 s to 16.0 s (seeds 0 to 7), so the
    seed, not the code, would set the time; traces alone move it by a
    few percent.
    """
    drawn = generate_stream(
        p["mix"], p["duration_s"], p["load"], config.topology.num_nodes,
        seed=p["schedule_seed"],
    )
    return [
        replace(
            job,
            trace=APP_BUILDERS[job.app](
                num_ranks=job.ranks, seed=seed * 1_000_003 + job.id
            ).scaled(job.msg_scale),
        )
        for job in drawn
    ]


def _stream(state, cache):
    p = state["params"]
    return run_stream(
        state["config"], mix=p["mix"], duration_s=p["duration_s"], load=p["load"],
        policy=p["policy"], routing=p["routing"], backend="flow",
        seed=state["seed"], cache=cache, jobs=state["jobs"],
    )


def _job_rows(result) -> list:
    return [
        [
            j.id, j.name, j.status, j.placement, j.start_s, j.finish_s,
            j.iterations, j.work_s, j.slow_work_s,
        ]
        for j in result.jobs
    ]


def _invariants_hold(result) -> bool:
    try:
        result.check_invariants()
    except AssertionError:
        return False
    return True


def stream_setup(seed, p, span, workdir):
    config = PRESETS[p["preset"]]()
    with span("apps.trace_build"):
        jobs = _stream_jobs(config, seed, p)
    flow_route_model(build_topology(config.topology), config.network, p["routing"])
    return {
        "config": config, "params": p, "seed": seed, "jobs": jobs,
        "workdir": workdir,
    }


def stream_run(state):
    """The cold pass on a fresh cache, then the warm passes on that cache."""
    cache = tempfile.mkdtemp(dir=state["workdir"])
    cold = _stream(state, cache)
    start = time.perf_counter()
    warm = [_stream(state, cache) for _ in range(state["params"]["warm_passes"])]
    return cold, warm, cache, time.perf_counter() - start


def stream_summarize(state, raw):
    cold, warm, cache, warm_s = raw
    c = cold.counters
    # An epoch can repeat an earlier epoch's cell exactly; the cache then
    # serves it even within the cold pass (one of 55 cells at seed 1).
    bad = c["cells_planned"] - c["cells_simulated"] - c["cells_cached"]
    bad += sum(not _sound(r) for r in ResultCache(cache).iter_results())
    shutil.rmtree(cache)
    rows = _job_rows(cold)
    bad += not _invariants_hold(cold)
    planned = served = 0
    for result in warm:
        planned += result.counters["cells_planned"]
        served += result.counters["cells_cached"]
        bad += not _invariants_hold(result)
        warm_rows = _job_rows(result)
        bad += abs(len(warm_rows) - len(rows))
        bad += sum(row != cold_row for row, cold_row in zip(warm_rows, rows))
    bad += planned - served
    counters = {
        "cluster.epochs": c["epochs"],
        "cluster.cells_simulated": c["cells_simulated"],
        "cluster.cells_cached": c["cells_cached"],
        "cluster.warm_hit_rate": served / planned if planned else 0.0,
        "cluster.warm_cells_per_s": served / warm_s if warm else 0.0,
    }
    return Outcome(c["cells_planned"] + served, rows, bad, counters)


# -- advisor ---------------------------------------------------------------


def advisor_setup(seed, p, span, workdir):
    config = PRESETS[p["preset"]]().with_seed(seed)
    with span("apps.trace_build"):
        train = _traces(p["train_apps"], seed)
        (trace,) = _traces(p["app"], seed).values()
    build_topology(config.topology)
    with span("advisor.train"):
        cache = ResultCache(tempfile.mkdtemp(dir=workdir))
        plan = plan_grid(
            config, train, PLACEMENT_NAMES, ROUTING_NAMES, seed=seed, backend="flow"
        )
        execute_plan(plan, cache=cache).raise_if_failed()
        model, _ = train_surrogate(config, train, cache)
        shutil.rmtree(cache.root)
    return {"config": config, "trace": trace, "model": model, "seed": seed, "params": p}


def advisor_run(state):
    p = state["params"]
    return [
        suggest_placement(
            state["config"], state["trace"], routing, state["model"],
            per_policy=p["per_policy"], screen_top=p["screen_top"],
            validate_top=p["validate_top"], seed=state["seed"],
            max_workers=POOL_WORKERS,
        )
        for routing in ROUTING_NAMES
    ]


def advisor_summarize(state, results):
    cells = bad = 0
    fingerprint = []
    for funnel in results:
        for tier in funnel.tiers[1:]:
            cells += tier.simulated
            bad += tier.candidates - tier.simulated
        c = funnel.chosen
        bad += not _finite(c.predicted, c.flow_ns, c.packet_ns)
        fingerprint.append(
            [funnel.routing, c.placement, c.draw, list(c.nodes), c.flow_ns, c.packet_ns]
        )
    return Outcome(cells, fingerprint, bad)


#: The library's 80-node stream at load 0.6 over 1800 s; schedule seed 7
#: draws 19 jobs (7 CR, 8 FB, 4 AMG at the mix's default sizes and
#: scales), 37 epochs and 54 cells.
_STREAM = {
    "preset": "small",
    "mix": "AMG=1,CR=1,FB=1",
    "duration_s": 1800.0,
    "load": 0.6,
    "schedule_seed": 7,
    "policy": "cont",
    "routing": "adp",
}

WORKLOADS = {
    "grid-packet": Workload(
        grid_setup, grid_run, grid_summarize,
        params={
            "preset": "small", "backend": "packet",
            "apps": {"FB": [32, 0.05], "CR": [32, 1.0]},
        },
        small={"preset": "tiny", "apps": {"FB": [8, 0.01], "CR": [8, 0.05]}},
    ),
    "grid-flow": Workload(
        grid_setup, grid_run, grid_summarize,
        params={"preset": "medium", "backend": "flow", "apps": {"CR": [128, 0.2]}},
        small={"preset": "tiny", "apps": {"CR": [8, 0.2]}},
    ),
    # The warm passes are about 40% of a run: a slower warm path then
    # moves run_s about as visibly as a slower cold pass.
    "stream": Workload(
        stream_setup, stream_run, stream_summarize,
        params={**_STREAM, "warm_passes": 60},
        small={"preset": "tiny", "duration_s": 900.0, "warm_passes": 2},  # 3 jobs
    ),
    "advisor": Workload(
        advisor_setup, advisor_run, advisor_summarize,
        params={
            "preset": "small",
            "app": {"FB": [32, 0.2]},
            "train_apps": {"CR": [32, 0.2], "FB": [32, 0.2], "AMG": [32, 0.5]},
            "per_policy": 20, "screen_top": 8, "validate_top": 2,
        },
        small={
            "preset": "tiny",
            "app": {"FB": [8, 0.05]},
            "train_apps": {"CR": [8, 0.2], "FB": [8, 0.02], "AMG": [8, 0.5]},
            "per_policy": 3, "screen_top": 2, "validate_top": 1,
        },
    ),
}
