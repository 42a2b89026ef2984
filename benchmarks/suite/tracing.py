"""Outside-in layer tracing for the benchmark suite.

A :class:`Tracer` wraps the public callables of each simulator layer
where callers look them up — module-level functions in every ``repro``
module that bound them, and methods, classmethods and properties on
their classes — and records one span per call: name, start, end,
parent span and run id, plus a few counters taken at the same boundary.
Spans stay in memory until :meth:`Tracer.dump`; :meth:`Tracer.restore`
puts every original back. Nothing inside ``repro`` is modified.

Pool workers are forked from the traced process, so they inherit the
wrappers. Each worker task ships the spans it recorded to a file in
``ship_dir``; :meth:`Tracer.collect` merges them back, parented to the
``exec.execute`` span that forked the pool. ``time.perf_counter`` is
the system-wide monotonic clock on Linux, so the worker spans share the
parent's time base.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Run id of spans recorded before the first timed run.
SETUP = "setup"


def _replay_before(args, kwargs):
    return args[0].sim.events_run


def _replay_after(args, kwargs, result, before):
    return {"events": args[0].sim.events_run - before}


def _fabric_class(kind):
    def after(args, kwargs, result, before):
        return {kind: 1}

    return after


def _cell_after(args, kwargs, result, before):
    spec = args[1]
    return {"routing": spec.routing, "nonmin": result.nonminimal_fraction}


def _execute_after(args, kwargs, report, before):
    workers = kwargs.get("max_workers", args[1] if len(args) > 1 else 1)
    return {
        "walls": [o.wall_s for o in report.outcomes if o.status == "done"],
        "workers": max(1, workers),
    }


def _cache_get_after(args, kwargs, result, before):
    return {"hit": int(result is not None)}


def _cache_put_after(args, kwargs, result, before):
    cache, key = args[0], args[1]
    return {"bytes": cache.path_for(key).stat().st_size}


def _tier_name(args, kwargs):
    return f"advisor.tier_{args[3]}"


#: Every traced boundary: (module, attribute, span name, before-hook,
#: after-hook). ``attribute`` is a module-level function, patched in
#: every ``repro`` module that bound it, or ``Class.member``. A callable
#: span name picks the name from the call's arguments. Hooks return the
#: counters stored on the span.
LAYERS = (
    ("repro.topology.dragonfly", "Dragonfly.__init__", "topology.build", None, None),
    ("repro.flow.routes", "FlowRouteModel.__init__", "flow.route_model", None, None),
    ("repro.exec.plan", "plan_grid", "exec.plan", None, None),
    ("repro.exec.plan", "trace_fingerprint", "exec.fingerprint", None, None),
    ("repro.exec.plan", "RunSpec.key", "exec.key", None, None),
    ("repro.exec.pool", "execute_plan", "exec.execute", None, _execute_after),
    ("repro.exec.pool", "_pool_entry", "exec.worker_task", None, None),
    ("repro.exec.cache", "ResultCache.get", "exec.cache_get", None, _cache_get_after),
    ("repro.exec.cache", "ResultCache.put", "exec.cache_put", None, _cache_put_after),
    ("repro.exec.pool", "simulate_spec", "core.cell", None, _cell_after),
    ("repro.cluster.engine", "simulate_epoch", "core.cell", None, _cell_after),
    ("repro.cluster.engine", "merge_epoch_trace", "cluster.merge", None, None),
    ("repro.cluster.scheduler", "ClusterScheduler.schedule", "cluster.schedule", None, None),
    ("repro.placement.machine", "Machine.allocate", "placement.allocate", None, None),
    ("repro.network.fabric", "Fabric.__init__", "network.fabric_build", None, None),
    (
        "repro.flow.fabric", "FlowFabric.__init__", "flow.fabric_build",
        None, _fabric_class("object"),
    ),
    (
        "repro.flow.fabric_array", "ArrayFlowFabric.__init__", "flow.fabric_build",
        None, _fabric_class("array"),
    ),
    ("repro.flow.fabric", "FlowFabric.inject", "flow.inject", None, None),
    ("repro.flow.fabric_array", "ArrayFlowFabric.inject", "flow.inject", None, None),
    ("repro.mpi.replay", "ReplayEngine.run", "mpi.replay", _replay_before, _replay_after),
    ("repro.mpi.replay", "ReplayEngine.job_result", "mpi.job_result", None, None),
    ("repro.metrics.collector", "RunMetrics.from_run", "metrics.extract", None, None),
    ("repro.advisor.features", "enumerate_candidates", "advisor.enumerate", None, None),
    ("repro.advisor.features", "FeatureExtractor.__init__", "advisor.featurize", None, None),
    ("repro.advisor.features", "FeatureExtractor.matrix", "advisor.featurize", None, None),
    ("repro.advisor.model", "RidgeSurrogate.predict", "advisor.predict", None, None),
    ("repro.advisor.funnel", "_run_tier", _tier_name, None, None),
)

#: The span whose worker-side copies ship their subtree to the parent.
_SHIP = "exec.worker_task"


class Tracer:
    """In-memory span recorder over wrapped layer boundaries.

    A span is ``[id, name, start, end, parent, run, counters]``. ``run``
    is :data:`SETUP` until the caller sets :attr:`run` to a timed run's
    index.
    """

    def __init__(self, ship_dir: str | Path) -> None:
        self.spans: list[list] = []
        self.run: object = SETUP
        self.ship_dir = Path(ship_dir)
        self._stack: list[list] = []
        self._count = 0
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> list:
        self._count += 1
        parent = self._stack[-1][0] if self._stack else None
        span = [
            f"{os.getpid()}.{self._count}", name, time.perf_counter(),
            None, parent, self.run, None,
        ]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a call made by the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            state = before(args, kwargs) if before else None
            mark = len(tracer.spans)
            span = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after:
                span[6] = after(args, kwargs, result, state)
            if label == _SHIP and os.getpid() != tracer._pid:
                tracer._ship(mark)
            return result

        return traced

    def _ship(self, mark: int) -> None:
        """Worker side: hand the spans since ``mark`` to the parent."""
        path = self.ship_dir / f"worker-{os.getpid()}-{self._count}.json"
        path.write_text(json.dumps(self.spans[mark:]))
        del self.spans[mark:]

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary in :data:`LAYERS`; undo with :meth:`restore`."""
        self.ship_dir.mkdir(parents=True, exist_ok=True)
        for module_name, attr, name, before, after in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls)[member]  # the descriptor itself, not inherited
                if isinstance(raw, property):
                    new = property(self._wrap(raw.fget, name, before, after))
                elif isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, before, after))
                else:
                    new = self._wrap(raw, name, before, after)
                setattr(cls, member, new)
                self._patches.append((cls, member, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, before, after)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def restore(self) -> None:
        """Put back every original callable :meth:`install` replaced."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- output ----------------------------------------------------------
    def collect(self) -> None:
        """Merge the spans pool workers shipped into :attr:`spans`."""
        for path in sorted(self.ship_dir.glob("worker-*.json")):
            self.spans.extend(json.loads(path.read_text()))
            path.unlink()

    def dump(self, path: str | Path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> dict[str, float]:
    """Each span's duration minus the part its child spans cover.

    Children are clipped to the parent's interval and merged first, so
    concurrent children (pool workers) never drive a self time below 0.
    """
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    out = {}
    for span in spans:
        start, end = span[2], span[3]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(span[0], ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span[0]] = (end - start) - covered
    return out


#: Per-layer metric -> (span name, field, scope). ``field`` is ``incl``
#: (duration), ``self`` (duration minus children), ``calls`` or a span
#: counter. Times are shares: ``run`` scope divides by the summed wall
#: time of the timed runs, ``setup`` scope by the worker's setup phase.
#: Counts average over timed runs (``run``) or sum the whole worker
#: (``all``). A layer a workload never enters reads 0.
SPAN_METRICS = {
    "mpi.replay_frac": ("mpi.replay", "self", "run"),
    "engine.events": ("mpi.replay", "events", "run"),
    "network.fabric_build_frac": ("network.fabric_build", "self", "run"),
    "flow.fabric_build_frac": ("flow.fabric_build", "self", "run"),
    "flow.inject_frac": ("flow.inject", "self", "run"),
    "flow.inject_calls": ("flow.inject", "calls", "run"),
    "flow.array_cells": ("flow.fabric_build", "array", "run"),
    "flow.object_cells": ("flow.fabric_build", "object", "run"),
    "flow.route_model_frac": ("flow.route_model", "self", "setup"),
    "flow.route_model_builds": ("flow.route_model", "calls", "all"),
    "metrics.extract_frac": ("metrics.extract", "self", "run"),
    "mpi.job_result_frac": ("mpi.job_result", "self", "run"),
    "core.cell_frac": ("core.cell", "self", "run"),
    "exec.fingerprint_frac": ("exec.fingerprint", "self", "run"),
    "exec.fingerprint_calls": ("exec.fingerprint", "calls", "run"),
    "exec.key_frac": ("exec.key", "self", "run"),
    "exec.key_calls": ("exec.key", "calls", "run"),
    "exec.cache_get_frac": ("exec.cache_get", "self", "run"),
    "exec.cache_hits": ("exec.cache_get", "hit", "run"),
    "exec.cache_put_frac": ("exec.cache_put", "self", "run"),
    "exec.cache_bytes": ("exec.cache_put", "bytes", "run"),
    "cluster.merge_frac": ("cluster.merge", "self", "run"),
    "cluster.schedule_frac": ("cluster.schedule", "self", "run"),
    "cluster.schedule_calls": ("cluster.schedule", "calls", "run"),
    "placement.allocate_frac": ("placement.allocate", "self", "run"),
    "placement.allocate_calls": ("placement.allocate", "calls", "run"),
    "exec.execute_frac": ("exec.execute", "incl", "run"),
    "exec.overhead_frac": ("exec.execute", "self", "run"),
    "exec.plan_frac": ("exec.plan", "self", "run"),
    "advisor.enumerate_frac": ("advisor.enumerate", "self", "run"),
    "advisor.featurize_frac": ("advisor.featurize", "self", "run"),
    "advisor.predict_frac": ("advisor.predict", "self", "run"),
    "advisor.tier_flow_frac": ("advisor.tier_flow", "incl", "run"),
    "advisor.tier_packet_frac": ("advisor.tier_packet", "incl", "run"),
    "advisor.train_frac": ("advisor.train", "incl", "setup"),
    "apps.trace_build_frac": ("apps.trace_build", "incl", "setup"),
    "topology.build_frac": ("topology.build", "incl", "setup"),
}

#: Per-layer metrics the workloads report from their own outputs.
COUNTER_METRICS = (
    "cluster.epochs",
    "cluster.cells_simulated",
    "cluster.cells_cached",
    "cluster.warm_hit_rate",
    "cluster.warm_cells_per_s",
)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(
    spans: list[list],
    walls: list[float],
    setup_s: float,
    counters: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of one traced worker.

    ``walls`` are the timed runs' wall times, ``setup_s`` the worker's
    setup phase, ``counters`` the workload's own per-run outputs
    (cluster epochs, cache counts and the warm passes' serving rate).
    """
    own = self_times(spans)
    totals: dict[tuple[str, str, str], float] = defaultdict(float)
    simulated: list[float] = []
    served: list[float] = []
    nonmin: list[float] = []
    capacity = 0.0  # worker-seconds execute_plan had: pool width x duration
    for span in spans:
        name, scope = span[1], ("run" if isinstance(span[5], int) else "setup")
        counts = span[6] or {}
        for key in ((name, scope), (name, "all")):
            totals[(*key, "incl")] += span[3] - span[2]
            totals[(*key, "self")] += own[span[0]]
            totals[(*key, "calls")] += 1
            for field, value in counts.items():
                if isinstance(value, (int, float)):
                    totals[(*key, field)] += value
        if scope == "run":
            simulated.extend(counts.get("walls", ()))
            capacity += counts.get("workers", 0) * (span[3] - span[2])
            if counts.get("hit"):
                served.append(span[3] - span[2])
            if counts.get("routing") == "adp":
                nonmin.append(counts["nonmin"])
    runs = max(len(walls), 1)
    denominator = {"run": sum(walls), "setup": setup_s}
    out = {}
    for metric, (name, field, scope) in SPAN_METRICS.items():
        value = totals[(name, scope, field)]
        if field in ("incl", "self"):
            out[metric] = value / denominator[scope] if denominator[scope] else 0.0
        else:
            out[metric] = value / runs if scope == "run" else value
    out["exec.cache_misses"] = (
        totals[("exec.cache_get", "run", "calls")]
        - totals[("exec.cache_get", "run", "hit")]
    ) / runs
    replay = totals[("mpi.replay", "run", "incl")]
    out["engine.events_per_s"] = (
        totals[("mpi.replay", "run", "events")] / replay if replay else 0.0
    )
    # A cell's service time: its simulation wall time, or its cache read.
    cells = simulated + served
    out["exec.cell_s_p50"] = _percentile(cells, 0.50)
    out["exec.cell_s_p90"] = _percentile(cells, 0.90)
    out["exec.cell_samples"] = float(len(cells))
    out["exec.worker_busy_frac"] = sum(simulated) / capacity if capacity else 0.0
    out["routing.nonminimal_frac"] = sum(nonmin) / len(nonmin) if nonmin else 0.0
    for metric in COUNTER_METRICS:
        out[metric] = float(counters.get(metric, 0.0))
    return out
