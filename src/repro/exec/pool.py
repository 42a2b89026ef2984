"""Parallel experiment execution over a process pool.

:func:`execute_plan` runs every cell of an
:class:`~repro.exec.plan.ExperimentPlan` and returns an
:class:`ExecutionReport` whose outcomes are in **plan order** — never
completion order — so callers reassemble results without any
iteration-order dependence on scheduling. Each cell is an independent,
fully-seeded simulation, which is what makes the parallel and serial
paths bit-identical: a worker computes exactly what the serial loop
would have.

Scheduling model:

* ``max_workers=1`` (the default) runs in-process with no pool, no
  pickling, and no behavioural change from the historical serial loop;
* ``max_workers>1`` shards cells across a ``ProcessPoolExecutor``;
  submission order is the deterministic plan order, and if the pool
  cannot be created at all (restricted platforms) execution falls back
  to the serial path;
* cells already present in the result cache are never submitted;
* a cell whose worker raises — or whose worker *process* dies, which
  surfaces as ``BrokenProcessPool`` — is retried up to ``retries``
  times on a fresh pool before being reported failed;
* a per-cell ``timeout_s`` is enforced inside the worker via
  ``SIGALRM`` (so a hung cell cannot wedge the pool) and also applies
  on the serial path.

Results crossing a process boundary are slimmed for IPC: the optional
``record_sends`` payload (``job.send_events``, one tuple per message)
is dropped unless ``ipc_send_events=True``, since it can dwarf every
other field combined.
"""

from __future__ import annotations

import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

from repro.core.runner import RunResult, run_single
from repro.exec.cache import ResultCache
from repro.exec.plan import CODE_SALT, ExperimentPlan, RunSpec
from repro.exec.progress import ProgressTracker
from repro.mpi.trace import JobTrace

__all__ = [
    "CellOutcome",
    "CellTimeout",
    "ExecutionError",
    "ExecutionReport",
    "execute_plan",
    "simulate_spec",
]


class ExecutionError(RuntimeError):
    """One or more cells failed after exhausting their retries."""


class CellTimeout(TimeoutError):
    """A cell exceeded its per-cell wall-time budget."""


def simulate_spec(
    config, spec: RunSpec, trace: JobTrace
) -> RunResult:
    """Default cell runner: one ``run_single`` with the spec's inputs."""
    return run_single(
        config,
        trace,
        spec.placement,
        spec.routing,
        seed=spec.seed,
        compute_scale=spec.compute_scale,
        background=spec.background,
        record_sends=spec.record_sends,
        max_events=spec.max_events,
        obs=spec.obs,
        faults=getattr(spec, "faults", None),
        backend=getattr(spec, "backend", "packet"),
    )


def _call_with_timeout(fn, args, timeout_s: float | None):
    """Run ``fn(*args)``, raising :class:`CellTimeout` after ``timeout_s``.

    Uses ``SIGALRM``, which only works on the main thread of a process;
    elsewhere (or with no budget) the call runs unguarded. Pool workers
    always run tasks on their main thread, so parallel cells are always
    guarded.
    """
    if (
        timeout_s is None
        or timeout_s <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return fn(*args)

    def _alarm(signum, frame):
        raise CellTimeout(f"cell exceeded {timeout_s:g}s budget")

    old_handler = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)


def _pool_entry(runner, config, spec, trace, timeout_s, keep_sends):
    """Worker-side task: simulate one cell and slim the result for IPC."""
    start = time.perf_counter()
    result = _call_with_timeout(runner, (config, spec, trace), timeout_s)
    if not keep_sends and getattr(result, "job", None) is not None:
        result.job.send_events = None
    return result, time.perf_counter() - start


def _keep(cache, spec: RunSpec, result) -> None:
    """Stamp a finished cell's result with the salt of its key, then
    file it in the cache (if any)."""
    if isinstance(result, RunResult):
        result.salt = CODE_SALT
    if cache is not None:
        cache.put(spec.key, result)


@dataclass
class CellOutcome:
    """Terminal state of one planned cell."""

    spec: RunSpec
    status: str  # "done" | "cached" | "failed"
    result: RunResult | None = None
    error: str | None = None
    attempts: int = 0
    wall_s: float = 0.0


class ExecutionReport:
    """Outcomes of one :func:`execute_plan` call, in plan order."""

    def __init__(self, outcomes: list[CellOutcome], wall_s: float = 0.0) -> None:
        self.outcomes = outcomes
        self.wall_s = wall_s

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def planned(self) -> int:
        return len(self.outcomes)

    @property
    def done(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "done")

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    def results(self) -> list[RunResult]:
        """Results in plan order; raises if any cell failed."""
        self.raise_if_failed()
        return [o.result for o in self.outcomes]

    def failures(self) -> list[CellOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def raise_if_failed(self) -> None:
        bad = self.failures()
        if bad:
            detail = "; ".join(
                f"{o.spec.app} {o.spec.label}: {o.error}" for o in bad[:5]
            )
            more = f" (+{len(bad) - 5} more)" if len(bad) > 5 else ""
            raise ExecutionError(
                f"{len(bad)}/{self.planned} cells failed: {detail}{more}"
            )


def execute_plan(
    plan: ExperimentPlan,
    max_workers: int = 1,
    cache: ResultCache | str | Path | None = None,
    progress=None,
    timeout_s: float | None = None,
    retries: int = 1,
    runner=None,
    ipc_send_events: bool = False,
    strict: bool = False,
) -> ExecutionReport:
    """Execute every cell of ``plan`` and report outcomes in plan order.

    ``cache`` may be a :class:`ResultCache` or a directory path; cached
    cells are served without simulating and fresh results are stored
    back. ``progress`` is a ``ProgressEvent`` callback (e.g.
    :class:`~repro.exec.progress.TextReporter`). ``runner`` overrides
    the cell function (module-level callable ``(config, spec, trace) ->
    RunResult``; must be picklable for the parallel path). With
    ``strict=True`` an :class:`ExecutionError` is raised if any cell
    remains failed.
    """
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
    if runner is None:
        runner = simulate_spec
    tracker = ProgressTracker(
        len(plan.specs), callback=progress, workers=max(1, max_workers)
    )
    started = time.monotonic()
    tracker.planned()

    outcomes: dict[int, CellOutcome] = {}
    pending: list[int] = []
    for i, spec in enumerate(plan.specs):
        hit = cache.get(spec.key) if cache is not None else None
        if hit is not None:
            outcomes[i] = CellOutcome(spec, "cached", result=hit)
            tracker.cell_cached(spec)
        else:
            pending.append(i)

    if pending:
        use_serial = max_workers <= 1
        if not use_serial:
            done = _run_parallel(
                plan, pending, runner, max_workers, cache, tracker,
                timeout_s, retries, ipc_send_events,
            )
            if done is None:  # pool unavailable on this platform
                use_serial = True
            else:
                outcomes.update(done)
        if use_serial:
            outcomes.update(
                _run_serial(
                    plan, pending, runner, cache, tracker, timeout_s, retries
                )
            )

    tracker.finished()
    report = ExecutionReport(
        [outcomes[i] for i in range(len(plan.specs))],
        wall_s=time.monotonic() - started,
    )
    if strict:
        report.raise_if_failed()
    return report


def _run_serial(
    plan, pending, runner, cache, tracker, timeout_s, retries
) -> dict[int, CellOutcome]:
    """In-process execution: the historical serial loop, cell by cell."""
    outcomes: dict[int, CellOutcome] = {}
    for i in pending:
        spec = plan.specs[i]
        trace = plan.trace_for(spec)
        attempt = 0
        while True:
            attempt += 1
            tracker.cell_start(spec, attempt=attempt)
            start = time.perf_counter()
            try:
                result = _call_with_timeout(
                    runner, (plan.config, spec, trace), timeout_s
                )
            except Exception as exc:  # noqa: BLE001 — cell isolation
                wall = time.perf_counter() - start
                if attempt <= retries:
                    tracker.cell_retry(spec, repr(exc), attempt)
                    continue
                outcomes[i] = CellOutcome(
                    spec, "failed", error=repr(exc),
                    attempts=attempt, wall_s=wall,
                )
                tracker.cell_failed(spec, repr(exc), wall, attempt)
                break
            wall = time.perf_counter() - start
            _keep(cache, spec, result)
            outcomes[i] = CellOutcome(
                spec, "done", result=result, attempts=attempt, wall_s=wall
            )
            tracker.cell_done(
                spec, wall, attempt,
                sim_wall_s=getattr(result, "wall_s", None),
            )
            break
    return outcomes


def _run_parallel(
    plan, pending, runner, max_workers, cache, tracker,
    timeout_s, retries, ipc_send_events,
) -> dict[int, CellOutcome] | None:
    """Pool execution with bounded retry across pool generations.

    Returns ``None`` if a process pool cannot be created at all, in
    which case the caller falls back to the serial path. A worker
    *crash* (``BrokenProcessPool``) poisons every in-flight future of
    that pool generation, so each affected cell — crasher and innocent
    bystanders alike, they are indistinguishable — has its attempt
    counted and the survivors are resubmitted on a fresh pool; the
    attempt bound guarantees termination.
    """
    outcomes: dict[int, CellOutcome] = {}
    attempts = {i: 0 for i in pending}
    queue = list(pending)

    while queue:
        try:
            pool = ProcessPoolExecutor(max_workers=max_workers)
        except (OSError, NotImplementedError):
            return None if not outcomes else _fail_remaining(
                plan, queue, attempts, outcomes, tracker, "pool unavailable"
            )
        resubmit: list[int] = []
        try:
            futures = {}
            for i in queue:
                spec = plan.specs[i]
                attempts[i] += 1
                tracker.cell_start(spec, attempt=attempts[i])
                fut = pool.submit(
                    _pool_entry, runner, plan.config, spec,
                    plan.trace_for(spec), timeout_s, ipc_send_events,
                )
                futures[fut] = i
            not_done = set(futures)
            while not_done:
                finished, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for fut in finished:
                    i = futures[fut]
                    spec = plan.specs[i]
                    try:
                        result, wall = fut.result()
                    except Exception as exc:  # noqa: BLE001 — cell isolation
                        if attempts[i] <= retries:
                            tracker.cell_retry(spec, repr(exc), attempts[i])
                            resubmit.append(i)
                        else:
                            outcomes[i] = CellOutcome(
                                spec, "failed", error=repr(exc),
                                attempts=attempts[i],
                            )
                            tracker.cell_failed(
                                spec, repr(exc), attempt=attempts[i]
                            )
                        continue
                    _keep(cache, spec, result)
                    outcomes[i] = CellOutcome(
                        spec, "done", result=result,
                        attempts=attempts[i], wall_s=wall,
                    )
                    tracker.cell_done(
                        spec, wall, attempts[i],
                        sim_wall_s=getattr(result, "wall_s", None),
                    )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        queue = sorted(resubmit)

    return outcomes


def _fail_remaining(plan, queue, attempts, outcomes, tracker, reason):
    """Mark every still-queued cell failed (pool died mid-run)."""
    for i in queue:
        spec = plan.specs[i]
        outcomes[i] = CellOutcome(
            spec, "failed", error=reason, attempts=attempts[i]
        )
        tracker.cell_failed(spec, reason, attempt=attempts[i])
    return outcomes
