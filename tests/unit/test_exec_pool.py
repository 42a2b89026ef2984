"""Executor: scheduling, retry, timeout, caching, IPC slimming, pickling."""

import os
import pickle

import numpy as np
import pytest

import repro
from repro.exec.cache import ResultCache
from repro.exec.plan import plan_grid
from repro.exec.pool import ExecutionError, execute_plan

from tests.exec_helpers import (
    crashing_runner,
    flaky_runner,
    sleepy_runner,
    stub_plan,
    stub_runner,
    tiny_trace,
)

#: CI's second job sets this to exercise the pool on its runners.
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))




class TestSerialExecution:
    def test_matches_direct_run_single(self):
        trace = repro.amg_trace(num_ranks=8, seed=1).scaled(0.05)
        config = repro.tiny()
        plan = plan_grid(config, {"AMG": trace}, ("cont",), ("min",), seed=1)
        report = execute_plan(plan)
        direct = repro.run_single(config, trace, "cont", "min", seed=1)
        [result] = report.results()
        assert np.array_equal(
            result.metrics.comm_time_ns, direct.metrics.comm_time_ns
        )
        assert result.sim_time_ns == direct.sim_time_ns
        assert result.events == direct.events

    def test_outcomes_in_plan_order(self):
        plan = stub_plan(n_seeds=3)
        report = execute_plan(plan, runner=stub_runner)
        assert [o.spec.key for o in report.outcomes] == plan.keys()
        assert report.done == len(plan) and report.failed == 0

    def test_retry_then_success(self, tmp_path):
        plan = stub_plan(tags=(f"scratch={tmp_path}", "fail_times=1"))
        report = execute_plan(plan, runner=flaky_runner, retries=1)
        assert report.done == len(plan)
        assert all(o.attempts == 2 for o in report.outcomes)

    def test_retries_exhausted(self, tmp_path):
        plan = stub_plan(tags=(f"scratch={tmp_path}", "fail_times=5"))
        report = execute_plan(plan, runner=flaky_runner, retries=1)
        assert report.failed == len(plan)
        assert all("injected failure" in o.error for o in report.failures())

    def test_strict_raises(self, tmp_path):
        plan = stub_plan(tags=(f"scratch={tmp_path}", "fail_times=5"))
        with pytest.raises(ExecutionError, match="cells failed"):
            execute_plan(plan, runner=flaky_runner, retries=0, strict=True)


class TestParallelExecution:
    def test_basic_parallel(self):
        plan = stub_plan(n_seeds=3)
        report = execute_plan(plan, max_workers=WORKERS, runner=stub_runner)
        assert report.done == len(plan)
        assert [o.spec.key for o in report.outcomes] == plan.keys()

    def test_worker_exception_retried(self, tmp_path):
        plan = stub_plan(tags=(f"scratch={tmp_path}", "fail_times=1"))
        report = execute_plan(
            plan, max_workers=WORKERS, runner=flaky_runner, retries=1
        )
        assert report.done == len(plan)
        assert all(o.attempts == 2 for o in report.outcomes)

    def test_worker_crash_recovers_on_fresh_pool(self, tmp_path):
        # crashing_runner os._exit()s the worker once per cell: the real
        # BrokenProcessPool path, not a pickled exception.
        plan = stub_plan(tags=(f"scratch={tmp_path}",))
        report = execute_plan(
            plan, max_workers=WORKERS, runner=crashing_runner, retries=2
        )
        assert report.done == len(plan)
        assert all(o.attempts >= 2 for o in report.outcomes)

    def test_crash_retries_bounded(self, tmp_path):
        plan = stub_plan(tags=(f"scratch={tmp_path}", "fail_times=99"))
        report = execute_plan(
            plan, max_workers=WORKERS, runner=flaky_runner, retries=1
        )
        assert report.failed == len(plan)
        assert all(o.attempts == 2 for o in report.failures())

    def test_timeout_fails_cell(self, tmp_path):
        plan = stub_plan(tags=("sleep=30",))
        report = execute_plan(
            plan,
            max_workers=WORKERS,
            runner=sleepy_runner,
            timeout_s=0.3,
            retries=0,
        )
        assert report.failed == len(plan)
        assert all("budget" in o.error for o in report.failures())

    def test_serial_timeout_also_enforced(self):
        plan = stub_plan(tags=("sleep=30",))
        report = execute_plan(
            plan, runner=sleepy_runner, timeout_s=0.3, retries=0
        )
        assert report.failed == len(plan)


class TestCacheIntegration:
    def test_warm_cache_skips_simulation(self, tmp_path):
        plan = stub_plan(n_seeds=2)
        cache = ResultCache(tmp_path)
        cold = execute_plan(plan, cache=cache, runner=stub_runner)
        assert cold.done == len(plan) and cold.cached == 0
        warm = execute_plan(plan, cache=cache, runner=stub_runner)
        assert warm.cached == len(plan) and warm.done == 0

    def test_cache_accepts_path(self, tmp_path):
        plan = stub_plan()
        execute_plan(plan, cache=tmp_path / "c", runner=stub_runner)
        warm = execute_plan(plan, cache=tmp_path / "c", runner=stub_runner)
        assert warm.cached == len(plan)

    def test_changed_cell_resimulated(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute_plan(stub_plan(), cache=cache, runner=stub_runner)
        changed = plan_grid(
            repro.tiny(),
            {"A": tiny_trace("A").scaled(2.0)},
            ("cont", "rand"),
            ("min",),
        )
        report = execute_plan(changed, cache=cache, runner=stub_runner)
        assert report.done == len(changed) and report.cached == 0


class TestResultIPC:
    """RunResult must pickle (satellite: slim, IPC-safe results)."""

    def test_pickle_round_trip_with_send_events(self):
        trace = repro.amg_trace(num_ranks=8, seed=1).scaled(0.05)
        result = repro.run_single(
            repro.tiny(), trace, "cont", "min", seed=1, record_sends=True
        )
        clone = pickle.loads(pickle.dumps(result))
        assert np.array_equal(
            clone.metrics.comm_time_ns, result.metrics.comm_time_ns
        )
        assert np.array_equal(clone.job.avg_hops, result.job.avg_hops)
        assert clone.job.send_events == result.job.send_events
        assert clone.nodes == result.nodes and clone.label == result.label

    def test_parallel_drops_send_events_by_default(self):
        trace = repro.amg_trace(num_ranks=8, seed=1).scaled(0.05)
        plan = plan_grid(
            repro.tiny(), {"AMG": trace}, ("cont",), ("min",),
            seed=1, record_sends=True,
        )
        [outcome] = execute_plan(plan, max_workers=WORKERS).outcomes
        assert outcome.result.job.send_events is None

    def test_parallel_keeps_send_events_on_opt_in(self):
        trace = repro.amg_trace(num_ranks=8, seed=1).scaled(0.05)
        plan = plan_grid(
            repro.tiny(), {"AMG": trace}, ("cont",), ("min",),
            seed=1, record_sends=True,
        )
        [outcome] = execute_plan(
            plan, max_workers=WORKERS, ipc_send_events=True
        ).outcomes
        serial = repro.run_single(
            repro.tiny(), trace, "cont", "min", seed=1, record_sends=True
        )
        assert outcome.result.job.send_events == serial.job.send_events
