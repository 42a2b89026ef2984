"""Progress telemetry: event accounting and the text reporter."""

import io

import repro
from repro.exec.plan import plan_grid
from repro.exec.pool import execute_plan
from repro.exec.progress import ProgressTracker, TextReporter

from tests.exec_helpers import FlakyRunner, stub_plan, stub_runner, tiny_trace


class TestTracker:
    def test_accounting_invariant(self):
        events = []
        plan = plan_grid(
            repro.tiny(), {"A": tiny_trace("A")},
            ("cont", "rand", "rotr"), ("min", "adp"),
        )
        report = execute_plan(plan, runner=stub_runner, progress=events.append)
        kinds = [e.kind for e in events]
        assert kinds[0] == "planned" and kinds[-1] == "finished"
        final = events[-1]
        assert final.done + final.failed + final.cached == final.total == len(plan)
        assert final.done == report.done

    def test_terminal_event_per_cell(self, tmp_path):
        events = []
        plan = stub_plan()
        execute_plan(
            plan, runner=FlakyRunner(str(tmp_path), 99), retries=1,
            progress=events.append,
        )
        terminal = [e for e in events if e.kind in ("cell-done", "cell-failed", "cell-cached")]
        assert len(terminal) == len(plan)
        assert sum(1 for e in events if e.kind == "cell-retry") == len(plan)
        assert events[-1].failed == len(plan)

    def test_eta_appears_after_first_cell(self):
        clock_now = [0.0]
        tracker = ProgressTracker(4, clock=lambda: clock_now[0])
        assert tracker.eta_s() is None
        plan = plan_grid(repro.tiny(), {"A": tiny_trace("A")}, ("cont",), ("min",))
        tracker.cell_done(plan.specs[0], wall_s=2.0)
        # one of four cells took 2s => three remain ~6s at one worker
        assert tracker.eta_s() == 6.0


class TestTextReporter:
    def test_renders_lifecycle_lines(self):
        buf = io.StringIO()
        reporter = TextReporter(stream=buf)
        plan = plan_grid(
            repro.tiny(), {"A": tiny_trace("A")}, ("cont", "rand"), ("min",)
        )
        execute_plan(plan, runner=stub_runner, progress=reporter)
        out = buf.getvalue()
        assert "planned 2 cells" in out
        assert "[1/2] A cont-min done" in out
        assert "finished: 2 simulated, 0 cached, 0 failed" in out

    def test_reports_cached_and_failed(self, tmp_path):
        buf = io.StringIO()
        plan = stub_plan()
        execute_plan(plan, cache=tmp_path / "c",
                     runner=FlakyRunner(str(tmp_path), 99),
                     retries=0, progress=TextReporter(stream=buf))
        assert "FAILED" in buf.getvalue()
