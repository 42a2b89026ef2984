"""Discrete-event engine unit tests."""

import pytest

from repro.engine.simulator import Simulator
from tests.engine_helpers import run_until


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.at(5.0, log.append, "b")
        sim.at(1.0, log.append, "a")
        sim.at(9.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        log = []
        for i in range(10):
            sim.at(3.0, log.append, i)
        sim.run()
        assert log == list(range(10))

    def test_schedule_is_relative(self):
        sim = Simulator()
        times = []
        def tick():
            times.append(sim.now)
            if len(times) < 3:
                sim.schedule(2.5, tick)
        sim.schedule(1.0, tick)
        sim.run()
        assert times == [1.0, 3.5, 6.0]

    def test_rejects_past_events(self):
        sim = Simulator()
        sim.at(10.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(5.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_now_advances_monotonically(self):
        sim = Simulator()
        seen = []
        sim.at(1.0, lambda: seen.append(sim.now))
        sim.at(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)


class TestRunControls:
    def test_until_leaves_future_events_queued(self):
        sim = Simulator()
        log = []
        sim.at(1.0, log.append, "early")
        sim.at(100.0, log.append, "late")
        end = run_until(sim, 50.0)
        assert log == ["early"]
        assert end == 50.0
        assert sim.pending == 1
        sim.run()
        assert log == ["early", "late"]

    def test_stop_condition(self):
        sim = Simulator()
        log = []
        for i in range(10):
            sim.at(float(i), log.append, i)
        sim.run(stop=lambda: len(log) >= 3)
        assert log == [0, 1, 2]

    def test_max_events_guard(self):
        sim = Simulator()
        def forever():
            sim.schedule(1.0, forever)
        sim.at(0.0, forever)
        with pytest.raises(RuntimeError, match="exceeded"):
            sim.run(max_events=100)

    def test_events_run_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.at(float(i), lambda: None)
        sim.run()
        assert sim.events_run == 5

    def test_run_returns_final_time(self):
        sim = Simulator()
        sim.at(42.0, lambda: None)
        assert sim.run() == 42.0

    def test_empty_run(self):
        sim = Simulator()
        assert sim.run() == 0.0
        assert sim.events_run == 0

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        log = []
        sim.at(1.0, lambda: sim.at(2.0, log.append, "nested"))
        sim.run()
        assert log == ["nested"]
