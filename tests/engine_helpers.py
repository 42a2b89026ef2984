"""A simulated-time horizon for the event loop, for tests.

``Simulator.run`` drains the calendar or stops on ``stop`` /
``max_events``; no production caller bounds simulated time. Tests that
inspect state part-way through a run stop it with :func:`run_until`.
"""

from __future__ import annotations

import heapq

from repro.engine.simulator import Simulator

__all__ = ["run_until"]


def run_until(sim: Simulator, until: float) -> float:
    """Run every event due at or before ``until``; return ``sim.now``.

    Later events stay queued, so a following ``sim.run()`` or
    ``run_until`` continues exactly where this one stopped. When such an
    event is reached, heartbeats due at or before ``until`` fire first
    and the clock is left at ``until``; if the calendar drains first,
    the clock stays at the last event's time. Heartbeats due before an
    event fire ahead of it, as in ``Simulator.run``.
    """
    queue = sim._queue
    pop = heapq.heappop
    push = heapq.heappush
    heartbeats = sim._heartbeats
    while queue:
        ev = pop(queue)
        time = ev[0]
        if time > until:
            push(queue, ev)
            if heartbeats and sim._hb_next <= until:
                sim._fire_heartbeats(until)
            sim.now = until
            break
        if heartbeats and sim._hb_next <= time:
            push(queue, ev)
            sim._fire_heartbeats(time)
            continue  # a heartbeat may have scheduled new events
        sim.now = time
        ev[2](*ev[3])
        sim._events_run += 1
    return sim.now
