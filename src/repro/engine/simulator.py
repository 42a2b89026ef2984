"""The event calendar.

Hot-path notes (per the HPC-Python guides: profile first, keep the inner
loop allocation-light): events are plain ``(time, seq, callback, args)``
tuples on a binary heap (the C-accelerated ``heapq``); the monotonically
increasing sequence number both breaks time ties deterministically and
avoids ever comparing callbacks. ``(time, seq)`` is a *total* order, so
the pop order is fully determined by the push sequence.
"""

from __future__ import annotations

import heapq
import sys
from functools import partial
from typing import Any, Callable

__all__ = ["Simulator"]


class Simulator:
    """A sequential discrete-event simulator over a binary-heap calendar."""

    __slots__ = (
        "now",
        "_queue",
        "_push",
        "_seq",
        "_events_run",
        "_heartbeats",
        "_hb_next",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list = []
        # Pre-bound C call with no Python frame: at() is hot.
        self._push = partial(heapq.heappush, self._queue)
        self._seq: int = 0
        self._events_run: int = 0
        # Heartbeats: [next_fire_time, interval, fn] triples, fired at
        # exact multiples of their interval *between* events, outside the
        # calendar (they never count toward events_run or max_events).
        self._heartbeats: list[list] = []
        self._hb_next: float = float("inf")

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at ``now + delay``."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.at(self.now + delay, fn, *args)

    def at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        self._push((time, self._seq, fn, args))
        self._seq += 1

    def reserve_seq(self) -> int:
        """Claim the next tie-break sequence number without scheduling.

        Lets a caller pre-allocate an event's slot in the ``(time, seq)``
        total order and materialise it later — or never — via
        :meth:`at_reserved`. The event then fires exactly where it would
        have had it been pushed at reservation time, so deferring (or
        eliding) a push cannot perturb same-time tie-breaks of any other
        event. This is how the fabric skips completion-kick events on
        idle links while staying bit-identical to the eager schedule.
        """
        seq = self._seq
        self._seq += 1
        return seq

    def at_reserved(
        self, time: float, seq: int, fn: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``fn(*args)`` at ``time`` under a reserved sequence number."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        self._push((time, seq, fn, args))

    def add_heartbeat(self, interval: float, fn: Callable[[float], None]) -> None:
        """Call ``fn(t)`` at ``t = now+interval, now+2*interval, ...`` during :meth:`run`.

        Heartbeats are the periodic-sampling hook used by the
        observability layer: they fire at exact times regardless of
        event density, *before* any event scheduled at the same or a
        later time, in registration order on ties. They live outside the
        event calendar — no heap traffic, no ``events_run`` increments —
        so a run with no heartbeats registered is bit-identical to one
        on a simulator that predates them. Firing stops when the run
        stops; pending heartbeat times simply remain due.
        """
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be positive (got {interval})")
        first = self.now + interval
        self._heartbeats.append([first, interval, fn])
        if first < self._hb_next:
            self._hb_next = first

    def _fire_heartbeats(self, limit: float) -> None:
        """Fire every heartbeat due at or before ``limit``, in time order.

        ``_hb_next`` (maintained incrementally) is the loop variable, so
        each firing round does a single pass over the heartbeat list
        instead of two ``min()`` scans per fired time.
        """
        hb = self._heartbeats
        while len(hb) == 1:
            # Overwhelmingly the common case (one obs recorder): no
            # scans at all, just walk the single triple forward. Re-read
            # the list each round in case the callback registers more.
            e = hb[0]
            t = e[0]
            if t > limit:
                self._hb_next = t
                return
            self.now = t
            e[2](t)
            e[0] = t + e[1]
        # General case: one pass per distinct due time, firing in
        # registration order on ties and folding the next-due scan into
        # the same pass (the old code did two min() scans per round).
        t = self._hb_next
        while t <= limit:
            nxt = float("inf")
            for e in hb:
                if e[0] == t:
                    self.now = t
                    e[2](t)
                    e[0] = t + e[1]
                if e[0] < nxt:
                    nxt = e[0]
            t = nxt
        self._hb_next = t

    def run(
        self,
        stop: Callable[[], bool] | None = None,
        max_events: int | None = None,
    ) -> float:
        """Drain the calendar; return the final simulated time.

        ``stop`` is polled after every event, and ``max_events`` guards
        against runaway simulations: ``max_events`` becomes a plain int
        (``sys.maxsize`` for ``None``), so the guard is a single integer
        comparison per event — measurable at hundreds of thousands of
        events per run.
        """
        queue = self._queue
        limit = sys.maxsize if max_events is None else max_events
        pop = heapq.heappop
        push = heapq.heappush
        heartbeats = self._heartbeats
        events_run = self._events_run
        try:
            while queue:
                ev = pop(queue)
                time = ev[0]
                if heartbeats and self._hb_next <= time:
                    # Pop eagerly, push back on the rare deferral: the
                    # event's (time, seq) key is intact, so it re-pops
                    # first among the still-queued events.
                    push(queue, ev)
                    self._fire_heartbeats(time)
                    continue  # a heartbeat may have scheduled new events
                self.now = time
                ev[2](*ev[3])
                events_run += 1
                if stop is not None and stop():
                    break
                if events_run >= limit:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events; "
                        "likely runaway traffic generation"
                    )
        finally:
            # Kept in a local and written back here, so an exception
            # mid-event leaves the public count exact.
            self._events_run = events_run
        return self.now

    @property
    def events_run(self) -> int:
        """Number of events executed so far (for profiling/tests)."""
        return self._events_run

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
