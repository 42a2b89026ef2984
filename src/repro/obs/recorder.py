"""Windowed sampling of live fabric state (the repro.obs core).

:class:`ObsRecorder` registers a :meth:`Simulator.add_heartbeat
<repro.engine.simulator.Simulator.add_heartbeat>` at the configured
window width and, at each beat, snapshots the fabric's cumulative
per-link counters. Windows are the *differences* between consecutive
snapshots, with two corrections that make the accounting exact at
arbitrary sample instants:

* busy time credited at transmission start is reduced by the still-
  running tail ``max(0, busy_until - T)``;
* saturation time is extended by the currently *open* stall interval
  ``T - blocked_since``.

Because every window is a delta of a corrected cumulative counter, the
per-window values telescope back to the run aggregates (exactly for
int64 byte counters, to float precision for times) and each time-based
window value is bounded by the window span.

Overhead contract: with no recorder attached the simulation is
bit-identical to an unobserved run — the engine pays one falsy branch
per event and the fabric one ``is None`` test on already-cold
congestion paths. With a recorder attached the cost is O(num_links)
per window plus O(1) per congestion event, and the *physics* is still
bit-identical: the recorder only reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.metrics.timeseries import CongestionEvent, TimeSeriesMetrics

__all__ = ["ObsConfig", "ObsRecorder"]

#: Cap on retained congestion events; the excess is counted, not kept.
MAX_TRACE_EVENTS = 100_000
#: Minimum gap (ns) between retained ``buffer_full`` events of the same
#: (link, vc), to keep a hot buffer from flooding the trace.
BUFFER_FULL_INTERVAL_NS = 10_000.0


@dataclass(frozen=True)
class ObsConfig:
    """Observability settings for one run.

    Frozen (hashable, one flat JSON-serialisable field) so it can ride
    inside a content-addressed :class:`~repro.exec.plan.RunSpec`.
    """

    #: Sampling window width in simulated ns.
    window_ns: float = 50_000.0

    def __post_init__(self) -> None:
        if self.window_ns <= 0:
            raise ValueError("window_ns must be positive")


class ObsRecorder:
    """Samples one fabric into fixed-width windows; builds the series.

    ``probe`` is an optional ``(t_ns, fabric)`` callback invoked at
    every window edge — the invariant test suite uses it to assert live
    state (e.g. credit non-negativity) mid-run.
    """

    def __init__(
        self,
        sim,
        fabric,
        config: ObsConfig | None = None,
        probe: Callable[[float, object], None] | None = None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.config = config or ObsConfig()
        self.probe = probe
        self._installed = False
        self._finalized: TimeSeriesMetrics | None = None

        n = fabric.topo.num_links
        self._n_links = n
        self._edges: list[float] = []
        self._bytes_rows: list[np.ndarray] = []
        self._busy_rows: list[np.ndarray] = []
        self._stall_rows: list[np.ndarray] = []
        self._queue_rows: list[np.ndarray] = []
        self._inj_pkts: list[int] = []
        self._del_pkts: list[int] = []
        self._inj_bytes: list[int] = []
        self._del_bytes: list[int] = []
        # Previous corrected cumulative snapshots (window deltas).
        self._prev_bytes = np.zeros(n, dtype=np.int64)
        self._prev_busy = np.zeros(n, dtype=np.float64)
        self._prev_stall = np.zeros(n, dtype=np.float64)
        self._last_edge = 0.0

        self.events: list[CongestionEvent] = []
        self.events_dropped = 0
        self._last_buffer_full: dict[int, float] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "ObsRecorder":
        """Attach to the fabric and register the sampling heartbeat."""
        if self._installed:
            return self
        if self.fabric.obs is not None:
            raise RuntimeError("fabric already has an observer attached")
        self.fabric.obs = self
        # The fabric's hot-path closures capture ``obs`` by value;
        # rebinding it requires recompiling them.
        self.fabric._bind_hot_path()
        self.sim.add_heartbeat(self.config.window_ns, self._sample)
        self._installed = True
        return self

    def _sample(self, t: float) -> None:
        """Heartbeat callback: close the window ending at ``t``.

        Runs once per window on the hot heartbeat path: corrected
        cumulatives are computed inline (no tuple-returning helper call)
        and the window deltas reuse those arrays in place — the previous
        snapshot becomes the delta buffer, so each window allocates only
        the three arrays it must retain.
        """
        fab = self.fabric
        bytes_cum = np.asarray(fab.bytes_tx, dtype=np.int64)
        busy_cum = np.asarray(fab.busy_ns, dtype=np.float64)
        tail = np.asarray(fab.busy_until, dtype=np.float64)
        tail -= t
        np.clip(tail, 0.0, None, out=tail)
        busy_cum -= tail
        stall_cum = np.asarray(fab.sat_ns, dtype=np.float64)
        blocked = np.asarray(fab._blocked_since, dtype=np.float64)
        open_mask = blocked >= 0.0
        if open_mask.any():
            stall_cum = stall_cum + np.where(open_mask, t - blocked, 0.0)
        # Turn the previous snapshots into this window's deltas in place.
        prev_bytes, prev_busy, prev_stall = (
            self._prev_bytes, self._prev_busy, self._prev_stall
        )
        np.subtract(bytes_cum, prev_bytes, out=prev_bytes)
        np.subtract(busy_cum, prev_busy, out=prev_busy)
        np.subtract(stall_cum, prev_stall, out=prev_stall)
        self._edges.append(t)
        self._bytes_rows.append(prev_bytes)
        self._busy_rows.append(prev_busy)
        self._stall_rows.append(prev_stall)
        self._queue_rows.append(np.asarray(fab.queued_bytes, dtype=np.int64))
        self._inj_pkts.append(fab.packets_injected)
        self._del_pkts.append(fab.packets_delivered)
        self._inj_bytes.append(fab.bytes_injected)
        self._del_bytes.append(fab.bytes_delivered)
        self._prev_bytes = bytes_cum
        self._prev_busy = busy_cum
        self._prev_stall = stall_cum
        self._last_edge = t
        if self.probe is not None:
            self.probe(t, fab)

    def finalize(self, end_ns: float | None = None) -> TimeSeriesMetrics:
        """Close the trailing partial window and freeze the series.

        Call after the simulation has stopped (and after
        ``fabric.drain_saturation()``), with ``end_ns`` defaulting to
        the simulator's current time. Idempotent.
        """
        if self._finalized is not None:
            return self._finalized
        if end_ns is None:
            end_ns = self.sim.now
        if end_ns > self._last_edge:
            self._sample(end_ns)
        links = self.fabric.topo.links
        n_windows = len(self._edges)
        shape = (n_windows, self._n_links)
        self._finalized = TimeSeriesMetrics(
            window_ns=self.config.window_ns,
            edges=np.asarray(self._edges, dtype=np.float64),
            bytes_fwd=(
                np.vstack(self._bytes_rows)
                if n_windows
                else np.zeros(shape, dtype=np.int64)
            ),
            busy_ns=(
                np.vstack(self._busy_rows) if n_windows else np.zeros(shape)
            ),
            stall_ns=(
                np.vstack(self._stall_rows) if n_windows else np.zeros(shape)
            ),
            queue_bytes=(
                np.vstack(self._queue_rows)
                if n_windows
                else np.zeros(shape, dtype=np.int64)
            ),
            link_kind=np.asarray(links.kind, dtype=np.int8),
            link_src=np.asarray(links.src, dtype=np.int32),
            injected_packets=np.asarray(self._inj_pkts, dtype=np.int64),
            delivered_packets=np.asarray(self._del_pkts, dtype=np.int64),
            injected_bytes=np.asarray(self._inj_bytes, dtype=np.int64),
            delivered_bytes=np.asarray(self._del_bytes, dtype=np.int64),
            events=self.events,
            events_dropped=self.events_dropped,
        )
        return self._finalized

    # ------------------------------------------------------------------
    # congestion-event hooks (called by the fabric / routing, gated on
    # ``fabric.obs is not None``)
    # ------------------------------------------------------------------
    def _record(self, event: CongestionEvent) -> None:
        if len(self.events) >= MAX_TRACE_EVENTS:
            self.events_dropped += 1
            return
        self.events.append(event)

    def on_stall_onset(self, t: float, link: int) -> None:
        self._record(CongestionEvent(t, "stall_onset", link, -1, 0.0))

    def on_stall_clear(self, t: float, link: int, duration_ns: float) -> None:
        self._record(CongestionEvent(t, "stall_clear", link, -1, duration_ns))

    def on_buffer_full(
        self, t: float, link: int, vc: int, occupancy: int, capacity: int
    ) -> None:
        key = link * 64 + vc
        last = self._last_buffer_full.get(key)
        if last is not None and t - last < BUFFER_FULL_INTERVAL_NS:
            return
        self._last_buffer_full[key] = t
        self._record(
            CongestionEvent(t, "buffer_full", link, vc, float(occupancy))
        )

    def on_adaptive_divert(self, t: float, src_router: int, hops: int) -> None:
        self._record(
            CongestionEvent(t, "adaptive_divert", src_router, -1, float(hops))
        )

    def on_fault(self, t: float, link: int, bw_scale: float) -> None:
        """A link fault landed: dead (``bw_scale == 0``) or degraded."""
        self._record(CongestionEvent(t, "fault", link, -1, bw_scale))

    def on_reroute(self, t: float, link: int, remaining_hops: int) -> None:
        """A packet was re-routed around a dead channel onto ``link``."""
        self._record(
            CongestionEvent(t, "reroute", link, -1, float(remaining_hops))
        )
