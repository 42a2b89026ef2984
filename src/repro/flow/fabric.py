"""Fluid (flow-level) network model, duck-typing the packet fabric.

Instead of simulating individual packets, every injected
:class:`~repro.network.packet.Message` becomes a *flow*: a remaining
byte count draining over one or more weighted link sets. Flows from one
source node serialise (the packet fabric enqueues a message's packets
FIFO on the terminal-in link, so later messages wait for earlier ones);
across nodes, concurrent rates are the weighted max-min fair allocation
(progressive filling): grow a uniform base rate, freeze every unit
crossing the first link to saturate, and repeat on the residual network
until all units are frozen.

Routing maps onto flows per policy:

* ``min`` — one *unit* whose links carry the expectation of uniform
  random candidate choice (weight ``1/n`` per minimal candidate), so a
  message of ``S`` wire bytes deposits ``w * S`` bytes on every link of
  weight ``w``.
* ``adp`` — one unit per candidate path. Minimal candidates are always
  included; a Valiant candidate is included only when the packet
  policy's own UGAL-L cost rule (first-link backlog scaled by hop
  count, non-minimal cost inflated and biased) says the detour looks
  cheaper at injection time. Each unit then gets its own max-min rate
  and the message drains at their *sum* — the fluid limit of a message
  whose packets spill onto every port that has capacity, which is where
  adaptive routing's drain-rate advantage (and its extra traffic)
  comes from.

Rates are re-solved only when the flow set changes — NIC-idle
injections (coalesced to the
:data:`~repro.flow.routes.EPOCH_NS` grid), queued-flow
starts, and completions — so simulated cost scales with the number of
*messages*, not packets or hops.

Event semantics mirror the packet fabric so the replay engine works
unchanged:

* ``on_injected`` fires when the flow drains (its last byte leaves the
  source NIC — the analogue of the last packet crossing terminal-in);
* ``on_delivered`` fires one byte-weighted path latency later, with
  ``hop_sum``/``num_packets`` filled so per-rank hop metrics match the
  packet model's accounting (``route_len - 2`` per packet, fractional
  here because a flow's bytes spread over candidates of different
  lengths);
* per-link ``bytes_tx`` accumulates bytes as flows drain, and
  ``sat_ns`` accumulates the time a link spends as a *contended*
  max-min bottleneck — the fluid analogue of the packet model's
  buffers-exhausted stall time.

All wake-ups are ordinary ``(time, seq)`` simulator events, so results
are bit-identical across runs and worker counts, exactly like the
packet backend.

This object-per-flow fabric is what cluster epoch cells
(:func:`~repro.cluster.engine.simulate_epoch`) run on; ``run_single``
builds its array-state twin,
:class:`~repro.flow.fabric_array.ArrayFlowFabric`. The two agree to
relative error below ``1e-9`` on the differential harness's grids, but
not on every cell: in the benchmark suite's seed-1 stream, epoch cell
``CR-0+FB-1+AMG-2`` (``adp``) gives CR-0 a makespan of 32592.15 ns here
and 32591.65 ns on the array fabric (DESIGN.md §14).
"""

from __future__ import annotations

import math
from collections import deque

from repro.config import NetworkParams
from repro.engine.simulator import Simulator
from repro.flow.routes import EPOCH_NS, flow_route_model
from repro.flow.solver import solve_scalar
from repro.network.packet import Message
from repro.topology.dragonfly import Dragonfly

__all__ = ["FlowFabric"]

#: A flow is complete once its residual drops below half a byte — far
#: above float residue at any realistic rate, far below one packet.
_DONE_BYTES = 0.5


class _Unit:
    """One schedulable path bundle of a flow.

    ``min`` flows have a single unit with fractional link weights (the
    candidate expectation); ``adp`` flows have one unit per taken
    candidate, each at weight 1. The solver hands every unit its own
    max-min rate.
    """

    __slots__ = ("links", "hops", "lat_ns", "nonmin", "rate", "load_left")

    def __init__(
        self,
        links: tuple[tuple[int, float], ...],
        hops: float,
        lat_ns: float,
        nonmin: float,
    ) -> None:
        self.links = links
        self.hops = hops
        self.lat_ns = lat_ns
        self.nonmin = nonmin
        self.rate = 0.0
        #: Bytes of the pending-load ledger still attributed to this
        #: unit (reconciled at flow completion, see ``_finish``).
        self.load_left = 0.0


class _Flow:
    """One draining message."""

    __slots__ = (
        "msg",
        "units",
        "remaining",
        "rate",
        "hop_bytes",
        "lat_bytes",
        "nonmin_bytes",
    )

    def __init__(self, msg: Message, units: list[_Unit]) -> None:
        self.msg = msg
        self.units = units
        self.remaining = float(msg.wire_size)
        self.rate = 0.0
        #: Byte-weighted accumulators of what the flow's bytes actually
        #: traversed, filled in as the flow drains.
        self.hop_bytes = 0.0
        self.lat_bytes = 0.0
        self.nonmin_bytes = 0.0


class FlowFabric:
    """Flow-level network: topology + max-min sharing + static routing.

    Implements the attribute/method surface of
    :class:`~repro.network.fabric.Fabric` that the replay engine,
    metric extraction, and background injectors rely on (``inject``,
    ``drain_saturation``, ``bytes_tx``, ``sat_ns``, counters), so
    ``run_single(backend="flow")`` is a drop-in swap.
    """

    def __init__(
        self,
        sim: Simulator,
        topo: Dragonfly,
        net: NetworkParams,
        routing: str,
    ) -> None:
        self.sim = sim
        self.topo = topo
        self.net = net
        self.routes = flow_route_model(topo, net, routing)

        n_links = topo.num_links
        bw_arr, lat_arr, _buf = topo.link_profiles(net)
        self.bw: list[float] = bw_arr.tolist()
        self.lat: list[float] = (lat_arr + net.router_delay_ns).tolist()

        #: Per-link transmitted bytes (ints, finalised from the float
        #: accumulator by :meth:`drain_saturation`).
        self.bytes_tx: list[int] = [0] * n_links
        self._tx: list[float] = [0.0] * n_links
        #: Per-link accumulated bottleneck (saturation-proxy) time, ns.
        self.sat_ns: list[float] = [0.0] * n_links
        #: Unused by the fluid model; present for fabric duck-typing.
        self.queued_bytes: list[int] = [0] * n_links
        #: Per-link pending bytes (injected, not yet transmitted) — the
        #: fluid analogue of the packet fabric's ``queued_bytes``, fed
        #: to the UGAL cost rule on adaptive cells.
        self._load: list[float] = [0.0] * n_links
        self._adaptive = routing == "adp"

        self.packets_injected = 0
        self.packets_delivered = 0
        self.messages_delivered = 0
        self.bytes_injected = 0
        self.bytes_delivered = 0
        self.faults_applied = 0
        self.packets_rerouted = 0
        #: Observability is a packet-backend feature; always ``None``.
        self.obs = None

        self._active: list[_Flow] = []
        self._pending: list[_Flow] = []
        #: Per-source-node FIFO of flows waiting for the NIC. The packet
        #: fabric enqueues a message's packets on the terminal-in link
        #: in injection order, so concurrent messages from one node
        #: *serialise* at the NIC; the fluid model mirrors that — one
        #: draining flow per source node, successors start the instant
        #: the predecessor's last byte leaves.
        self._nic_queue: dict[int, deque[_Flow]] = {}
        self._nic_busy: set[int] = set()
        self._saturated: list[int] = []
        self._last_t = 0.0
        self._in_update = False
        #: Wake arming: only the latest generation's event updates state.
        self._gen = 0
        self._wake_time = math.inf
        self._nonmin_bytes = 0.0
        self._routed_bytes = 0.0

    # ------------------------------------------------------------------
    # public API (fabric duck-type)
    # ------------------------------------------------------------------
    def inject(self, msg: Message) -> None:
        """Admit a message as a flow at the current simulated time."""
        now = self.sim.now
        msg.inject_time = now
        size = msg.wire_size
        if self._adaptive:
            units = self._adaptive_units(msg.src_node, msg.dst_node, size)
        else:
            entry = self.routes.entry(msg.src_node, msg.dst_node)
            units = [
                _Unit(
                    entry.links,
                    entry.rr_hops,
                    entry.latency_ns,
                    entry.nonmin_fraction,
                )
            ]
        msg.num_packets = -(-size // self.net.packet_size)
        self.bytes_injected += size
        self.packets_injected += msg.num_packets
        self._routed_bytes += size
        # Pending-load ledger: until the split across units is realised
        # by actual draining, attribute an even share to each.
        load = self._load
        share = size / len(units)
        for unit in units:
            unit.load_left = share
            for lid, w in unit.links:
                load[lid] += w * share
        flow = _Flow(msg, units)
        src = msg.src_node
        if src in self._nic_busy:
            self._nic_queue.setdefault(src, deque()).append(flow)
            return
        self._nic_busy.add(src)
        self._pending.append(flow)
        if not self._in_update:
            self._request_wake(self._admission_time(now))

    def drain_saturation(self) -> None:
        """Settle progress to now and finalise the integer byte counters."""
        self._settle(self.sim.now)
        tx = self._tx
        bytes_tx = self.bytes_tx
        for lid, moved in enumerate(tx):
            bytes_tx[lid] = round(moved)

    @property
    def nonminimal_fraction(self) -> float:
        """Byte-weighted non-minimal fraction over all injected bytes.

        The fluid analogue of the packet model's per-packet decision
        ratio: the share of wire bytes that actually travelled a
        Valiant unit.
        """
        if self._routed_bytes <= 0.0:
            return 0.0
        return self._nonmin_bytes / self._routed_bytes

    # ------------------------------------------------------------------
    # adaptive unit selection
    # ------------------------------------------------------------------
    def _adaptive_units(
        self, src_node: int, dst_node: int, size: int
    ) -> list[_Unit]:
        """One unit per candidate the UGAL-L spill emulation takes.

        :meth:`~repro.flow.routes.FlowRouteModel.spill_fast` replays the
        packet policy's per-packet decision loop against the fabric's
        pending-byte ledger (plus the message's own emulated first-hop
        backlog); every candidate that captures at least one
        packet-sized quantum becomes a unit. The max-min solver then
        rates the units independently and the flow drains at their sum
        — the fluid limit of packets spilling onto every port that has
        capacity.
        """
        entries = self.routes.spill_fast(src_node, dst_node, size, self._load)
        return [
            _Unit(e.links, e.rr_hops, e.latency_ns, e.nonmin_fraction)
            for e in entries
        ]

    # ------------------------------------------------------------------
    # wake scheduling
    # ------------------------------------------------------------------
    def _admission_time(self, now: float) -> float:
        return max(now, math.ceil(now / EPOCH_NS - 1e-9) * EPOCH_NS)

    def _request_wake(self, t: float) -> None:
        if t >= self._wake_time:
            return
        self._gen += 1
        self._wake_time = t
        self.sim.at(t, self._wake, self._gen)

    def _wake(self, gen: int) -> None:
        if gen != self._gen:
            return  # superseded by an earlier re-arm
        self._wake_time = math.inf
        self._update()

    # ------------------------------------------------------------------
    # fluid dynamics
    # ------------------------------------------------------------------
    def _settle(self, now: float) -> None:
        """Integrate flow progress (and bottleneck time) up to ``now``."""
        dt = now - self._last_t
        self._last_t = now
        if dt <= 0.0:
            return
        if self._active:
            tx = self._tx
            load = self._load
            for f in self._active:
                rate = f.rate
                if rate <= 0.0:
                    continue
                raw = rate * dt
                scale = 1.0
                if raw > f.remaining:
                    scale = f.remaining / raw
                f.remaining -= raw * scale
                for unit in f.units:
                    moved = unit.rate * dt * scale
                    if moved <= 0.0:
                        continue
                    # The ledger decrement is capped by the unit's
                    # attributed share (even split at inject): a unit
                    # draining more than its share must not push the
                    # pending count negative — the slow units' leftover
                    # is reconciled at flow finish instead.
                    if moved < unit.load_left:
                        dec = moved
                        unit.load_left -= moved
                    else:
                        dec = unit.load_left
                        unit.load_left = 0.0
                    for lid, w in unit.links:
                        tx[lid] += w * moved
                        load[lid] -= w * dec
                    f.hop_bytes += unit.hops * moved
                    f.lat_bytes += unit.lat_ns * moved
                    if unit.nonmin:
                        f.nonmin_bytes += unit.nonmin * moved
            sat = self.sat_ns
            for lid in self._saturated:
                sat[lid] += dt

    def _update(self) -> None:
        """Settle, fire completions, admit arrivals, re-solve, re-arm."""
        self._in_update = True
        try:
            now = self.sim.now
            self._settle(now)

            finished = [f for f in self._active if f.remaining < _DONE_BYTES]
            if finished:
                self._active = [
                    f for f in self._active if f.remaining >= _DONE_BYTES
                ]
                for f in finished:
                    self._finish(f, now)

            # Completion callbacks may inject follow-on messages; admit
            # everything pending in arrival order before solving.
            while self._pending:
                batch = self._pending
                self._pending = []
                self._active.extend(batch)

            self._solve()

            nxt = math.inf
            for f in self._active:
                if f.rate > 0.0:
                    t = now + f.remaining / f.rate
                    if t < nxt:
                        nxt = t
            if nxt < math.inf:
                if nxt <= now:
                    # Float collapse: at huge simulated times a short
                    # drain interval can round to ``now + dt == now``,
                    # and a wake at the same timestamp re-arms forever
                    # (``_settle`` sees dt == 0, nothing progresses).
                    # Bump one ulp: the collapse implies the drain time
                    # is below ulp/2, so one ulp of progress at the
                    # flow's rate over-covers its residual and the
                    # ``_settle`` cap finishes it exactly.
                    nxt = math.nextafter(now, math.inf)
                self._request_wake(nxt)
        finally:
            self._in_update = False

    def _finish(self, f: _Flow, now: float) -> None:
        """The flow drained: last byte has left the source NIC."""
        msg = f.msg
        # Reconcile the pending-load ledger: whatever even-share guess
        # was not realised by actual draining comes off now.
        load = self._load
        for unit in f.units:
            left = unit.load_left
            if left > 0.0:
                unit.load_left = 0.0
                for lid, w in unit.links:
                    load[lid] -= w * left
        src = msg.src_node
        queue = self._nic_queue.get(src)
        if queue:
            # The NIC turns around instantly: the successor starts at
            # the predecessor's exact finish time (no epoch rounding),
            # picked up by the admission loop of this same update.
            self._pending.append(queue.popleft())
        else:
            self._nic_busy.discard(src)
        msg.injected_time = now
        if msg.on_injected is not None:
            msg.on_injected(msg, now)
        # Path latency is strictly positive (terminal latency + router
        # delay), so delivery is totally ordered after injection.
        wire = float(msg.wire_size)
        latency = f.lat_bytes / wire if wire > 0.0 else 0.0
        self.sim.at(now + latency, self._deliver, f)

    def _deliver(self, f: _Flow) -> None:
        msg = f.msg
        now = self.sim.now
        size = msg.wire_size
        wire = float(size)
        msg.arrived_bytes = size
        msg.hop_sum = (f.hop_bytes / wire) * msg.num_packets
        msg.delivered_time = now
        self.packets_delivered += msg.num_packets
        self.bytes_delivered += size
        self.messages_delivered += 1
        self._nonmin_bytes += f.nonmin_bytes
        if msg.on_delivered is not None:
            msg.on_delivered(msg, now)

    def _solve(self) -> None:
        """Weighted max-min rates for the active units (progressive
        filling), delegated to :func:`~repro.flow.solver.solve_scalar`.
        """
        self._saturated = solve_scalar(self._active, self.bw)
