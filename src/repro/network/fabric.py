"""Credit-based packet forwarding over the dragonfly link fabric.

Flow-control model (DESIGN.md §3):

* every directed link has one serialiser (shared by all VCs) and one
  downstream buffer per virtual channel;
* a packet may start crossing link ``L`` on VC ``v`` only when ``L``'s
  serialiser is free and ``L``'s VC-``v`` buffer has room for the whole
  packet; the packet's claim on its *input* buffer (the previous link's
  VC buffer) is released at that same instant (zero-latency credit
  return);
* the VC index of a router-to-router hop equals the hop's position on the
  route, which strictly increases along any path — the buffer wait-for
  graph is therefore acyclic and the network cannot deadlock;
* per-link *saturation time* accumulates while a link has packets queued
  and its serialiser idle but no queued packet can obtain downstream
  buffer space — i.e. the link is stalled purely because buffers along
  the path are exhausted (the paper's "link has used up all its
  buffers").

Routing happens when a packet reaches its source router (the hop after
the terminal-in link), so adaptive decisions observe live congestion.

Hot-path notes: link state lives in plain Python lists (faster item
access than NumPy for scalar work); per-(link, VC) buffer occupancy is a
flat list indexed by ``link * MAX_VCS + vc``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.config import NetworkParams
from repro.engine.simulator import Simulator
from repro.network.packet import _POOL, _POOL_MAX, Message, Packet, packetize
from repro.routing.base import RoutingPolicy
from repro.topology.dragonfly import Dragonfly

__all__ = ["Fabric", "MAX_VCS"]

#: Upper bound on VCs per link, used to flatten (link, vc) keys.
MAX_VCS = 16


class Fabric:
    """The simulated network: topology + flow control + routing."""

    def __init__(
        self,
        sim: Simulator,
        topo: Dragonfly,
        net: NetworkParams,
        routing: RoutingPolicy,
    ) -> None:
        if net.num_vcs > MAX_VCS:
            raise ValueError(f"num_vcs may not exceed {MAX_VCS}")
        self.sim = sim
        self.topo = topo
        self.net = net
        self.routing = routing
        self._cut_through = net.switching == "vct"

        n_links = topo.num_links
        bw, lat, buf = topo.link_profiles(net)
        # Plain lists: scalar indexing is the hot path.
        self.bw: list[float] = bw.tolist()
        self.lat: list[float] = (lat + net.router_delay_ns).tolist()
        self.buf: list[int] = buf.tolist()

        self.busy_until: list[float] = [0.0] * n_links
        self.queued_bytes: list[int] = [0] * n_links
        self._waitq: list[dict[int, deque[Packet]]] = [dict() for _ in range(n_links)]
        self._wait_count: list[int] = [0] * n_links
        self._rr_next: list[int] = [0] * n_links
        self._blocked_since: list[float] = [-1.0] * n_links
        # Flat (link, VC) buffer occupancy: list indexing beats dict
        # hashing at several lookups per transmission.
        self._buf_used: list[int] = [0] * (n_links * MAX_VCS)
        # Elided completion-kick state: when a transmission starts with
        # no waiters, its `_tx_done` push is skipped but its tie-break
        # sequence number is *reserved* (`_kick_seq`, with the would-be
        # fire time in `_kick_time`). A later `_enqueue` on the busy link
        # materialises the kick in exactly that reserved (time, seq)
        # slot, so the executed event order is bit-identical to the
        # eager schedule. -1 means "no reservation outstanding".
        self._kick_seq: list[int] = [-1] * n_links
        self._kick_time: list[float] = [0.0] * n_links

        #: Per-link transmitted bytes (the paper's "network traffic").
        self.bytes_tx: list[int] = [0] * n_links
        #: Per-link accumulated saturation time in ns.
        self.sat_ns: list[float] = [0.0] * n_links
        #: Per-link accumulated serialiser-busy time in ns. Durations are
        #: credited when a transmission *starts*; busy time elapsed only
        #: up to an instant T is ``busy_ns[l] - max(0, busy_until[l] - T)``
        #: (transmissions on one link never overlap).
        self.busy_ns: list[float] = [0.0] * n_links

        self.packets_injected = 0
        self.packets_delivered = 0
        self.messages_delivered = 0
        self.bytes_injected = 0
        self.bytes_delivered = 0

        #: Optional observability recorder (see :mod:`repro.obs`). When
        #: ``None`` (the default) every obs hook below is a skipped
        #: branch on an already-cold path, and results are bit-identical
        #: to a fabric without the hooks.
        self.obs = None

        #: Per-link liveness (see :mod:`repro.faults`). Always allocated
        #: so the hot path pays exactly one list probe per forwarded hop;
        #: with no faults the branch is never taken and the event stream
        #: is bit-identical to a fabric without fault support.
        self.link_down: list[bool] = [False] * n_links
        #: Bumped by every applied fault; failure-aware routing policies
        #: rebuild their degraded tables when it changes.
        self.fault_epoch = 0
        self.faults_applied = 0
        self.packets_rerouted = 0

        self._bind_hot_path()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    # inject(msg) is built by _bind_hot_path (a closure, like the rest
    # of the per-packet path).

    def drain_saturation(self) -> None:
        """Close out still-open blocked intervals at the current time.

        Call once after the simulation stops so links that were stalled
        when the workload completed contribute their final interval.
        """
        now = self.sim.now
        blocked = self._blocked_since
        sat = self.sat_ns
        for lid, since in enumerate(blocked):
            if since >= 0.0:
                sat[lid] += now - since
                blocked[lid] = now  # keep open in case the sim resumes

    # ------------------------------------------------------------------
    # fault injection (cold path; see repro.faults and DESIGN.md §S15)
    # ------------------------------------------------------------------
    def apply_link_fault(self, link: int, bw_scale: float = 0.0) -> None:
        """Fail one directed link now (``bw_scale == 0``) or degrade it.

        Fail-stop semantics: a transmission already on the wire
        completes and its packet arrives; packets *queued* on the dead
        link are flushed and re-routed from the router they sit on, and
        packets still upstream are caught by the liveness probe when
        they reach the dead hop. A degrade multiplies the link's
        bandwidth in place — queued and future packets serialise slower,
        the in-flight one keeps its committed completion time.
        """
        if self.topo.links.kind_of(link).is_terminal:
            raise ValueError(
                f"link {link} is a terminal link and cannot be faulted"
            )
        now = self.sim.now
        self.fault_epoch += 1
        self.faults_applied += 1
        if self.obs is not None:
            self.obs.on_fault(now, link, bw_scale)
        if bw_scale > 0.0:
            self.bw[link] *= bw_scale
            return
        if self.link_down[link]:
            return
        self.link_down[link] = True
        # A dead link can never transmit again: close its open stall
        # interval (if any) so saturation accounting stays exact.
        since = self._blocked_since[link]
        if since >= 0.0:
            self.sat_ns[link] += now - since
            self._blocked_since[link] = -1.0
            if self.obs is not None:
                self.obs.on_stall_clear(now, link, now - since)
        # Drop any elided-kick reservation; nothing will ever enqueue on
        # this link again, so the reserved slot simply goes unused.
        self._kick_seq[link] = -1
        # Flush the waiters deterministically (VC order, FIFO within a
        # VC), then re-route each from the router it is parked on. The
        # flush completes before any re-route so a transmit cascade
        # triggered by one re-routed packet cannot reorder the rest.
        if self._wait_count[link]:
            waitq = self._waitq[link]
            flushed: list[Packet] = []
            for vc in sorted(waitq):
                q = waitq[vc]
                while q:
                    pkt = q.popleft()
                    flushed.append(pkt)
            waitq.clear()
            self._wait_count[link] -= len(flushed)
            for pkt in flushed:
                self.queued_bytes[link] -= pkt.size
            for pkt in flushed:
                self._reroute(pkt)

    def _reroute(self, pkt: Packet) -> None:
        """Replace a packet's remaining route and re-enqueue it.

        The packet sits at hop ``h`` — it has crossed ``route[h-1]`` and
        still holds that link's VC buffer claim — and ``route[h]`` is
        dead. The suffix from ``h`` on is recomputed from the current
        router. The buffer claim stays consistent: its release VC on the
        next transmit depends only on ``h`` and whether the *new* route
        ends there, which matches the claim made on the old route
        (``h-1`` can be neither 0 nor the old last index, since
        terminal links never die).
        """
        route = pkt.route
        hop = pkt.hop
        msg = pkt.msg
        here = self.topo.links._dst[route[hop - 1]]
        rest = self.routing.route(self, here, msg.dst_node, pkt.size)
        if hop + len(rest) - 2 > self.net.num_vcs:
            raise RuntimeError(
                f"re-route at hop {hop} needs {hop + len(rest) - 2} VCs "
                f"but only {self.net.num_vcs} configured (fault detour "
                "exceeds the VC budget)"
            )
        del route[hop:]
        route.extend(rest)
        nxt = route[hop]
        if self.link_down[nxt]:
            raise RuntimeError(
                f"routing policy {self.routing.name!r} routed onto dead "
                f"link {nxt}; faulted runs require the fault-aware "
                "policies (repro.faults.make_fault_aware_routing)"
            )
        self.packets_rerouted += 1
        if self.obs is not None:
            self.obs.on_reroute(self.sim.now, nxt, len(rest))
        self._enqueue(pkt, nxt)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _enqueue(self, pkt: Packet, link: int) -> None:
        hop = pkt.hop
        vc = 0 if hop == 0 or hop == len(pkt.route) - 1 else hop - 1
        q = self._waitq[link].get(vc)
        if q is None:
            q = self._waitq[link][vc] = deque()
        q.append(pkt)
        self._wait_count[link] += 1
        self.queued_bytes[link] += pkt.size
        if self.busy_until[link] > self.sim.now:
            # Mid-transmission: arbitration can only happen at the
            # serialiser's completion. If that completion kick was
            # elided (no waiters at transmission start), materialise it
            # now under its reserved sequence number — it lands exactly
            # where the eager schedule would have put it.
            seq = self._kick_seq[link]
            if seq >= 0:
                self._kick_seq[link] = -1
                self.sim.at_reserved(
                    self._kick_time[link], seq, self._try_transmit, link
                )
            return
        self._try_transmit(link)

    def _bind_hot_path(self) -> None:
        """Compile the transmit/arrive hot path into closures.

        ``_try_transmit`` and ``_arrive`` together execute a few hundred
        thousand times per run and each read ~20 ``self`` attributes per
        call. Binding the link-state containers into closure cells turns
        every one of those dict lookups into a LOAD_DEREF, and pushing
        the closures (instead of freshly bound methods) into event
        tuples drops an allocation per scheduled event.

        Safe because every captured object is only ever item-mutated,
        never rebound (``sim``/``topo``/``net``/``routing`` are assigned
        once in ``__init__``). The lone exception is ``obs``: anything
        that rebinds ``fabric.obs`` (the recorder's install) must call
        ``_bind_hot_path()`` again so the closures pick up the new
        recorder. The closures are instance attributes shadowing
        nothing: they *are* the only implementation.
        """
        obs = self.obs
        fab = self
        sim = self.sim
        push = sim._push
        max_vcs = MAX_VCS
        wait_count = self._wait_count
        busy_until = self.busy_until
        waitqs = self._waitq
        caps = self.buf
        buf_used = self._buf_used
        blocked = self._blocked_since
        sat_ns = self.sat_ns
        rr_next = self._rr_next
        queued_bytes = self.queued_bytes
        bws = self.bw
        lats = self.lat
        cut_through = self._cut_through
        kick_seq = self._kick_seq
        kick_time = self._kick_time
        bytes_tx = self.bytes_tx
        busy_ns = self.busy_ns
        tx_done_notify = self._tx_done_notify
        notify_injected = self._notify_injected
        node_router = self.topo._node_router
        terminal_in = self.topo._terminal_in_l
        packet_size = self.net.packet_size
        route_fn = self.routing.route
        num_vcs = self.net.num_vcs
        link_down = self.link_down
        reroute = self._reroute
        pool = _POOL
        pool_max = _POOL_MAX
        make_deque = deque
        # Immutable, so one args tuple per link serves every kick event
        # ever pushed (saves an allocation per push).
        link_args = [(lid,) for lid in range(len(caps))]

        def inject(msg: Message) -> None:
            """Queue a message at its source NIC at the current sim time."""
            now = sim.now
            msg.inject_time = now
            link = terminal_in[msg.src_node]
            packets = packetize(msg, packet_size, link)
            fab.bytes_injected += msg.wire_size
            fab.packets_injected += len(packets)
            # Inlined _enqueue (keep in sync) with the hop-0 VC
            # constant-folded to 0: injection is a straight-line burst
            # of appends.
            waitq = waitqs[link]
            q = waitq.get(0)
            if q is None:
                q = waitq[0] = make_deque()
            append = q.append
            for pkt in packets:
                append(pkt)
                wait_count[link] += 1
                queued_bytes[link] += pkt.size
                if busy_until[link] > now:
                    seq = kick_seq[link]
                    if seq >= 0:
                        kick_seq[link] = -1
                        # kick_time is the busy end > now: at_reserved's
                        # guard cannot fire, so push directly.
                        push((kick_time[link], seq, try_transmit, link_args[link]))
                    continue
                try_transmit(link)

        def try_transmit(link: int) -> None:
            if wait_count[link] == 0:
                return
            now = sim.now
            if busy_until[link] > now:
                return

            waitq = waitqs[link]
            cap = caps[link]
            base = link * max_vcs

            # Round-robin VC arbitration: first VC (>= the pointer,
            # cyclic) whose head packet fits in its downstream buffer
            # wins. Links with a single active VC (all terminal links,
            # most others) take the allocation-free fast path.
            chosen_vc = -1
            pkt = None
            if len(waitq) == 1:
                # VC 0 probe first (terminal links and first router hops
                # — the bulk); fall back to walking the sole entry.
                q = waitq.get(0)
                if q is None:
                    for vc, q in waitq.items():  # sole entry
                        break
                else:
                    vc = 0
                if not q:
                    return
                head = q[0]
                used = buf_used[base + vc]
                if used + head.size <= cap:
                    chosen_vc = vc
                    pkt = head
                elif obs is not None:
                    obs.on_buffer_full(now, link, vc, used, cap)
            else:
                # Allocation-free cyclic scan from the pointer: visits
                # VCs in exactly the order the old sorted rank list did,
                # so the winner and the obs on_buffer_full sequence are
                # unchanged.
                start = rr_next[link]
                if start >= max_vcs:
                    start = 0
                get = waitq.get
                remaining = len(waitq)
                any_waiting = False
                vc = start
                for _ in range(max_vcs):
                    q = get(vc)
                    if q is not None:
                        if q:
                            any_waiting = True
                            head = q[0]
                            used = buf_used[base + vc]
                            if used + head.size <= cap:
                                chosen_vc = vc
                                pkt = head
                                break
                            if obs is not None:
                                obs.on_buffer_full(now, link, vc, used, cap)
                        remaining -= 1
                        if not remaining:
                            break
                    vc += 1
                    if vc == max_vcs:
                        vc = 0
                if not any_waiting:
                    return

            if pkt is None:
                # Stalled on credits alone: open a saturation interval.
                if blocked[link] < 0.0:
                    blocked[link] = now
                    if obs is not None:
                        obs.on_stall_onset(now, link)
                return

            since = blocked[link]
            if since >= 0.0:
                sat_ns[link] += now - since
                blocked[link] = -1.0
                if obs is not None:
                    obs.on_stall_clear(now, link, now - since)

            q.popleft()  # q is the chosen VC's deque on every path here
            wait_count[link] -= 1
            rr_next[link] = chosen_vc + 1
            size = pkt.size
            queued_bytes[link] -= size

            route = pkt.route
            route_len = len(route)
            hop = pkt.hop
            if hop > 0:
                # Credit return: release the input buffer and kick
                # upstream. The kick is elided when it could only hit
                # try_transmit's early-outs (idle upstream queue, or
                # serialiser mid-burst).
                prev = route[hop - 1]
                pvc = 0 if hop == 1 or hop == route_len else hop - 2
                buf_used[prev * max_vcs + pvc] -= size
                if wait_count[prev] and busy_until[prev] <= now:
                    try_transmit(prev)

            buf_used[
                base + (0 if hop == 0 or hop == route_len - 1 else hop - 1)
            ] += size
            duration = size / bws[link]
            end = now + duration
            lat = lats[link]
            if cut_through:
                # Virtual cut-through: the transmission cannot *finish*
                # before the packet's tail has streamed in from
                # upstream, but its header moves on after just the hop
                # latency.
                if pkt.tail_time > end:
                    end = pkt.tail_time
                arrival = (
                    end + lat
                    if (route_len > 1 and hop == route_len - 1)
                    else now + lat
                )
            else:
                arrival = end + lat
            pkt.tail_time = end + lat
            busy_until[link] = end
            busy_ns[link] += end - now
            bytes_tx[link] += size

            # Event pushes bypass Simulator.at (one frame per event
            # saved on the hottest schedule sites): `end` and `arrival`
            # are >= now by construction, and the explicit seq
            # arithmetic below assigns exactly the sequence numbers
            # at()/reserve_seq() would have.
            seq = sim._seq
            last_inject = hop == 0 and pkt.last
            if last_inject and arrival != end:
                # Fold the injected-notification into the completion
                # slot: one combined event replaces the kick + notify
                # pair. Safe because the pair occupied adjacent
                # (time, seq) slots at `end` with the arrival strictly
                # elsewhere, so no event could ever run between them.
                kick_seq[link] = -1
                push((end, seq, tx_done_notify, (link, pkt.msg)))
                push((arrival, seq + 1, arrive, (pkt,)))
                sim._seq = seq + 2
            elif wait_count[link] > 0:
                kick_seq[link] = -1
                push((end, seq, try_transmit, link_args[link]))
                push((arrival, seq + 1, arrive, (pkt,)))
                if last_inject:
                    push((end, seq + 2, notify_injected, (pkt.msg,)))
                    sim._seq = seq + 3
                else:
                    sim._seq = seq + 2
            else:
                # No waiters: elide the completion kick, reserving its
                # seq so a later _enqueue can materialise it in exactly
                # the eager schedule's slot (see _kick_seq in __init__).
                kick_seq[link] = seq
                kick_time[link] = end
                push((arrival, seq + 1, arrive, (pkt,)))
                if last_inject:
                    push((end, seq + 2, notify_injected, (pkt.msg,)))
                    sim._seq = seq + 3
                else:
                    sim._seq = seq + 2

        def arrive(pkt: Packet) -> None:
            hop = pkt.hop + 1
            pkt.hop = hop
            route = pkt.route
            msg = pkt.msg

            if hop == 1 and len(route) == 1:
                # At the source router: let the routing policy fill in
                # the rest.
                src_router = node_router[msg.src_node]
                rest = route_fn(fab, src_router, msg.dst_node, pkt.size)
                rr_hops = len(rest) - 1
                if rr_hops > num_vcs:
                    raise RuntimeError(
                        f"route needs {rr_hops} VCs but only "
                        f"{num_vcs} configured"
                    )
                route.extend(rest)

            route_len = len(route)
            if hop == route_len:
                # Crossed the terminal-out link: the node consumed the
                # packet.
                last = route[-1]
                size = pkt.size
                now = sim.now
                buf_used[last * max_vcs] -= size
                if wait_count[last] and busy_until[last] <= now:
                    try_transmit(last)
                fab.packets_delivered += 1
                fab.bytes_delivered += size
                msg.arrived_bytes += size
                msg.hop_sum += route_len - 2
                # The packet is dead: nothing queues, schedules, or
                # holds it past this point, so it can go back to the
                # free list before the delivery callback (which may
                # inject new messages that immediately recycle it).
                # Inlined release_packet (keep in sync).
                if len(pool) < pool_max:
                    pkt.msg = None  # don't pin the message alive
                    pool.append(pkt)
                if msg.arrived_bytes >= msg.wire_size:
                    msg.delivered_time = now
                    fab.messages_delivered += 1
                    if msg.on_delivered is not None:
                        msg.on_delivered(msg, now)
                return

            # Inlined _enqueue (keep in sync): one call frame per
            # forwarded hop is measurable at packet-event rates.
            link = route[hop]
            if link_down[link]:
                # The next channel died after this route was computed:
                # re-route from the router the packet is sitting on.
                reroute(pkt)
                return
            vc = hop - 1 if hop < route_len - 1 else 0  # hop >= 1 here
            waitq = waitqs[link]
            q = waitq.get(vc)
            if q is None:
                q = waitq[vc] = make_deque()
            q.append(pkt)
            wait_count[link] += 1
            queued_bytes[link] += pkt.size
            if busy_until[link] > sim.now:
                seq = kick_seq[link]
                if seq >= 0:
                    kick_seq[link] = -1
                    # kick_time >= busy end > now: at_reserved's guard
                    # cannot fire, so push directly.
                    push((kick_time[link], seq, try_transmit, link_args[link]))
                return
            try_transmit(link)

        self.inject: Callable[[Message], None] = inject
        self._try_transmit: Callable[[int], None] = try_transmit
        self._arrive: Callable[[Packet], None] = arrive

    def _tx_done_notify(self, link: int, msg: Message) -> None:
        """Completion kick + injected-notification folded into one event."""
        self._try_transmit(link)
        now = self.sim.now
        msg.injected_time = now
        if msg.on_injected is not None:
            msg.on_injected(msg, now)

    def _notify_injected(self, msg: Message) -> None:
        msg.injected_time = self.sim.now
        if msg.on_injected is not None:
            msg.on_injected(msg, self.sim.now)

