"""Array-state flow fabric: the vectorized production twin of
:class:`~repro.flow.fabric.FlowFabric`.

Same fluid model, same event semantics, same metric surface — but the
per-flow/per-unit object graph is replaced by slot-indexed parallel
state plus an *incremental* unit→link CSR, so the per-update cost no
longer rebuilds the incidence from ``_Unit`` objects on every solve:

* Per-link state (``_tx``/``_load``/``sat_ns``) lives in numpy arrays;
  ledger and byte scatter run as fancy-index accumulation over each
  unit's pre-built ``(cols, wgts)`` columns (from
  :meth:`~repro.flow.routes.FlowRouteModel.entry_arrays`), or as one
  ``np.subtract.at`` over the live CSR rows when the active set is
  large.
* Link aggregates (weight sum, unit count, user lists, distinct-flow
  crossings) are maintained at admission/finish, so a solve starts
  from dict copies instead of an O(active nnz) rebuild.
* The CSR itself (``cols``/``wgts``/owning unit/live mask) is appended
  at admission and tombstoned at finish, with amortised compaction
  once dead columns outnumber live ones — solve and settle above the
  adaptive dispatch floor run bincount/scatter over it directly.
* Transmitted-byte and hop/latency/nonmin accounting is *deferred*:
  settle accumulates one scalar (bytes moved) per unit, and the
  per-link scatter happens once at flow finish (and at
  :meth:`drain_saturation`) instead of every settle interval.
* Updates that change nothing skip the solve outright; a membership
  delta whose links are disjoint from every staying flow keeps the
  staying rates (max-min allocations are component-local) and solves
  only the admitted flows against full capacity.

Equivalence with the object fabric: the pending-load ledger that the
UGAL spill emulation reads is updated with the object fabric's
per-element operations in the same order; rates, saturation clocks and
byte counters differ only in float accumulation order (deferred
flushes reassociate ``w*(m1+m2)`` vs ``w*m1 + w*m2``; incremental
weight aggregates carry subtraction residue a from-scratch rebuild
would not; the disjoint-delta solve above accumulates its own base
rate). On the differential harness's grids
(``tests/integration/test_flow_batch_equivalence.py``) results agree
to relative error below ``1e-9``, but not on every cell: in the
benchmark suite's seed-1 stream, epoch cell ``CR-0+FB-1+AMG-2``
(``adp``) gives CR-0 a makespan of 32592.15 ns on the object fabric
and 32591.65 ns here. A one-ulp difference in an injection time grows
into a 248 ns difference in one message's finish time, so the ledger
is not the only state that feeds a discrete decision: event order and
the 0.5-byte completion threshold do too. DESIGN.md §14 records the
measurement and what is known of its cause.
Within one fabric choice, results are bit-identical across schedulers
and worker counts: all bookkeeping is driven by the simulator's total
``(time, seq)`` order.

The fabric knob (``REPRO_FLOW_FABRIC`` / ``fabric=`` on
:func:`~repro.flow.fabric.make_flow_fabric`) is excluded from the exec
cache identity like the solver knob;
:data:`~repro.exec.plan.CODE_SALT` was bumped when the default flipped
to ``array``.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.config import NetworkParams
from repro.engine.simulator import Simulator
from repro.flow.routes import FlowParams, flow_route_model
from repro.flow.solver import SAT_RTOL, VECTOR_MIN_UNITS, _BOTTLENECK_RTOL, _W_EPS
from repro.network.packet import Message
from repro.topology.dragonfly import Dragonfly

__all__ = ["ArrayFlowFabric"]

#: Completion threshold, identical to the object fabric.
_DONE_BYTES = 0.5


class ArrayFlowFabric:
    """Flow-level network over slot-indexed array state.

    Duck-types :class:`~repro.flow.fabric.FlowFabric` (same
    constructor shape, same public counters/methods), so
    ``run_single(backend="flow")`` can swap it in behind
    :func:`~repro.flow.fabric.make_flow_fabric`.
    """

    def __init__(
        self,
        sim: Simulator,
        topo: Dragonfly,
        net: NetworkParams,
        routing: str,
        params: FlowParams | None = None,
        solver: str | None = None,
        vec_min_units: int = VECTOR_MIN_UNITS,
    ) -> None:
        self.sim = sim
        self.topo = topo
        self.net = net
        self.params = params if params is not None else FlowParams()
        self.routes = flow_route_model(topo, net, routing, self.params)
        #: Kept for surface parity with the object fabric; the array
        #: fabric's solve is built in (incremental small path + CSR
        #: large path), so the solver knob has no effect here.
        self.solver = solver
        #: Adaptive dispatch floor for the CSR settle/solve paths; the
        #: same break-even as the standalone vector solver. Tests pin
        #: it to 0 to force the vector paths at every size.
        self._vec_min = vec_min_units

        n_links = topo.num_links
        self._n_links = n_links
        bw_arr, lat_arr, _buf = topo.link_profiles(net)
        self._bw_np = np.asarray(bw_arr, dtype=np.float64)
        self.bw: list[float] = bw_arr.tolist()
        self.lat: list[float] = (lat_arr + net.router_delay_ns).tolist()
        #: Per-link fill thresholds, hoisted out of the solve setup
        #: (same products the scalar solver computes per round).
        self._bw_btol: list[float] = [
            b * _BOTTLENECK_RTOL for b in self.bw
        ]
        self._bw_stol: list[float] = [b * SAT_RTOL for b in self.bw]

        self.bytes_tx: list[int] = [0] * n_links
        #: Deferred float byte counters, flushed per flow. Plain lists:
        #: the hot paths touch a handful of links per unit, where a
        #: Python indexed loop beats numpy's per-call dispatch by ~5x
        #: (the CSR paths go vectorized only past ``vec_min_units``).
        self._tx: list[float] = [0.0] * n_links
        self.sat_ns: list[float] = [0.0] * n_links
        self.queued_bytes: list[int] = [0] * n_links
        #: Pending-byte ledger (UGAL input). Only maintained on
        #: adaptive cells — ``min`` routing never reads it, so the
        #: bookkeeping is skipped wholesale there.
        self._load: list[float] = [0.0] * n_links
        self._adaptive = routing == "adp"

        self.packets_injected = 0
        self.packets_delivered = 0
        self.messages_delivered = 0
        self.bytes_injected = 0
        self.bytes_delivered = 0
        self.faults_applied = 0
        self.packets_rerouted = 0
        self.obs = None

        # --- slot-indexed flow state (slots are append-only) ---------
        self._f_msg: list[Message | None] = []
        self._f_units: list[tuple[int, ...]] = []
        self._f_remaining: list[float] = []
        self._f_rate: list[float] = []
        self._f_hop_b: list[float] = []
        self._f_lat_b: list[float] = []
        self._f_nonmin_b: list[float] = []
        #: Distinct link ids the flow crosses (for the crossings
        #: aggregate and the disjoint-delta check).
        self._f_links: list[tuple[int, ...]] = []

        # --- slot-indexed unit state ---------------------------------
        self._u_cols: list = []  # np.intp columns (shared, read-only)
        self._u_wgts: list = []  # np.float64 weights (shared)
        self._u_links: list[tuple[tuple[int, float], ...]] = []
        self._u_hops: list[float] = []
        self._u_lat: list[float] = []
        self._u_nonmin: list[float] = []
        self._u_rate: list[float] = []
        #: Deferred byte counter: bytes this unit moved since its last
        #: flush (finish or drain_saturation).
        self._u_moved: list[float] = []
        #: Pending-ledger share still attributed to this unit.
        self._u_left: list[float] = []
        #: ``(start, end)`` span of the unit's columns in the CSR.
        self._u_span: list[tuple[int, int]] = []

        # --- incremental link aggregates (admitted units only) -------
        #: link -> one flat record holding both the maintained
        #: aggregates and the solve's per-call scratch fields, so a
        #: solve resets three slots per link instead of rebuilding a
        #: copy, and insert/finish/solve all pay a single dict probe:
        #:   [0] fill weight (scratch)   [1] fill residual (scratch)
        #:   [2] bw * bottleneck_rtol    [3] fill count (scratch)
        #:   [4] lid                     [5] bw * sat_rtol
        #:   [6] sat flagged (scratch)   [7] weight sum (maintained)
        #:   [8] bw                      [9] unit count (maintained)
        #:   [10] user unit slots as an insertion-ordered set (dict
        #:        keys -> None), so finish removes in O(1).
        self._lrec: dict[int, list] = {}
        self._lx: dict[int, int] = {}  # link -> distinct-flow crossings

        # --- incremental CSR (admitted units' columns) ---------------
        cap0 = 256
        self._csr_cols = np.empty(cap0, dtype=np.intp)
        self._csr_wgts = np.empty(cap0, dtype=np.float64)
        self._csr_unit = np.empty(cap0, dtype=np.intp)
        self._csr_live = np.zeros(cap0, dtype=bool)
        self._csr_n = 0
        self._csr_dead = 0

        # uslot-indexed numpy scratch for the large paths (grown with
        # the slot count; contents are transient per call).
        self._scr_f8 = np.zeros(cap0, dtype=np.float64)
        self._scr_ip = np.zeros(cap0, dtype=np.intp)
        #: link-id -> active-local index scratch for the large solve
        #: (only entries for currently crossed links are ever read).
        self._scr_link = np.zeros(n_links, dtype=np.intp)

        self._act_flows: list[int] = []
        self._act_units: list[int] = []
        self._pending: list[int] = []
        self._nic_queue: dict[int, deque[int]] = {}
        self._nic_busy: set[int] = set()
        self._saturated: list[int] = []
        self._sat_set: set[int] = set()
        self._last_t = 0.0
        self._in_update = False
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
        routes = self.routes
        if self._adaptive:
            entries = routes.spill_fast(
                msg.src_node, msg.dst_node, size, self._load
            )
        else:
            entries = (routes.entry(msg.src_node, msg.dst_node),)
        msg.num_packets = -(-size // self.net.packet_size)
        self.bytes_injected += size
        self.packets_injected += msg.num_packets
        self._routed_bytes += size

        share = size / len(entries)
        uslots = []
        load = self._load
        adaptive = self._adaptive
        lid_seen: set[int] = set()
        for e in entries:
            cols, wgts, lids = routes.entry_arrays(e)
            us = len(self._u_cols)
            self._u_cols.append(cols)
            self._u_wgts.append(wgts)
            self._u_links.append(e.links)
            self._u_hops.append(e.rr_hops)
            self._u_lat.append(e.latency_ns)
            self._u_nonmin.append(e.nonmin_fraction)
            self._u_rate.append(0.0)
            self._u_moved.append(0.0)
            self._u_left.append(share)
            self._u_span.append((0, 0))
            uslots.append(us)
            lid_seen.update(lids)
            if adaptive:
                # Same per-element ledger add as the object fabric's
                # unit loop — this feeds UGAL and must stay bit-exact.
                for lid, w in e.links:
                    load[lid] += w * share
        if len(self._u_cols) > len(self._scr_f8):
            grow = max(len(self._u_cols), 2 * len(self._scr_f8))
            self._scr_f8 = np.zeros(grow, dtype=np.float64)
            self._scr_ip = np.zeros(grow, dtype=np.intp)

        fs = len(self._f_msg)
        self._f_msg.append(msg)
        self._f_units.append(tuple(uslots))
        self._f_remaining.append(float(size))
        self._f_rate.append(0.0)
        self._f_hop_b.append(0.0)
        self._f_lat_b.append(0.0)
        self._f_nonmin_b.append(0.0)
        self._f_links.append(tuple(lid_seen))

        src = msg.src_node
        if src in self._nic_busy:
            self._nic_queue.setdefault(src, deque()).append(fs)
            return
        self._nic_busy.add(src)
        self._pending.append(fs)
        if not self._in_update:
            self._request_wake(self._admission_time(now))

    def drain_saturation(self) -> None:
        """Settle progress to now and finalise the integer byte counters."""
        self._settle(self.sim.now)
        # Flush every active unit's deferred bytes so _tx is complete.
        for fs in self._act_flows:
            self._flush(fs)
        self.bytes_tx = (
            np.rint(np.asarray(self._tx)).astype(np.int64).tolist()
        )

    @property
    def nonminimal_fraction(self) -> float:
        """Byte-weighted non-minimal fraction over all injected bytes."""
        if self._routed_bytes <= 0.0:
            return 0.0
        return self._nonmin_bytes / self._routed_bytes

    # ------------------------------------------------------------------
    # wake scheduling (identical to the object fabric)
    # ------------------------------------------------------------------
    def _admission_time(self, now: float) -> float:
        epoch = self.params.epoch_ns
        if epoch <= 0.0:
            return now
        return max(now, math.ceil(now / epoch - 1e-9) * epoch)

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
    def _flush(self, fs: int) -> None:
        """Scatter a flow's deferred per-unit bytes into the link and
        hop/latency/nonmin accumulators (idempotent)."""
        u_moved = self._u_moved
        u_links = self._u_links
        tx = self._tx
        hop_b = self._f_hop_b[fs]
        lat_b = self._f_lat_b[fs]
        nm_b = self._f_nonmin_b[fs]
        for us in self._f_units[fs]:
            m = u_moved[us]
            if m == 0.0:
                continue
            u_moved[us] = 0.0
            for lid, w in u_links[us]:
                tx[lid] += w * m
            hop_b += self._u_hops[us] * m
            lat_b += self._u_lat[us] * m
            nm = self._u_nonmin[us]
            if nm:
                nm_b += nm * m
        self._f_hop_b[fs] = hop_b
        self._f_lat_b[fs] = lat_b
        self._f_nonmin_b[fs] = nm_b

    def _settle(self, now: float) -> None:
        """Integrate flow progress (and bottleneck time) up to ``now``.

        Per-element arithmetic matches the object fabric exactly:
        ``remaining -= raw * scale`` with ``scale = remaining / raw``
        when capped, the ledger decrement capped by the unit's
        attributed share. Byte movement is accumulated per unit and
        flushed later (see :meth:`_flush`).
        """
        dt = now - self._last_t
        self._last_t = now
        if dt <= 0.0:
            return
        act = self._act_flows
        if act:
            if self._adaptive and len(self._act_units) >= self._vec_min:
                self._settle_vec(dt)
            else:
                f_rate = self._f_rate
                f_rem = self._f_remaining
                f_units = self._f_units
                u_rate = self._u_rate
                u_moved = self._u_moved
                u_left = self._u_left
                u_links = self._u_links
                adaptive = self._adaptive
                load = self._load
                for fs in act:
                    rate = f_rate[fs]
                    if rate <= 0.0:
                        continue
                    raw = rate * dt
                    rem = f_rem[fs]
                    scale = 1.0
                    if raw > rem:
                        scale = rem / raw
                    f_rem[fs] = rem - raw * scale
                    for us in f_units[fs]:
                        moved = u_rate[us] * dt * scale
                        if moved <= 0.0:
                            continue
                        u_moved[us] += moved
                        if adaptive:
                            left = u_left[us]
                            if moved < left:
                                dec = moved
                                u_left[us] = left - moved
                            else:
                                dec = left
                                u_left[us] = 0.0
                            if dec != 0.0:
                                for lid, w in u_links[us]:
                                    load[lid] -= w * dec
            if self._saturated:
                sat_ns = self.sat_ns
                for lid in self._saturated:
                    sat_ns[lid] += dt

    def _settle_vec(self, dt: float) -> None:
        """Vectorized settle: gather rates, cap per flow, scatter the
        capped ledger decrement over the live CSR in one
        ``np.subtract.at``.

        ``subtract.at`` applies its operands sequentially in column
        order; live CSR columns sit in admission order (appends at
        admit, whole-unit tombstones at finish, order-preserving
        compaction), which is exactly the unit-by-unit order of the
        object fabric's settle loop — so the ledger stays bit-exact.
        """
        act = self._act_flows
        act_u = self._act_units
        n_f = len(act)
        n_u = len(act_u)
        f_rate = self._f_rate
        f_rem = self._f_remaining
        rate_f = np.fromiter((f_rate[fs] for fs in act), np.float64, n_f)
        rem_f = np.fromiter((f_rem[fs] for fs in act), np.float64, n_f)
        raw = rate_f * dt
        capped = raw > rem_f
        scale_f = np.where(capped, rem_f / np.where(raw > 0.0, raw, 1.0), 1.0)
        # Guard rate<=0 rows: the scalar loop skips them before the cap.
        scale_f[rate_f <= 0.0] = 0.0
        rem_new = rem_f - raw * scale_f
        for i, fs in enumerate(act):
            if rate_f[i] > 0.0:
                f_rem[fs] = rem_new[i]

        # Per-unit moved bytes and capped ledger decrement.
        u_rate = self._u_rate
        u_left = self._u_left
        u_moved = self._u_moved
        f_units = self._f_units
        # unit -> owning active-flow row
        uscale = np.empty(n_u, dtype=np.float64)
        k = 0
        for i, fs in enumerate(act):
            s = scale_f[i]
            for _us in f_units[fs]:
                uscale[k] = s
                k += 1
        rate_u = np.fromiter((u_rate[us] for us in act_u), np.float64, n_u)
        left_u = np.fromiter((u_left[us] for us in act_u), np.float64, n_u)
        moved = rate_u * dt * uscale
        pos = moved > 0.0
        moved[~pos] = 0.0
        take = pos & (moved < left_u)
        dec = np.where(take, moved, np.where(pos, left_u, 0.0))
        left_new = np.where(take, left_u - moved, np.where(pos, 0.0, left_u))
        for i, us in enumerate(act_u):
            if pos[i]:
                u_moved[us] += moved[i]
                u_left[us] = left_new[i]

        # Scatter dec over the live CSR (admission order, sequential).
        # ``subtract.at`` on a faithful copy of the list ledger keeps
        # the per-element op order — and the float values — bit-exact
        # with the scalar loop; the round-trip through float64 is the
        # identity.
        scr = self._scr_f8
        scr[np.fromiter(act_u, np.intp, n_u)] = dec
        n = self._csr_n
        live = np.nonzero(self._csr_live[:n])[0]
        cols = self._csr_cols[live]
        vals = self._csr_wgts[live] * scr[self._csr_unit[live]]
        ld = np.asarray(self._load)
        np.subtract.at(ld, cols, vals)
        self._load = ld.tolist()

    def _update(self) -> None:
        """Settle, fire completions, admit arrivals, re-solve, re-arm."""
        self._in_update = True
        try:
            now = self.sim.now
            self._settle(now)

            f_rem = self._f_remaining
            finished = [
                fs for fs in self._act_flows if f_rem[fs] < _DONE_BYTES
            ]
            departed: set[int] = set()
            if finished:
                self._act_flows = [
                    fs for fs in self._act_flows if f_rem[fs] >= _DONE_BYTES
                ]
                for fs in finished:
                    self._finish(fs, now, departed)

            # Completion callbacks may inject follow-on messages; admit
            # everything pending in arrival order before solving.
            admitted: list[int] = []
            while self._pending:
                batch = self._pending
                self._pending = []
                admitted.extend(batch)
                self._act_flows.extend(batch)

            if finished or admitted:
                self._apply_delta(finished, admitted, departed)

            nxt = math.inf
            f_rate = self._f_rate
            for fs in self._act_flows:
                rate = f_rate[fs]
                if rate > 0.0:
                    t = now + f_rem[fs] / rate
                    if t < nxt:
                        nxt = t
            if nxt < math.inf:
                if nxt <= now:
                    # Float collapse at huge timestamps: bump one ulp so
                    # the wake makes progress (see the object fabric).
                    nxt = math.nextafter(now, math.inf)
                self._request_wake(nxt)
        finally:
            self._in_update = False

    def _apply_delta(
        self, finished: list[int], admitted: list[int], departed: set[int]
    ) -> None:
        """Fold a membership delta into the aggregates/CSR and re-rate.

        The staying flows keep their rates when every departed and
        admitted link is disjoint from them (max-min allocations are
        component-local); only the admitted component is then solved,
        against full capacity. Any overlap falls back to a full solve.
        """
        lrec = self._lrec
        # Departed links still crossed by a staying flow couple the
        # delta to the stay set; links nobody crosses any more leave
        # the saturated set (they are no longer in the solve at all).
        delta_shared = False
        for lid in departed:
            if lid in lrec:
                delta_shared = True
            elif lid in self._sat_set:
                self._sat_set.discard(lid)
                self._saturated.remove(lid)
        if not delta_shared:
            f_links = self._f_links
            for fs in admitted:
                for lid in f_links[fs]:
                    if lid in lrec:
                        delta_shared = True
                        break
                if delta_shared:
                    break
        for fs in admitted:
            self._insert(fs)
        f_units = self._f_units
        self._act_units = [
            us for fs in self._act_flows for us in f_units[fs]
        ]

        if not self._act_flows:
            self._set_saturated([])
            return
        if not delta_shared:
            if admitted:
                self._solve_subset(admitted)
            return
        if len(self._act_units) >= self._vec_min:
            self._solve_large()
        else:
            self._solve_small()

    def _insert(self, fs: int) -> None:
        """Add an admitted flow's units to the aggregates and CSR."""
        lrec = self._lrec
        btol = self._bw_btol
        stol = self._bw_stol
        bw = self.bw
        u_links = self._u_links
        for us in self._f_units[fs]:
            for lid, w in u_links[us]:
                rec = lrec.get(lid)
                if rec is not None:
                    rec[7] += w
                    rec[9] += 1
                    rec[10][us] = None
                else:
                    lrec[lid] = [
                        0.0, 0.0, btol[lid], 0, lid, stol[lid],
                        False, w, bw[lid], 1, {us: None},
                    ]
            self._csr_append(us)
        lx = self._lx
        for lid in self._f_links[fs]:
            lx[lid] = lx.get(lid, 0) + 1

    def _csr_append(self, us: int) -> None:
        cols = self._u_cols[us]
        k = len(cols)
        n = self._csr_n
        cap = len(self._csr_cols)
        if n + k > cap:
            new_cap = max(n + k, 2 * cap)
            for name in ("_csr_cols", "_csr_wgts", "_csr_unit", "_csr_live"):
                old = getattr(self, name)
                buf = np.zeros(new_cap, dtype=old.dtype)
                buf[:n] = old[:n]
                setattr(self, name, buf)
        self._csr_cols[n : n + k] = cols
        self._csr_wgts[n : n + k] = self._u_wgts[us]
        self._csr_unit[n : n + k] = us
        self._csr_live[n : n + k] = True
        self._u_span[us] = (n, n + k)
        self._csr_n = n + k

    def _csr_compact(self) -> None:
        """Drop tombstoned columns, preserving admission order."""
        n = self._csr_n
        live = self._csr_live[:n]
        m = int(np.count_nonzero(live))
        self._csr_cols[:m] = self._csr_cols[:n][live]
        self._csr_wgts[:m] = self._csr_wgts[:n][live]
        unit = self._csr_unit[:n][live]
        self._csr_unit[:m] = unit
        self._csr_live[:m] = True
        self._csr_live[m:n] = False
        self._csr_n = m
        self._csr_dead = 0
        # Re-derive the per-unit spans from the compacted run bounds.
        if m:
            bounds = np.flatnonzero(np.diff(unit)) + 1
            starts = [0, *bounds.tolist()]
            ends = [*bounds.tolist(), m]
            u_span = self._u_span
            for s, e in zip(starts, ends):
                u_span[int(unit[s])] = (s, e)

    def _finish(self, fs: int, now: float, departed: set[int]) -> None:
        """The flow drained: last byte has left the source NIC."""
        msg = self._f_msg[fs]
        assert msg is not None
        self._flush(fs)
        u_left = self._u_left
        u_links = self._u_links
        f_units = self._f_units[fs]
        if self._adaptive:
            # Ledger reconciliation — same per-element op order as the
            # object fabric's unit loop (bit-exact, feeds UGAL).
            load = self._load
            for us in f_units:
                left = u_left[us]
                if left > 0.0:
                    u_left[us] = 0.0
                    for lid, w in u_links[us]:
                        load[lid] -= w * left
        lrec = self._lrec
        for us in f_units:
            for lid, w in u_links[us]:
                rec = lrec[lid]
                c = rec[9] - 1
                if c == 0:
                    del lrec[lid]
                else:
                    rec[9] = c
                    rec[7] -= w
                    del rec[10][us]
            s, e = self._u_span[us]
            self._csr_live[s:e] = False
            self._csr_dead += e - s
        lx = self._lx
        for lid in self._f_links[fs]:
            x = lx[lid] - 1
            if x == 0:
                del lx[lid]
            else:
                lx[lid] = x
            departed.add(lid)
        # Compact when the dead majority is also big enough to be worth
        # the pass — at tiny occupancies the dead>live rule alone would
        # thrash a compaction on nearly every finish.
        dead = self._csr_dead
        if dead > 128 and dead > self._csr_n - dead:
            self._csr_compact()

        src = msg.src_node
        queue = self._nic_queue.get(src)
        if queue:
            # Instant NIC turnaround: the successor starts at the exact
            # finish time, picked up by this update's admission loop.
            self._pending.append(queue.popleft())
        else:
            self._nic_busy.discard(src)
        msg.injected_time = now
        if msg.on_injected is not None:
            msg.on_injected(msg, now)
        wire = float(msg.wire_size)
        latency = self._f_lat_b[fs] / wire if wire > 0.0 else 0.0
        self.sim.at(now + latency, self._deliver, fs)

    def _deliver(self, fs: int) -> None:
        msg = self._f_msg[fs]
        assert msg is not None
        now = self.sim.now
        size = msg.wire_size
        wire = float(size)
        msg.arrived_bytes = size
        msg.hop_sum = (self._f_hop_b[fs] / wire) * msg.num_packets
        msg.delivered_time = now
        self.packets_delivered += msg.num_packets
        self.bytes_delivered += size
        self.messages_delivered += 1
        self._nonmin_bytes += self._f_nonmin_b[fs]
        self._f_msg[fs] = None  # release the message reference
        if msg.on_delivered is not None:
            msg.on_delivered(msg, now)

    # ------------------------------------------------------------------
    # max-min solve (incremental)
    # ------------------------------------------------------------------
    def _set_saturated(self, sat: list[int]) -> None:
        self._saturated = sat
        self._sat_set = set(sat)

    def _solve_small(self) -> None:
        """Progressive filling from copies of the maintained aggregates
        (the incremental twin of ``solve_scalar``).

        Per-link fill state lives in the maintained ``_lrec`` records
        (see ``__init__``): a solve resets the three scratch slots
        from the maintained aggregates instead of rebuilding dict
        copies, and works down one ``alive`` list that is compacted
        once retired links dominate it — later rounds scan only links
        still in play, and the inner passes do list indexing instead
        of three dict probes per link. The arithmetic (values,
        per-element order) is identical to the plain dict fill, so
        results are bit-equal."""
        act_units = self._act_units
        u_rate = self._u_rate
        u_links = self._u_links
        for us in act_units:
            u_rate[us] = -1.0  # sentinel: not yet frozen
        n_unfrozen = len(act_units)
        recs = self._lrec
        alive = list(recs.values())
        for rec in alive:
            rec[0] = rec[7]
            rec[1] = rec[8]
            rec[3] = rec[9]
            rec[6] = False

        base = 0.0
        n_dead = 0
        # Links whose residual ever dropped to the saturation band;
        # residuals are monotone during the fill, so collecting them at
        # first crossing is equivalent to the final-residual scan (the
        # saturation band is wider than the bottleneck band).
        sat_cand: list[list] = []
        while n_unfrozen:
            step = math.inf
            for rec in alive:
                wsum = rec[0]
                if wsum > _W_EPS:
                    t = rec[1] / wsum
                    if t < step:
                        step = t
            if step is math.inf:  # pragma: no cover - defensive
                break
            base += step
            bottleneck: list[list] = []
            for rec in alive:
                wsum = rec[0]
                if wsum > _W_EPS:
                    r = rec[1] - wsum * step
                    rec[1] = r
                    if r <= rec[5]:
                        if not rec[6]:
                            rec[6] = True
                            sat_cand.append(rec)
                        if r <= rec[2]:
                            bottleneck.append(rec)
            progressed = False
            for rec in bottleneck:
                for us in rec[10]:
                    if u_rate[us] < 0.0:
                        u_rate[us] = base
                        n_unfrozen -= 1
                        progressed = True
                        for l2, w2 in u_links[us]:
                            r2 = recs[l2]
                            r2[0] -= w2
                            c = r2[3] - 1
                            r2[3] = c
                            if c == 0:
                                # Retire by count, not float residue
                                # (see solve_scalar).
                                r2[0] = 0.0
                                n_dead += 1
            if not progressed:  # pragma: no cover - defensive
                break
            # Retired links (weight zeroed by count) can never re-gain
            # weight; once they are the majority, compact them out so
            # later rounds scan only links still in play. Rebuilding
            # every round would append each survivor per round — worse
            # than the scans it saves when attrition is slow.
            if n_dead * 2 > len(alive):
                alive = [rec for rec in alive if rec[0] > _W_EPS]
                n_dead = 0
        f_rate = self._f_rate
        f_units = self._f_units
        for fs in self._act_flows:
            rate = 0.0
            for us in f_units[fs]:
                r = u_rate[us]
                if r < 0.0:  # pragma: no cover - defensive
                    u_rate[us] = r = base
                rate += r
            f_rate[fs] = rate

        lx = self._lx
        sat = [rec[4] for rec in sat_cand if lx[rec[4]] >= 2]
        sat.sort()
        self._set_saturated(sat)

    def _solve_subset(self, admitted: list[int]) -> None:
        """Rate only the admitted flows (their links are disjoint from
        every staying flow, so the staying allocation is untouched).

        Newly saturated links are merged into the existing saturated
        set — disjointness guarantees no collision."""
        u_rate = self._u_rate
        u_links = self._u_links
        f_units = self._f_units
        weight: dict[int, float] = {}
        count: dict[int, int] = {}
        users: dict[int, list[int]] = {}
        crossings: dict[int, int] = {}
        n_unfrozen = 0
        for fs in admitted:
            seen: set[int] = set()
            for us in f_units[fs]:
                u_rate[us] = -1.0
                n_unfrozen += 1
                for lid, w in u_links[us]:
                    if lid in weight:
                        weight[lid] += w
                        count[lid] += 1
                        users[lid].append(us)
                    else:
                        weight[lid] = w
                        count[lid] = 1
                        users[lid] = [us]
                    if lid not in seen:
                        seen.add(lid)
                        crossings[lid] = crossings.get(lid, 0) + 1
        bw = self.bw
        link_ids = list(weight)
        residual = {lid: bw[lid] for lid in link_ids}

        base = 0.0
        while n_unfrozen:
            step = math.inf
            for lid in link_ids:
                wsum = weight[lid]
                if wsum > _W_EPS:
                    t = residual[lid] / wsum
                    if t < step:
                        step = t
            if step is math.inf:  # pragma: no cover - defensive
                break
            base += step
            bottleneck = []
            for lid in link_ids:
                wsum = weight[lid]
                if wsum > _W_EPS:
                    r = residual[lid] - wsum * step
                    residual[lid] = r
                    if r <= bw[lid] * _BOTTLENECK_RTOL:
                        bottleneck.append(lid)
            progressed = False
            for lid in bottleneck:
                for us in users[lid]:
                    if u_rate[us] < 0.0:
                        u_rate[us] = base
                        n_unfrozen -= 1
                        progressed = True
                        for l2, w2 in u_links[us]:
                            weight[l2] -= w2
                            c = count[l2] - 1
                            count[l2] = c
                            if c == 0:
                                weight[l2] = 0.0
            if not progressed:  # pragma: no cover - defensive
                break
        f_rate = self._f_rate
        for fs in admitted:
            rate = 0.0
            for us in f_units[fs]:
                r = u_rate[us]
                if r < 0.0:  # pragma: no cover - defensive
                    u_rate[us] = r = base
                rate += r
            f_rate[fs] = rate

        new_sat = [
            lid
            for lid in residual
            if crossings[lid] >= 2 and residual[lid] <= bw[lid] * SAT_RTOL
        ]
        if new_sat:
            self._set_saturated(sorted(self._saturated + new_sat))

    def _solve_large(self) -> None:
        """Vectorized progressive filling over the live CSR (the
        incremental twin of ``solve_vector``, in global link space)."""
        act_units = self._act_units
        n_act = len(act_units)
        au = np.fromiter(act_units, np.intp, n_act)
        if n_act == 1:
            # Closed form: one round, and a lone flow is never a
            # *contended* bottleneck.
            us = act_units[0]
            best = math.inf
            bw = self.bw
            for lid, w in self._u_links[us]:
                if w > _W_EPS:
                    t = bw[lid] / w
                    if t < best:
                        best = t
            self._u_rate[us] = 0.0 if best is math.inf else best
            fs = self._act_flows[0]
            self._f_rate[fs] = self._u_rate[us]
            self._set_saturated([])
            return

        n = self._csr_n
        live = np.nonzero(self._csr_live[:n])[0]
        cols = self._csr_cols[live]
        wgts = self._csr_wgts[live]
        loc = self._scr_ip
        loc[au] = np.arange(n_act, dtype=np.intp)
        rows = loc[self._csr_unit[live]]

        # Work in *active-local* link space: per-round arrays span only
        # the links currently crossed (``_lrec`` keys, admission order),
        # not the whole topology — the bincounts keep the same
        # accumulation order (CSR order), so the fill is bit-equal to
        # the global-space version.
        uniq = np.fromiter(self._lrec, np.intp, len(self._lrec))
        n_loc = len(uniq)
        lmap = self._scr_link
        lmap[uniq] = np.arange(n_loc, dtype=np.intp)
        lcols = lmap[cols]
        cap = self._bw_np[uniq]
        weight = np.bincount(lcols, weights=wgts, minlength=n_loc)
        count = np.bincount(lcols, minlength=n_loc)
        residual = cap.copy()
        rates = np.full(n_act, -1.0)
        unfrozen = np.ones(n_act, dtype=bool)

        base = 0.0
        while unfrozen.any():
            shared = weight > _W_EPS
            if not shared.any():  # pragma: no cover - defensive
                break
            step = float(np.min(residual[shared] / weight[shared]))
            if not math.isfinite(step):  # pragma: no cover - defensive
                break
            base += step
            residual[shared] = residual[shared] - weight[shared] * step
            bottleneck = shared & (residual <= cap * _BOTTLENECK_RTOL)
            if not bottleneck.any():  # pragma: no cover - defensive
                break
            hits = np.bincount(
                rows, weights=bottleneck[lcols], minlength=n_act
            ) > 0.0
            newly = unfrozen & hits
            if not newly.any():  # pragma: no cover - defensive
                break
            rates[newly] = base
            unfrozen &= ~newly
            sel = newly[rows]
            weight = weight - np.bincount(
                lcols[sel], weights=wgts[sel], minlength=n_loc
            )
            count = count - np.bincount(lcols[sel], minlength=n_loc)
            weight[count == 0] = 0.0

        u_rate = self._u_rate
        for i in range(n_act):
            r = rates[i]
            u_rate[act_units[i]] = base if r < 0.0 else float(r)
        f_rate = self._f_rate
        f_units = self._f_units
        for fs in self._act_flows:
            rate = 0.0
            for us in f_units[fs]:
                rate += u_rate[us]
            f_rate[fs] = rate

        lx = self._lx
        sat_loc = np.nonzero(residual <= cap * SAT_RTOL)[0]
        sat = sorted(
            lid for lid in map(int, uniq[sat_loc]) if lx[lid] >= 2
        )
        self._set_saturated(sat)
