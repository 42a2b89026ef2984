"""Deterministic path/weight model for the flow-level backend.

The packet backend routes every packet individually: minimal routing
picks one of up to eight minimum-hop candidates uniformly at random,
and adaptive (UGAL-L) weighs sampled minimal against sampled Valiant
candidates per packet. The flow backend replaces the per-packet
machinery with per-*message* equivalents:

* ``min``: each (source node, destination node) pair maps to a fixed
  aggregate — weight ``1/n`` on each of the ``n`` minimal candidates —
  exactly the uniform random spread of
  :class:`~repro.routing.minimal.MinimalRouting`, in expectation. A
  message of ``S`` wire bytes deposits ``w * S`` bytes on every link of
  weight ``w``.
* ``adp``: per pair, a fixed *candidate set* (all minimal candidates
  plus a bounded deterministic Valiant set) is enumerated once; at each
  message injection the fabric scores the candidates with the packet
  model's own UGAL-L rule — unloaded traversal time plus the first
  link's backlog scaled by hop count, Valiant costs inflated by
  :data:`~repro.routing.adaptive.NONMINIMAL_WEIGHT` and offset by
  :data:`~repro.routing.adaptive.MINIMAL_BIAS_NS` — and the whole
  message follows the winner. The decision is per message instead of
  per packet (a documented fidelity limit, DESIGN.md S16), but it
  preserves what the study measures: detours are taken exactly when
  minimal paths look congested.

Everything here is static given the topology, so entries and candidate
sets are memoised per (src_node, dst_node) pair, mirroring
:mod:`repro.routing.tables`.
"""

from __future__ import annotations

import functools
import math
from typing import Any, NamedTuple

import numpy as np

from repro.config import NetworkParams
from repro.routing.adaptive import MINIMAL_BIAS_NS, NONMINIMAL_WEIGHT
from repro.routing.tables import route_tables
from repro.topology.dragonfly import Dragonfly

__all__ = [
    "BACKEND_NAMES",
    "EPOCH_NS",
    "MAX_VALIANT",
    "FlowEntry",
    "FlowCandidate",
    "FlowRouteModel",
    "flow_route_model",
]

#: Valid values of the ``backend`` knob threaded through the drivers.
BACKEND_NAMES = ("packet", "flow")

#: Injection-emulation bound: the UGAL spill pattern stabilises within
#: a few dozen packets (the participation set stops growing once every
#: attractive port carries backlog), so longer messages reuse the
#: pattern of their first ``SPILL_QUANTA`` packets.
SPILL_QUANTA = 64


#: Rate-solve admission grid in simulated ns: flows injected while the
#: network is mid-epoch are admitted (and rates re-solved) at the next
#: multiple of this grid, coalescing bursts of injections into one
#: bottleneck solve (DESIGN.md S16).
EPOCH_NS = 500.0

#: Bound on the deterministic Valiant candidate set: intermediate groups
#: for inter-group pairs, intermediate routers for intra-group pairs.
MAX_VALIANT = 4


class FlowEntry(NamedTuple):
    """Aggregated route of one (src_node, dst_node) flow."""

    #: ``(link id, weight)`` pairs, sorted by link id. Terminal links
    #: carry weight 1 (every byte crosses them); router-to-router links
    #: carry the summed weight of the candidate paths using them.
    links: tuple[tuple[int, float], ...]
    #: Weighted end-to-end hop latency in ns (includes router delay),
    #: charged between injection completion and delivery.
    latency_ns: float
    #: Weighted router-to-router hop count (the packet model's
    #: ``route_len - 2``), per packet.
    rr_hops: float
    #: Fraction of the flow's bytes on non-minimal paths.
    nonmin_fraction: float
    #: Upper bound on the rate of any one unit on this route:
    #: ``min(bw / weight)`` over its links, as no unit can exceed any
    #: one of its links alone. The array fabric's fill leaves out links
    #: whose users' bounds cannot add up to their capacity.
    rate_bound: float


class FlowCandidate(NamedTuple):
    """One scoreable adaptive route: its entry plus the raw path."""

    entry: FlowEntry
    #: Router-to-router link ids, in traversal order — what the UGAL
    #: cost rule walks (terminals are common to every candidate).
    rr_path: tuple[int, ...]


class FlowRouteModel:
    """Memoised (src_node, dst_node) -> route structures."""

    def __init__(
        self,
        topo: Dragonfly,
        net: NetworkParams,
        routing: str,
    ) -> None:
        if routing not in ("min", "adp"):
            raise ValueError(f"unknown routing policy {routing!r}")
        self.topo = topo
        self.net = net
        self.routing = routing
        self.tables = route_tables(topo)
        bw, lat, _buf = topo.link_profiles(net)
        self.bw: list[float] = bw.tolist()
        #: Per-link hop latency including the router traversal delay,
        #: matching the packet fabric's ``lat`` table.
        self.lat: list[float] = (lat + net.router_delay_ns).tolist()
        self.packet_size = net.packet_size
        self._cache: dict[tuple[int, int], FlowEntry] = {}
        self._cand_cache: dict[
            tuple[int, int], tuple[FlowCandidate, ...]
        ] = {}
        #: (src, dst, size class) -> static UGAL scoring rows.
        self._scoring: dict[
            tuple[int, int, int],
            tuple[tuple[float, int, int, FlowEntry], ...],
        ] = {}
        #: Memoised spill patterns for load-free injections (by far the
        #: common case on lightly loaded fabrics).
        self._idle_spill: dict[
            tuple[int, int, int, int], tuple[FlowEntry, ...]
        ] = {}
        #: Restructured scoring rows for the fast spill path: parallel
        #: tuples plus a compacted first-link index (see `_fast_rows`).
        self._fast_scoring: dict[tuple[int, int, int], tuple] = {}
        #: One shared float per distinct rate bound: bounds take a
        #: handful of values (link bandwidths over path weights), and
        #: a float per cached entry costs about 1% of a medium grid's
        #: peak memory.
        self._bounds: dict[float, float] = {}
        #: ``id(entry)`` -> (entry, link-id column, weight column) as
        #: numpy arrays, for the advisor's load scatter. Keyed by
        #: identity (entries are interned in the memos above, which
        #: keeps the ids alive) because hashing a links tuple per lookup
        #: would cost more than the arrays save.
        self._entry_arrays: dict[int, tuple[FlowEntry, Any, Any]] = {}

    def entry_arrays(self, entry: FlowEntry) -> tuple[Any, Any]:
        """``(cols, wgts)``: the entry's link ids and weights as
        parallel numpy arrays, for fancy-index accumulation. Memoised
        per entry instance.
        """
        key = id(entry)
        hit = self._entry_arrays.get(key)
        if hit is None:
            links = entry.links
            n = len(links)
            cols = np.fromiter((l for l, _ in links), dtype=np.intp, count=n)
            wgts = np.fromiter(
                (w for _, w in links), dtype=np.float64, count=n
            )
            hit = (entry, cols, wgts)
            self._entry_arrays[key] = hit
        return hit[1], hit[2]

    def entry(self, src_node: int, dst_node: int) -> FlowEntry:
        """The minimal aggregate entry (uniform over candidates)."""
        key = (src_node, dst_node)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        built = self._build(src_node, dst_node)
        self._cache[key] = built
        return built

    def candidates(
        self, src_node: int, dst_node: int
    ) -> tuple[FlowCandidate, ...]:
        """Adaptive candidate set: minimal paths first, then Valiant."""
        key = (src_node, dst_node)
        hit = self._cand_cache.get(key)
        if hit is not None:
            return hit
        built = self._build_candidates(src_node, dst_node)
        self._cand_cache[key] = built
        return built

    def scoring(
        self, src_node: int, dst_node: int, cost_size: int
    ) -> tuple[tuple[float, int, int, FlowEntry], ...]:
        """Static UGAL-L scoring rows for the pair's candidate set.

        One ``(unloaded cost, first link, hop count, entry)`` row per
        candidate; same-router candidates (empty path) get a sentinel
        first link of ``-1`` and cost 0, mirroring the packet policy.
        """
        key = (src_node, dst_node, cost_size)
        hit = self._scoring.get(key)
        if hit is not None:
            return hit
        bw = self.bw
        lat = self.lat
        rows: list[tuple[float, int, int, FlowEntry]] = []
        for cand in self.candidates(src_node, dst_node):
            path = cand.rr_path
            if path:
                unl = 0.0
                for lid in path:
                    unl += cost_size / bw[lid] + lat[lid]
                rows.append((unl, path[0], len(path), cand.entry))
            else:
                rows.append((0.0, -1, 0, cand.entry))
        built = tuple(rows)
        self._scoring[key] = built
        return built

    def spill_fast(
        self,
        src_node: int,
        dst_node: int,
        size: int,
        load: Any,
    ) -> tuple[FlowEntry, ...]:
        """Candidates the packet policy's UGAL-L rule would spread onto.

        The packet fabric decides a route *per packet* against the live
        first-hop backlog, and a message's own earlier packets are part
        of that backlog: the NIC feeds packets at terminal bandwidth
        while each router port drains slower, so a long message spills
        across minimal ports and — once those back up — onto Valiant
        detours. That self-spill, not cross-flow congestion, is where
        most of adaptive routing's multipath spread comes from.

        This method replays that loop in miniature: packet-sized quanta
        are routed greedily with the packet policy's cost rule
        (unloaded traversal time plus first-link backlog scaled by hop
        count; Valiant inflated by ``NONMINIMAL_WEIGHT`` and offset by
        ``MINIMAL_BIAS_NS``), charging each quantum to its winner's
        first hop and draining every backlog at link rate for the
        quantum's NIC serialisation time. ``load`` seeds the backlog
        with the fabric's pending-byte ledger (cross-flow congestion);
        it may be any indexable byte ledger (both fabrics pass a plain
        list). Load-free injections — the common case — hit a memo.

        The quantum loop runs over parallel tuples with the
        per-candidate costs and drain amounts hoisted (see
        :meth:`_emulate_fast`); ``tests/flow_oracle.py`` keeps the
        straightforward loop over the scoring rows and a backlog dict,
        and the differential suite asserts both return the identical
        tuple.
        """
        psize = self.packet_size
        cost_size = size if size < psize else psize
        quanta = -(-size // psize)
        if quanta > SPILL_QUANTA:
            quanta = SPILL_QUANTA
        rows = self._fast_rows(src_node, dst_node, cost_size)
        if load is not None:
            for lid in rows[6]:
                if load[lid] != 0.0:
                    return self._emulate_fast(src_node, rows, quanta, load)
        key = (src_node, dst_node, cost_size, quanta)
        hit = self._idle_spill.get(key)
        if hit is None:
            hit = self._emulate_fast(src_node, rows, quanta, None)
            self._idle_spill[key] = hit
        return hit

    def _fast_rows(
        self, src_node: int, dst_node: int, cost_size: int
    ) -> tuple:
        """Parallel-array form of :meth:`scoring` for :meth:`spill_fast`.

        Candidates keep their scan order; first links are compacted to
        dense backlog slots in first-candidate order — exactly the
        insertion order the oracle emulation's backlog dict ends up
        with after its first quantum scan, so drain order matches.
        """
        key = (src_node, dst_node, cost_size)
        hit = self._fast_scoring.get(key)
        if hit is not None:
            return hit
        static = self.scoring(src_node, dst_node, cost_size)
        bw = self.bw
        unls: list[float] = []
        firsts: list[int] = []
        hopss: list[int] = []
        nonmins: list[bool] = []
        entries: list[FlowEntry] = []
        fidx: list[int] = []
        uniq: dict[int, int] = {}
        for unl, first, hops, entry in static:
            unls.append(unl)
            firsts.append(first)
            hopss.append(hops)
            nonmins.append(bool(entry.nonmin_fraction))
            entries.append(entry)
            fidx.append(uniq.setdefault(first, len(uniq)) if first >= 0 else -1)
        uniq_lids = tuple(uniq)
        built = (
            tuple(unls),
            tuple(firsts),
            tuple(hopss),
            tuple(nonmins),
            tuple(entries),
            tuple(fidx),
            uniq_lids,
            tuple(bw[l] for l in uniq_lids),
            np.fromiter(uniq, dtype=np.intp, count=len(uniq)),
        )
        self._fast_scoring[key] = built
        return built

    def _emulate_fast(
        self,
        src_node: int,
        rows: tuple,
        quanta: int,
        load: Any,
    ) -> tuple[FlowEntry, ...]:
        """The spill quantum loop over candidate arrays.

        Every floating-point operation and comparison is performed in
        the oracle's order on the oracle's values, so the spill set is
        *bit-identical* to the oracle emulation in
        ``tests/flow_oracle.py`` — the differential suite asserts exact
        equality on randomized ledgers. The oracle initialises backlogs
        lazily during the first quantum's scan (before any deposit or
        drain), so hoisting the initialisation reads exactly one value
        per compact slot, in slot order. An empty candidate set spills
        onto nothing.
        """
        unls, firsts, hopss, nonmins, entries, fidx, uniq_lids, uniq_bw, _ = (
            rows
        )
        n = len(unls)
        if n == 0:
            return ()
        wfac = NONMINIMAL_WEIGHT
        bias = MINIMAL_BIAS_NS
        psize = self.packet_size
        drain_dt = psize / self.bw[self.topo.terminal_in(src_node)]
        drain_amt = [drain_dt * b for b in uniq_bw]
        nb = len(uniq_lids)
        if load is not None:
            b_val = [float(load[l]) for l in uniq_lids]
        else:
            b_val = [0.0] * nb
        took = [False] * n
        n_taken = 0
        slots = range(nb)
        cands = range(n)
        for _ in range(quanta):
            best = -1
            best_cost = math.inf
            for i in cands:
                j = fidx[i]
                if j < 0:
                    cost = 0.0
                else:
                    cost = unls[i] + b_val[j] / uniq_bw[j] * hopss[i]
                    if nonmins[i]:
                        cost = cost * wfac + bias
                if cost < best_cost:
                    best_cost = cost
                    best = i
            if not took[best]:
                took[best] = True
                n_taken += 1
                if n_taken == n:
                    break
            jb = fidx[best]
            if jb < 0:
                break  # same-router: nothing ever beats the empty path
            b_val[jb] += psize
            for j in slots:
                q = b_val[j] - drain_amt[j]
                b_val[j] = q if q > 0.0 else 0.0
        return tuple(entries[i] for i in cands if took[i])

    # ------------------------------------------------------------------
    def _rate_bound(self, links: tuple[tuple[int, float], ...]) -> float:
        bw = self.bw
        ub = min(bw[lid] / w for lid, w in links)
        return self._bounds.setdefault(ub, ub)

    def _build(self, src_node: int, dst_node: int) -> FlowEntry:
        topo = self.topo
        lat = self.lat
        src_r = topo.router_of(src_node)
        dst_r = topo.router_of(dst_node)
        t_in = topo.terminal_in(src_node)
        t_out = topo.terminal_out(dst_node)

        latency = lat[t_in] + lat[t_out]
        rr_hops = 0.0
        minimal = self.tables.minimal(src_r, dst_r)
        w = 1.0 / len(minimal)
        for path in minimal:
            latency += w * sum(lat[lid] for lid in path)
            rr_hops += w * len(path)
        # Link aggregation as one bincount over the concatenated paths.
        # bincount accumulates each bin in input order, which is the
        # path-by-path order the historical dict loop used, so the
        # weights are bit-identical to unit-by-unit accumulation (the
        # route-model whitebox suite asserts this).
        rr_links: list[tuple[int, float]] = []
        n_lids = sum(len(path) for path in minimal)
        if n_lids:
            flat = np.fromiter(
                (lid for path in minimal for lid in path),
                dtype=np.intp,
                count=n_lids,
            )
            agg_w = np.bincount(flat, weights=np.full(n_lids, w))
            nz = np.nonzero(agg_w)[0]
            rr_links = list(zip(nz.tolist(), agg_w[nz].tolist()))
        links = tuple(sorted([(t_in, 1.0), (t_out, 1.0)] + rr_links))
        return FlowEntry(
            links=links,
            latency_ns=latency,
            rr_hops=rr_hops,
            nonmin_fraction=0.0,
            rate_bound=self._rate_bound(links),
        )

    def _build_candidates(
        self, src_node: int, dst_node: int
    ) -> tuple[FlowCandidate, ...]:
        topo = self.topo
        src_r = topo.router_of(src_node)
        dst_r = topo.router_of(dst_node)
        t_in = topo.terminal_in(src_node)
        t_out = topo.terminal_out(dst_node)

        out: list[FlowCandidate] = []

        def add(path: tuple[int, ...], nonmin: bool) -> None:
            lat = self.lat
            latency = lat[t_in] + lat[t_out]
            for lid in path:
                latency += lat[lid]
            if len(set(path)) == len(path):
                # Candidate paths are simple (no repeated link), so the
                # per-link weight is exactly 1.0 — no accumulator dict.
                rr = [(lid, 1.0) for lid in path]
            else:  # pragma: no cover — defensive vs. exotic tables
                agg: dict[int, float] = {}
                for lid in path:
                    agg[lid] = agg.get(lid, 0.0) + 1.0
                rr = list(agg.items())
            links = tuple(sorted([(t_in, 1.0), (t_out, 1.0)] + rr))
            entry = FlowEntry(
                links=links,
                latency_ns=latency,
                rr_hops=float(len(path)),
                nonmin_fraction=1.0 if nonmin else 0.0,
                rate_bound=self._rate_bound(links),
            )
            out.append(FlowCandidate(entry=entry, rr_path=path))

        minimal = self.tables.minimal(src_r, dst_r)
        for path in minimal:
            add(path, nonmin=False)
        # Like the packet policy, detours are only considered between
        # distinct routers (a same-router pair has nothing to detour
        # around).
        if src_r != dst_r:
            for path in self._valiant_paths(src_r, dst_r):
                add(path, nonmin=True)
        return tuple(out)

    def _valiant_paths(
        self, src_r: int, dst_r: int
    ) -> tuple[tuple[int, ...], ...]:
        """Bounded deterministic Valiant candidate set.

        The packet model draws a random intermediate per packet — an
        intermediate *group* for inter-group pairs, an intermediate
        *router* of the source group for intra-group pairs (mirroring
        :func:`~repro.routing.paths.valiant_route`). Here up to
        :data:`MAX_VALIANT` intermediates are chosen
        by an even stride over the candidates, with route variants
        picked by a (src, dst)-derived index — no RNG, so the set is a
        pure function of the endpoints.
        """
        topo = self.topo
        g1 = topo.group_of_router(src_r)
        g2 = topo.group_of_router(dst_r)
        if g1 == g2:
            return self._intra_valiant_paths(src_r, dst_r, g1)
        mids = [g for g in range(topo.params.groups) if g not in (g1, g2)]
        if not mids:
            return ()
        k = MAX_VALIANT
        n_mid = min(k, len(mids))
        if n_mid == 1:
            chosen = [mids[(src_r + dst_r) % len(mids)]]
        else:
            stride = {
                round(i * (len(mids) - 1) / (n_mid - 1)) for i in range(n_mid)
            }
            chosen = [mids[i] for i in sorted(stride)]
        # Fill the path budget: when there are fewer mid groups than
        # ``k`` (small topologies), emit several head/leg/tail variants
        # per mid so the candidate set still has the packet model's
        # path diversity (its random draws spread over variants too).
        per_mid = max(1, k // len(chosen))
        tables = self.tables
        variant = src_r + dst_r
        seen: set[tuple[int, ...]] = set()
        paths: list[tuple[int, ...]] = []
        for mid in chosen:
            heads = tables.to_group(src_r, mid)
            for j in range(per_mid):
                head, entry1 = heads[(variant + j) % len(heads)]
                legs = tables.to_group(entry1, g2)
                leg, entry2 = legs[(variant + j // len(heads)) % len(legs)]
                tails = tables.intra(entry2, dst_r)
                tail = tails[(variant + j) % len(tails)]
                path = head + leg + tail
                if path not in seen:
                    seen.add(path)
                    paths.append(path)
        return tuple(paths)

    def _intra_valiant_paths(
        self, src_r: int, dst_r: int, group: int
    ) -> tuple[tuple[int, ...], ...]:
        """Detours through intermediate routers of the source group."""
        per_group = self.topo.params.routers_per_group
        base = group * per_group
        mids = [
            r
            for r in range(base, base + per_group)
            if r not in (src_r, dst_r)
        ]
        if not mids:
            return ()
        k = MAX_VALIANT
        n_mid = min(k, len(mids))
        if n_mid == 1:
            chosen = [mids[(src_r + dst_r) % len(mids)]]
        else:
            stride = {
                round(i * (len(mids) - 1) / (n_mid - 1)) for i in range(n_mid)
            }
            chosen = [mids[i] for i in sorted(stride)]
        per_mid = max(1, k // len(chosen))
        tables = self.tables
        variant = src_r + dst_r
        seen: set[tuple[int, ...]] = set()
        paths: list[tuple[int, ...]] = []
        for mid in chosen:
            heads = tables.intra(src_r, mid)
            for j in range(per_mid):
                head = heads[(variant + j) % len(heads)]
                tails = tables.intra(mid, dst_r)
                tail = tails[(variant + j // len(heads)) % len(tails)]
                path = head + tail
                if path not in seen:
                    seen.add(path)
                    paths.append(path)
        return tuple(paths)


@functools.lru_cache(maxsize=16)
def flow_route_model(
    topo: Dragonfly, net: NetworkParams, routing: str
) -> FlowRouteModel:
    """Shared, memoised route model.

    A :class:`FlowRouteModel` is a pure function of its arguments and
    append-only after construction, so fabrics of different cells can
    share one instance — the entry/candidate/spill memos then warm up
    once per (topology, network, routing) instead of once per run. Memo
    warmth never changes results, only speed.
    """
    return FlowRouteModel(topo, net, routing)
