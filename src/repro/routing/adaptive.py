"""Adaptive (UGAL-style) routing (paper Section III-C).

Per packet, up to four candidate routes are sampled — two minimal and two
non-minimal (Valiant detours through a random intermediate group) — and
the candidate with the lowest estimated traversal cost wins. The cost of
a route is the sum over its links of the serialisation backlog currently
queued on the link plus the packet's own serialisation time plus
propagation latency (see :meth:`RoutingPolicy.path_cost`).

Two congestion-sensing modes are provided:

* ``"local"`` (default, UGAL-L, what Aries implements): only the source
  router's own output queue toward each candidate's first hop is
  observable; its queueing delay is scaled by the candidate's hop count
  (the classic ``q x H`` comparison). Local information is cheap but
  stale for congestion deeper in the network.
* ``"path"`` (idealised UGAL-G): the queue backlog of every link on the
  candidate path is summed. Useful as an upper bound on what adaptive
  routing could achieve; ablation benches compare the two.

A small additive bias in favour of minimal routes models the minimal
preference Cray's adaptive mode implements (non-minimal is only taken
when it looks genuinely cheaper, not merely equal). The candidate
counts, bias and weight are fixed Aries behaviour, so they are module
constants that the flow route model (:mod:`repro.flow.routes`) shares.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.engine.rng import spawn_seed
from repro.routing.base import RoutingPolicy
from repro.routing.paths import valiant_route
from repro.routing.tables import route_tables

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.fabric import Fabric

__all__ = [
    "AdaptiveRouting",
    "MINIMAL_BIAS_NS",
    "MINIMAL_CANDIDATES",
    "NONMINIMAL_CANDIDATES",
    "NONMINIMAL_WEIGHT",
]

#: Minimal and non-minimal (Valiant) candidates sampled per packet.
MINIMAL_CANDIDATES = 2
NONMINIMAL_CANDIDATES = 2
#: Minimal preference: a Valiant candidate's cost is multiplied by
#: ``NONMINIMAL_WEIGHT`` and offset by ``MINIMAL_BIAS_NS`` before it is
#: compared with the minimal candidates.
MINIMAL_BIAS_NS = 100.0
NONMINIMAL_WEIGHT = 2.0


class AdaptiveRouting(RoutingPolicy):
    """Congestion-aware routing choosing among 2 minimal + 2 Valiant paths."""

    name = "adp"

    def __init__(self, seed: int = 0, mode: str = "local") -> None:
        if mode not in ("local", "path"):
            raise ValueError(f"unknown congestion-sensing mode {mode!r}")
        self._rng = random.Random(spawn_seed(seed, "routing", "adaptive"))
        self.mode = mode
        self._tables = None  # memoised RouteTables of the last-seen topo
        # (path, size) -> unloaded traversal time. The cached value is
        # the exact left-to-right accumulation candidate_cost computes,
        # so adding the live queue term on top reproduces the uncached
        # float bit-for-bit (same op order). Invalidated when the policy
        # is pointed at a different fabric (bw/lat may differ).
        self._unloaded: dict[tuple, float] = {}
        self._cost_fab = None
        #: Decision counters, exposed for analysis/tests.
        self.minimal_taken = 0
        self.nonminimal_taken = 0

    def candidate_cost(self, fabric: "Fabric", path, size: int) -> float:
        """Estimated traversal time of ``path`` under the sensing mode."""
        if not path:
            return 0.0
        if self.mode == "path":
            return self.path_cost(fabric, path, size)
        # UGAL-L: unloaded traversal time plus the locally observable
        # backlog (source router's output queue) scaled by hop count.
        bw = fabric.bw
        lat = fabric.lat
        cost = 0.0
        for lid in path:
            cost += size / bw[lid] + lat[lid]
        first = path[0]
        cost += fabric.queued_bytes[first] / bw[first] * len(path)
        return cost

    def route(
        self, fabric: "Fabric", src_router: int, dst_node: int, size: int
    ) -> list[int]:
        topo = fabric.topo
        # Direct table lookups (router_of/terminal_out sans the method
        # call): route() runs once per packet.
        dst_router = topo._node_router[dst_node]
        rng = self._rng

        # Inline cache probe (route() runs once per packet); the method
        # call only builds misses.
        tables = self._tables
        if tables is None or tables.topo is not topo:
            tables = self._tables = route_tables(topo)
        candidates = tables._minimal.get((src_router, dst_router))
        if candidates is None:
            candidates = tables.minimal(src_router, dst_router)
        if len(candidates) > MINIMAL_CANDIDATES:
            candidates = rng.sample(candidates, MINIMAL_CANDIDATES)

        # This runs once per packet on adaptive cells, so the UGAL-L
        # cost is computed inline (keep in sync with candidate_cost) —
        # the accumulation order must stay identical, since any change
        # to the float result could flip a routing decision. The
        # congestion-independent part of each cost is memoised per
        # (path, size): the cached float is the very accumulation the
        # loop would produce, so cache hits are bit-identical.
        local_mode = self.mode == "local"
        bw = fabric.bw
        lat = fabric.lat
        queued = fabric.queued_bytes
        if fabric is not self._cost_fab:
            self._cost_fab = fabric
            self._unloaded.clear()
        unloaded = self._unloaded

        # Candidate paths are never mutated and the return below builds a
        # fresh list, so tracking winners by reference (no per-candidate
        # list() copy) is safe.
        best_path: list[int] | tuple[int, ...] | None = None
        best_cost = float("inf")
        best_is_min = True
        for path in candidates:
            if local_mode and path:
                key = (path, size)
                cost = unloaded.get(key)
                if cost is None:
                    cost = 0.0
                    for lid in path:
                        cost += size / bw[lid] + lat[lid]
                    unloaded[key] = cost
                first = path[0]
                cost += queued[first] / bw[first] * len(path)
            elif local_mode:
                cost = 0.0
            else:
                cost = self.candidate_cost(fabric, path, size)
            if cost < best_cost:
                best_cost, best_path, best_is_min = cost, path, True

        if src_router != dst_router:
            # Cray-style minimal preference: the non-minimal estimate is
            # inflated (weight) and offset (bias), so detours are taken
            # only when minimal looks substantially congested.
            for _ in range(NONMINIMAL_CANDIDATES):
                path = valiant_route(tables, src_router, dst_router, rng)
                if local_mode:  # Valiant detours are never empty
                    key = (path, size)
                    cost = unloaded.get(key)
                    if cost is None:
                        cost = 0.0
                        for lid in path:
                            cost += size / bw[lid] + lat[lid]
                        unloaded[key] = cost
                    first = path[0]
                    cost += queued[first] / bw[first] * len(path)
                else:
                    cost = self.candidate_cost(fabric, path, size)
                cost = cost * NONMINIMAL_WEIGHT + MINIMAL_BIAS_NS
                if cost < best_cost:
                    best_cost, best_path, best_is_min = cost, path, False

        assert best_path is not None
        if best_is_min:
            self.minimal_taken += 1
        else:
            self.nonminimal_taken += 1
            if fabric.obs is not None:
                fabric.obs.on_adaptive_divert(
                    fabric.sim.now, src_router, len(best_path)
                )
        # best_path may be a cached tuple (minimal) or a fresh list
        # (Valiant); either way the caller gets its own list.
        return [*best_path, topo._terminal_out_l[dst_node]]
