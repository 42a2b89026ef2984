"""Failure-aware routing: the healthy policies, taught to avoid dead ports.

The baseline policies (:class:`~repro.routing.minimal.MinimalRouting`,
:class:`~repro.routing.adaptive.AdaptiveRouting`) pick from route tables
enumerated once per topology — correct only while every channel is up.
The fault-aware subclasses here consult the fabric's liveness state:

* minimal candidates are filtered to routes whose every link is alive;
  when *all* minimal routes for a router pair are severed, a
  deterministic BFS over the live router graph finds the new shortest
  detour (so "minimal" means minimal *on the degraded topology*);
* adaptive keeps its UGAL cost comparison but skips Valiant candidates
  that cross a dead channel, and drops its unloaded-cost memo whenever
  a fault changes link bandwidths mid-run.

Filtered tables are rebuilt only when ``fabric.fault_epoch`` changes
(each applied fault bumps it), so the per-packet cost between fault
onsets stays a cache probe, same as the healthy policies. The subclasses
keep the parent ``name`` ("min"/"adp"): a fault-aware cell reports under
the same routing label, which is what lets the resilience study compare
degraded cells against healthy ones policy-by-policy.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.routing.adaptive import (
    MINIMAL_BIAS_NS,
    MINIMAL_CANDIDATES,
    NONMINIMAL_CANDIDATES,
    NONMINIMAL_WEIGHT,
    AdaptiveRouting,
)
from repro.routing.minimal import MinimalRouting
from repro.routing.paths import valiant_route
from repro.routing.tables import RouteTables, route_tables
from repro.topology.links import LinkKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.fabric import Fabric
    from repro.topology.dragonfly import Dragonfly

__all__ = [
    "DegradedTables",
    "FaultAwareAdaptiveRouting",
    "FaultAwareMinimalRouting",
    "UnreachableError",
    "make_fault_aware_routing",
]

Path = tuple[int, ...]


class UnreachableError(RuntimeError):
    """No live path exists between two routers.

    :func:`~repro.faults.plan.random_fault_plan` guards connectivity, so
    this only fires for hand-written plans that partition the fabric.
    """


class DegradedTables:
    """The healthy :class:`RouteTables`, filtered by link liveness.

    Holds a reference to the fabric's ``link_down`` list; instances are
    valid for one fault epoch and rebuilt (cheaply — caches refill on
    demand) when another fault lands.
    """

    def __init__(self, topo: "Dragonfly", link_down: list[bool]) -> None:
        self.topo = topo
        self.healthy: RouteTables = route_tables(topo)
        self._down = link_down
        self._minimal: dict[tuple[int, int], tuple[Path, ...]] = {}
        self._adj: list[tuple[tuple[int, int], ...]] | None = None

    def alive(self, path: Path) -> bool:
        """True when no link of ``path`` is down."""
        down = self._down
        for lid in path:
            if down[lid]:
                return False
        return True

    def minimal(self, r1: int, r2: int) -> tuple[Path, ...]:
        """Minimum-hop live routes r1 -> r2 on the degraded topology."""
        key = (r1, r2)
        cached = self._minimal.get(key)
        if cached is not None:
            return cached
        down = self._down
        survivors = tuple(
            path
            for path in self.healthy.minimal(r1, r2)
            if all(not down[lid] for lid in path)
        )
        if not survivors:
            survivors = (self._bfs_route(r1, r2),)
        self._minimal[key] = survivors
        return survivors

    # ------------------------------------------------------------------
    def _live_adjacency(self) -> list[tuple[tuple[int, int], ...]]:
        """Per-router ``(dst_router, link)`` pairs over live channels.

        Built lazily — only router pairs whose every healthy minimal
        route is severed ever need it. Adjacency is sorted by link id,
        which (with FIFO BFS) makes the fallback route deterministic.
        """
        adj = self._adj
        if adj is not None:
            return adj
        topo = self.topo
        links = topo.links
        kind = links._kind
        src = links._src
        dst = links._dst
        down = self._down
        terminal = (int(LinkKind.TERMINAL_IN), int(LinkKind.TERMINAL_OUT))
        lists: list[list[tuple[int, int]]] = [
            [] for _ in range(topo.num_routers)
        ]
        for lid in range(topo.num_links):
            if kind[lid] in terminal or down[lid]:
                continue
            lists[src[lid]].append((dst[lid], lid))
        adj = self._adj = [tuple(sorted(pairs)) for pairs in lists]
        return adj

    def _bfs_route(self, r1: int, r2: int) -> Path:
        """Shortest live route when the healthy enumeration is severed."""
        adj = self._live_adjacency()
        # parent[r] = (previous router, link taken into r)
        parent: dict[int, tuple[int, int]] = {r1: (-1, -1)}
        frontier = deque((r1,))
        while frontier:
            r = frontier.popleft()
            if r == r2:
                hops: list[int] = []
                while r != r1:
                    prev, lid = parent[r]
                    hops.append(lid)
                    r = prev
                hops.reverse()
                return tuple(hops)
            for nxt, lid in adj[r]:
                if nxt not in parent:
                    parent[nxt] = (r, lid)
                    frontier.append(nxt)
        raise UnreachableError(
            f"no live path from router {r1} to router {r2}; the fault "
            "plan disconnects the fabric"
        )


class FaultAwareMinimalRouting(MinimalRouting):
    """Minimal routing restricted to live channels.

    Identical random-pick semantics to the parent, applied to the
    degraded candidate set. Keeps ``name = "min"`` so study labels and
    cache tags line up with the healthy policy.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self._degraded: DegradedTables | None = None
        self._epoch = -1

    def _tables_for(self, fabric: "Fabric") -> DegradedTables:
        deg = self._degraded
        epoch = fabric.fault_epoch
        if deg is None or deg.topo is not fabric.topo or epoch != self._epoch:
            deg = self._degraded = DegradedTables(fabric.topo, fabric.link_down)
            self._epoch = epoch
        return deg

    def route(
        self, fabric: "Fabric", src_router: int, dst_node: int, size: int
    ) -> list[int]:
        topo = fabric.topo
        dst_router = topo._node_router[dst_node]
        routes = self._tables_for(fabric).minimal(src_router, dst_router)
        n = len(routes)
        # randrange(n) delegates to the same _randbelow(n) draw the
        # healthy policy makes, so pick sequences stay aligned.
        pick = routes[0] if n == 1 else routes[self._rng.randrange(n)]
        return [*pick, topo._terminal_out_l[dst_node]]


class FaultAwareAdaptiveRouting(AdaptiveRouting):
    """UGAL-style adaptive routing that skips faulted candidates.

    Minimal candidates come from the degraded tables; Valiant detours
    are sampled as usual but discarded when they cross a dead channel
    (the detour through a severed intermediate group simply loses the
    cost comparison by forfeit). Degraded-but-alive links stay eligible
    — their reduced bandwidth shows up in the cost estimate, which is
    exactly how adaptive routing is supposed to react to a brown-out.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self._degraded: DegradedTables | None = None
        self._epoch = -1

    def _tables_for(self, fabric: "Fabric") -> DegradedTables:
        deg = self._degraded
        epoch = fabric.fault_epoch
        if deg is None or deg.topo is not fabric.topo or epoch != self._epoch:
            deg = self._degraded = DegradedTables(fabric.topo, fabric.link_down)
            self._epoch = epoch
            # A fault may have rescaled link bandwidth, so every cached
            # unloaded traversal time is suspect.
            self._unloaded.clear()
        return deg

    def route(
        self, fabric: "Fabric", src_router: int, dst_node: int, size: int
    ) -> list[int]:
        topo = fabric.topo
        dst_router = topo._node_router[dst_node]
        rng = self._rng
        tables = self._tables_for(fabric)

        candidates = tables.minimal(src_router, dst_router)
        if len(candidates) > MINIMAL_CANDIDATES:
            candidates = tuple(rng.sample(candidates, MINIMAL_CANDIDATES))

        best_path: Path | None = None
        best_cost = float("inf")
        best_is_min = True
        for path in candidates:
            cost = self.candidate_cost(fabric, path, size)
            if cost < best_cost:
                best_cost, best_path, best_is_min = cost, path, True

        if src_router != dst_router:
            healthy = tables.healthy
            down = fabric.link_down
            for _ in range(NONMINIMAL_CANDIDATES):
                path = valiant_route(healthy, src_router, dst_router, rng)
                dead = False
                for lid in path:
                    if down[lid]:
                        dead = True
                        break
                if dead:
                    continue
                cost = (
                    self.candidate_cost(fabric, path, size) * NONMINIMAL_WEIGHT
                    + MINIMAL_BIAS_NS
                )
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
        return [*best_path, topo._terminal_out_l[dst_node]]


def make_fault_aware_routing(name: str, seed: int = 0):
    """Fault-aware counterpart of :func:`repro.routing.make_routing`."""
    if name == "min":
        return FaultAwareMinimalRouting(seed=seed)
    if name == "adp":
        return FaultAwareAdaptiveRouting(seed=seed)
    raise ValueError(f"unknown routing policy {name!r}")
