"""Minimal routing (paper Section III-C).

Every packet takes a minimum-hop path: inside a group at most one
intermediate router; across groups one global link directly joining the
two groups. When several minimum-hop paths exist (two grid intermediates,
or several equally-close global links) one is picked uniformly at random,
which is how Aries spreads minimal traffic — but no congestion information
is ever consulted, so hot minimal paths cannot be avoided.

The set of minimal routes per (source router, destination router) pair is
static, so it is enumerated once and cached; the per-packet work is a
single random pick.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.engine.rng import spawn_seed
from repro.routing.base import RoutingPolicy
from repro.routing.tables import route_tables

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.fabric import Fabric

__all__ = ["MinimalRouting"]


class MinimalRouting(RoutingPolicy):
    """Congestion-oblivious minimum-hop routing."""

    name = "min"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(spawn_seed(seed, "routing", "minimal"))
        self._tables = None  # memoised RouteTables of the last-seen topo

    def route(
        self, fabric: "Fabric", src_router: int, dst_node: int, size: int
    ) -> list[int]:
        topo = fabric.topo
        # Direct table lookups and inline cache probes (route() runs
        # once per packet); the method calls only build misses.
        dst_router = topo._node_router[dst_node]
        tables = self._tables
        if tables is None or tables.topo is not topo:
            tables = self._tables = route_tables(topo)
        routes = tables._minimal.get((src_router, dst_router))
        if routes is None:
            routes = tables.minimal(src_router, dst_router)
        n = len(routes)
        # choice(seq) is exactly seq[_randbelow(len(seq))] — same bit
        # stream, minus the wrapper frame.
        pick = routes[0] if n == 1 else routes[self._rng._randbelow(n)]
        return [*pick, topo._terminal_out_l[dst_node]]
