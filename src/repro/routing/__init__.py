"""Routing mechanisms (paper Section III-C).

* :class:`MinimalRouting` — shortest path: at most one intermediate router
  inside a group, and a direct global link between groups.
* :class:`AdaptiveRouting` — UGAL-style: per packet, sample two minimal
  and two non-minimal (Valiant, via a random intermediate group) candidate
  routes and take the one with the least estimated congestion.
"""

from repro.routing.base import RoutingPolicy
from repro.routing.minimal import MinimalRouting
from repro.routing.adaptive import (
    MINIMAL_BIAS_NS,
    MINIMAL_CANDIDATES,
    NONMINIMAL_CANDIDATES,
    NONMINIMAL_WEIGHT,
    AdaptiveRouting,
)
from repro.routing.paths import (
    local_hop_count,
    intra_group_links,
    enumerate_minimal_routes,
    valiant_route,
)
from repro.routing.tables import MAX_MINIMAL

__all__ = [
    "RoutingPolicy",
    "MinimalRouting",
    "AdaptiveRouting",
    "local_hop_count",
    "intra_group_links",
    "enumerate_minimal_routes",
    "valiant_route",
    "make_routing",
    "ROUTING_NAMES",
    "MAX_MINIMAL",
    "MINIMAL_BIAS_NS",
    "MINIMAL_CANDIDATES",
    "NONMINIMAL_CANDIDATES",
    "NONMINIMAL_WEIGHT",
]

#: Short names used in the paper's configuration nomenclature (Table I).
ROUTING_NAMES = ("min", "adp")


def make_routing(name: str, seed: int = 0) -> RoutingPolicy:
    """Construct a routing policy from its Table-I short name."""
    if name in ("min", "minimal"):
        return MinimalRouting(seed=seed)
    if name in ("adp", "adaptive"):
        return AdaptiveRouting(seed=seed)
    raise ValueError(f"unknown routing policy {name!r}")
