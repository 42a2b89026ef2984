"""Reference minimal-route enumeration the route tables are proven against.

:func:`enumerate_minimal_routes` builds the minimum-hop routes between
two routers from coordinate math alone, one call at a time, with no
memo. :class:`~repro.routing.tables.RouteTables` builds them from its
cached segments; ``tests/unit/test_tables.py`` holds the tables to this
enumeration (route count, hop length and global links used), and
``tests/unit/test_paths.py`` checks the enumeration itself.
"""

from __future__ import annotations

from repro.topology.dragonfly import Dragonfly
from repro.topology.geometry import router_coord, router_id

__all__ = ["enumerate_minimal_routes", "intra_group_links", "local_hop_count"]


def local_hop_count(topo: Dragonfly, r1: int, r2: int) -> int:
    """Number of local links on a minimal intra-group path (0, 1, or 2)."""
    if r1 == r2:
        return 0
    p = topo.params
    g1, row1, col1 = router_coord(p, r1)
    g2, row2, col2 = router_coord(p, r2)
    if g1 != g2:
        raise ValueError("routers are in different groups")
    return 1 if (row1 == row2 or col1 == col2) else 2


def intra_group_links(
    topo: Dragonfly, r1: int, r2: int, col_first: bool = False
) -> list[int]:
    """Minimal local-link path between two routers of the same group.

    When two hops are needed, ``col_first`` selects which of the two
    candidate intermediate routers is used.
    """
    if r1 == r2:
        return []
    p = topo.params
    g1, row1, col1 = router_coord(p, r1)
    g2, row2, col2 = router_coord(p, r2)
    if g1 != g2:
        raise ValueError("routers are in different groups")
    direct = topo.local_link(r1, r2)
    if direct is not None:
        return [direct]
    if col_first:
        mid = router_id(p, g1, row2, col1)
    else:
        mid = router_id(p, g1, row1, col2)
    first = topo.local_link(r1, mid)
    second = topo.local_link(mid, r2)
    assert first is not None and second is not None
    return [first, second]


def enumerate_minimal_routes(
    topo: Dragonfly, src_router: int, dst_router: int, limit: int = 8
) -> list[tuple[int, ...]]:
    """All (up to ``limit``) minimum-hop routes between two routers.

    Intra-group: the direct link, or the two one-intermediate paths.
    Inter-group: the global links joining the two groups are ranked by
    total hop count (local hops to the global port, the global hop,
    local hops from the far endpoint); each minimum-length link yields a
    route (segment orientation alternates row-first/column-first across
    candidates to diversify intermediate routers). Deterministic, so the
    result is cacheable per router pair.
    """
    if src_router == dst_router:
        return [()]
    g1 = topo.group_of_router(src_router)
    g2 = topo.group_of_router(dst_router)
    if g1 == g2:
        if local_hop_count(topo, src_router, dst_router) == 1:
            link = topo.local_link(src_router, dst_router)
            assert link is not None
            return [(link,)]
        routes = [
            tuple(intra_group_links(topo, src_router, dst_router, col_first=False)),
            tuple(intra_group_links(topo, src_router, dst_router, col_first=True)),
        ]
        return routes[:limit]

    candidates = topo.global_links(g1, g2)
    lengths = [
        local_hop_count(topo, src_router, a) + 1 + local_hop_count(topo, b, dst_router)
        for (_, a, b) in candidates
    ]
    best = min(lengths)
    routes: list[tuple[int, ...]] = []
    for i, (lid, a, b) in enumerate(candidates):
        if lengths[i] != best:
            continue
        col_first = bool(len(routes) % 2)
        routes.append(
            tuple(intra_group_links(topo, src_router, a, col_first))
            + (lid,)
            + tuple(intra_group_links(topo, b, dst_router, col_first))
        )
        if len(routes) >= limit:
            break
    return routes
