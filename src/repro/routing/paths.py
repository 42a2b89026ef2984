"""Valiant (non-minimal) route construction shared by the routing policies.

The Cascade group is a row/column grid with all-to-all links along each
row and column, so intra-group minimal paths have at most one intermediate
router: either ``(src.row, dst.col)`` (row-first) or ``(dst.row,
src.col)`` (column-first). Inter-group minimal paths take one global link
directly joining the two groups, plus at most two local hops on each
side. Valiant (non-minimal) paths detour through a random intermediate
group, giving at most 2+1+2+1+2 = 8 router-to-router hops — the bound
that sizes the VC count.

Hot-path note: routing runs once per packet, so the minimal-route
enumerations and path segments are cached per router pair in
:class:`~repro.routing.tables.RouteTables`, and a route here is a few
table lookups plus an O(1) random pick.
"""

from __future__ import annotations

import random

__all__ = ["valiant_route"]


def valiant_route(
    tables,
    src_router: int,
    dst_router: int,
    rng: random.Random,
) -> tuple[int, ...]:
    """A non-minimal route through a random intermediate.

    Inter-group: detour through a random *group* distinct from source and
    destination groups (classic Valiant on dragonflies), entering and
    leaving it over randomly chosen global links. Intra-group (or when
    only two groups exist): detour through a random intermediate *router*
    of the source group.

    ``tables`` is the topology's :class:`~repro.routing.tables.RouteTables`;
    assembling a detour is three cached lookups plus tuple concatenation.
    """
    # Runs twice per adaptively routed packet, so the cached-table hit
    # paths are probed inline (the method calls only build misses) and
    # the rng wrapper frames are bypassed: for a non-empty sequence,
    # ``choice(seq)`` is exactly ``seq[_randbelow(len(seq))]`` and
    # ``randrange(n)`` is exactly ``_randbelow(n)``, so the underlying
    # bit stream — and with it every sampled route — is unchanged.
    topo = tables.topo
    groups = topo._router_group
    g1 = groups[src_router]
    g2 = groups[dst_router]
    p = topo.params
    randbelow = rng._randbelow
    if g1 != g2 and p.groups > 2:
        lo, hi = (g1, g2) if g1 < g2 else (g2, g1)
        gi = randbelow(p.groups - 2)
        if gi >= lo:
            gi += 1
        if gi >= hi:
            gi += 1
        to_group = tables._to_group
        opts = to_group.get((src_router, gi))
        if opts is None:
            opts = tables.to_group(src_router, gi)
        head, entry1 = opts[randbelow(len(opts))]
        opts = to_group.get((entry1, g2))
        if opts is None:
            opts = tables.to_group(entry1, g2)
        mid, entry2 = opts[randbelow(len(opts))]
        tails = tables._intra.get((entry2, dst_router))
        if tails is None:
            tails = tables.intra(entry2, dst_router)
        tail = tails[0] if len(tails) == 1 else tails[randbelow(len(tails))]
        return head + mid + tail
    # Intra-group Valiant: random distinct intermediate router in the
    # source group (falls back to minimal when the group is too small).
    per_group = p.routers_per_group
    base = g1 * per_group
    mid_router = base + randbelow(per_group)
    if mid_router in (src_router, dst_router):
        routes = tables.minimal(src_router, dst_router)
        return routes[randbelow(len(routes))]
    heads = tables._intra.get((src_router, mid_router))
    if heads is None:
        heads = tables.intra(src_router, mid_router)
    head = heads[0] if len(heads) == 1 else heads[randbelow(len(heads))]
    tails = tables.minimal(mid_router, dst_router)
    return head + tails[randbelow(len(tails))]
