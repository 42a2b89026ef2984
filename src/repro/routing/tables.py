"""Cached route building blocks, shared by all routing policies.

Route construction dominates the per-packet cost of adaptive routing if
done naively (coordinate math + dict lookups per hop). All of it is
static given the topology, so this module memoises three tables:

* ``intra(r1, r2)`` — the one or two minimal local-link paths between two
  routers of a group;
* ``to_group(router, group)`` — for every global link from the router's
  group toward ``group``: the local path to its port plus the global hop,
  and the entry router on the far side;
* ``minimal(r1, r2)`` — the enumeration of minimum-hop routes.

Tables are attached to a :class:`~repro.topology.dragonfly.Dragonfly`
lazily (one instance per topology, built on demand), so repeated runs in
a study amortise the construction cost.
"""

from __future__ import annotations

from repro.topology.dragonfly import Dragonfly
from repro.topology.geometry import router_coord, router_id

__all__ = ["MAX_MINIMAL", "RouteTables", "route_tables"]

Path = tuple[int, ...]

#: Bound on the minimum-hop routes enumerated per router pair. Every
#: policy and the flow route model share one memo per topology, so the
#: bound is one constant, not a per-caller argument.
MAX_MINIMAL = 8


class RouteTables:
    """Lazy per-topology route caches."""

    def __init__(self, topo: Dragonfly) -> None:
        self.topo = topo
        self._intra: dict[tuple[int, int], tuple[Path, ...]] = {}
        self._to_group: dict[tuple[int, int], tuple[tuple[Path, int], ...]] = {}
        self._minimal: dict[tuple[int, int], tuple[Path, ...]] = {}

    # ------------------------------------------------------------------
    def intra(self, r1: int, r2: int) -> tuple[Path, ...]:
        """Minimal local paths r1 -> r2 (same group): 1 or 2 variants."""
        key = (r1, r2)
        cached = self._intra.get(key)
        if cached is not None:
            return cached
        topo = self.topo
        if r1 == r2:
            variants: tuple[Path, ...] = ((),)
        else:
            direct = topo.local_link(r1, r2)
            if direct is not None:
                variants = ((direct,),)
            else:
                p = topo.params
                g, row1, col1 = router_coord(p, r1)
                g2, row2, col2 = router_coord(p, r2)
                if g != g2:
                    raise ValueError("intra() called across groups")
                built = []
                for mid in (
                    router_id(p, g, row1, col2),
                    router_id(p, g, row2, col1),
                ):
                    first = topo.local_link(r1, mid)
                    second = topo.local_link(mid, r2)
                    assert first is not None and second is not None
                    built.append((first, second))
                variants = tuple(built)
        self._intra[key] = variants
        return variants

    # ------------------------------------------------------------------
    def to_group(self, router: int, group: int) -> tuple[tuple[Path, int], ...]:
        """Ways out of ``router``'s group toward ``group``.

        Each entry is ``(path, entry_router)``: the local hops to a
        global port plus the global link itself, and the router the path
        lands on inside the target group. Segment orientation alternates
        across entries to diversify intermediate routers.
        """
        key = (router, group)
        cached = self._to_group.get(key)
        if cached is not None:
            return cached
        topo = self.topo
        g1 = topo.group_of_router(router)
        if g1 == group:
            raise ValueError("to_group() needs a different target group")
        entries = []
        for i, (lid, a, b) in enumerate(topo.global_links(g1, group)):
            variants = self.intra(router, a)
            head = variants[i % len(variants)]
            entries.append((head + (lid,), b))
        result = tuple(entries)
        self._to_group[key] = result
        return result

    # ------------------------------------------------------------------
    def minimal(self, r1: int, r2: int) -> tuple[Path, ...]:
        """Minimum-hop routes r1 -> r2 (up to :data:`MAX_MINIMAL` variants)."""
        key = (r1, r2)
        cached = self._minimal.get(key)
        if cached is not None:
            return cached
        topo = self.topo
        if r1 == r2:
            routes: tuple[Path, ...] = ((),)
        else:
            g1 = topo.group_of_router(r1)
            g2 = topo.group_of_router(r2)
            if g1 == g2:
                routes = self.intra(r1, r2)[:MAX_MINIMAL]
            else:
                best = None
                scored: list[tuple[int, Path, int]] = []
                for path, entry in self.to_group(r1, g2):
                    tails = self.intra(entry, r2)
                    length = len(path) + len(tails[0])
                    scored.append((length, path, entry))
                    if best is None or length < best:
                        best = length
                built = []
                for i, (length, path, entry) in enumerate(scored):
                    if length != best:
                        continue
                    tails = self.intra(entry, r2)
                    built.append(path + tails[len(built) % len(tails)])
                    if len(built) >= MAX_MINIMAL:
                        break
                routes = tuple(built)
        self._minimal[key] = routes
        return routes


_TABLES: dict[int, RouteTables] = {}


def route_tables(topo: Dragonfly) -> RouteTables:
    """The (memoised) route tables of a topology instance."""
    tables = _TABLES.get(id(topo))
    if tables is None or tables.topo is not topo:
        tables = RouteTables(topo)
        _TABLES[id(topo)] = tables
    return tables
