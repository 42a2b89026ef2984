"""Deterministic fault plans: which channels fail, when, and how badly.

A :class:`FaultPlan` is the complete, content-hashable description of a
degraded fabric for one run: a set of directed-link faults (dead or
bandwidth-degraded, at simulation start or at a scheduled onset time)
plus whole-router faults (always at start — a router that dies mid-run
would kill the ranks placed on its nodes, which the replay layer does
not model). Plans are frozen dataclasses, so they

* ride inside a content-addressed :class:`~repro.exec.plan.RunSpec`
  (``dataclasses.asdict`` gives a canonical JSON payload);
* pickle cheaply across the executor's process boundary;
* round-trip through JSON files for the CLI's ``--faults`` flag.

:func:`random_fault_plan` draws a seeded plan from a topology at a given
per-link failure rate, with a connectivity guard: a sampled fault that
would disconnect the live router graph (counting every scheduled link
fault as eventually dead) is skipped, so failure-aware routing can
always find a path and no run can wedge on an unreachable destination.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.engine.rng import rng_stream
from repro.topology.links import LinkKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.dragonfly import Dragonfly

__all__ = [
    "FaultPlan",
    "FaultPlanError",
    "LinkFault",
    "RouterFault",
    "install_plan",
    "load_fault_plan",
    "random_fault_plan",
    "save_fault_plan",
]


class FaultPlanError(ValueError):
    """A fault plan is malformed or inconsistent with its topology."""


@dataclass(frozen=True)
class LinkFault:
    """One directed-link fault.

    ``bw_scale == 0`` kills the link outright; a value in ``(0, 1)``
    multiplies its bandwidth (a degraded optical lane). ``time_ns`` is
    the onset time; ``0.0`` means the link is already faulted when the
    simulation starts.
    """

    link: int
    time_ns: float = 0.0
    bw_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.link < 0:
            raise FaultPlanError(f"negative link id {self.link}")
        if self.time_ns < 0.0:
            raise FaultPlanError(f"fault onset in the past: {self.time_ns}")
        if not 0.0 <= self.bw_scale < 1.0:
            raise FaultPlanError(
                f"bw_scale must be in [0, 1) (0 = dead), got {self.bw_scale}"
            )


@dataclass(frozen=True)
class RouterFault:
    """A whole-router failure at simulation start.

    Every router-to-router link incident to the router dies and the
    router's compute nodes are marked down (the runner excludes them
    from placement, mirroring how a scheduler drains a failed blade).
    """

    router: int
    time_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.router < 0:
            raise FaultPlanError(f"negative router id {self.router}")
        if self.time_ns != 0.0:
            raise FaultPlanError(
                "router faults must occur at t=0 (a mid-run router death "
                "would kill the ranks placed on its nodes, which replay "
                f"does not model); got time_ns={self.time_ns}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of one degraded fabric."""

    link_faults: tuple[LinkFault, ...] = ()
    router_faults: tuple[RouterFault, ...] = ()
    #: Provenance: the seed :func:`random_fault_plan` drew from (``None``
    #: for hand-written plans). Folded into the digest so two plans with
    #: different provenance never share a cache key by accident.
    seed: int | None = None

    def __post_init__(self) -> None:
        # Tolerate list inputs (e.g. straight from JSON) by coercing to
        # the hashable tuple form the frozen dataclass requires.
        if not isinstance(self.link_faults, tuple):
            object.__setattr__(self, "link_faults", tuple(self.link_faults))
        if not isinstance(self.router_faults, tuple):
            object.__setattr__(self, "router_faults", tuple(self.router_faults))
        seen_links = set()
        for f in self.link_faults:
            if f.link in seen_links:
                raise FaultPlanError(f"duplicate fault for link {f.link}")
            seen_links.add(f.link)
        seen_routers = set()
        for r in self.router_faults:
            if r.router in seen_routers:
                raise FaultPlanError(f"duplicate fault for router {r.router}")
            seen_routers.add(r.router)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True when the plan injects nothing (healthy fabric)."""
        return not self.link_faults and not self.router_faults

    @property
    def digest(self) -> str:
        """Stable hex digest of the plan content (cache identity)."""
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    # ------------------------------------------------------------------
    # topology projection
    # ------------------------------------------------------------------
    def dead_routers(self) -> set[int]:
        return {r.router for r in self.router_faults}

    def dead_nodes(self, topo: "Dragonfly") -> list[int]:
        """Nodes attached to dead routers (excluded from placement)."""
        down = self.dead_routers()
        if not down:
            return []
        return sorted(
            node
            for node in range(topo.num_nodes)
            if topo.router_of(node) in down
        )

    def validate(self, topo: "Dragonfly") -> None:
        """Check the plan against a topology; raise on inconsistency."""
        links = topo.links
        n_links = topo.num_links
        for f in self.link_faults:
            if f.link >= n_links:
                raise FaultPlanError(
                    f"link {f.link} out of range (topology has {n_links})"
                )
            kind = links.kind_of(f.link)
            if kind.is_terminal:
                raise FaultPlanError(
                    f"link {f.link} is a terminal link; only local/global "
                    "links may be faulted (a dead terminal link would "
                    "strand its node's traffic with no reroute)"
                )
        for r in self.router_faults:
            if r.router >= topo.num_routers:
                raise FaultPlanError(
                    f"router {r.router} out of range "
                    f"(topology has {topo.num_routers})"
                )

    def materialize(self, topo: "Dragonfly") -> list[tuple[float, int, float]]:
        """Flatten to per-directed-link ``(time_ns, link, bw_scale)``.

        Router faults expand to every non-terminal link incident to the
        router. When a router fault and a link fault target the same
        link, the router fault (dead at t=0) wins. The list is sorted by
        ``(time, link)``, which is the deterministic application order.
        """
        out: dict[int, tuple[float, float]] = {}
        for f in self.link_faults:
            out[f.link] = (f.time_ns, f.bw_scale)
        down = self.dead_routers()
        if down:
            links = topo.links
            kind = links._kind
            src = links._src
            dst = links._dst
            terminal = (int(LinkKind.TERMINAL_IN), int(LinkKind.TERMINAL_OUT))
            for lid in range(topo.num_links):
                if kind[lid] in terminal:
                    continue
                if src[lid] in down or dst[lid] in down:
                    out[lid] = (0.0, 0.0)
        return sorted(
            (t, lid, scale) for lid, (t, scale) in out.items()
        )

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "schema": "repro-faults/v1",
            "seed": self.seed,
            "link_faults": [dataclasses.asdict(f) for f in self.link_faults],
            "router_faults": [
                dataclasses.asdict(r) for r in self.router_faults
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FaultPlan":
        try:
            return cls(
                link_faults=tuple(
                    LinkFault(**f) for f in payload.get("link_faults", ())
                ),
                router_faults=tuple(
                    RouterFault(**r) for r in payload.get("router_faults", ())
                ),
                seed=payload.get("seed"),
            )
        except TypeError as exc:
            raise FaultPlanError(f"malformed fault plan payload: {exc}") from exc


def save_fault_plan(plan: FaultPlan, path: str | os.PathLike) -> Path:
    """Write a plan as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(plan.to_json(), indent=2, sort_keys=True) + "\n")
    return path


def load_fault_plan(path: str | os.PathLike) -> FaultPlan:
    """Read a plan written by :func:`save_fault_plan`."""
    return FaultPlan.from_json(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# seeded generation
# ----------------------------------------------------------------------
def _undirected_pairs(topo: "Dragonfly") -> list[tuple[int, int]]:
    """Non-terminal ``(forward, reverse)`` link-id pairs, forward-sorted."""
    links = topo.links
    kind = links._kind
    src = links._src
    dst = links._dst
    terminal = (int(LinkKind.TERMINAL_IN), int(LinkKind.TERMINAL_OUT))
    by_endpoints: dict[tuple[int, int], int] = {}
    for lid in range(topo.num_links):
        if kind[lid] in terminal:
            continue
        by_endpoints[(src[lid], dst[lid])] = lid
    pairs = []
    for (a, b), lid in by_endpoints.items():
        if a < b:
            pairs.append((lid, by_endpoints[(b, a)]))
    pairs.sort()
    return pairs


class _LiveGraph:
    """Undirected router graph with removable edges and a BFS probe."""

    def __init__(self, topo: "Dragonfly", pairs: Iterable[tuple[int, int]]):
        links = topo.links
        src = links._src
        dst = links._dst
        self._adj: list[set[int]] = [set() for _ in range(topo.num_routers)]
        self._edges: dict[int, tuple[int, int]] = {}
        for fwd, _rev in pairs:
            a, b = src[fwd], dst[fwd]
            self._adj[a].add(b)
            self._adj[b].add(a)
            self._edges[fwd] = (a, b)
        self._live_routers = set(range(topo.num_routers))

    def remove_edge(self, fwd: int) -> None:
        a, b = self._edges[fwd]
        self._adj[a].discard(b)
        self._adj[b].discard(a)

    def restore_edge(self, fwd: int) -> None:
        a, b = self._edges[fwd]
        if a in self._live_routers and b in self._live_routers:
            self._adj[a].add(b)
            self._adj[b].add(a)

    def remove_router(self, router: int) -> list[int]:
        """Detach a router; returns its (former) neighbours."""
        self._live_routers.discard(router)
        neighbours = sorted(self._adj[router])
        for n in neighbours:
            self._adj[n].discard(router)
        self._adj[router] = set()
        return neighbours

    def restore_router(self, router: int, neighbours: list[int]) -> None:
        self._live_routers.add(router)
        self._adj[router] = set(neighbours)
        for n in neighbours:
            self._adj[n].add(router)

    def connected(self) -> bool:
        live = self._live_routers
        if len(live) <= 1:
            return bool(live)
        start = next(iter(live))
        seen = {start}
        frontier = deque((start,))
        while frontier:
            r = frontier.popleft()
            for n in self._adj[r]:
                if n not in seen:
                    seen.add(n)
                    frontier.append(n)
        return len(seen) == len(live)


def random_fault_plan(
    topo: "Dragonfly",
    rate: float,
    seed: int = 0,
    router_rate: float = 0.0,
) -> FaultPlan:
    """Draw a seeded fault plan at a per-channel failure ``rate``.

    Each undirected local/global channel fails independently with
    probability ``rate`` (both directed links fault together, as a cable
    cut would); each router fails with probability ``router_rate``.
    Every drawn fault is fail-stop at t=0: degraded links and later
    onsets come from hand-written plans (:func:`load_fault_plan`).

    **Connectivity guard:** any sampled fault whose (eventual) removal
    would disconnect the live router graph is skipped, so the plan can
    never strand traffic. Same inputs always yield the same plan — the
    draw order is fixed and the RNG stream is derived from ``seed``.
    """
    if not 0.0 <= rate <= 1.0:
        raise FaultPlanError(f"rate must be in [0, 1], got {rate}")
    if not 0.0 <= router_rate <= 1.0:
        raise FaultPlanError(f"router_rate must be in [0, 1], got {router_rate}")

    rng = rng_stream(
        seed, "faults", f"rate={rate:g}", f"router_rate={router_rate:g}"
    )
    pairs = _undirected_pairs(topo)
    graph = _LiveGraph(topo, pairs)

    router_faults: list[RouterFault] = []
    dead_routers: set[int] = set()
    if router_rate > 0.0:
        draws = rng.random(topo.num_routers)
        for router in range(topo.num_routers):
            if draws[router] >= router_rate:
                continue
            neighbours = graph.remove_router(router)
            if graph.connected():
                router_faults.append(RouterFault(router))
                dead_routers.add(router)
            else:
                graph.restore_router(router, neighbours)

    link_faults: list[LinkFault] = []
    if rate > 0.0:
        links = topo.links
        src = links._src
        dst = links._dst
        draws = rng.random(len(pairs))
        for i, (fwd, rev) in enumerate(pairs):
            if draws[i] >= rate:
                continue
            if src[fwd] in dead_routers or dst[fwd] in dead_routers:
                continue  # already dead via the router fault
            graph.remove_edge(fwd)
            if not graph.connected():
                graph.restore_edge(fwd)
                continue
            link_faults.append(LinkFault(fwd))
            link_faults.append(LinkFault(rev))

    return FaultPlan(
        link_faults=tuple(link_faults),
        router_faults=tuple(router_faults),
        seed=seed,
    )


# ----------------------------------------------------------------------
# application
# ----------------------------------------------------------------------
def install_plan(sim, fabric, plan: FaultPlan) -> int:
    """Apply a validated plan to a live fabric.

    Faults at t=0 are applied immediately (before any event runs);
    later onsets are scheduled as ordinary calendar events, so they are
    totally ordered against packet events by ``(time, seq)`` and every
    run executes them identically. Returns the number of directed
    link faults installed.
    """
    events = plan.materialize(fabric.topo)
    for time_ns, link, scale in events:
        if time_ns <= 0.0:
            fabric.apply_link_fault(link, scale)
        else:
            sim.at(time_ns, fabric.apply_link_fault, link, scale)
    return len(events)
