"""Deterministic feature vectors for the placement surrogate.

A candidate placement is scored from two ingredient groups:

* **traffic descriptors** — placement-independent properties of the
  job's communication (per-rank load, message sizes, temporal
  fluctuation, partner spread, the machine-relative offered rate) taken
  from :func:`repro.core.advisor.characterize`, the same measurements
  that drive the paper's rule table;
* **placement/topology statistics** — locality (distinct routers and
  groups touched, group spread, node contiguity) plus *expected link
  load*: each communicating rank pair deposits its bytes onto the links
  of its minimal-route aggregate from
  :class:`~repro.flow.routes.FlowRouteModel`, exactly the expectation
  the flow backend itself uses, and the per-class (local/global) load
  concentration and imbalance are summarised.

Everything is a pure function of ``(config, trace, routing, nodes)``:
no RNG, no wall clock, no dict-iteration-order dependence — the same
inputs produce a **byte-identical** ``float64`` vector in any process
(the determinism suite asserts this), which is what lets cached
surrogate scores and trained models be compared across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.core.advisor import characterize
from repro.core.runner import build_topology
from repro.engine.rng import rng_stream, spawn_seed
from repro.flow.routes import flow_route_model
from repro.mpi.trace import JobTrace
from repro.placement.machine import Machine
from repro.placement.policies import PLACEMENT_NAMES, make_placement
from repro.topology.links import LinkKind

__all__ = [
    "FEATURE_NAMES",
    "NUM_FEATURES",
    "Candidate",
    "FeatureExtractor",
    "enumerate_candidates",
    "mirror_allocation",
]

#: Feature vector layout, in order. The first block is
#: placement-independent (identical for every candidate of one job);
#: the second block depends on the candidate's node set.
FEATURE_NAMES: tuple[str, ...] = (
    # -- traffic descriptors (placement-independent) --
    "log_ranks",
    "log_bytes_per_rank",
    "log_msgs_per_rank",
    "log_mean_msg_bytes",
    "load_fluctuation",
    "partner_fraction",
    "neighborhood_share",
    "log_phases_per_rank",
    "log_intensity",
    "routing_adp",
    # -- placement/topology statistics --
    "router_fraction",
    "group_fraction",
    "group_spread",
    "contiguity",
    "mean_rr_hops",
    "local_load_max",
    "local_load_mean",
    "global_load_max",
    "global_load_mean",
    "rr_load_imbalance",
    # -- routing interactions: placement block × the adp flag, so one
    # model fits *separate* placement slopes per routing (an additive
    # flag could shift predictions between routings but never reorder
    # candidates within one) --
    "adp_x_router_fraction",
    "adp_x_group_fraction",
    "adp_x_group_spread",
    "adp_x_contiguity",
    "adp_x_mean_rr_hops",
    "adp_x_local_load_max",
    "adp_x_local_load_mean",
    "adp_x_global_load_max",
    "adp_x_global_load_mean",
    "adp_x_rr_load_imbalance",
)

NUM_FEATURES = len(FEATURE_NAMES)

#: Index where the placement-dependent block starts.
PLACEMENT_BLOCK = FEATURE_NAMES.index("router_fraction")


@dataclass(frozen=True)
class Candidate:
    """One candidate placement: the policy that drew it plus its nodes."""

    placement: str
    draw: int
    nodes: tuple[int, ...]

    @property
    def label(self) -> str:
        return f"{self.placement}#{self.draw}"


def mirror_allocation(
    machine: Machine, policy_name: str, num_nodes: int, seed: int
) -> list[int]:
    """The exact node list :meth:`Machine.allocate` *would* return.

    Replays the machine's allocation draw (same named RNG stream, same
    sorted free pool) without mutating the free pool — what the
    surrogate scheduler policy uses to score each placement policy's
    allocation before committing to one.
    """
    policy = make_placement(policy_name)
    rng = rng_stream(seed, "placement", policy.name)
    return policy.select(
        machine.params, machine.free_nodes(), num_nodes, rng
    )


def enumerate_candidates(
    config: SimulationConfig,
    num_ranks: int,
    placements: Sequence[str] = PLACEMENT_NAMES,
    per_policy: int = 20,
    seed: int = 0,
) -> list[Candidate]:
    """Draw a deduplicated candidate-placement set on an empty machine.

    Each policy contributes up to ``per_policy`` seeded draws
    (deterministic policies like ``cont`` collapse to one candidate);
    duplicates across draws and policies are removed, first occurrence
    wins, so the list order — policy-major, draw order inside — is
    deterministic.
    """
    machine = Machine(config.topology)
    seen: set[tuple[int, ...]] = set()
    out: list[Candidate] = []
    for name in placements:
        for k in range(per_policy):
            nodes = tuple(
                mirror_allocation(
                    machine, name, num_ranks,
                    spawn_seed(seed, "advise", name, k),
                )
            )
            if nodes not in seen:
                seen.add(nodes)
                out.append(Candidate(name, k, nodes))
    return out


class FeatureExtractor:
    """Featurizer for one (config, trace, routing) job context.

    Construction pays the per-job costs once — trace characterisation,
    the nonzero communication-pair list, the shared minimal route model
    — so :meth:`vector` is cheap enough to rank thousands of candidate
    placements per second.
    """

    def __init__(
        self,
        config: SimulationConfig,
        trace: JobTrace,
        routing: str,
    ) -> None:
        if routing not in ("min", "adp"):
            raise ValueError(f"unknown routing policy {routing!r}")
        self.config = config
        self.trace = trace
        self.routing = routing
        self.topo = build_topology(config.topology)
        #: Expected-load aggregates always come from the minimal route
        #: model — the uniform-spread expectation both routings start
        #: from; the routing itself enters as the ``routing_adp`` flag
        #: and the surrogate learns the adaptive correction.
        self.model = flow_route_model(self.topo, config.network, "min")
        profile = characterize(trace)
        self.profile = profile
        duration_ns = 1e6 + profile.compute_ns_per_rank
        intensity = (
            profile.bytes_per_rank / duration_ns
        ) / config.network.local_bw

        mat = trace.communication_matrix()
        src, dst = np.nonzero(mat)
        self._src: list[int] = src.tolist()
        self._dst: list[int] = dst.tolist()
        self._pair_bytes: list[float] = mat[src, dst].astype(
            np.float64
        ).tolist()
        self.total_bytes = float(mat.sum())

        kind = self.topo.links.kind
        assert kind is not None, "link table must be frozen"
        self._local_mask = (kind == LinkKind.LOCAL_ROW) | (
            kind == LinkKind.LOCAL_COL
        )
        self._global_mask = kind == LinkKind.GLOBAL
        self._rr_mask = self._local_mask | self._global_mask

        self._base = np.array(
            [
                np.log1p(float(profile.num_ranks)),
                np.log1p(profile.bytes_per_rank),
                np.log1p(profile.messages_per_rank),
                np.log1p(profile.mean_message_bytes),
                profile.load_fluctuation,
                profile.partners_per_rank / max(1, profile.num_ranks),
                profile.neighborhood_share,
                np.log1p(profile.phases_per_rank),
                np.log1p(intensity),
                1.0 if routing == "adp" else 0.0,
            ],
            dtype=np.float64,
        )

    def vector(self, nodes: Sequence[int]) -> np.ndarray:
        """The feature vector of one candidate placement.

        ``nodes[i]`` hosts rank ``i`` — the allocation-order contract of
        :meth:`~repro.placement.machine.Machine.allocate`.
        """
        n = len(nodes)
        if n != self.profile.num_ranks:
            raise ValueError(
                f"placement has {n} nodes but the trace has "
                f"{self.profile.num_ranks} ranks"
            )
        topo = self.topo
        routers = sorted({topo.router_of(node) for node in nodes})
        groups = sorted({topo.group_of_node(node) for node in nodes})
        group_counts: dict[int, int] = {}
        for node in nodes:
            g = topo.group_of_node(node)
            group_counts[g] = group_counts.get(g, 0) + 1
        group_spread = max(group_counts.values()) / n

        ordered = sorted(nodes)
        if n > 1:
            adjacent = sum(
                1 for a, b in zip(ordered, ordered[1:]) if b - a == 1
            )
            contiguity = adjacent / (n - 1)
        else:
            contiguity = 1.0

        loads = np.zeros(topo.num_links, dtype=np.float64)
        hops = 0.0
        model = self.model
        for i, j, size in zip(self._src, self._dst, self._pair_bytes):
            entry = model.entry(nodes[i], nodes[j])
            cols, wgts = model.entry_arrays(entry)
            loads[cols] += wgts * size
            hops += entry.rr_hops * size

        total = self.total_bytes
        if total > 0.0:
            loads /= total
            mean_rr_hops = hops / total
        else:
            mean_rr_hops = 0.0
        local = loads[self._local_mask]
        glob = loads[self._global_mask]
        rr = loads[self._rr_mask]
        loaded = rr[rr > 0.0]
        imbalance = (
            float(loaded.max() / loaded.mean()) if loaded.size else 0.0
        )

        placed = np.array(
            [
                len(routers) / n,
                len(groups) / topo.params.groups,
                group_spread,
                contiguity,
                mean_rr_hops,
                float(local.max()) if local.size else 0.0,
                float(local.mean()) if local.size else 0.0,
                float(glob.max()) if glob.size else 0.0,
                float(glob.mean()) if glob.size else 0.0,
                imbalance,
            ],
            dtype=np.float64,
        )
        adp = 1.0 if self.routing == "adp" else 0.0
        return np.concatenate([self._base, placed, placed * adp])

    def matrix(self, candidates: Sequence[Candidate]) -> np.ndarray:
        """Stacked feature matrix, one row per candidate, in order."""
        if not candidates:
            return np.empty((0, NUM_FEATURES), dtype=np.float64)
        return np.stack([self.vector(c.nodes) for c in candidates])
