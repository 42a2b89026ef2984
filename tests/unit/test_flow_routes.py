"""Unit tests for the flow backend's static route/weight model."""

from __future__ import annotations

import math

import pytest

import repro
from repro.flow.routes import (
    BACKEND_NAMES,
    MAX_VALIANT,
    FlowRouteModel,
    SPILL_QUANTA,
    flow_route_model,
)
from repro.routing import MAX_MINIMAL
from repro.routing.tables import route_tables


@pytest.fixture(scope="module")
def topo():
    return repro.Dragonfly(repro.tiny().topology)


@pytest.fixture(scope="module")
def net():
    return repro.tiny().network


@pytest.fixture(scope="module")
def model(topo, net):
    return FlowRouteModel(topo, net, "min")


@pytest.fixture(scope="module")
def adp_model(topo, net):
    return FlowRouteModel(topo, net, "adp")


def _pairs(topo):
    """One representative (src, dst) node pair per locality class."""
    same_router = inter_group = intra_group = None
    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            if src == dst:
                continue
            sr, dr = topo.router_of(src), topo.router_of(dst)
            if sr == dr and same_router is None:
                same_router = (src, dst)
            elif sr != dr:
                sg = topo.group_of_router(sr)
                dg = topo.group_of_router(dr)
                if sg == dg and intra_group is None:
                    intra_group = (src, dst)
                elif sg != dg and inter_group is None:
                    inter_group = (src, dst)
    assert same_router and intra_group and inter_group
    return same_router, intra_group, inter_group


class TestFlowParams:
    """The flow model's fixed parameters, shared with the packet model."""

    def test_backend_names(self):
        assert BACKEND_NAMES == ("packet", "flow")

    def test_candidates_follow_the_shared_bounds(self, adp_model, topo):
        """Adaptive candidates are the packet tables' minimal routes
        (at most ``MAX_MINIMAL``) followed by at most ``MAX_VALIANT``
        detours."""
        tables = route_tables(topo)
        for src, dst in _pairs(topo):
            minimal = tables.minimal(topo.router_of(src), topo.router_of(dst))
            assert len(minimal) <= MAX_MINIMAL
            cands = adp_model.candidates(src, dst)
            paths = [c.rr_path for c in cands]
            assert paths[: len(minimal)] == list(minimal)
            assert len(paths) - len(minimal) <= MAX_VALIANT


class TestMinimalEntries:
    def test_unknown_routing_rejected(self, topo, net):
        with pytest.raises(ValueError, match="routing"):
            FlowRouteModel(topo, net, "valiant")

    def test_terminals_carry_every_byte(self, model, topo):
        for src, dst in _pairs(topo):
            entry = model.entry(src, dst)
            weights = dict(entry.links)
            assert weights[topo.terminal_in(src)] == 1.0
            assert weights[topo.terminal_out(dst)] == 1.0

    def test_rr_weights_sum_to_weighted_hops(self, model, topo):
        """Σ weight over router links == expected path length."""
        for src, dst in _pairs(topo):
            entry = model.entry(src, dst)
            t_in = topo.terminal_in(src)
            t_out = topo.terminal_out(dst)
            rr_weight = sum(
                w for lid, w in entry.links if lid not in (t_in, t_out)
            )
            assert math.isclose(rr_weight, entry.rr_hops, rel_tol=1e-12)

    def test_same_router_pair_is_terminals_only(self, model, topo):
        (src, dst), _, _ = _pairs(topo)
        entry = model.entry(src, dst)
        assert entry.rr_hops == 0.0
        assert len(entry.links) == 2
        assert entry.nonmin_fraction == 0.0

    def test_entries_are_memoised(self, model, topo):
        _, _, (src, dst) = _pairs(topo)
        assert model.entry(src, dst) is model.entry(src, dst)

    def test_minimal_entries_are_never_nonminimal(self, model, topo):
        for src, dst in _pairs(topo):
            assert model.entry(src, dst).nonmin_fraction == 0.0

    def test_rate_bound_is_the_tightest_link_share(self, model, adp_model, topo):
        """No unit can carry more than ``bw / weight`` on any of its
        links: an entry's rate bound is the smallest such share, on
        minimal entries and adaptive candidates alike."""
        bw = model.bw
        for src, dst in _pairs(topo):
            entries = [model.entry(src, dst)]
            entries += [c.entry for c in adp_model.candidates(src, dst)]
            for entry in entries:
                shares = [bw[lid] / w for lid, w in entry.links]
                assert entry.rate_bound == min(shares)


class TestAdaptiveCandidates:
    def test_minimal_first_then_valiant(self, adp_model, topo):
        _, _, (src, dst) = _pairs(topo)
        cands = adp_model.candidates(src, dst)
        flags = [c.entry.nonmin_fraction for c in cands]
        # Minimal candidates (0.0) strictly precede Valiant ones (1.0).
        assert flags == sorted(flags)
        assert 0.0 in flags and 1.0 in flags

    def test_same_router_pair_has_no_detours(self, adp_model, topo):
        (src, dst), _, _ = _pairs(topo)
        cands = adp_model.candidates(src, dst)
        assert all(c.entry.nonmin_fraction == 0.0 for c in cands)
        assert all(c.rr_path == () for c in cands)

    def test_intra_group_detours_exist(self, adp_model, topo):
        _, (src, dst), _ = _pairs(topo)
        nonmin = [
            c for c in adp_model.candidates(src, dst)
            if c.entry.nonmin_fraction
        ]
        assert nonmin, "intra-group pairs must offer router detours"

    def test_valiant_paths_are_longer(self, adp_model, topo):
        _, _, (src, dst) = _pairs(topo)
        cands = adp_model.candidates(src, dst)
        min_len = min(
            len(c.rr_path) for c in cands if not c.entry.nonmin_fraction
        )
        for c in cands:
            if c.entry.nonmin_fraction:
                assert len(c.rr_path) > min_len

    def test_candidate_paths_are_distinct(self, adp_model, topo):
        for src, dst in _pairs(topo):
            paths = [c.rr_path for c in adp_model.candidates(src, dst)]
            assert len(paths) == len(set(paths))

    def test_candidates_are_memoised(self, adp_model, topo):
        _, (src, dst), _ = _pairs(topo)
        assert (
            adp_model.candidates(src, dst)
            is adp_model.candidates(src, dst)
        )


class TestSpill:
    def test_single_packet_stays_minimal(self, adp_model, net, topo):
        """One quantum never builds backlog, so no detour is taken."""
        for src, dst in _pairs(topo):
            entries = adp_model.spill_fast(src, dst, net.packet_size, None)
            assert len(entries) == 1
            assert entries[0].nonmin_fraction == 0.0

    def test_long_message_spills_to_valiant(self, adp_model, net, topo):
        """A message far larger than a packet backs up its minimal
        first hops (the NIC feeds faster than one port drains) until
        the UGAL rule starts taking detours."""
        _, _, (src, dst) = _pairs(topo)
        size = net.packet_size * SPILL_QUANTA
        entries = adp_model.spill_fast(src, dst, size, None)
        assert len(entries) > 1
        assert any(e.nonmin_fraction for e in entries)

    def test_idle_spill_is_memoised(self, adp_model, net, topo):
        _, _, (src, dst) = _pairs(topo)
        size = net.packet_size * 8
        assert adp_model.spill_fast(src, dst, size, None) is adp_model.spill_fast(
            src, dst, size, None
        )

    def test_zero_load_ledger_matches_idle_path(self, adp_model, net, topo):
        """An all-zeros ledger must give the idle (memoised) answer."""
        _, _, (src, dst) = _pairs(topo)
        size = net.packet_size * 8
        zeros = [0.0] * topo.num_links
        assert adp_model.spill_fast(src, dst, size, zeros) == adp_model.spill_fast(
            src, dst, size, None
        )

    def test_loaded_first_hop_diverts_earlier(self, adp_model, net, topo):
        """Pre-existing backlog on the minimal first hops lowers the
        detour threshold: the loaded spill takes at least as many
        non-minimal candidates as the idle one."""
        _, _, (src, dst) = _pairs(topo)
        size = net.packet_size * 4
        idle = adp_model.spill_fast(src, dst, size, None)
        load = [0.0] * topo.num_links
        for cand in adp_model.candidates(src, dst):
            if cand.rr_path and not cand.entry.nonmin_fraction:
                load[cand.rr_path[0]] += 64 * net.packet_size
        loaded = adp_model.spill_fast(src, dst, size, load)
        n_idle = sum(1 for e in idle if e.nonmin_fraction)
        n_loaded = sum(1 for e in loaded if e.nonmin_fraction)
        assert n_loaded >= max(n_idle, 1)


class TestSharedModel:
    def test_same_arguments_share_an_instance(self, topo, net):
        a = flow_route_model(topo, net, "min")
        b = flow_route_model(topo, net, "min")
        assert a is b

    def test_routing_splits_instances(self, topo, net):
        assert flow_route_model(topo, net, "min") is not flow_route_model(
            topo, net, "adp"
        )


class TestSpillEdgeCases:
    """Whitebox coverage of the spill loop's boundary behaviour."""

    def test_spill_quanta_cap_unifies_very_long_messages(
        self, adp_model, net, topo
    ):
        """Messages at and far beyond the emulation budget clamp to the
        same quanta count and therefore share one idle-memo entry —
        object identity proves the cap, not just equal answers."""
        _, _, (src, dst) = _pairs(topo)
        at_cap = net.packet_size * SPILL_QUANTA
        far_past_cap = 3 * at_cap
        assert adp_model.spill_fast(src, dst, at_cap, None) is adp_model.spill_fast(
            src, dst, far_past_cap, None
        )

    def test_below_cap_sizes_keep_distinct_memo_entries(
        self, adp_model, net, topo
    ):
        """One packet under the cap is a different quanta count, hence
        a different memo key (the cap must not swallow smaller sizes)."""
        _, _, (src, dst) = _pairs(topo)
        below = net.packet_size * (SPILL_QUANTA - 1)
        at_cap = net.packet_size * SPILL_QUANTA
        a = adp_model.spill_fast(src, dst, below, None)
        b = adp_model.spill_fast(src, dst, at_cap, None)
        assert a is not b

    def test_load_off_the_first_hops_still_hits_the_idle_memo(
        self, adp_model, net, topo
    ):
        """Only *first-hop* backlog can change a UGAL-L decision, so a
        ledger loaded anywhere else must be served from the idle memo
        (identity), keeping the common case cheap."""
        _, _, (src, dst) = _pairs(topo)
        size = net.packet_size * 8
        firsts = {
            cand.rr_path[0]
            for cand in adp_model.candidates(src, dst)
            if cand.rr_path
        }
        load = [0.0] * topo.num_links
        victim = next(
            lid for lid in range(topo.num_links) if lid not in firsts
        )
        load[victim] = 1e9
        assert adp_model.spill_fast(src, dst, size, load) is adp_model.spill_fast(
            src, dst, size, None
        )

    def test_first_hop_load_bypasses_but_never_poisons_the_memo(
        self, adp_model, net, topo
    ):
        """A loaded first hop forces a fresh emulation; the idle memo
        must keep serving the unloaded answer afterwards (a loaded
        result cached under the idle key would be stale the moment the
        backlog drains)."""
        _, _, (src, dst) = _pairs(topo)
        size = net.packet_size * 8
        idle = adp_model.spill_fast(src, dst, size, None)
        load = [0.0] * topo.num_links
        for cand in adp_model.candidates(src, dst):
            if cand.rr_path and not cand.entry.nonmin_fraction:
                load[cand.rr_path[0]] += 64 * net.packet_size
        loaded = adp_model.spill_fast(src, dst, size, load)
        assert loaded is not idle
        assert adp_model.spill_fast(src, dst, size, None) is idle
        # And each loaded call re-emulates against the ledger it was
        # given — no memoisation keyed on a mutable list.
        assert adp_model.spill_fast(src, dst, size, load) is not loaded

    def test_spill_set_is_monotone_in_message_size(
        self, adp_model, net, topo
    ):
        """More quanta only ever *add* candidates: the greedy loop's
        backlog is cumulative, so a candidate taken for a short message
        is taken for every longer one."""
        _, _, (src, dst) = _pairs(topo)
        prev: set = set()
        for quanta in (1, 2, 4, 8, 16, 32, SPILL_QUANTA):
            entries = adp_model.spill_fast(
                src, dst, net.packet_size * quanta, None
            )
            got = {e.links for e in entries}
            assert prev <= got
            prev = got


class TestZeroLengthValiantLeg:
    """The empty intra-group leg (``intra(r, r) == ((),)``) composes
    into Valiant candidates whose accounting must stay exact."""

    def test_intra_same_router_is_one_empty_path(self, adp_model, topo):
        r = topo.router_of(0)
        assert adp_model.tables.intra(r, r) == ((),)

    def test_candidate_weight_accounting_is_exact(self, adp_model, topo):
        """For every adaptive candidate — including those whose Valiant
        head/tail legs are zero-length — the unit weights must satisfy:
        link weights sum to 2 (terminals) + path length, rr_hops equals
        the router-to-router path length, and latency is the exact sum
        of the traversed links' latencies."""
        lat = adp_model.lat
        for src, dst in _pairs(topo):
            t_in = topo.terminal_in(src)
            t_out = topo.terminal_out(dst)
            for cand in adp_model.candidates(src, dst):
                e = cand.entry
                weights = dict(e.links)
                assert weights[t_in] == 1.0
                assert weights[t_out] == 1.0
                assert sum(weights.values()) == 2.0 + len(cand.rr_path)
                assert e.rr_hops == float(len(cand.rr_path))
                want_lat = lat[t_in] + lat[t_out] + sum(
                    lat[lid] for lid in cand.rr_path
                )
                assert math.isclose(e.latency_ns, want_lat, rel_tol=1e-12)

    def test_valiant_paths_are_deduplicated(self, adp_model, topo):
        """Variant filling with empty legs can collide on the same
        router path; the candidate set must not repeat one."""
        _, _, (src, dst) = _pairs(topo)
        paths = [c.rr_path for c in adp_model.candidates(src, dst)]
        assert len(paths) == len(set(paths))
