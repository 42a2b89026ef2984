"""Route-construction validity tests (property-based over router pairs)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DragonflyParams
from repro.routing.paths import valiant_route
from repro.routing.tables import route_tables
from repro.topology.dragonfly import Dragonfly

from tests.route_oracle import (
    enumerate_minimal_routes,
    intra_group_links,
    local_hop_count,
)

PARAMS = DragonflyParams(
    groups=4, rows=3, cols=4, nodes_per_router=2,
    chassis_per_cabinet=3, global_links_per_pair=3,
)
TOPO = Dragonfly(PARAMS)

routers = st.integers(0, PARAMS.num_routers - 1)


def assert_route_valid(topo, route, src_router, dst_router):
    """Every link chains from src to dst over existing links."""
    at = src_router
    for lid in route:
        s, d = topo.links.endpoints(lid)
        assert s == at, f"link {lid} starts at {s}, packet is at {at}"
        at = d
    assert at == dst_router


class TestLocalHopCount:
    def test_same_router(self):
        assert local_hop_count(TOPO, 0, 0) == 0

    def test_same_row(self):
        assert local_hop_count(TOPO, 0, 1) == 1

    def test_same_column(self):
        assert local_hop_count(TOPO, 0, PARAMS.cols) == 1

    def test_diagonal(self):
        assert local_hop_count(TOPO, 0, PARAMS.cols + 1) == 2

    def test_cross_group_raises(self):
        with pytest.raises(ValueError):
            local_hop_count(TOPO, 0, PARAMS.routers_per_group)


class TestIntraGroupLinks:
    @given(data=st.data())
    @settings(max_examples=60)
    def test_path_valid_and_minimal(self, data):
        g = data.draw(st.integers(0, PARAMS.groups - 1))
        base = g * PARAMS.routers_per_group
        r1 = base + data.draw(st.integers(0, PARAMS.routers_per_group - 1))
        r2 = base + data.draw(st.integers(0, PARAMS.routers_per_group - 1))
        for col_first in (False, True):
            path = intra_group_links(TOPO, r1, r2, col_first)
            assert_route_valid(TOPO, path, r1, r2)
            assert len(path) == local_hop_count(TOPO, r1, r2)

    def test_two_variants_differ(self):
        r1, r2 = 0, PARAMS.cols + 1  # diagonal pair
        a = intra_group_links(TOPO, r1, r2, col_first=False)
        b = intra_group_links(TOPO, r1, r2, col_first=True)
        assert a != b


class TestMinimalRoutes:
    @given(r1=routers, r2=routers)
    @settings(max_examples=80)
    def test_routes_valid(self, r1, r2):
        for route in enumerate_minimal_routes(TOPO, r1, r2):
            assert_route_valid(TOPO, list(route), r1, r2)

    @given(r1=routers, r2=routers)
    @settings(max_examples=80)
    def test_routes_all_same_minimal_length(self, r1, r2):
        routes = enumerate_minimal_routes(TOPO, r1, r2)
        lengths = {len(r) for r in routes}
        assert len(lengths) == 1

    @given(r1=routers, r2=routers)
    @settings(max_examples=80)
    def test_length_bounds(self, r1, r2):
        (route, *_) = enumerate_minimal_routes(TOPO, r1, r2)
        g1 = TOPO.group_of_router(r1)
        g2 = TOPO.group_of_router(r2)
        if r1 == r2:
            assert len(route) == 0
        elif g1 == g2:
            assert 1 <= len(route) <= 2
        else:
            assert 1 <= len(route) <= 5
            kinds = [TOPO.links.kind_of(l) for l in route]
            assert sum(1 for k in kinds if k.name == "GLOBAL") == 1

    def test_limit_respected(self):
        r1, r2 = 0, PARAMS.routers_per_group  # different groups
        routes = enumerate_minimal_routes(TOPO, r1, r2, limit=2)
        assert len(routes) <= 2

    def test_distinct_routes(self):
        r1, r2 = 0, PARAMS.routers_per_group + 5
        routes = enumerate_minimal_routes(TOPO, r1, r2)
        assert len(set(routes)) == len(routes)


class TestValiantRoutes:
    @given(r1=routers, r2=routers, seed=st.integers(0, 1000))
    @settings(max_examples=80)
    def test_routes_valid(self, r1, r2, seed):
        if r1 == r2:
            return
        rng = random.Random(seed)
        tables = route_tables(TOPO)
        route = valiant_route(tables, r1, r2, rng)
        assert_route_valid(TOPO, list(route), r1, r2)

    @given(r1=routers, r2=routers, seed=st.integers(0, 1000))
    @settings(max_examples=80)
    def test_hop_bound_is_eight(self, r1, r2, seed):
        """The VC count is sized for <= 8 router-to-router hops."""
        if r1 == r2:
            return
        rng = random.Random(seed)
        route = valiant_route(route_tables(TOPO), r1, r2, rng)
        assert len(route) <= 8

    def test_inter_group_avoids_endpoint_groups(self):
        rng = random.Random(0)
        tables = route_tables(TOPO)
        r1 = 0
        r2 = PARAMS.routers_per_group  # group 1
        for _ in range(50):
            route = valiant_route(tables, r1, r2, rng)
            globals_on_route = [
                l for l in route if TOPO.links.kind_of(l).name == "GLOBAL"
            ]
            assert len(globals_on_route) == 2  # detour through a third group
