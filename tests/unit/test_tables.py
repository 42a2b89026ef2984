"""Route-table cache consistency tests."""

from hypothesis import given, settings, strategies as st

from repro.config import DragonflyParams
from repro.routing.tables import RouteTables, route_tables
from repro.topology.dragonfly import Dragonfly

from tests.route_oracle import enumerate_minimal_routes

PARAMS = DragonflyParams(
    groups=3, rows=2, cols=3, nodes_per_router=1,
    chassis_per_cabinet=2, global_links_per_pair=2,
)
TOPO = Dragonfly(PARAMS)
routers = st.integers(0, PARAMS.num_routers - 1)


class TestRouteTables:
    @given(r1=routers, r2=routers)
    @settings(max_examples=60)
    def test_minimal_matches_direct_enumeration(self, r1, r2):
        """Tables agree with the direct enumeration on count, hop length,
        and the set of global links used (local 2-hop segments may pick
        either grid intermediate — both are minimal)."""
        from repro.topology.links import LinkKind

        table_routes = RouteTables(TOPO).minimal(r1, r2)
        direct_routes = enumerate_minimal_routes(TOPO, r1, r2)
        assert len(table_routes) == len(direct_routes)
        assert {len(r) for r in table_routes} == {len(r) for r in direct_routes}

        def globals_used(routes):
            return {
                lid
                for r in routes
                for lid in r
                if TOPO.links.kind_of(lid) == LinkKind.GLOBAL
            }

        assert globals_used(table_routes) == globals_used(direct_routes)

    @given(r1=routers, r2=routers)
    @settings(max_examples=30)
    def test_caching_is_stable(self, r1, r2):
        tables = RouteTables(TOPO)
        first = tables.minimal(r1, r2)
        second = tables.minimal(r1, r2)
        assert first is second  # same cached object

    def test_intra_rejects_cross_group(self):
        tables = RouteTables(TOPO)
        import pytest

        with pytest.raises(ValueError):
            tables.intra(0, PARAMS.routers_per_group)

    def test_to_group_entries_cover_all_links(self):
        tables = RouteTables(TOPO)
        entries = tables.to_group(0, 1)
        assert len(entries) == PARAMS.global_links_per_pair
        for path, entry in entries:
            assert TOPO.group_of_router(entry) == 1
            # Path ends with the global link landing on `entry`.
            _, dst = TOPO.links.endpoints(path[-1])
            assert dst == entry

    def test_to_group_same_group_rejected(self):
        tables = RouteTables(TOPO)
        import pytest

        with pytest.raises(ValueError):
            tables.to_group(0, 0)

    def test_shared_instance_per_topology(self):
        a = route_tables(TOPO)
        b = route_tables(TOPO)
        assert a is b

    def test_distinct_topologies_distinct_tables(self):
        other = Dragonfly(PARAMS)
        assert route_tables(other) is not route_tables(TOPO)
