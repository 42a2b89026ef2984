"""Production ``solve_scalar`` is bit-identical to the historical fill.

``repro.flow.solver.solve_scalar`` restructures the historical dict
loop (kept verbatim in ``tests/flow_oracle.py``) into per-link list
records, hoisted thresholds and retired-link compaction, keeping every
float operation and its order. Agreement is therefore asserted with
``==`` on unit rates, flow rates and the saturated-link list, never
with a tolerance.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.flow.solver import _W_EPS, solve_scalar
from tests.flow_oracle import build, random_instance, rates_of, solve_scalar_oracle

#: Decimal weights whose running sum does not cancel exactly when the
#: same units are subtracted back out (see ``test_emptied_link_residue``).
_RESIDUE_WEIGHTS = (0.1, 0.2, 0.3, 1.1, 3.3, 3.7)


def assert_bit_identical(caps, flow_specs):
    got_flows = build(flow_specs)
    got_sat = solve_scalar(got_flows, caps)
    want_flows = build(flow_specs)
    want_sat = solve_scalar_oracle(want_flows, caps)
    assert got_sat == want_sat
    assert rates_of(got_flows) == rates_of(want_flows)
    return got_flows, got_sat


@st.composite
def instances(draw):
    """1-40 flows of 1-3 units over a small shared link pool."""
    n_links = draw(st.integers(1, 12))
    caps = draw(
        st.lists(
            st.one_of(st.floats(0.5, 64.0), st.sampled_from((1.0, 10.0))),
            min_size=n_links,
            max_size=n_links,
        )
    )
    weight = st.one_of(
        st.floats(0.25, 4.0),
        st.sampled_from(_RESIDUE_WEIGHTS),
        st.sampled_from((0.5, 1.0, 1.0 / 3.0)),
    )
    flow_specs = []
    for _ in range(draw(st.integers(1, 40))):
        units = []
        for _ in range(draw(st.integers(1, 3))):
            lids = draw(
                st.lists(
                    st.integers(0, n_links - 1),
                    min_size=1,
                    max_size=min(4, n_links),
                    unique=True,
                )
            )
            units.append([(lid, draw(weight)) for lid in lids])
        flow_specs.append(units)
    return caps, flow_specs


class TestOracleEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(inst=instances())
    def test_matches_oracle_exactly(self, inst):
        caps, flow_specs = inst
        assert_bit_identical(caps, flow_specs)

    def test_seeded_random_instances(self):
        for seed in range(2000):
            caps, flow_specs = random_instance(random.Random(seed))
            assert_bit_identical(caps, flow_specs)

    def test_emptied_link_residue(self):
        """The DESIGN §13 case: three units empty link 0 in one round,
        and unit-by-unit subtraction leaves ~1.8e-15 of weight on it.
        Both fills retire it by user count, so the fourth unit still
        fills link 1 to capacity instead of stalling at a premature
        base rate."""
        a, b, c = 1.1, 3.7, 3.3
        assert (a + b + c) - a - b - c > _W_EPS  # the residue is real
        caps = [1.0, 100.0]
        spec = [[[(0, a)]], [[(0, b)]], [[(0, c)]], [[(1, 1.0)]]]
        flows, sat = assert_bit_identical(caps, spec)
        assert flows[3].rate == 100.0
        assert sat == [0]

    def test_zero_capacity_link_saturates_from_the_start(self):
        spec = [[[(0, 1.0), (1, 1.0)]], [[(0, 2.0)]]]
        flows, sat = assert_bit_identical([0.0, 5.0], spec)
        assert [f.rate for f in flows] == [0.0, 0.0]
        assert sat == [0]

    def test_units_of_one_flow_are_not_contention(self):
        """Two units of one flow on one link: a bottleneck, not a
        contended one."""
        spec = [[[(0, 1.0)], [(0, 1.0)]]]
        flows, sat = assert_bit_identical([8.0], spec)
        assert flows[0].rate == 8.0
        assert sat == []

    def test_empty_instance(self):
        assert solve_scalar([], [1.0]) == solve_scalar_oracle([], [1.0]) == []
