"""Application-generator tests: published characteristics (Fig 2, §III-A)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.apps import amg_trace, crystal_router_trace, fill_boundary_trace
from repro.apps.patterns import (
    coord_3d,
    grid_dims_3d,
    neighbors_3d,
    pair_jitter,
    rank_3d,
)


class TestPatterns:
    @given(st.integers(1, 2000))
    def test_grid_dims_product(self, n):
        px, py, pz = grid_dims_3d(n)
        assert px * py * pz == n
        assert px >= py >= pz >= 1

    def test_perfect_cube(self):
        assert grid_dims_3d(1728) == (12, 12, 12)
        assert grid_dims_3d(8) == (2, 2, 2)

    def test_near_cubic_for_1000(self):
        assert grid_dims_3d(1000) == (10, 10, 10)

    @given(st.integers(1, 500), st.data())
    def test_coord_round_trip(self, n, data):
        dims = grid_dims_3d(n)
        r = data.draw(st.integers(0, n - 1))
        assert rank_3d(coord_3d(r, dims), dims) == r

    def test_neighbors_periodic_symmetric(self):
        dims = grid_dims_3d(64)
        for r in range(64):
            for peer in neighbors_3d(r, dims, periodic=True):
                assert r in neighbors_3d(peer, dims, periodic=True)

    def test_neighbors_nonperiodic_boundary(self):
        dims = (4, 4, 4)
        corner = 0
        interior = rank_3d((1, 1, 1), dims)
        assert len(neighbors_3d(corner, dims, periodic=False)) == 3
        assert len(neighbors_3d(interior, dims, periodic=False)) == 6

    def test_neighbors_stride(self):
        dims = (4, 4, 4)
        peers = neighbors_3d(0, dims, periodic=False, stride=2)
        coords = [coord_3d(p, dims) for p in peers]
        assert sorted(coords) == [(0, 0, 2), (0, 2, 0), (2, 0, 0)]

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_pair_jitter_bounds_and_symmetry(self, a, b):
        j = pair_jitter(0, "k", min(a, b), max(a, b))
        assert 0.9 <= j <= 1.1
        assert j == pair_jitter(0, "k", min(a, b), max(a, b))


class TestCrystalRouter:
    def test_trace_is_balanced(self):
        crystal_router_trace(num_ranks=32, seed=1).validate()

    def test_load_per_rank_near_target(self):
        job = crystal_router_trace(num_ranks=64, iterations=2, seed=1)
        per_iter = job.total_bytes() / job.num_ranks / 2
        assert per_iter == pytest.approx(190_000, rel=0.25)

    def test_many_to_many_with_neighborhood_concentration(self):
        job = crystal_router_trace(num_ranks=64, seed=1)
        mat = job.communication_matrix()
        partners = (mat > 0).sum(axis=1)
        # Butterfly stages: ~log2(n) distinct partners + 4 ring neighbours.
        assert partners.mean() >= math.log2(64)
        # Neighbourhood share: near-diagonal traffic is a substantial part.
        near = sum(
            mat[i, j]
            for i in range(64)
            for j in range(64)
            if 0 < min((i - j) % 64, (j - i) % 64) <= 2
        )
        assert near / mat.sum() > 0.3

    def test_butterfly_partners_present(self):
        job = crystal_router_trace(num_ranks=16, seed=1)
        mat = job.communication_matrix()
        for s in range(4):
            assert mat[0, 1 << s] > 0

    def test_steady_phase_profile(self):
        """CR: 'relatively constant message load' across iterations."""
        job = crystal_router_trace(num_ranks=32, iterations=3, seed=1)
        profile = job.meta["phase_profile"]
        per_iter = {}
        for label, load in profile:
            it = label.split("/")[0]
            per_iter[it] = per_iter.get(it, 0.0) + load
        loads = list(per_iter.values())
        assert max(loads) / min(loads) < 1.05

    def test_rejects_tiny_jobs(self):
        with pytest.raises(ValueError):
            crystal_router_trace(num_ranks=1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            crystal_router_trace(num_ranks=8, neighbor_share=1.5)
        with pytest.raises(ValueError):
            crystal_router_trace(num_ranks=8, neighbor_radius=0)


class TestFillBoundary:
    def test_trace_is_balanced(self):
        fill_boundary_trace(num_ranks=27, seed=1).validate()

    def test_message_sizes_span_paper_range(self):
        """FB halo messages fluctuate between ~100 KB and ~2560 KB."""
        job = fill_boundary_trace(num_ranks=64, seed=1)
        halo_sizes = [
            op.size
            for rt in job.ranks
            for op in rt.sends()
            if op.size > 50_000  # ignore the small many-to-many phase
        ]
        assert min(halo_sizes) < 150_000
        assert max(halo_sizes) > 2_000_000

    def test_six_neighbors_dominate(self):
        job = fill_boundary_trace(num_ranks=64, far_rounds=0, seed=1)
        mat = job.communication_matrix()
        partners = (mat > 0).sum(axis=1)
        assert (partners <= 6).all()
        assert partners.mean() == pytest.approx(6.0, abs=0.5)

    def test_far_phase_adds_many_to_many(self):
        with_far = fill_boundary_trace(num_ranks=64, far_rounds=2, seed=1)
        without = fill_boundary_trace(num_ranks=64, far_rounds=0, seed=1)
        assert (with_far.communication_matrix() > 0).sum() > (
            without.communication_matrix() > 0
        ).sum()

    def test_fluctuating_profile(self):
        """FB: load 'fluctuates strongly' over steps."""
        job = fill_boundary_trace(num_ranks=27, steps=6, seed=1)
        halo_loads = [
            load for label, load in job.meta["phase_profile"] if "halo" in label
        ]
        assert max(halo_loads) / min(halo_loads) > 5

    def test_far_rounds_bounded(self):
        with pytest.raises(ValueError):
            fill_boundary_trace(num_ranks=8, far_rounds=7)


class TestAMG:
    def test_trace_is_balanced(self):
        amg_trace(num_ranks=64, seed=1).validate()

    def test_at_most_six_neighbors(self):
        job = amg_trace(num_ranks=64, seed=1)
        mat = job.communication_matrix()
        # Level-0 neighbours are the 3D stencil; coarser levels add
        # strided peers, but the *regional* character holds: partner
        # count stays far below many-to-many.
        partners = (mat > 0).sum(axis=1)
        assert partners.max() <= 18  # 6 per level, 3 levels possible
        assert partners.mean() < 12

    def test_boundary_ranks_have_fewer_neighbors(self):
        job = amg_trace(num_ranks=64, cycles=1, levels=1, seed=1)
        mat = job.communication_matrix()
        partners = (mat > 0).sum(axis=1)
        assert partners.min() == 3  # corners of the 4x4x4 grid
        assert partners.max() == 6  # interior

    def test_message_sizes_decrease_with_level(self):
        job = amg_trace(num_ranks=64, cycles=1, seed=1)
        profile = dict(job.meta["phase_profile"])
        l0 = profile["cycle0/level0"]
        l1 = profile["cycle0/level1"]
        assert l1 < l0

    def test_surge_load_near_peak(self):
        """One V-cycle moves ~75 KB per rank (paper Fig 2f surge peak)."""
        job = amg_trace(num_ranks=64, cycles=1, seed=1)
        per_rank = job.total_bytes() / job.num_ranks
        assert per_rank == pytest.approx(75_000, rel=0.4)

    def test_lightest_of_the_three_apps(self):
        """AMG's load is 'relatively small compared with the other two'."""
        n = 64
        amg = amg_trace(num_ranks=n, seed=1).avg_message_load_per_rank()
        cr = crystal_router_trace(num_ranks=n, seed=1).avg_message_load_per_rank()
        fb = fill_boundary_trace(num_ranks=n, seed=1).avg_message_load_per_rank()
        assert amg < cr < fb

    def test_three_surges(self):
        job = amg_trace(num_ranks=27, cycles=3, seed=1)
        cycles = {label.split("/")[0] for label, _ in job.meta["phase_profile"]}
        assert cycles == {"cycle0", "cycle1", "cycle2"}

    def test_compute_gaps_between_cycles(self):
        from repro.mpi.ops import Compute

        job = amg_trace(num_ranks=8, cycles=3, seed=1)
        computes = [op for op in job.ranks[0].ops if isinstance(op, Compute)]
        assert len(computes) == 2  # between the three surges


class TestScaledGenerators:
    @pytest.mark.parametrize(
        "builder", [crystal_router_trace, fill_boundary_trace, amg_trace]
    )
    def test_scaling_keeps_balance(self, builder):
        job = builder(num_ranks=27, seed=2).scaled(0.05)
        job.validate()
        assert job.total_bytes() > 0
