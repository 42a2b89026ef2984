"""RankTrace/JobTrace container tests."""

import pytest

from repro.mpi.ops import Barrier, Compute, Irecv, Isend, Recv, Send, Wait, WaitAll
from repro.mpi.trace import JobTrace, RankTrace


def two_rank_job():
    r0 = RankTrace(0)
    r0.send(1, 100, tag=5)
    r0.recv(1, 200, tag=6)
    r1 = RankTrace(1)
    r1.recv(0, 100, tag=5)
    r1.send(0, 200, tag=6)
    return JobTrace("toy", [r0, r1])


class TestRankTraceBuilders:
    def test_builders_append_expected_ops(self):
        t = RankTrace(0)
        t.send(1, 10)
        t.isend(2, 20, tag=1, req=3)
        t.recv(1, 10)
        t.irecv(2, 20, tag=1, req=4)
        t.wait(3)
        t.waitall()
        t.barrier()
        t.compute(500.0)
        assert [type(op) for op in t.ops] == [
            Send, Isend, Recv, Irecv, Wait, WaitAll, Barrier, Compute,
        ]

    def test_bytes_sent_counts_both_send_kinds(self):
        t = RankTrace(0)
        t.send(1, 10)
        t.isend(1, 32, req=0)
        assert t.bytes_sent() == 42
        assert t.num_sends() == 2

    def test_scaled_preserves_op_count(self):
        t = RankTrace(0)
        t.send(1, 1000)
        t.recv(1, 1000)
        t.barrier()
        s = t.scaled(0.5)
        assert len(s) == 3
        assert s.ops[0].size == 500
        assert s.ops[1].size == 500

    def test_scaled_never_drops_messages(self):
        t = RankTrace(0)
        t.send(1, 10)
        s = t.scaled(0.001)
        assert s.ops[0].size == 1  # clamped, not zero

    def test_scaled_zero_stays_zero(self):
        t = RankTrace(0)
        t.send(1, 0)
        assert t.scaled(2.0).ops[0].size == 0

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RankTrace(0).scaled(0)


class TestJobTrace:
    def test_requires_dense_rank_ids(self):
        with pytest.raises(ValueError):
            JobTrace("bad", [RankTrace(1)])

    def test_requires_ranks(self):
        with pytest.raises(ValueError):
            JobTrace("empty", [])

    def test_totals(self):
        job = two_rank_job()
        assert job.total_bytes() == 300
        assert job.num_messages() == 2
        assert job.avg_message_load_per_rank() == 150

    def test_communication_matrix(self):
        job = two_rank_job()
        mat = job.communication_matrix()
        assert mat.shape == (2, 2)
        assert mat[0, 1] == 100
        assert mat[1, 0] == 200
        assert mat[0, 0] == 0

    def test_scaled_updates_meta(self):
        job = two_rank_job()
        job.meta["phase_profile"] = [("p0", 100.0)]
        s = job.scaled(2.0)
        assert s.meta["message_scale"] == 2.0
        assert s.meta["phase_profile"] == [("p0", 200.0)]
        assert s.total_bytes() == 600

    def test_validate_accepts_balanced(self):
        two_rank_job().validate()

    def test_validate_rejects_out_of_range_dst(self):
        r0 = RankTrace(0)
        r0.send(5, 10)
        job = JobTrace("bad", [r0])
        with pytest.raises(ValueError, match="out-of-range"):
            job.validate()

    def test_validate_rejects_count_mismatch(self):
        r0 = RankTrace(0)
        r0.send(1, 10)
        r1 = RankTrace(1)  # never posts the matching recv
        with pytest.raises(ValueError, match="receives"):
            JobTrace("bad", [r0, r1]).validate()

    def test_validate_rejects_byte_mismatch(self):
        r0 = RankTrace(0)
        r0.send(1, 10)
        r1 = RankTrace(1)
        r1.recv(0, 999)
        with pytest.raises(ValueError, match="bytes"):
            JobTrace("bad", [r0, r1]).validate()

    def test_validate_allows_wildcard_bytes(self):
        from repro.mpi.ops import ANY_SOURCE

        r0 = RankTrace(0)
        r0.send(1, 10)
        r1 = RankTrace(1)
        r1.recv(ANY_SOURCE, 999)  # wildcard: byte accounting exempt
        JobTrace("ok", [r0, r1]).validate()
