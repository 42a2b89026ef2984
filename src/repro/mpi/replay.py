"""Trace replay: drives rank state machines over the packet fabric.

Protocol model (eager by default, matching CODES' MPI layer at the
granularity the paper measures):

* a (blocking) ``Send`` completes when the message has fully left the
  source NIC — it never waits for the receiver;
* optionally, messages larger than ``eager_threshold`` use a rendezvous
  handshake (RTS control message -> matched receive -> CTS -> payload),
  so large sends block until the receiver has posted, as real MPI
  implementations do — useful for protocol-sensitivity ablations;
* a ``Recv`` completes when a matching message has fully arrived at the
  destination node; early arrivals park in an unexpected-message queue;
* matching follows MPI envelope semantics: (source, tag) with
  ``ANY_SOURCE``/``ANY_TAG`` wildcards, in posting order;
* ``Barrier`` is coordinated centrally (no wire traffic) with a small
  exit latency;
* messages between ranks on the same node bypass the fabric and cost a
  local memcpy;
* ``Compute`` durations are multiplied by ``compute_scale`` — 0.0 by
  default, matching the paper ("the simulation currently disregards
  compute time").

The *communication time* of a rank (the paper's headline metric) is the
time spent completing its message exchanging operations: finish time
minus scaled compute time minus time parked at barriers waiting for
peers (barriers are synchronisation, not message exchange — excluding
them keeps the per-rank distribution informative, as in Figure 3).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.config import GIB_PER_SEC
from repro.engine.simulator import Simulator
from repro.mpi.ops import (
    ANY_SOURCE,
    ANY_TAG,
    Barrier,
    Compute,
    Irecv,
    Isend,
    Recv,
    Send,
    Wait,
    WaitAll,
)
from repro.mpi.trace import JobTrace
from repro.network.fabric import Fabric
from repro.network.packet import Message

__all__ = ["ReplayEngine", "JobResult", "RankResult", "ReplayStalled"]

#: Exit latency of a centrally coordinated barrier, in ns.
BARRIER_LATENCY_NS = 1000.0
#: Same-node messages skip the fabric: a memcpy at this bandwidth
#: (bytes/ns) after a fixed latency in ns.
LOCAL_COPY_BW = 50.0 * GIB_PER_SEC
LOCAL_LATENCY_NS = 500.0
#: Runaway guard: a replay that dispatches more events raises instead of
#: running on (a malformed trace or a livelocked cell).
MAX_EVENTS = 50_000_000


class _PostedRecv(NamedTuple):
    src: int
    tag: int
    req: int | None  # None for a blocking Recv


class _LocalDelivery:
    """Same-node message that bypassed the fabric (matching shim)."""

    __slots__ = ("src_rank", "dst_rank", "tag", "size", "job", "protocol")

    def __init__(self, src_rank: int, dst_rank: int, tag: int, size: int, job: int):
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.tag = tag
        self.size = size
        self.job = job
        self.protocol = "eager"


class _Rendezvous:
    """State of one in-flight rendezvous transfer."""

    __slots__ = ("sender", "dst_rank", "size", "tag", "req", "posted_req", "receiver")

    def __init__(
        self, sender: "_RankState", dst_rank: int, size: int, tag: int, req: int | None
    ) -> None:
        self.sender = sender
        self.dst_rank = dst_rank
        self.size = size
        self.tag = tag
        self.req = req  # sender-side request (None = blocking Send)
        self.posted_req: int | None = None  # receiver-side request
        self.receiver: "_RankState | None" = None


class _RankState:
    __slots__ = (
        "job",
        "rank",
        "node",
        "ops",
        "pc",
        "blocked",
        "wait_req",
        "outstanding",
        "posted",
        "unexpected",
        "blocked_since",
        "blocked_total",
        "barrier_total",
        "compute_total",
        "finish_time",
        "bytes_sent",
        "bytes_recv",
        "msgs_sent",
        "msgs_recv",
    )

    def __init__(self, job: "_JobState", rank: int, node: int, ops: list) -> None:
        self.job = job
        self.rank = rank
        self.node = node
        self.ops = ops
        self.pc = 0
        self.blocked: str | None = None
        self.wait_req: int = -1
        self.outstanding: dict[int, int] = {}
        self.posted: deque[_PostedRecv] = deque()
        self.unexpected: deque = deque()
        self.blocked_since = 0.0
        self.blocked_total = 0.0
        self.barrier_total = 0.0
        self.compute_total = 0.0
        self.finish_time = -1.0
        self.bytes_sent = 0
        self.bytes_recv = 0
        self.msgs_sent = 0
        self.msgs_recv = 0


class _JobState:
    __slots__ = (
        "job_id",
        "trace",
        "nodes",
        "ranks",
        "barrier_waiting",
        "finished_ranks",
        "done",
        "finish_time",
        "hop_sum",
        "pkt_count",
        "send_events",
    )

    def __init__(self, job_id: int, trace: JobTrace, nodes: list[int]) -> None:
        self.job_id = job_id
        self.trace = trace
        self.nodes = list(nodes)
        self.ranks: list[_RankState] = []
        self.barrier_waiting: list[_RankState] = []
        self.finished_ranks = 0
        # Plain-attribute completion flag: the run loop's stop()
        # polls this after *every* event, so it must stay a single
        # attribute load (no property call, no len()).
        self.done = False
        self.finish_time = -1.0
        n = trace.num_ranks
        self.hop_sum = np.zeros(n, dtype=np.float64)
        self.pkt_count = np.zeros(n, dtype=np.int64)
        self.send_events: list[tuple[float, int, int]] | None = None

    @property
    def finished(self) -> bool:
        return self.done


class RankResult(NamedTuple):
    """Per-rank replay outcome."""

    rank: int
    comm_time_ns: float
    finish_time_ns: float
    blocked_time_ns: float
    avg_hops: float
    bytes_sent: int
    bytes_recv: int


class JobResult:
    """Aggregated per-job replay outcome (NumPy arrays over ranks)."""

    def __init__(
        self,
        name: str,
        comm_time_ns: np.ndarray,
        finish_time_ns: np.ndarray,
        blocked_time_ns: np.ndarray,
        avg_hops: np.ndarray,
        bytes_sent: np.ndarray,
        bytes_recv: np.ndarray,
        send_events: list[tuple[float, int, int]] | None = None,
    ) -> None:
        self.name = name
        self.comm_time_ns = comm_time_ns
        self.finish_time_ns = finish_time_ns
        self.blocked_time_ns = blocked_time_ns
        self.avg_hops = avg_hops
        self.bytes_sent = bytes_sent
        self.bytes_recv = bytes_recv
        self.send_events = send_events

    @property
    def num_ranks(self) -> int:
        return len(self.comm_time_ns)

    @property
    def max_comm_time_ns(self) -> float:
        """The sensitivity study's metric (paper Section IV-B)."""
        return float(self.comm_time_ns.max())

    def rank(self, i: int) -> RankResult:
        return RankResult(
            i,
            float(self.comm_time_ns[i]),
            float(self.finish_time_ns[i]),
            float(self.blocked_time_ns[i]),
            float(self.avg_hops[i]),
            int(self.bytes_sent[i]),
            int(self.bytes_recv[i]),
        )


class ReplayStalled(RuntimeError):
    """The event queue drained while ranks were still blocked."""


class ReplayEngine:
    """Replays one or more job traces over a shared fabric."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        compute_scale: float = 0.0,
        record_sends: bool = False,
        eager_threshold: int | None = None,
    ) -> None:
        if compute_scale < 0:
            raise ValueError("compute_scale must be non-negative")
        if eager_threshold is not None and eager_threshold < 0:
            raise ValueError("eager_threshold must be non-negative")
        self.sim = sim
        self.fabric = fabric
        self.compute_scale = compute_scale
        self.record_sends = record_sends
        self.eager_threshold = eager_threshold
        self._jobs: dict[int, _JobState] = {}
        self._injectors: list = []
        self._msg_id = 0
        self._started = False

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def add_job(self, job_id: int, trace: JobTrace, nodes: list[int]) -> None:
        """Register a job with its rank->node placement; it starts at t=0."""
        if self._started:
            raise RuntimeError("cannot add jobs after the replay has started")
        if job_id in self._jobs:
            raise ValueError(f"job {job_id} already registered")
        if len(nodes) != trace.num_ranks:
            raise ValueError(
                f"placement has {len(nodes)} nodes for {trace.num_ranks} ranks"
            )
        # Note: several ranks may legitimately share a node (the paper
        # maps one rank per node, but the engine supports co-location;
        # same-node messages bypass the fabric as local copies).
        js = _JobState(job_id, trace, nodes)
        if self.record_sends:
            js.send_events = []
        for rt in trace.ranks:
            js.ranks.append(_RankState(js, rt.rank, nodes[rt.rank], rt.ops))
        js.done = not js.ranks  # a rank-less trace is trivially finished
        self._jobs[job_id] = js

    def add_injector(self, injector) -> None:
        """Register a background-traffic injector (see repro.apps.synthetic).

        Injectors get ``start(sim, fabric)`` called when the replay
        starts; they are not part of any stop condition.
        """
        if self._started:
            raise RuntimeError("cannot add injectors after start")
        self._injectors.append(injector)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for js in self._jobs.values():
            for rs in js.ranks:
                self.sim.at(0.0, self._advance, rs)
        for injector in self._injectors:
            injector.start(self.sim, self.fabric)

    def run(
        self,
        target_job: int | None = None,
        until: float | None = None,
        max_events: int | None = None,
    ) -> float:
        """Run until the target job (or every job) finishes.

        Returns the simulated stop time. Raises :class:`ReplayStalled` if
        the calendar drains with ranks still blocked (an unmatched
        receive or a partial barrier — i.e. a malformed trace), and
        ``RuntimeError`` after ``max_events`` events (by default
        :data:`MAX_EVENTS`).
        """
        self.start()
        if target_job is not None and target_job not in self._jobs:
            raise ValueError(f"unknown job {target_job}")

        if target_job is not None:
            # partial(getattr, ...) stays in C — the engine polls stop()
            # after every event, so a Python lambda frame here is ~10% of
            # the whole event dispatch cost.
            js = self._jobs[target_job]
            stop = partial(getattr, js, "done")
        else:
            jobs = list(self._jobs.values())
            stop = lambda: all(j.done for j in jobs)  # noqa: E731

        if max_events is None:
            max_events = MAX_EVENTS
        end = self.sim.run(until=until, stop=stop, max_events=max_events)
        self.fabric.drain_saturation()
        if not stop() and until is None and self.sim.pending == 0:
            raise ReplayStalled(self._stall_report())
        return end

    def job_finished(self, job_id: int) -> bool:
        return self._jobs[job_id].finished

    def job_result(self, job_id: int) -> JobResult:
        """Collect per-rank results for a finished (or stopped) job."""
        js = self._jobs[job_id]
        n = len(js.ranks)
        comm = np.empty(n)
        finish = np.empty(n)
        blocked = np.empty(n)
        sent = np.empty(n, dtype=np.int64)
        recv = np.empty(n, dtype=np.int64)
        for i, rs in enumerate(js.ranks):
            ft = rs.finish_time if rs.finish_time >= 0 else self.sim.now
            finish[i] = ft
            comm[i] = ft - rs.compute_total - rs.barrier_total
            blocked[i] = rs.blocked_total
            sent[i] = rs.bytes_sent
            recv[i] = rs.bytes_recv
        with np.errstate(invalid="ignore", divide="ignore"):
            hops = np.where(
                js.pkt_count > 0, js.hop_sum / np.maximum(js.pkt_count, 1), 0.0
            )
        return JobResult(
            js.trace.name, comm, finish, blocked, hops, sent, recv, js.send_events
        )

    def _stall_report(self) -> str:
        stuck: list[str] = []
        for js in self._jobs.values():
            for rs in js.ranks:
                if rs.finish_time < 0:
                    op = rs.ops[rs.pc] if rs.pc < len(rs.ops) else "<end>"
                    stuck.append(
                        f"job {js.job_id} rank {rs.rank} blocked={rs.blocked} "
                        f"pc={rs.pc} op={op}"
                    )
                if len(stuck) >= 8:
                    break
        return "replay stalled; stuck ranks:\n  " + "\n  ".join(stuck)

    # ------------------------------------------------------------------
    # rank state machine
    # ------------------------------------------------------------------
    def _block(self, rs: _RankState, why: str) -> None:
        rs.blocked = why
        rs.blocked_since = self.sim.now

    def _unblock(self, rs: _RankState) -> None:
        elapsed = self.sim.now - rs.blocked_since
        if rs.blocked == "barrier":
            rs.barrier_total += elapsed
        else:
            rs.blocked_total += elapsed
        rs.blocked = None

    def _advance(self, rs: _RankState) -> None:
        ops = rs.ops
        n = len(ops)
        while rs.pc < n:
            op = ops[rs.pc]
            t = type(op)
            if t is Isend:
                self._start_send(rs, op.dst, op.size, op.tag, req=op.req)
                rs.pc += 1
            elif t is Irecv:
                self._post_recv(rs, op.src, op.tag, req=op.req)
                rs.pc += 1
            elif t is Send:
                if self._start_send(rs, op.dst, op.size, op.tag, req=None):
                    rs.pc += 1
                else:
                    self._block(rs, "send")
                    return
            elif t is Recv:
                if self._post_recv(rs, op.src, op.tag, req=None):
                    rs.pc += 1
                else:
                    self._block(rs, "recv")
                    return
            elif t is Wait:
                if rs.outstanding.get(op.req, 0) > 0:
                    rs.wait_req = op.req
                    self._block(rs, "wait")
                    return
                rs.pc += 1
            elif t is WaitAll:
                if rs.outstanding:
                    self._block(rs, "waitall")
                    return
                rs.pc += 1
            elif t is Barrier:
                rs.pc += 1  # resume past the barrier once released
                self._enter_barrier(rs)
                return
            elif t is Compute:
                dur = op.duration_ns * self.compute_scale
                rs.pc += 1
                if dur > 0:
                    rs.compute_total += dur
                    self.sim.schedule(dur, self._advance, rs)
                    return
            else:  # pragma: no cover - trace type error
                raise TypeError(f"unknown op {op!r}")
        # Rank done.
        rs.finish_time = self.sim.now
        js = rs.job
        js.finished_ranks += 1
        if js.finished_ranks == len(js.ranks):
            js.done = True
            js.finish_time = self.sim.now

    # ------------------------------------------------------------------
    # sends
    # ------------------------------------------------------------------
    def _start_send(
        self, rs: _RankState, dst: int, size: int, tag: int, req: int | None
    ) -> bool:
        """Issue a send; returns True if it completed synchronously."""
        js = rs.job
        now = self.sim.now
        rs.bytes_sent += size
        rs.msgs_sent += 1
        if js.send_events is not None:
            js.send_events.append((now, rs.rank, size))
        dst_node = js.nodes[dst]
        if req is not None:
            rs.outstanding[req] = rs.outstanding.get(req, 0) + 1

        if dst_node == rs.node:
            # Same-node: local memcpy, off the fabric.
            delay = LOCAL_LATENCY_NS + size / LOCAL_COPY_BW
            shim = _LocalDelivery(rs.rank, dst, tag, size, js.job_id)
            self.sim.schedule(delay, self._deliver, shim)
            if req is not None:
                self._complete_request(rs, req)
            return True

        if self.eager_threshold is not None and size > self.eager_threshold:
            # Rendezvous: ship an RTS control message; the payload only
            # moves once the receiver has matched it and returned a CTS.
            rdv = _Rendezvous(rs, dst, size, tag, req)
            rts = self._control_message(rs.node, dst_node, rs.rank, dst, tag, js)
            rts.protocol = "rts"
            rts.ref = rdv
            rts.on_delivered = self._on_rts_delivered
            self.fabric.inject(rts)
            return req is not None  # blocking Send waits for the payload

        self._msg_id += 1
        msg = Message(
            self._msg_id,
            rs.node,
            dst_node,
            size,
            tag,
            src_rank=rs.rank,
            dst_rank=dst,
            job=js.job_id,
        )
        msg.on_delivered = self._on_fabric_delivered
        if req is not None:
            msg.on_injected = self._make_isend_complete(rs, req)
            self.fabric.inject(msg)
            return True
        msg.on_injected = self._make_send_complete(rs)
        self.fabric.inject(msg)
        return False

    def _control_message(
        self, src_node: int, dst_node: int, src_rank: int, dst_rank: int,
        tag: int, js: _JobState,
    ) -> Message:
        self._msg_id += 1
        return Message(
            self._msg_id,
            src_node,
            dst_node,
            0,
            tag,
            src_rank=src_rank,
            dst_rank=dst_rank,
            job=js.job_id,
        )

    def _make_send_complete(self, rs: _RankState):
        def _complete(msg: Message, time: float) -> None:
            self._unblock(rs)
            rs.pc += 1
            self._advance(rs)

        return _complete

    def _make_isend_complete(self, rs: _RankState, req: int):
        def _complete(msg: Message, time: float) -> None:
            self._complete_request(rs, req)

        return _complete

    # ------------------------------------------------------------------
    # receives and matching
    # ------------------------------------------------------------------
    @staticmethod
    def _matches(posted_src: int, posted_tag: int, msg) -> bool:
        return (posted_src == ANY_SOURCE or posted_src == msg.src_rank) and (
            posted_tag == ANY_TAG or posted_tag == msg.tag
        )

    def _post_recv(
        self, rs: _RankState, src: int, tag: int, req: int | None
    ) -> bool:
        """Post a receive; returns True if it completed synchronously."""
        if req is not None:
            rs.outstanding[req] = rs.outstanding.get(req, 0) + 1
        # Check the unexpected queue first (eager early arrivals, or
        # parked rendezvous RTS messages).
        for i, msg in enumerate(rs.unexpected):
            if self._matches(src, tag, msg):
                del rs.unexpected[i]
                if msg.protocol == "rts":
                    # Matched a rendezvous request: answer with CTS; the
                    # receive completes when the payload lands.
                    rdv = msg.ref
                    rdv.receiver = rs
                    rdv.posted_req = req
                    self._send_cts(rdv)
                    return req is not None
                rs.bytes_recv += msg.size
                rs.msgs_recv += 1
                if req is not None:
                    self._complete_request(rs, req)
                return True
        rs.posted.append(_PostedRecv(src, tag, req))
        return req is not None

    def _deliver(self, msg) -> None:
        """Deliver a message (fabric or local) to its destination rank."""
        js = self._jobs[msg.job]
        rs = js.ranks[msg.dst_rank]
        for i, posted in enumerate(rs.posted):
            if self._matches(posted.src, posted.tag, msg):
                del rs.posted[i]
                rs.bytes_recv += msg.size
                rs.msgs_recv += 1
                if posted.req is None:
                    # The rank is blocked in this Recv.
                    self._unblock(rs)
                    rs.pc += 1
                    self._advance(rs)
                else:
                    self._complete_request(rs, posted.req)
                return
        rs.unexpected.append(msg)

    def _on_fabric_delivered(self, msg: Message, time: float) -> None:
        js = self._jobs[msg.job]
        js.hop_sum[msg.src_rank] += msg.hop_sum
        js.pkt_count[msg.src_rank] += msg.num_packets
        self._deliver(msg)

    # ------------------------------------------------------------------
    # rendezvous protocol
    # ------------------------------------------------------------------
    def _on_rts_delivered(self, msg: Message, time: float) -> None:
        """Receiver side: match the RTS envelope against posted recvs."""
        js = self._jobs[msg.job]
        rs = js.ranks[msg.dst_rank]
        rdv: _Rendezvous = msg.ref
        rdv.receiver = rs
        for i, posted in enumerate(rs.posted):
            if self._matches(posted.src, posted.tag, msg):
                del rs.posted[i]
                rdv.posted_req = posted.req
                self._send_cts(rdv)
                return
        rs.unexpected.append(msg)  # park until a matching recv posts

    def _send_cts(self, rdv: _Rendezvous) -> None:
        assert rdv.receiver is not None
        js = rdv.sender.job
        cts = self._control_message(
            rdv.receiver.node,
            rdv.sender.node,
            rdv.receiver.rank,
            rdv.sender.rank,
            rdv.tag,
            js,
        )
        cts.protocol = "cts"
        cts.ref = rdv
        cts.on_delivered = self._on_cts_delivered
        self.fabric.inject(cts)

    def _on_cts_delivered(self, msg: Message, time: float) -> None:
        """Sender side: the receiver is ready — ship the payload."""
        rdv: _Rendezvous = msg.ref
        sender = rdv.sender
        assert rdv.receiver is not None
        self._msg_id += 1
        data = Message(
            self._msg_id,
            sender.node,
            rdv.receiver.node,
            rdv.size,
            rdv.tag,
            src_rank=sender.rank,
            dst_rank=rdv.dst_rank,
            job=sender.job.job_id,
        )
        data.protocol = "data"
        data.ref = rdv
        if rdv.req is None:
            data.on_injected = self._make_send_complete(sender)
        else:
            data.on_injected = self._make_isend_complete(sender, rdv.req)
        data.on_delivered = self._on_rdv_data_delivered
        self.fabric.inject(data)

    def _on_rdv_data_delivered(self, msg: Message, time: float) -> None:
        """Receiver side: payload landed — complete the matched recv."""
        js = self._jobs[msg.job]
        js.hop_sum[msg.src_rank] += msg.hop_sum
        js.pkt_count[msg.src_rank] += msg.num_packets
        rdv: _Rendezvous = msg.ref
        rs = rdv.receiver
        assert rs is not None
        rs.bytes_recv += msg.size
        rs.msgs_recv += 1
        if rdv.posted_req is None:
            self._unblock(rs)
            rs.pc += 1
            self._advance(rs)
        else:
            self._complete_request(rs, rdv.posted_req)

    # ------------------------------------------------------------------
    # requests and barriers
    # ------------------------------------------------------------------
    def _complete_request(self, rs: _RankState, req: int) -> None:
        count = rs.outstanding.get(req, 0)
        if count <= 1:
            rs.outstanding.pop(req, None)
        else:
            rs.outstanding[req] = count - 1
        if rs.blocked == "wait" and rs.wait_req == req and req not in rs.outstanding:
            self._unblock(rs)
            rs.pc += 1
            self._advance(rs)
        elif rs.blocked == "waitall" and not rs.outstanding:
            self._unblock(rs)
            rs.pc += 1
            self._advance(rs)

    def _enter_barrier(self, rs: _RankState) -> None:
        js = rs.job
        self._block(rs, "barrier")
        js.barrier_waiting.append(rs)
        if len(js.barrier_waiting) == len(js.ranks):
            waiting, js.barrier_waiting = js.barrier_waiting, []
            for peer in waiting:
                self._unblock(peer)
                self.sim.schedule(BARRIER_LATENCY_NS, self._advance, peer)
