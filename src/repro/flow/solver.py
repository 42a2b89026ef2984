"""Weighted max-min progressive filling for the object flow fabric.

:func:`solve_scalar` is the rate-allocation step behind
:meth:`~repro.flow.fabric.FlowFabric._solve`: grow a uniform base rate
across all unfrozen units, freeze every unit crossing the first
link(s) to saturate, remove their weight, and repeat on the residual
network. It is a pure-Python fill over one list record per crossed
link, bit-identical to the historical in-fabric loop, which
``tests/flow_oracle.py`` keeps as the differential oracle; the array
fabric's incremental fill (``ArrayFlowFabric._solve``) shares its
record layout and constants. Links are retired by an integer
unfrozen-user *count* instead of by their floating-point weight
draining below ``_W_EPS``: unit-by-unit cancellation can leave ~1e-16
of residue on an emptied link, keeping it "shared" at residual 0 and
tripping the defensive no-progress break — freezing the tail of the
allocation at a premature base rate (found by the differential
harness; the property suite's bottleneck-condition test guards it).

Contract: given the active flows and the global per-link capacity
table, set ``unit.rate`` on every unit and ``f.rate`` (the sum of its
units) on every flow, and return the sorted global link ids that are
*contended bottlenecks* — allocated to capacity with two or more
distinct flows crossing — which is the fabric's saturation proxy.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

__all__ = [
    "SAT_RTOL",
    "solve_scalar",
]

#: Relative tolerance for "this link is saturated" in the solvers and
#: the fabric's saturation clock.
SAT_RTOL = 1e-9

#: A link whose unfrozen weight falls below this is no longer shared.
_W_EPS = 1e-15

#: Bottleneck detection tolerance (relative to link capacity): after a
#: filling round the binding link's residual is exact-zero up to one
#: division/multiply rounding, far inside this band.
_BOTTLENECK_RTOL = 1e-12

#: Pruning margin (relative to link capacity) of the array fabric's
#: fill: a link whose users' summed rate bounds stay below
#: ``bw * (1 - _BIND_RTOL)`` can never bind, so the fill leaves it
#: out. Far wider than ``SAT_RTOL``, so neither the feasibility slack
#: of the final rates nor drift in the maintained sum can matter.
_BIND_RTOL = 1e-3


def solve_scalar(flows: Sequence[Any], bw: Sequence[float]) -> list[int]:
    """Progressive filling over one flat record per crossed link.

    The record layout, hoisted thresholds and retired-link compaction
    are those of ``ArrayFlowFabric._solve``, but assembly runs
    from scratch on every call, visiting links in first-touch order
    (fixed by flow admission order, itself fixed by the simulator's
    total event order). Every float operation and its order is that of
    the historical dict loop, kept in ``tests/flow_oracle.py``, so
    results are bit-identical to it.
    """
    if not flows:
        return []

    # Per-link record: [0] unfrozen weight, [1] residual, [2] bw *
    # bottleneck rtol, [3] unfrozen unit count, [4] lid, [5] bw *
    # saturation rtol, [6] distinct-flow crossings, [7] index of the
    # last flow counted, [8] user unit indices in first-touch order.
    recs: dict[int, list] = {}
    units: list[Any] = []
    # Links already inside the saturation band before any filling
    # (zero capacity); every other link enters it during the fill.
    sat_cand: list[list] = []
    for fi, f in enumerate(flows):
        for unit in f.units:
            ui = len(units)
            units.append(unit)
            for lid, w in unit.links:
                rec = recs.get(lid)
                if rec is None:
                    b = bw[lid]
                    recs[lid] = rec = [
                        w, b, b * _BOTTLENECK_RTOL, 1, lid, b * SAT_RTOL,
                        1, fi, [ui],
                    ]
                    if b <= rec[5]:
                        sat_cand.append(rec)
                else:
                    rec[0] += w
                    rec[3] += 1
                    rec[8].append(ui)
                    # Count distinct *flows* per link (units of one flow
                    # sharing its terminals are not contention).
                    if rec[7] != fi:
                        rec[7] = fi
                        rec[6] += 1

    rates = [-1.0] * len(units)  # -1.0: not yet frozen
    n_unfrozen = len(units)
    alive = list(recs.values())
    n_dead = 0
    base = 0.0
    while n_unfrozen:
        step = math.inf
        for rec in alive:
            wsum = rec[0]
            if wsum > _W_EPS:
                t = rec[1] / wsum
                if t < step:
                    step = t
        if step is math.inf:  # pragma: no cover - defensive
            break
        base += step
        bottleneck: list[list] = []
        for rec in alive:
            wsum = rec[0]
            if wsum > _W_EPS:
                res = rec[1]
                r = res - wsum * step
                rec[1] = r
                if r <= rec[5]:
                    # Residuals only fall during the fill, so a link
                    # crosses into the saturation band at most once;
                    # the band is wider than the bottleneck band.
                    if res > rec[5]:
                        sat_cand.append(rec)
                    if r <= rec[2]:
                        bottleneck.append(rec)
        progressed = False
        for rec in bottleneck:
            for ui in rec[8]:
                if rates[ui] < 0.0:
                    rates[ui] = base
                    n_unfrozen -= 1
                    progressed = True
                    for l2, w2 in units[ui].links:
                        r2 = recs[l2]
                        r2[0] -= w2
                        c = r2[3] - 1
                        r2[3] = c
                        if c == 0:
                            # Retire by user count, not float residue:
                            # unit-by-unit subtraction can leave ~1e-16
                            # on an emptied link, which would keep it
                            # "shared" with residual 0 and stall the
                            # fill at a premature base rate.
                            r2[0] = 0.0
                            n_dead += 1
        if not progressed:  # pragma: no cover - defensive
            break
        # Retired links never regain weight; once they are the majority,
        # drop them so later rounds scan only links still in play.
        if n_dead * 2 > len(alive):
            alive = [rec for rec in alive if rec[0] > _W_EPS]
            n_dead = 0

    ui = 0
    for f in flows:
        total = 0.0
        for unit in f.units:
            r = rates[ui]
            ui += 1
            if r < 0.0:  # pragma: no cover - defensive
                r = base
            unit.rate = r
            total += r
        f.rate = total

    # Saturation proxy: a link counts as saturated only while it is a
    # contended bottleneck — allocated to capacity with two or more
    # flows competing for it. A lone flow pinned at its own bottleneck
    # is healthy progress, not congestion (the packet model's buffers
    # never fill there either).
    saturated = [rec[4] for rec in sat_cand if rec[6] >= 2]
    saturated.sort()
    return saturated
