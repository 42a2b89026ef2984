"""Weighted max-min progressive-filling solvers for the flow fabric.

The rate-allocation step behind :meth:`~repro.flow.fabric.FlowFabric._solve`
is :func:`solve_vector`, which hands instances below
:data:`VECTOR_MIN_UNITS` to :func:`solve_scalar`:

* :func:`solve_scalar` — a pure-Python fill over one list record per
  crossed link, bit-identical to the historical in-fabric loop, which
  ``tests/flow_oracle.py`` keeps as the differential oracle. Links are
  retired by an integer unfrozen-user *count* instead of by their
  floating-point weight draining below ``_W_EPS``: unit-by-unit
  cancellation can leave ~1e-16 of residue on an emptied link, keeping
  it "shared" at residual 0 and tripping the defensive no-progress
  break — freezing the tail of the allocation at a premature base rate
  (found by the differential harness; both solvers carry the fix, and
  the property suite's bottleneck-condition test guards it).
* :func:`solve_vector` — the same algorithm restructured over numpy
  arrays: the flow–link incidence is assembled once per solve in
  CSR-like form (``indptr`` + per-nonzero link index/weight columns),
  and each filling round detects every bottleneck link and freezes
  every affected unit with vectorized reductions instead of per-link
  Python loops.

Both compute the same allocation: grow a uniform base rate across all
unfrozen units, freeze every unit crossing the first link(s) to
saturate, remove their weight, and repeat on the residual network. The
implementations differ only in floating-point *accumulation order*
(the vector path subtracts a round's frozen weight as one batched sum,
the scalar path unit by unit), so results agree to relative error far
below ``1e-9`` but are not guaranteed bit-identical;
:data:`~repro.exec.plan.CODE_SALT` was bumped when the fabric moved to
``solve_vector``.

Contract shared by both solvers: given the active flows and the global
per-link capacity table, set ``unit.rate`` on every unit and ``f.rate``
(the sum of its units) on every flow, and return the sorted global link
ids that are *contended bottlenecks* — allocated to capacity with two
or more distinct flows crossing — which is the fabric's saturation
proxy.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

__all__ = [
    "SAT_RTOL",
    "solve_scalar",
    "solve_vector",
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


def solve_scalar(flows: Sequence[Any], bw: Sequence[float]) -> list[int]:
    """Progressive filling over one flat record per crossed link.

    The record layout, hoisted thresholds and retired-link compaction
    are those of ``ArrayFlowFabric._solve_small``, but assembly runs
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


#: Adaptive-dispatch floor for the numpy path: measured break-even on
#: random instances is ~128 units (x86_64, numpy 2.x); below it the
#: scalar loop is strictly faster (up to 5x at typical grid sizes of
#: 4-30 units), so :func:`solve_vector` delegates small solves to
#: :func:`solve_scalar`. Delegated solves are *bit-identical* to the
#: reference by construction; the differential harness forces the numpy
#: path with ``min_units=0`` to test it at every size.
VECTOR_MIN_UNITS = 96


def solve_vector(
    flows: Sequence[Any],
    bw: Sequence[float],
    min_units: int = VECTOR_MIN_UNITS,
) -> list[int]:
    """Vectorized progressive filling over a CSR-like incidence.

    Same allocation as :func:`solve_scalar` up to floating-point
    accumulation order (see module docstring); per-round bottleneck
    detection and unit freezing run as numpy reductions. Instances
    below ``min_units`` total units dispatch to the scalar loop, which
    is faster there (see :data:`VECTOR_MIN_UNITS`).
    """
    saturated: list[int] = []
    if not flows:
        return saturated
    if min_units > 1:
        n = 0
        for f in flows:
            n += len(f.units)
            if n >= min_units:
                break
        if n < min_units:
            return solve_scalar(flows, bw)

    # --- assembly: units, compacted links, CSR incidence --------------
    units: list[Any] = []
    lid_of: dict[int, int] = {}  # global link id -> compact column
    glids: list[int] = []
    crossings: list[int] = []
    last_flow: list[int] = []
    cols: list[int] = []
    wvals: list[float] = []
    indptr: list[int] = [0]
    for fi, f in enumerate(flows):
        for unit in f.units:
            units.append(unit)
            for lid, w in unit.links:
                li = lid_of.get(lid)
                if li is None:
                    li = len(glids)
                    lid_of[lid] = li
                    glids.append(lid)
                    crossings.append(0)
                    last_flow.append(-1)
                cols.append(li)
                wvals.append(w)
                if last_flow[li] != fi:
                    last_flow[li] = fi
                    crossings[li] += 1
            indptr.append(len(cols))

    n_units = len(units)
    if n_units == 1:
        # Closed form, exact: one filling round, step = min(bw/w), and a
        # single flow can never make a link a *contended* bottleneck.
        unit = units[0]
        best = math.inf
        for lid, w in unit.links:
            if w > _W_EPS:
                t = bw[lid] / w
                if t < best:
                    best = t
        unit.rate = 0.0 if best is math.inf else best
        flows[0].rate = unit.rate
        return saturated

    n_links = len(glids)
    col = np.asarray(cols, dtype=np.intp)
    wgt = np.asarray(wvals, dtype=np.float64)
    ptr = np.asarray(indptr, dtype=np.intp)
    row_unit = np.repeat(np.arange(n_units, dtype=np.intp), np.diff(ptr))
    cap = np.asarray([bw[g] for g in glids], dtype=np.float64)

    weight = np.bincount(col, weights=wgt, minlength=n_links)
    count = np.bincount(col, minlength=n_links)
    residual = cap.copy()
    rates = np.full(n_units, -1.0)
    unfrozen = np.ones(n_units, dtype=bool)

    base = 0.0
    while unfrozen.any():
        shared = weight > _W_EPS
        if not shared.any():  # pragma: no cover - defensive
            break
        step = float(np.min(residual[shared] / weight[shared]))
        if not math.isfinite(step):  # pragma: no cover - defensive
            break
        base += step
        residual[shared] = residual[shared] - weight[shared] * step
        bottleneck = shared & (residual <= cap * _BOTTLENECK_RTOL)
        if not bottleneck.any():  # pragma: no cover - defensive
            break
        # A unit freezes when any of its links hit a bottleneck.
        hits = np.bitwise_or.reduceat(bottleneck[col], ptr[:-1])
        newly = unfrozen & hits
        if not newly.any():  # pragma: no cover - defensive
            break
        rates[newly] = base
        unfrozen &= ~newly
        sel = newly[row_unit]
        weight = weight - np.bincount(
            col[sel], weights=wgt[sel], minlength=n_links
        )
        count = count - np.bincount(col[sel], minlength=n_links)
        # Retire emptied links exactly (see the scalar loop's note on
        # float residue after cancellation).
        weight[count == 0] = 0.0

    for k, unit in enumerate(units):
        r = rates[k]
        unit.rate = base if r < 0.0 else float(r)
    for f in flows:
        rate = 0.0
        for unit in f.units:
            rate += unit.rate
        f.rate = rate

    for li in range(n_links):
        if crossings[li] >= 2 and residual[li] <= cap[li] * SAT_RTOL:
            saturated.append(glids[li])
    saturated.sort()
    return saturated
