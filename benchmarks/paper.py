"""The paper's tables, figures and ablations, rendered and checked.

Run from the repository root (no flags)::

    PYTHONPATH=src python benchmarks/paper.py

Each table, figure and ablation is one function in :data:`FIGURES`
from the simulated grids (:class:`Inputs`) to the text of
``benchmarks/results/<name>.txt``. Each shape finding is one row of
:data:`CLAIMS`: the run measures the row's value, compares it with the
row's bound, and quotes the paper's value beside it. The run writes
every result file plus ``results/claims.txt`` and exits non-zero naming
every failed row.

Two rows are known divergences from the paper (EXPERIMENTS.md, "Known
divergence") and are expected to fail; the run also fails if one of
them passes, so a change that closes a divergence shows up.

The machine is the medium preset (a 432-node dragonfly; DESIGN.md §4
gives the scaling rationale) with 128-rank apps and seed 1; the
switching, sensing and protocol ablations run the small preset with
32-rank apps, and their result headers say so. The claim bounds are
calibrated at exactly these values, so they are constants.
"""

import dataclasses
import math
import operator
import sys
import time
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

import repro
from repro.core.interference import (
    BackgroundSpec,
    background_load_table,
    interference_study,
)
from repro.core.report import (
    format_box_table,
    format_cdf_table,
    format_series_table,
    key_findings,
    nomenclature_table,
)
from repro.core.runner import build_topology
from repro.core.sensitivity import PAPER_SCALES, sensitivity_sweep
from repro.core.study import StudyResult, TradeoffStudy
from repro.engine.rng import rng_stream
from repro.engine.simulator import Simulator
from repro.metrics.analysis import load_timeline
from repro.metrics.collector import RunMetrics
from repro.mpi.ops import Compute
from repro.mpi.replay import ReplayEngine
from repro.network.fabric import Fabric
from repro.placement import PLACEMENT_NAMES, make_placement
from repro.placement.machine import Machine
from repro.routing import ROUTING_NAMES, make_routing
from repro.routing.adaptive import AdaptiveRouting

RESULTS_DIR = Path(__file__).parent / "results"

PRESET = "medium"
RANKS = 128
SEED = 1
#: Pool size for the grids; the paper run targets a 2-vCPU host.
WORKERS = 2

APPS = ("CR", "FB", "AMG")

#: Message-size scale per app, tuned so the medium preset reproduces the
#: paper's congestion regimes in minutes. The ratios between apps keep
#: the paper's intensity ordering (AMG < CR < FB).
APP_SCALES = {"CR": 1.0, "FB": 0.05, "AMG": 1.0}

_BUILDERS = {
    "CR": repro.crystal_router_trace,
    "FB": repro.fill_boundary_trace,
    "AMG": repro.amg_trace,
}

#: Figure 7's message scales: the paper's span per app with fewer points.
SWEEP_SCALES = {
    "CR": (0.01, 0.1, 0.5, 1.0, 2.0),
    "FB": (0.01, 0.1, 0.5, 1.0, 2.0),
    "AMG": (0.5, 1.0, 5.0, 20.0),
}

#: Paper Table II (Theta scale): (uniform MB, bursty GB) per app.
PAPER_TABLE2 = {
    "CR": (38.38, 92.00),
    "FB": (38.38, 5.75),
    "AMG": (27.00, 2.85),
}
#: Background nodes beside each app in the paper's Table II: Theta's
#: 3,456 nodes (DESIGN.md §4) less the app's 1,000 ranks (CR, FB) or
#: 1,728 (AMG). Its uniform column is 16 KiB per node, in MiB.
PAPER_BG_NODES = {"CR": 2456, "FB": 2456, "AMG": 1728}

#: The switching, sensing and protocol ablations run on the small preset.
ABLATION_RANKS = 32
#: Their result files, whose header names that machine.
SMALL_PRESET_RESULTS = (
    "ablation_switching",
    "ablation_adaptive_sensing",
    "ablation_protocol",
)
#: Rendezvous threshold of the protocol ablation: FB's halo messages
#: are far above it, so nearly everything goes rendezvous.
EAGER_THRESHOLD = 8192
#: Per-rank start skews of the desynchronisation ablation.
SKEWS_NS = (0.0, 20_000.0, 100_000.0, 400_000.0)


def background_specs(app: str) -> dict[str, BackgroundSpec]:
    """The Section IV-C background-traffic specs, at this machine's scale.

    The paper drives the synthetic job with ~16 KB per-node messages:
    uniform-random at small intervals (0.002-1 ms) and bursty blasts at
    large intervals (0.1-60 ms). The per-interval loads in Table II are
    similar across target apps, but the *interval* differs hugely — the
    AMG experiment's background is orders of magnitude more intense per
    unit time, which is what exposes AMG's sensitivity while CR/FB show
    "no obvious performance variation" under uniform background. We
    keep that structure: one 16 KB message per node per interval, with
    a short interval for the AMG study and a long one for CR/FB, and
    synchronised bursts whose fanout ordering (CR > FB > AMG) mirrors
    Table II's bursty loads.
    """
    uniform_interval = {"CR": 50_000.0, "FB": 50_000.0, "AMG": 2_000.0}[app]
    fanout = {"CR": 24, "FB": 12, "AMG": 8}[app]
    return {
        "uniform": BackgroundSpec(
            "uniform", message_bytes=16_384, interval_ns=uniform_interval
        ),
        "bursty": BackgroundSpec(
            "bursty", message_bytes=32_768, interval_ns=500_000.0, fanout=fanout
        ),
    }


def fb_ablation_cell(placement: str, mode: str, eager_threshold: int | None):
    """FB on the small preset under adaptive routing, wired by hand.

    The sensing and protocol ablations vary the two inputs that
    :func:`repro.core.runner.assemble` does not take: the adaptive
    policy's congestion-sensing ``mode`` and the replay engine's
    ``eager_threshold``. Returns the run's metrics and its non-minimal
    routing share.
    """
    cfg = repro.small().with_seed(SEED)
    trace = repro.fill_boundary_trace(num_ranks=ABLATION_RANKS, seed=SEED).scaled(0.05)
    topo = build_topology(cfg.topology)
    nodes = Machine(cfg.topology).allocate(placement, trace.num_ranks, seed=SEED)
    sim = Simulator()
    routing = AdaptiveRouting(seed=SEED, mode=mode)
    fabric = Fabric(sim, topo, cfg.network, routing)
    engine = ReplayEngine(sim, fabric, eager_threshold=eager_threshold)
    engine.add_job(0, trace, nodes)
    engine.run(target_job=0)
    metrics = RunMetrics.from_run(fabric, topo, engine.job_result(0), nodes)
    decided = routing.minimal_taken + routing.nonminimal_taken
    return metrics, routing.nonminimal_taken / max(1, decided)


class Inputs:
    """The simulated grids the figures and claims read.

    Each grid is built on first use and kept, so one full run simulates
    every cell once, and rendering the two tables simulates nothing.
    """

    def __init__(self) -> None:
        self.config = repro.medium().with_seed(SEED)
        self._memo: dict = {}

    def _once(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def trace(self, app: str):
        """The app's trace at its benchmark message scale."""
        trace = _BUILDERS[app](num_ranks=RANKS, seed=SEED)
        scale = APP_SCALES[app]
        return trace.scaled(scale) if scale != 1.0 else trace

    @cached_property
    def study(self) -> StudyResult:
        """Figure 3's grid: each app alone under all 10 configurations.

        Figures 4-6 read the same cells, and Figures 8-10 take their
        interference-free references from it.
        """
        traces = {app: self.trace(app) for app in APPS}
        return TradeoffStudy(self.config, traces, seed=SEED).run(max_workers=WORKERS)

    def background(self, app: str, pattern: str) -> StudyResult:
        """The app's grid under one Section IV-C background pattern."""
        return self._once(
            ("background", app, pattern),
            lambda: interference_study(
                self.config,
                self.trace(app),
                background_specs(app)[pattern],
                seed=SEED,
                max_workers=WORKERS,
            ),
        )

    def degradation(self, app: str, pattern: str, label: str) -> float:
        """Median comm time under background over the isolated run's."""
        shared = self.background(app, pattern).get(app, label)
        alone = self.study.get(app, label)
        return shared.metrics.median_comm_time_ns / alone.metrics.median_comm_time_ns

    @cached_property
    def characterization(self) -> dict:
        """Figure 2: app -> (trace, comm matrix, bin centers, load per bin)."""
        out = {}
        for app in APPS:
            trace = self.trace(app)
            result = repro.run_single(
                self.config, trace, "cont", "min", seed=SEED, record_sends=True
            )
            centers, loads = load_timeline(
                result.job.send_events, trace.num_ranks, num_bins=24
            )
            out[app] = (trace, trace.communication_matrix(), centers, loads)
        return out

    @cached_property
    def sweeps(self) -> dict:
        """Figure 7: app -> sensitivity sweep over :data:`SWEEP_SCALES`."""
        return {
            app: sensitivity_sweep(
                self.config, self.trace(app), scales, seed=SEED, max_workers=WORKERS
            )
            for app, scales in SWEEP_SCALES.items()
        }

    @cached_property
    def bg_nodes(self) -> dict[str, int]:
        """Background nodes beside each app: every node its ranks leave."""
        return {app: self.config.topology.num_nodes - RANKS for app in APPS}

    @cached_property
    def table2(self) -> dict[str, tuple[float, float]]:
        """Table II: app -> (uniform peak load MB, bursty peak load GB)."""
        rows = background_load_table(
            {app: background_specs(app) for app in APPS}, self.bg_nodes
        )
        return {app: (uniform_mb, bursty_gb) for app, uniform_mb, bursty_gb in rows}

    def fb_cell(self, placement: str, mode: str = "local", eager_threshold=None):
        """One :func:`fb_ablation_cell`; the sensing and protocol
        ablations share their ``cont``/local/eager cell."""
        key = (placement, mode, eager_threshold)
        return self._once(("fb", *key), lambda: fb_ablation_cell(*key))

    @cached_property
    def desync(self) -> dict[tuple[float, str], float]:
        """(skew ns, placement) -> AMG median comm time (ms) under adp."""
        out = {}
        for skew in SKEWS_NS:
            trace = repro.amg_trace(num_ranks=RANKS, seed=SEED)
            if skew > 0:
                rng = rng_stream(SEED, "ablation-skew", skew)
                for rt in trace.ranks:
                    rt.ops.insert(0, Compute(float(rng.uniform(0.0, skew))))
            for placement in ("cont", "rand"):
                r = repro.run_single(
                    self.config, trace, placement, "adp", seed=SEED, compute_scale=1.0
                )
                out[(skew, placement)] = r.metrics.median_comm_time_ns / 1e6
        return out

    @cached_property
    def switching(self) -> dict[tuple[str, str], float]:
        """(switching mode, placement) -> CR median comm time (ms), min routing.

        Light load: the latency-dominated regime where switching mode
        directly prices path length (heavy loads mix in queueing effects
        that can mask it).
        """
        base = repro.small().with_seed(SEED)
        trace = repro.crystal_router_trace(num_ranks=ABLATION_RANKS, seed=SEED).scaled(
            0.02
        )
        out = {}
        for mode in ("vct", "store_forward"):
            cfg = dataclasses.replace(
                base, network=dataclasses.replace(base.network, switching=mode)
            )
            for placement in ("cont", "rand"):
                r = repro.run_single(cfg, trace, placement, "min", seed=SEED)
                out[(mode, placement)] = r.metrics.median_comm_time_ns / 1e6
        return out


# -- Tables and figures -------------------------------------------------


def table1_nomenclature(g: Inputs) -> str:
    return nomenclature_table()


def table2_background_load(g: Inputs) -> str:
    lines = [
        "Table II — Peak Background Traffic Load on the Network",
        f"{'App':<5} {'Uniform (MB)':>14} {'Bursty (GB)':>13}"
        f" {'paper uniform':>14} {'paper bursty':>13}",
    ]
    for app, (uniform_mb, bursty_gb) in g.table2.items():
        pu, pb = PAPER_TABLE2[app]
        lines.append(
            f"{app:<5} {uniform_mb:>14.3f} {bursty_gb:>13.4f} {pu:>14.2f} {pb:>13.2f}"
        )
    return "\n".join(lines)


def fig2_characterization(g: Inputs) -> str:
    sections = []
    for app, (trace, mat, centers, loads) in g.characterization.items():
        partners = (mat > 0).sum(axis=1)
        near = sum(
            mat[i, j]
            for i in range(len(mat))
            for j in range(len(mat))
            if 0 < min((i - j) % len(mat), (j - i) % len(mat)) <= 2
        )
        lines = [
            f"Figure 2 — {app} characterization",
            f"  ranks={trace.num_ranks}  messages={trace.num_messages()}  "
            f"total={trace.total_bytes() / 1e6:.2f} MB",
            f"  avg load/rank={trace.avg_message_load_per_rank() / 1e3:.1f} KB  "
            f"partners/rank min/mean/max="
            f"{partners.min()}/{partners.mean():.1f}/{partners.max()}",
            f"  near-diagonal traffic share={near / max(mat.sum(), 1):.2f}",
            "  message load per rank over time (KB per bin):",
        ]
        if len(loads):
            peak = loads.max()
            for c, v in zip(centers, loads):
                bar = "#" * int(40 * v / peak) if peak else ""
                lines.append(f"    t={c / 1e6:8.3f} ms  {v / 1e3:9.2f} KB {bar}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


def fig3_comm_time(g: Inputs) -> str:
    findings = key_findings(g.study)
    sections = []
    for letter, app in zip("abc", APPS):
        sections.append(
            format_box_table(
                g.study.comm_time_boxes(app),
                f"Figure 3({letter}) — {app} communication time",
                unit="ms",
            )
        )
        f = findings[app]
        sections.append(
            f"  best={f['best']}  "
            f"rand-vs-cont={f['rand_vs_cont_pct']:+.1f}%  "
            f"cont-vs-rand={f['cont_vs_rand_pct']:+.1f}%"
        )
    return "\n\n".join(sections)


#: Figures 5 and 6 panels (a-d): (metric, channel class).
TRAFFIC_AND_SATURATION = (
    ("traffic", "local"),
    ("saturation", "local"),
    ("traffic", "global"),
    ("saturation", "global"),
)


def network_cdfs(grid: StudyResult, figure: int, app: str, panels) -> str:
    """Figures 4-6: one per-channel CDF table per (metric, channel) panel."""
    sections = []
    for letter, (metric, channel) in zip("abcd", panels):
        if metric == "hops":
            curves, what, unit = grid.hops_cdf(app), "average hops", "hops"
        elif metric == "traffic":
            curves = grid.traffic_cdf(app, channel)
            what, unit = f"{channel} channel traffic", "MB"
        else:
            curves = grid.saturation_cdf(app, channel)
            what, unit = f"{channel} link saturation", "ms"
        sections.append(
            format_cdf_table(
                curves, f"Figure {figure}({letter}) — {app} {what} CDF", unit
            )
        )
    return "\n\n".join(sections)


def fig4_cr_network(g: Inputs) -> str:
    panels = (
        ("hops", None),
        ("traffic", "local"),
        ("saturation", "local"),
        ("saturation", "global"),
    )
    return network_cdfs(g.study, 4, "CR", panels)


def fig5_fb_network(g: Inputs) -> str:
    return network_cdfs(g.study, 5, "FB", TRAFFIC_AND_SATURATION)


def fig6_amg_network(g: Inputs) -> str:
    return network_cdfs(g.study, 6, "AMG", TRAFFIC_AND_SATURATION)


def fig7_sensitivity(g: Inputs) -> str:
    return "\n\n".join(
        format_series_table(
            sweep.scales,
            sweep.relative(),
            f"Figure 7({letter}) — {app} max comm time relative to rand-adp (%)",
            x_name="msg scale",
        )
        for letter, (app, sweep) in zip("abc", g.sweeps.items())
    )


def fig8_amg_background(g: Inputs) -> str:
    grid = g.background("AMG", "uniform")
    return "\n\n".join([
        format_box_table(
            grid.comm_time_boxes("AMG"),
            "Figure 8(a) — AMG communication time under uniform random background",
            unit="ms",
        ),
        format_cdf_table(
            grid.traffic_cdf("AMG", "local"),
            "Figure 8(b) — AMG-router local channel traffic CDF",
            "MB",
        ),
        format_cdf_table(
            grid.traffic_cdf("AMG", "global"),
            "Figure 8(c) — AMG-router global channel traffic CDF",
            "MB",
        ),
        "cont-min degradation vs interference-free: "
        f"{g.degradation('AMG', 'uniform', 'cont-min'):4.2f}x",
    ])


def background_panels(g: Inputs, figure: int, app: str) -> list[str]:
    """Figures 9-10 (a-c): comm time under each pattern, bursty local CDF."""
    uniform, bursty = g.background(app, "uniform"), g.background(app, "bursty")
    return [
        format_box_table(
            uniform.comm_time_boxes(app),
            f"Figure {figure}(a) — {app} communication time, "
            "uniform random background",
            unit="ms",
        ),
        format_box_table(
            bursty.comm_time_boxes(app),
            f"Figure {figure}(b) — {app} communication time, bursty background",
            unit="ms",
        ),
        format_cdf_table(
            bursty.traffic_cdf(app, "local"),
            f"Figure {figure}(c) — {app}-router local channel traffic CDF (bursty)",
            "MB",
        ),
    ]


def fig9_cr_background(g: Inputs) -> str:
    lines = ["degradation vs interference-free (median):"]
    for label in ("cont-min", "rand-adp"):
        u = g.degradation("CR", "uniform", label)
        b = g.degradation("CR", "bursty", label)
        lines.append(f"  {label}: uniform {u:5.2f}x   bursty {b:5.2f}x")
    return "\n\n".join(background_panels(g, 9, "CR") + ["\n".join(lines)])


def fig10_fb_background(g: Inputs) -> str:
    u = g.degradation("FB", "uniform", "cont-min")
    b = g.degradation("FB", "bursty", "cont-min")
    return "\n\n".join(
        background_panels(g, 10, "FB")
        + [f"cont-min degradation vs interference-free: uniform {u:4.2f}x  "
           f"bursty {b:4.2f}x"]
    )


def ablation_switching(g: Inputs) -> str:
    lines = [
        "Ablation — switching mode (CR at 2% load, small preset, ms)",
        f"{'mode':<15} {'cont-min':>10} {'rand-min':>10} {'rand/cont':>10}",
    ]
    for mode in ("vct", "store_forward"):
        cont, rand = g.switching[(mode, "cont")], g.switching[(mode, "rand")]
        lines.append(f"{mode:<15} {cont:>10.4f} {rand:>10.4f} {rand / cont:>10.3f}")
    return "\n".join(lines)


def ablation_adaptive_sensing(g: Inputs) -> str:
    lines = [
        "Ablation — adaptive congestion sensing (FB under cont placement)",
        f"{'mode':<8} {'median ms':>10} {'max ms':>10} {'local sat ms':>13} "
        f"{'nonmin %':>9}",
    ]
    for mode in ("local", "path"):
        m, nonmin = g.fb_cell("cont", mode)
        lines.append(
            f"{mode:<8} {m.median_comm_time_ns / 1e6:>10.4f} "
            f"{m.max_comm_time_ns / 1e6:>10.4f} "
            f"{m.total_local_sat_ns / 1e6:>13.4f} {100 * nonmin:>8.1f}%"
        )
    return "\n".join(lines)


PROTOCOLS = {"eager": None, "rendezvous": EAGER_THRESHOLD}


def ablation_protocol(g: Inputs) -> str:
    lines = [
        "Ablation — message protocol (FB under adaptive routing, ms)",
        f"{'protocol':<12} {'cont median':>12} {'rand median':>12}",
    ]
    for proto, threshold in PROTOCOLS.items():
        cont, rand = (
            g.fb_cell(p, eager_threshold=threshold)[0].median_comm_time_ns / 1e6
            for p in ("cont", "rand")
        )
        lines.append(f"{proto:<12} {cont:>12.4f} {rand:>12.4f}")
    return "\n".join(lines)


def ablation_desync(g: Inputs) -> str:
    lines = [
        "Ablation — per-rank skew vs AMG placement gap (median ms, adp)",
        f"{'skew us':>8} {'cont-adp':>10} {'rand-adp':>10} {'cont/rand':>10}",
    ]
    for skew in SKEWS_NS:
        cont, rand = g.desync[(skew, "cont")], g.desync[(skew, "rand")]
        lines.append(
            f"{skew / 1e3:>8.0f} {cont:>10.4f} {rand:>10.4f} {cont / rand:>10.3f}"
        )
    return "\n".join(lines)


#: Result name -> renderer, in run order.
FIGURES: dict[str, Callable[[Inputs], str]] = {
    f.__name__: f
    for f in (
        table1_nomenclature,
        table2_background_load,
        fig2_characterization,
        fig3_comm_time,
        fig4_cr_network,
        fig5_fb_network,
        fig6_amg_network,
        fig7_sensitivity,
        fig8_amg_background,
        fig9_cr_background,
        fig10_fb_background,
        ablation_switching,
        ablation_adaptive_sensing,
        ablation_protocol,
        ablation_desync,
    )
}


def document(name: str, text: str) -> str:
    """A result file's full text: its machine's header line, then ``text``."""
    preset, ranks = (
        ("small", ABLATION_RANKS) if name in SMALL_PRESET_RESULTS else (PRESET, RANKS)
    )
    return f"# {name} — preset={preset} ranks={ranks} seed={SEED}\n{text}\n"


# -- Claims -------------------------------------------------------------

OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


@dataclasses.dataclass(frozen=True)
class Claim:
    """One checked finding: ``measure(inputs) <op> bound``."""

    id: str
    figure: str  # a key of FIGURES
    app: str
    statement: str
    measure: Callable[[Inputs], float]
    op: str
    bound: float
    paper: str  # the paper's value, "—" where it gives none
    #: A known divergence from the paper: the claim is expected to fail.
    diverges: bool = False


@dataclasses.dataclass(frozen=True)
class Verdict:
    claim: Claim
    value: float

    @property
    def holds(self) -> bool:
        return OPS[self.claim.op](self.value, self.claim.bound)

    @property
    def ok(self) -> bool:
        return self.holds != self.claim.diverges

    @property
    def label(self) -> str:
        if self.claim.diverges:
            return "XPASS" if self.holds else "xfail"
        return "pass" if self.holds else "FAIL"


def evaluate(claim: Claim, g: Inputs) -> Verdict:
    try:
        value = float(claim.measure(g))
    except ZeroDivisionError:  # a zero baseline shows nothing: the row fails
        value = math.nan
    return Verdict(claim, value)


#: Cell metrics that ratio claims compare, by the name their statements use.
METRICS: dict[str, Callable[[RunMetrics], float]] = {
    "mean hops": lambda m: m.mean_hops,
    "max comm time": lambda m: m.max_comm_time_ns,
    "median comm time": lambda m: m.median_comm_time_ns,
    "total local saturation": lambda m: m.total_local_sat_ns,
    "busiest local channel saturation": lambda m: m.local_sat_ns.max(),
    "total local traffic": lambda m: m.total_local_traffic,
    "total global traffic": lambda m: m.total_global_traffic,
}


MIN_CONFIGS = [f"{p}-min" for p in PLACEMENT_NAMES]
ADP_CONFIGS = [f"{p}-adp" for p in PLACEMENT_NAMES]


def ratio(id, figure, app, a, b, metric, op, bound, paper, pattern=None) -> Claim:
    """A claim on ``metric`` of config ``a`` over config ``b``, in the
    isolated grid or, given ``pattern``, under that background."""

    def measure(g: Inputs) -> float:
        values = per_config(g, app, metric, pattern)
        return values[a] / values[b]

    where = f", {pattern} background" if pattern else ""
    return Claim(id, figure, app, f"{a} over {b}, {metric}{where}", measure, op,
                 bound, paper)


def improvement(id, app, better, worse, stat, op, bound, paper, diverges=False):
    """A Figure 3 claim on the paper's "X% improvement of a over b"."""
    return Claim(id, "fig3_comm_time", app,
                 f"{better} over {worse} improvement, {stat} comm time (%)",
                 lambda g: g.study.improvement_pct(app, better, worse, stat=stat),
                 op, bound, paper, diverges)


def sweep_gap(id, app, a, b, op, bound, paper) -> Claim:
    """A Figure 7 claim on ``a`` minus ``b`` at the sweep's largest scale."""
    return Claim(id, "fig7_sensitivity", app,
                 f"{a} minus {b} at the largest scale (points of rand-adp)",
                 lambda g: rel(g, app, a, -1) - rel(g, app, b, -1),
                 op, bound, paper)


def rel(g: Inputs, app: str, label: str, i: int) -> float:
    """Figure 7: ``label``'s max comm time as % of rand-adp at scale ``i``."""
    return g.sweeps[app].relative()[label][i]


def per_config(g: Inputs, app: str, metric: str, pattern=None) -> dict[str, float]:
    """``metric`` of every config, in the isolated grid or under ``pattern``."""
    grid = g.study if pattern is None else g.background(app, pattern)
    return {lb: METRICS[metric](grid.get(app, lb).metrics) for lb in grid.labels()}


def best(g: Inputs, app: str, metric: str, labels, pattern=None) -> float:
    """The smallest ``metric`` among ``labels`` (all configs if None)."""
    values = per_config(g, app, metric, pattern)
    return min(values[lb] for lb in labels or values)


def load(g: Inputs, app: str) -> float:
    return g.characterization[app][0].avg_message_load_per_rank()


def pairs(g: Inputs, app: str) -> int:
    """Figure 2: communicating (sender, receiver) rank pairs."""
    return int((g.characterization[app][1] > 0).sum())


def rank_spread(g: Inputs, app: str, pattern: str, label: str) -> float:
    ct = g.background(app, pattern).get(app, label).metrics.comm_time_ns
    return float(ct.max() - ct.min())


def desync_ratios(g: Inputs) -> list[float]:
    return [g.desync[(s, "cont")] / g.desync[(s, "rand")] for s in SKEWS_NS]


def switching_ratio(g: Inputs, mode: str) -> float:
    return g.switching[(mode, "rand")] / g.switching[(mode, "cont")]


def table2_claim(id, app, statement, stat, op, bound) -> Claim:
    """A Table II claim; ``stat`` of the paper's Table II is its paper value."""
    return Claim(id, "table2_background_load", app, statement,
                 lambda g: stat(g.table2), op, bound, f"{stat(PAPER_TABLE2):.4g}")


def kib_per_node(uniform_bytes: dict[str, float], nodes: dict[str, int]) -> float:
    """Uniform peak load per background node in KiB if every app has the
    same one, else NaN. Rounded to 2 decimals: Table II's 2-decimal MiB
    column puts the paper's per-node loads within 0.003 KiB."""
    loads = {round(b / nodes[app] / 1024, 2) for app, b in uniform_bytes.items()}
    return loads.pop() if len(loads) == 1 else math.nan


CLAIMS: tuple[Claim, ...] = (
    Claim("table1.ten-configs", "table1_nomenclature", "—",
          "placement x routing pairs that instantiate",
          lambda g: len([(make_placement(p), make_routing(r))
                         for p in PLACEMENT_NAMES for r in ROUTING_NAMES]),
          "==", 10, "10"),
    Claim("table2.uniform-per-node", "table2_background_load", "all",
          "uniform peak load per background node, one value for every app (KiB)",
          lambda g: kib_per_node(
              {app: mb * 1e6 for app, (mb, _) in g.table2.items()}, g.bg_nodes
          ),
          "==", 16.0,
          "{:g} each".format(kib_per_node(
              {app: mib * 2**20 for app, (mib, _) in PAPER_TABLE2.items()},
              PAPER_BG_NODES,
          ))),
    *(
        table2_claim(f"table2.{app.lower()}-bursty-dwarfs-uniform", app,
                     "bursty over uniform peak load",
                     lambda t, app=app: t[app][1] * 1e3 / t[app][0], ">", 1.0)
        for app in APPS
    ),
    table2_claim("table2.cr-bursty-largest", "CR", "CR over FB bursty peak load",
                 lambda t: t["CR"][1] / t["FB"][1], ">", 1.0),
    table2_claim("table2.fb-bursty-over-amg", "FB", "FB over AMG bursty peak load",
                 lambda t: t["FB"][1] / t["AMG"][1], ">", 1.0),
    Claim("fig2.amg-regional", "fig2_characterization", "AMG",
          "AMG over CR communicating rank pairs",
          lambda g: pairs(g, "AMG") / pairs(g, "CR"), "<", 1.0, "<=6 vs many"),
    Claim("fig2.amg-lightest", "fig2_characterization", "AMG",
          "AMG over CR message load per rank",
          lambda g: load(g, "AMG") / load(g, "CR"), "<", 1.0, "<=75 vs ~190 KB"),
    Claim("fig2.fb-heaviest", "fig2_characterization", "FB",
          "CR over FB message load per rank",
          lambda g: load(g, "CR") / load(g, "FB"), "<", 1.0, "~190 vs <=2560 KB"),
    improvement("fig3.cr-rand-beats-cont", "CR", "rand-min", "cont-min", "max",
                ">", 0.0, "up to 8"),
    improvement("fig3.fb-rand-adp-near-cont-adp", "FB", "rand-adp", "cont-adp",
                "max", ">=", -2.0, "24.4"),
    improvement("fig3.fb-prefers-adp", "FB", "cont-adp", "cont-min", "median",
                ">", 0.0, "adp preferred"),
    improvement("fig3.amg-prefers-adp", "AMG", "cont-adp", "cont-min", "median",
                ">", 0.0, "adp preferred"),
    Claim("fig3.amg-tight-band", "fig3_comm_time", "AMG",
          "largest over smallest median comm time of the 10 configs",
          lambda g: max(per_config(g, "AMG", "median comm time").values())
          / best(g, "AMG", "median comm time", None),
          "<", 2.5, "a few %"),
    improvement("fig3.amg-cont-beats-rand", "AMG", "cont-adp", "rand-adp", "median",
                ">", 0.0, "2.3", diverges=True),
    ratio("fig4.cont-fewer-hops", "fig4_cr_network", "CR", "cont-min", "rand-min",
          "mean hops", "<", 1.0, "cont < rand"),
    ratio("fig4.cont-min-fewer-hops-than-adp", "fig4_cr_network", "CR", "cont-min",
          "cont-adp", "mean hops", "<=", 1.0, "min < adp"),
    ratio("fig4.rand-min-fewer-hops-than-adp", "fig4_cr_network", "CR", "rand-min",
          "rand-adp", "mean hops", "<=", 1.0, "min < adp"),
    ratio("fig4.cont-saturates-local-min", "fig4_cr_network", "CR", "cont-min",
          "rand-min", "total local saturation", ">", 1.0, "cont > rand"),
    ratio("fig4.cont-saturates-local-adp", "fig4_cr_network", "CR", "cont-adp",
          "rand-adp", "total local saturation", ">", 1.0, "cont > rand"),
    ratio("fig4.rand-faster", "fig4_cr_network", "CR", "rand-min", "cont-min",
          "max comm time", "<", 1.0, "up to 8% faster"),
    ratio("fig5.adp-relieves-cont", "fig5_fb_network", "FB", "cont-min", "cont-adp",
          "total local saturation", ">=", 1.0, "cont-min worst"),
    Claim("fig5.best-is-adp", "fig5_fb_network", "FB",
          "best adp over best min config, max comm time",
          lambda g: best(g, "FB", "max comm time", ADP_CONFIGS)
          / best(g, "FB", "max comm time", MIN_CONFIGS),
          "<", 1.0, "rand-adp best"),
    ratio("fig5.rand-loads-global", "fig5_fb_network", "FB", "rand-min", "cont-min",
          "total global traffic", ">", 1.0, "rand > cont"),
    ratio("fig6.cont-saturates-local", "fig6_amg_network", "AMG", "cont-min",
          "rand-min", "total local saturation", ">", 3.0, "cont-min longest"),
    ratio("fig6.cab-saturates-local", "fig6_amg_network", "AMG", "cab-min",
          "rand-min", "total local saturation", ">", 1.0, "localized > balanced"),
    ratio("fig6.busiest-channel", "fig6_amg_network", "AMG", "cont-min", "rand-min",
          "busiest local channel saturation", ">", 1.0, "few busy channels"),
    ratio("fig6.cont-adp-fewer-hops", "fig6_amg_network", "AMG", "cont-adp",
          "rand-adp", "mean hops", "<", 1.0, "cont-adp fewer"),
    Claim("fig7.paper-apps", "fig7_sensitivity", "all",
          "apps swept but not in the paper's grids, or the reverse",
          lambda g: len(set(SWEEP_SCALES) ^ set(PAPER_SCALES)), "==", 0, "0"),
    sweep_gap("fig7.cr-rand-wins-high-load", "CR", "rand-min", "cont-min",
              "<", 0.0, "rand up to 7.5% better"),
    Claim("fig7.fb-rand-adp-best", "fig7_sensitivity", "FB",
          "smallest config at the largest scale (% of rand-adp)",
          lambda g: min(rel(g, "FB", lb, -1) for lb in g.sweeps["FB"].labels()),
          ">=", 95.0, "100"),
    sweep_gap("fig7.amg-cont-adp-beats-min", "AMG", "cont-adp", "cont-min",
              "<", 0.0, "adp wins"),
    sweep_gap("fig7.amg-rand-adp-beats-min", "AMG", "rand-adp", "rand-min",
              "<=", 0.0, "adp wins"),
    Claim("fig7.amg-min-degrades", "fig7_sensitivity", "AMG",
          "rand-min at the largest minus at the smallest scale (points)",
          lambda g: rel(g, "AMG", "rand-min", -1) - rel(g, "AMG", "rand-min", 0),
          ">=", -5.0, "grows"),
    Claim("fig7.amg-cont-wins-low-load", "fig7_sensitivity", "AMG",
          "best cont minus best rand config at the smallest scale (points)",
          lambda g: min(rel(g, "AMG", lb, 0) for lb in ("cont-min", "cont-adp"))
          - min(rel(g, "AMG", lb, 0) for lb in ("rand-min", "rand-adp")),
          "<", 0.0, "cont better", diverges=True),
    Claim("fig8.localized-least-affected", "fig8_amg_background", "AMG",
          "best of cont-min/cab-min/cont-adp over best median comm time",
          lambda g: best(g, "AMG", "median comm time",
                         ("cont-min", "cab-min", "cont-adp"), "uniform")
          / best(g, "AMG", "median comm time", None, "uniform"),
          "<=", 1.05, "cont-min/cab-min best"),
    Claim("fig8.spread-worst", "fig8_amg_background", "AMG",
          "worst of rand-adp/rotr-adp/rand-min over worst median comm time",
          lambda g: max(per_config(g, "AMG", "median comm time", "uniform")[lb]
                        for lb in ("rand-adp", "rotr-adp", "rand-min"))
          / max(per_config(g, "AMG", "median comm time", "uniform").values()),
          ">=", 1.0, "rand-adp worst"),
    ratio("fig8.rand-adp-suffers", "fig8_amg_background", "AMG", "rand-adp",
          "cont-min", "median comm time", ">", 1.5, "worst; 30x alone",
          pattern="uniform"),
    ratio("fig8.min-keeps-background-off", "fig8_amg_background", "AMG", "rand-min",
          "rand-adp", "total local traffic", "<", 1.0, "min < adp",
          pattern="uniform"),
    Claim("fig8.cont-min-isolated", "fig8_amg_background", "AMG",
          "cont-min degradation vs interference-free",
          lambda g: g.degradation("AMG", "uniform", "cont-min"), "<", 1.5, "~1"),
    ratio("fig8.rand-adp-slower", "fig8_amg_background", "AMG", "rand-adp",
          "cont-min", "median comm time", ">", 1.0, "rand-adp worst",
          pattern="uniform"),
    Claim("fig9.uniform-harmless", "fig9_cr_background", "CR",
          "cont-min degradation under uniform background",
          lambda g: g.degradation("CR", "uniform", "cont-min"),
          "<", 2.0, "no obvious variation"),
    Claim("fig9.localized-resist-bursts", "fig9_cr_background", "CR",
          "best of cont-min/cab-min over the grid's median, bursty background",
          lambda g: best(g, "CR", "median comm time", ("cont-min", "cab-min"), "bursty")
          / np.median(list(per_config(g, "CR", "median comm time", "bursty").values())),
          "<=", 1.0, "cont-min/cab-min least"),
    Claim("fig10.uniform-harmless", "fig10_fb_background", "FB",
          "cont-min degradation under uniform background",
          lambda g: g.degradation("FB", "uniform", "cont-min"),
          "<", 2.0, "no obvious variation"),
    Claim("fig10.cont-varies-least", "fig10_fb_background", "FB",
          "cont-min over rand-adp rank spread of comm time, bursty background",
          lambda g: rank_spread(g, "FB", "bursty", "cont-min")
          / rank_spread(g, "FB", "bursty", "rand-adp"),
          "<=", 1.5, "cont/cab least"),
    Claim("switching.sf-penalises-spread", "ablation_switching", "CR",
          "rand/cont under store-and-forward minus under cut-through",
          lambda g: switching_ratio(g, "store_forward") - switching_ratio(g, "vct"),
          ">", 0.0, "—"),
    *(
        Claim(f"switching.vct-not-slower-{p}", "ablation_switching", "CR",
              f"{p}-min under cut-through over store-and-forward",
              lambda g, p=p: g.switching[("vct", p)]
              / g.switching[("store_forward", p)],
              "<=", 1.0, "—")
        for p in ("cont", "rand")
    ),
    Claim("sensing.both-finish", "ablation_adaptive_sensing", "FB",
          "smaller median comm time of local and path sensing (ms)",
          lambda g: min(g.fb_cell("cont", mode)[0].median_comm_time_ns / 1e6
                        for mode in ("local", "path")),
          ">", 0.0, "—"),
    Claim("sensing.decisions-differ", "ablation_adaptive_sensing", "FB",
          "non-minimal share gap, local vs path sensing (points)",
          lambda g: abs(100 * (g.fb_cell("cont", "local")[1]
                               - g.fb_cell("cont", "path")[1])),
          ">", 0.0, "—"),
    *(
        Claim(f"protocol.rendezvous-slower-{p}", "ablation_protocol", "FB",
              f"{p} median comm time, rendezvous over eager",
              lambda g, p=p: g.fb_cell(p, eager_threshold=EAGER_THRESHOLD)[0]
              .median_comm_time_ns / g.fb_cell(p)[0].median_comm_time_ns,
              ">=", 1.0, "—")
        for p in ("cont", "rand")
    ),
    Claim("desync.skew-closes-gap", "ablation_desync", "AMG",
          "cont/rand at the largest minus at zero skew",
          lambda g: desync_ratios(g)[-1] - desync_ratios(g)[0], "<", -0.05, "—"),
    Claim("desync.gap-never-widens", "ablation_desync", "AMG",
          "largest cont/rand minus cont/rand at zero skew",
          lambda g: max(desync_ratios(g)) - desync_ratios(g)[0], "<=", 0.02, "—"),
)


def claims_table(verdicts: list[Verdict]) -> str:
    """``claims.txt``: one row per claim with its value, test and verdict."""
    lines = [
        "Paper claims — measured value, test, verdict and the paper's value",
        "(xfail: a known divergence, EXPERIMENTS.md; FAIL and XPASS fail the run)",
        f"{'claim':<34} {'app':<4} {'measured':>10} {'test':<8} {'verdict':<7} "
        f"{'paper':<22} statement",
    ]
    for v in verdicts:
        c = v.claim
        lines.append(
            f"{c.id:<34} {c.app:<4} {v.value:>10.4g} {c.op + ' ' + f'{c.bound:g}':<8} "
            f"{v.label:<7} {c.paper:<22} {c.statement}"
        )
    return "\n".join(lines)


def main() -> int:
    g = Inputs()
    RESULTS_DIR.mkdir(exist_ok=True)
    for name, render in FIGURES.items():
        start = time.perf_counter()
        (RESULTS_DIR / f"{name}.txt").write_text(document(name, render(g)))
        print(f"{name}: {time.perf_counter() - start:.1f} s", flush=True)
    verdicts = [evaluate(claim, g) for claim in CLAIMS]
    (RESULTS_DIR / "claims.txt").write_text(document("claims", claims_table(verdicts)))
    failed = [v for v in verdicts if not v.ok]
    for v in failed:
        print(
            f"claim {v.claim.id} ({v.claim.figure}) {v.label}: "
            f"{v.claim.statement} = {v.value:.4g}, want {v.claim.op} {v.claim.bound:g}",
            file=sys.stderr,
        )
    print(f"{len(verdicts) - len(failed)} of {len(verdicts)} claims as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
