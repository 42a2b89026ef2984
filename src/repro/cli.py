"""Command-line interface: ``dragonfly-tradeoff <command>``.

Commands mirror the paper's three analysis steps plus utilities:

* ``study``        — Section IV-A grid for one app (Figures 3-6 data)
* ``sensitivity``  — Section IV-B message-size sweep (Figure 7 data)
* ``interference`` — Section IV-C background-traffic study (Figures 8-10)
* ``resilience``   — failure-rate sweep over the grid (repro.faults)
* ``fidelity``     — flow-vs-packet cross-fidelity check (repro.flow)
* ``replay``       — replay a repro-dumpi trace file (or a param-style
  JSON comms trace, detected by the ``.json`` suffix)
* ``training-tradeoff`` — the placement x routing grid on the DL
  training family (repro.mlcomms), exported as repro-mlcomms/v1
* ``characterize`` — print an app's communication matrix summary (Fig 2)
* ``cluster-stream`` — online cluster scenario: seeded job stream,
  FCFS(+backfill) scheduling, epoch-cached interference (repro.cluster)
* ``nomenclature`` — print Table I

Each command accepts only the flags it reads (README lists them), so a
flag it would ignore exits with status 2. Fault injection (DESIGN.md
§S15): ``--faults plan.json`` loads a :class:`~repro.faults.FaultPlan`,
or ``--fault-rate R`` draws a seeded one (``--fault-seed``).
``--backend flow`` (DESIGN.md §S16) takes neither ``--obs`` nor fault
plans; only cluster-stream fences failed routers' nodes on it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import config as cfg
from repro.apps import APP_BUILDERS
from repro.core.interference import BackgroundSpec, interference_study
from repro.core.report import (
    format_box_table,
    format_cdf_table,
    format_series_table,
    key_findings,
    nomenclature_table,
)
from repro.core.sensitivity import PAPER_SCALES, sensitivity_sweep
from repro.cluster.scheduler import SCHED_POLICIES
from repro.core.study import TradeoffStudy
from repro.core.runner import check_cell_options, run_single
from repro.exec.progress import TextReporter
from repro.flow import BACKEND_NAMES
from repro.mpi.dumpi import load_trace
from repro.obs import ObsConfig, export as obs_export

__all__ = ["build_parser", "main"]

_PRESETS = {
    "theta": cfg.theta,
    "medium": cfg.medium,
    "small": cfg.small,
    "tiny": cfg.tiny,
}


#: Every option more than one command reads, defined once. A command
#: adds only the groups it reads, so a flag it would ignore is a usage
#: error.
_FLAGS: dict[str, dict] = {
    "--preset": dict(
        choices=sorted(_PRESETS), default="small",
        help="machine preset (default: %(default)s)",
    ),
    "--seed": dict(type=int, default=0),
    "--ranks": dict(type=int, default=64, help="application rank count"),
    "--msg-scale": dict(
        type=float, default=0.05,
        help="scale applied to every message size (default: %(default)s; "
        "keep small on small presets)",
    ),
    "--workers": dict(
        type=int, default=1,
        help="worker processes for grid/sweep cells (1 = serial, the "
        "default; results are identical at any worker count)",
    ),
    "--cache-dir": dict(
        default=None, metavar="DIR",
        help="disk result cache; re-runs only simulate changed cells",
    ),
    "--progress": dict(
        action="store_true",
        help="print per-cell progress/ETA telemetry to stderr",
    ),
    "--backend": dict(
        choices=BACKEND_NAMES, default="packet",
        help="simulation model: the exact packet engine or the fast "
        "flow-level approximation (default: %(default)s)",
    ),
    "--faults": dict(
        default=None, metavar="PLAN.json",
        help="inject the fault plan loaded from this JSON file "
        "(see repro.faults.save_fault_plan)",
    ),
    "--fault-rate": dict(
        type=float, default=0.0, metavar="R",
        help="draw a seeded fault plan failing each local/global "
        "channel with probability R (instead of --faults)",
    ),
    "--fault-seed": dict(
        type=int, default=0, help="seed for drawn fault plans (default: 0)"
    ),
    "--obs": dict(
        action="store_true",
        help="record time-resolved per-link telemetry (repro.obs) on "
        "every simulated cell",
    ),
    "--obs-window-ns": dict(
        type=float, default=50_000.0, metavar="NS",
        help="observability sampling window in simulated ns "
        "(default: 50000)",
    ),
    "--obs-out": dict(
        default=None, metavar="DIR",
        help="export per-cell telemetry (one file per cell) under this "
        "directory; implies --obs",
    ),
    "--obs-format": dict(
        choices=("jsonl", "csv"), default="jsonl",
        help="telemetry export format (default: jsonl)",
    ),
}
MACHINE = ("--preset", "--seed")
SCALE = ("--ranks", "--msg-scale")
EXEC = ("--workers", "--cache-dir", "--progress")
BACKEND = ("--backend",)
FAULTS = ("--faults", "--fault-rate", "--fault-seed")
OBS = ("--obs", "--obs-window-ns", "--obs-out", "--obs-format")

#: ``advise`` flags only the funnel reads, with their defaults. They
#: parse as absent unless given, so the rule table can reject them.
_FUNNEL_DEFAULTS = dict(
    routing="min", model=None, train_cache=None, save_model=None,
    candidates_per_policy=1, screen_top=5, validate_top=2, exhaustive=False,
    out=None, workers=1, cache_dir=None,
)


def _add_flags(p, *flags: str) -> None:
    """Add the named shared flags to a parser or argument group."""
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def _exec_opts(args) -> dict:
    """The repro.exec keyword arguments shared by all study commands."""
    return {
        "max_workers": args.workers,
        "cache_dir": args.cache_dir,
        "progress": TextReporter() if args.progress else None,
    }


def _obs_config(args) -> ObsConfig | None:
    """The observability configuration implied by the CLI flags."""
    if not (getattr(args, "obs", False) or getattr(args, "obs_out", None)):
        return None
    return ObsConfig(window_ns=args.obs_window_ns)


def _fault_plan(parser, args, config):
    """The fault plan implied by --faults / --fault-rate, or None."""
    faults = getattr(args, "faults", None)
    rate = getattr(args, "fault_rate", 0.0)
    if faults and rate > 0.0:
        parser.error("--faults and --fault-rate are alternatives; give one")
    try:
        if faults:
            from repro.faults import load_fault_plan

            return load_fault_plan(faults)
        if rate > 0.0:
            from repro.core.runner import build_topology
            from repro.faults import random_fault_plan

            return random_fault_plan(
                build_topology(config.topology), rate, seed=args.fault_seed
            )
    except (OSError, ValueError) as exc:
        parser.error(f"fault plan: {exc}")
    return None


def _check_advise_mode(parser, args) -> None:
    """Reject the other advise mode's flags, then fill funnel defaults."""
    if args.funnel and (args.shared or args.bursty):
        parser.error("--shared/--bursty tune the rule table, not --funnel")
    given = [dest for dest in _FUNNEL_DEFAULTS if dest in vars(args)]
    if given and not args.funnel:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in given)
        parser.error(f"without --funnel, advise does not read {flags}")
    for dest, default in _FUNNEL_DEFAULTS.items():
        vars(args).setdefault(dest, default)


def _export_study_obs(result, args) -> None:
    """Write one telemetry file per observed cell of a grid study."""
    if args.obs_out is None:
        return
    out = Path(args.obs_out)
    written = 0
    for (app, placement, routing), run in result.runs.items():
        if run.obs is None:
            continue
        obs_export(run.obs, out / f"{app}-{placement}-{routing}.{args.obs_format}")
        written += 1
    print(f"obs: wrote {written} telemetry file(s) to {out}/", file=sys.stderr)


def _build_trace(args):
    """Build the requested app trace at the CLI's rank count and scale."""
    builder = APP_BUILDERS[args.app]
    trace = builder(num_ranks=args.ranks, seed=args.seed)
    if args.msg_scale != 1.0:
        trace = trace.scaled(args.msg_scale)
    return trace


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; each subcommand accepts only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="dragonfly-tradeoff",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    apps = sorted(APP_BUILDERS)

    p_study = sub.add_parser("study", help="placement x routing grid")
    p_study.add_argument("app", choices=apps)
    _add_flags(p_study, *MACHINE, *SCALE, *EXEC, *BACKEND, *FAULTS, *OBS)

    p_sens = sub.add_parser("sensitivity", help="message-size sweep")
    p_sens.add_argument("app", choices=apps)
    _add_flags(p_sens, *MACHINE, *SCALE, *EXEC, *BACKEND, *FAULTS)

    p_intf = sub.add_parser("interference", help="background-traffic study")
    p_intf.add_argument("app", choices=apps)
    p_intf.add_argument(
        "--pattern", choices=("uniform", "bursty"), default="uniform"
    )
    p_intf.add_argument("--bg-bytes", type=int, default=4096)
    p_intf.add_argument("--bg-interval-us", type=float, default=5.0)
    p_intf.add_argument("--bg-fanout", type=int, default=None)
    _add_flags(p_intf, *MACHINE, *SCALE, *EXEC, *BACKEND, *FAULTS, *OBS)

    p_res = sub.add_parser(
        "resilience", help="failure-rate sweep over the grid (packet backend)"
    )
    p_res.add_argument("app", choices=apps)
    p_res.add_argument(
        "--rates",
        default="0.02,0.05,0.1",
        metavar="R1,R2,...",
        help="comma-separated per-channel failure rates to sweep "
        "(a healthy rate-0 baseline is always included)",
    )
    p_res.add_argument(
        "--router-rate",
        type=float,
        default=0.0,
        metavar="R",
        help="per-router whole-router failure probability (default: 0)",
    )
    p_res.add_argument(
        "--out",
        default=None,
        metavar="PATH.json",
        help="write the full per-cell degradation summary as JSON",
    )
    _add_flags(p_res, *MACHINE, *SCALE, *EXEC, "--fault-seed")

    p_fid = sub.add_parser(
        "fidelity", help="flow-vs-packet cross-fidelity check"
    )
    p_fid.add_argument("app", choices=apps)
    p_fid.add_argument(
        "--out",
        default=None,
        metavar="PATH.json",
        help="write the repro-fidelity/v1 report as JSON",
    )
    _add_flags(p_fid, *MACHINE, *SCALE, *EXEC)

    p_replay = sub.add_parser(
        "replay",
        help="replay a repro-dumpi trace file (.json = param comms trace)",
    )
    p_replay.add_argument("trace_file")
    p_replay.add_argument("--placement", default="cont")
    p_replay.add_argument("--routing", default="min")
    p_replay.add_argument(
        "--trace-ranks", type=int, default=None, metavar="N",
        help="rank count for bare-list JSON comms traces without a "
        "num_ranks header",
    )
    _add_flags(p_replay, *MACHINE, "--msg-scale", *BACKEND, *FAULTS, *OBS)
    p_replay.set_defaults(msg_scale=1.0)

    p_tt = sub.add_parser(
        "training-tradeoff",
        help="placement x routing grid for the DL training family "
        "(repro.mlcomms)",
    )
    p_tt.add_argument(
        "--apps", default="DP,PP,TP,MOE", metavar="A,B,...",
        help="synthetic training apps to run (default: DP,PP,TP,MOE; "
        "empty to study only imported traces)",
    )
    p_tt.add_argument(
        "--trace", action="append", default=[], metavar="TRACE.json",
        help="also study this imported param-style comms trace "
        "(repeatable)",
    )
    p_tt.add_argument(
        "--trace-ranks", type=int, default=None, metavar="N",
        help="rank count for imported bare-list traces without a "
        "num_ranks header",
    )
    p_tt.add_argument(
        "--out", default=None, metavar="PATH.json",
        help="write the repro-mlcomms/v1 report as JSON",
    )
    _add_flags(p_tt, *MACHINE, *SCALE, *EXEC, *BACKEND)

    p_char = sub.add_parser("characterize", help="trace characterisation")
    p_char.add_argument("app", choices=apps)
    _add_flags(p_char, "--seed", *SCALE)

    p_adv = sub.add_parser(
        "advise", help="recommend a placement/routing configuration"
    )
    p_adv.add_argument("app", choices=apps)
    p_adv.add_argument(
        "--shared", action="store_true", help="network shared with other jobs"
    )
    p_adv.add_argument(
        "--bursty",
        action="store_true",
        help="bursty external traffic expected (implies --shared)",
    )
    p_adv.add_argument(
        "--funnel",
        action="store_true",
        help="run the three-tier advisor funnel (surrogate rank -> "
        "flow screen -> packet validate) instead of the rule table",
    )
    _add_flags(p_adv, *MACHINE, *SCALE)
    funnel = p_adv.add_argument_group(
        "funnel options (only with --funnel)",
        argument_default=argparse.SUPPRESS,
    )
    funnel.add_argument(
        "--routing", choices=("min", "adp"),
        help="routing policy the funnel optimises for (default: min)",
    )
    funnel.add_argument(
        "--model", metavar="MODEL.json",
        help="load a fitted repro-advisor-model/v1 surrogate",
    )
    funnel.add_argument(
        "--train-cache", metavar="DIR",
        help="train the surrogate on the RunResults in this exec cache "
        "(built-in app traces at the current --ranks/--msg-scale)",
    )
    funnel.add_argument(
        "--save-model", metavar="MODEL.json",
        help="save the (loaded or trained) surrogate as versioned JSON",
    )
    funnel.add_argument(
        "--candidates-per-policy", type=int, metavar="N",
        help="seeded allocation draws per placement policy (default: 1 "
        "— the paper's 5-policy grid)",
    )
    funnel.add_argument(
        "--screen-top", type=int, metavar="N",
        help="candidates the flow backend screens (default: 5)",
    )
    funnel.add_argument(
        "--validate-top", type=int, metavar="N",
        help="candidates the packet backend validates (default: 2; "
        "0 recommends the flow winner directly)",
    )
    funnel.add_argument(
        "--exhaustive", action="store_true",
        help="also flow-screen every candidate and report whether the "
        "funnel found the exhaustive optimum",
    )
    funnel.add_argument(
        "--out", metavar="PATH.json",
        help="write the repro-advisor-funnel/v1 report as JSON",
    )
    for flag in ("--workers", "--cache-dir"):
        funnel.add_argument(flag, **{**_FLAGS[flag], "default": argparse.SUPPRESS})

    p_cs = sub.add_parser(
        "cluster-stream",
        help="online cluster scenario over simulated hours (repro.cluster)",
    )
    p_cs.add_argument(
        "--duration", type=float, default=2.0, metavar="HOURS",
        help="simulated arrival window in hours (default: 2); the "
        "stream drains after arrivals stop",
    )
    p_cs.add_argument(
        "--load", type=float, default=0.6,
        help="offered machine utilisation in [0,~1] (default: 0.6)",
    )
    p_cs.add_argument(
        "--mix", default="AMG=1,CR=1,FB=1", metavar="APP=W,...",
        help="workload mix with arrival weights (default: AMG=1,CR=1,FB=1)",
    )
    p_cs.add_argument(
        "--policy", choices=SCHED_POLICIES, default="cont",
        help="placement policy per job, 'advisor' to consult "
        "repro.core.advisor per job, or 'surrogate' to consult a "
        "fitted model (needs --model) (default: cont)",
    )
    p_cs.add_argument(
        "--model", default=None, metavar="MODEL.json",
        help="fitted repro-advisor-model/v1 surrogate for "
        "--policy surrogate",
    )
    p_cs.add_argument(
        "--routing", choices=("min", "adp"), default="adp",
        help="stream-wide routing policy (default: adp)",
    )
    p_cs.add_argument(
        "--backfill", action="store_true",
        help="let later queued jobs start when the head does not fit",
    )
    p_cs.add_argument(
        "--validate-every", type=int, default=0, metavar="K",
        help="spot-check every K-th flow epoch on the packet backend "
        "(0 = off)",
    )
    p_cs.add_argument(
        "--out", default=None, metavar="PATH.json",
        help="write the repro-cluster-stream/v1 document as JSON",
    )
    _add_flags(p_cs, *MACHINE, *EXEC, *BACKEND, *FAULTS)
    p_cs.set_defaults(preset="tiny", backend="flow")

    sub.add_parser("nomenclature", help="print Table I")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "nomenclature":
        print(nomenclature_table())
        return 0

    if args.command == "characterize":
        trace = _build_trace(args)
        mat = trace.communication_matrix()
        nz = mat[mat > 0]
        print(f"{args.app}: {trace.num_ranks} ranks")
        print(f"  messages:          {trace.num_messages()}")
        print(f"  total bytes:       {trace.total_bytes():,}")
        print(f"  avg load per rank: {trace.avg_message_load_per_rank():,.0f} B")
        print(f"  partner pairs:     {int((mat > 0).sum())}")
        if nz.size:
            print(f"  pair bytes min/med/max: {nz.min():,} / "
                  f"{int(float(sorted(nz)[len(nz) // 2])):,} / {nz.max():,}")
        return 0

    config = _PRESETS[args.preset]().with_seed(args.seed)
    obs = _obs_config(args)
    faults = _fault_plan(parser, args, config)
    # cluster-stream is exempt: it fences router faults on the flow
    # backend, and run_stream checks the rest itself.
    if "backend" in vars(args) and args.command != "cluster-stream":
        try:
            check_cell_options(args.backend, obs, faults)
        except ValueError as exc:
            parser.error(str(exc))
    if args.command == "advise":
        _check_advise_mode(parser, args)

    if args.command == "study":
        trace = _build_trace(args)
        result = TradeoffStudy(
            config, {args.app: trace}, seed=args.seed, obs=obs,
            faults=faults, backend=args.backend,
        ).run(verbose=True, **_exec_opts(args))
        _export_study_obs(result, args)
        print()
        print(
            format_box_table(
                result.comm_time_boxes(args.app),
                f"{args.app} communication time (Figure 3)",
            )
        )
        print()
        print(
            format_cdf_table(
                result.traffic_cdf(args.app, "local"),
                f"{args.app} local channel traffic (Figures 4-6)",
                "MB",
            )
        )
        findings = key_findings(result)[args.app]
        print(f"\nbest configuration: {findings['best']}")
        return 0

    if args.command == "sensitivity":
        trace = _build_trace(args)
        scales = PAPER_SCALES[args.app]
        sens = sensitivity_sweep(
            config, trace, scales, seed=args.seed, faults=faults,
            backend=args.backend, **_exec_opts(args),
        )
        rel = sens.relative()
        print(
            format_series_table(
                sens.scales,
                rel,
                f"{args.app} max comm time relative to rand-adp, % (Figure 7)",
            )
        )
        return 0

    if args.command == "interference":
        trace = _build_trace(args)
        spec = BackgroundSpec(
            pattern=args.pattern,
            message_bytes=args.bg_bytes,
            interval_ns=args.bg_interval_us * 1000.0,
            fanout=args.bg_fanout,
        )
        result = interference_study(
            config, trace, spec, seed=args.seed, obs=obs, faults=faults,
            backend=args.backend, **_exec_opts(args),
        )
        _export_study_obs(result, args)
        print(
            format_box_table(
                result.comm_time_boxes(args.app),
                f"{args.app} comm time under {args.pattern} background "
                "(Figures 8-10)",
            )
        )
        return 0

    if args.command == "resilience":
        from repro.core.resilience import resilience_study

        trace = _build_trace(args)
        try:
            rates = [float(r) for r in args.rates.split(",") if r.strip()]
        except ValueError:
            parser.error(f"--rates must be comma-separated floats: {args.rates!r}")
        res = resilience_study(
            config,
            {args.app: trace},
            rates,
            seed=args.seed,
            fault_seed=args.fault_seed,
            router_rate=args.router_rate,
            **_exec_opts(args),
        )
        print(f"{args.app} communication-time degradation vs healthy (%)")
        labels = res.labels()
        header = f"{'rate':>6} " + " ".join(f"{lb:>10}" for lb in labels)
        print(header)
        for rate in res.rates[1:]:
            row = [f"{rate:>6g}"]
            for lb in labels:
                row.append(f"{res.degradation_pct(args.app, lb, rate):>10.2f}")
            print(" ".join(row))
        for rate in res.rates[1:]:
            policy = res.policy_degradation(args.app, rate)
            summary = ", ".join(f"{k}: {v:+.2f}%" for k, v in policy.items())
            print(f"rate {rate:g} placement-averaged degradation — {summary}")
        if args.out is not None:
            res.save_json(args.out)
            print(f"wrote {args.out}", file=sys.stderr)
        return 0

    if args.command == "fidelity":
        from repro.flow import fidelity_report

        trace = _build_trace(args)
        fid = fidelity_report(
            config,
            {args.app: trace},
            seed=args.seed,
            **_exec_opts(args),
        )
        print(fid.format_table())
        if args.out is not None:
            fid.save_json(args.out)
            print(f"wrote {args.out}", file=sys.stderr)
        return 0

    if args.command == "training-tradeoff":
        from repro.mlcomms import (
            TraceImportError,
            default_training_traces,
            load_comms_trace,
            training_tradeoff,
        )

        apps = tuple(
            a.strip().upper() for a in args.apps.split(",") if a.strip()
        )
        try:
            traces = (
                default_training_traces(
                    args.ranks,
                    msg_scale=args.msg_scale,
                    seed=args.seed,
                    apps=apps,
                )
                if apps
                else {}
            )
        except ValueError as exc:
            parser.error(str(exc))
        for path in args.trace:
            try:
                t = load_comms_trace(path, num_ranks=args.trace_ranks)
            except TraceImportError as exc:
                parser.error(f"{path}: {exc}")
            if args.msg_scale != 1.0:
                t = t.scaled(args.msg_scale)
            traces[t.name] = t
        if not traces:
            parser.error("nothing to study: empty --apps and no --trace")
        report = training_tradeoff(
            config,
            traces,
            seed=args.seed,
            backend=args.backend,
            **_exec_opts(args),
        )
        print(report.format_table())
        if args.out is not None:
            report.save_json(args.out)
            print(f"wrote {args.out}", file=sys.stderr)
        return 0

    if args.command == "replay":
        if Path(args.trace_file).suffix == ".json":
            from repro.mlcomms import TraceImportError, load_comms_trace

            try:
                trace = load_comms_trace(
                    args.trace_file, num_ranks=args.trace_ranks
                )
            except TraceImportError as exc:
                parser.error(str(exc))
        else:
            trace = load_trace(args.trace_file)
        if args.msg_scale != 1.0:
            trace = trace.scaled(args.msg_scale)
        result = run_single(
            config, trace, args.placement, args.routing, seed=args.seed,
            obs=obs, faults=faults, backend=args.backend,
        )
        s = result.metrics.summary()
        for k, v in s.items():
            print(f"{k:>18}: {v:.4f}")
        if result.obs is not None and args.obs_out is not None:
            out = Path(args.obs_out)
            if out.suffix not in (".jsonl", ".csv"):
                out = out / f"{trace.name}-{args.placement}-{args.routing}.{args.obs_format}"
            obs_export(result.obs, out)
            print(f"obs: wrote telemetry to {out}", file=sys.stderr)
        return 0

    if args.command == "cluster-stream":
        from repro.cluster import run_stream, save_json

        surrogate_model = None
        if args.model is not None:
            from repro.advisor import RidgeSurrogate

            surrogate_model = RidgeSurrogate.load(args.model)
        elif args.policy == "surrogate":
            parser.error("--policy surrogate requires --model MODEL.json")

        try:
            res = run_stream(
                config,
                mix=args.mix,
                duration_s=args.duration * 3600.0,
                load=args.load,
                policy=args.policy,
                routing=args.routing,
                backend=args.backend,
                seed=args.seed,
                backfill=args.backfill,
                max_workers=args.workers,
                cache=args.cache_dir,
                progress=TextReporter() if args.progress else None,
                validate_every=args.validate_every,
                faults=faults,
                surrogate_model=surrogate_model,
            )
        except ValueError as exc:
            parser.error(str(exc))
        print(res.summary())
        if args.out is not None:
            save_json(res, args.out)
            print(f"wrote {args.out}", file=sys.stderr)
        return 0

    if args.command == "advise" and args.funnel:
        from repro.advisor import (
            RidgeSurrogate,
            suggest_placement,
            train_surrogate,
        )
        from repro.exec.cache import ResultCache

        trace = _build_trace(args)
        if args.model is not None:
            model = RidgeSurrogate.load(args.model)
            print(
                f"loaded surrogate from {args.model} "
                f"({model.n_samples} training samples)",
                file=sys.stderr,
            )
        elif args.train_cache is not None:
            traces = {}
            for app, builder in APP_BUILDERS.items():
                t = builder(num_ranks=args.ranks, seed=args.seed)
                traces[app] = (
                    t.scaled(args.msg_scale) if args.msg_scale != 1.0 else t
                )
            try:
                model, training = train_surrogate(
                    config, traces, ResultCache(args.train_cache)
                )
            except ValueError as exc:
                parser.error(str(exc))
            print(f"trained surrogate: {training.summary()}", file=sys.stderr)
        else:
            parser.error("--funnel requires --model or --train-cache")
        if args.save_model is not None:
            model.save(args.save_model)
            print(f"wrote {args.save_model}", file=sys.stderr)

        res = suggest_placement(
            config,
            trace,
            args.routing,
            model,
            per_policy=args.candidates_per_policy,
            screen_top=args.screen_top,
            validate_top=args.validate_top,
            seed=args.seed,
            cache=args.cache_dir,
            max_workers=args.workers,
            exhaustive=args.exhaustive,
        )
        print(res.format_table())
        if args.out is not None:
            res.save_json(args.out)
            print(f"wrote {args.out}", file=sys.stderr)
        return 0

    if args.command == "advise":
        from repro.core.advisor import recommend

        trace = _build_trace(args)
        rec = recommend(
            trace,
            config,
            shared_network=args.shared or args.bursty,
            bursty_neighbors=args.bursty,
        )
        print(f"{args.app}: use {rec.label}")
        print(f"  offered rate: {rec.intensity:.4f}x of one local link")
        for reason in rec.rationale:
            print(f"  - {reason}")
        return 0

    parser.error(f"unhandled command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
