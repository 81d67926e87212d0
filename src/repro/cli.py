"""Command-line interface: regenerate figures and synthesise traces.

Usage::

    python -m repro list
    python -m repro figure fig3 [--profile quick|full] [--out DIR] [--json]
    python -m repro report [--profile quick|full] [--only fig3 fig6] [--out FILE]
    python -m repro trace --hotspots 20 --users 100 --out DIR [--seed N]
    python -m repro campaign run SPEC.toml --out DIR [--jobs N] [--resume]
    python -m repro campaign status DIR
    python -m repro campaign report DIR [--metric NAME]
    python -m repro serve [--controller OL_GD] [--port 0] [--stdio]

``figure`` renders the chosen experiment to stdout as a text table and
optionally exports CSV/JSON; ``trace`` writes a synthetic NYC-Wi-Fi-like
dataset (hotspots.csv / users.csv) for use with
:func:`repro.workload.WifiTrace.from_csv`; ``campaign`` executes,
inspects and aggregates declarative TOML experiment campaigns
(:mod:`repro.campaigns`); ``serve`` runs a controller as a long-running
slot-clocked decision service (:mod:`repro.serve`).

Flag spellings are shared across subcommands: ``--seed`` (world seed),
``--jobs`` (worker/connection parallelism), ``--checkpoint-dir`` /
``--checkpoint-every`` / ``--resume`` (persistence), ``--metrics-out`` /
``--trace`` (telemetry) mean the same thing wherever they appear.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.experiments import (
    FULL_PROFILE,
    QUICK_PROFILE,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
)
from repro.experiments.export import figure_to_csv, figure_to_json
from repro.experiments.plots import render_figure_plots
from repro.experiments.tables import render_figure
from repro.utils.seeding import RngRegistry
from repro.workload import synthesize_nyc_wifi_trace

__all__ = ["main", "build_parser"]

FIGURES: Dict[str, Callable] = {
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
}

_PROFILES = {"quick": QUICK_PROFILE, "full": FULL_PROFILE}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Learning for Exception' (ICDCS 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available figure experiments")

    figure_parser = sub.add_parser("figure", help="regenerate a paper figure")
    figure_parser.add_argument("figure_id", choices=sorted(FIGURES))
    figure_parser.add_argument(
        "--profile", choices=sorted(_PROFILES), default="quick",
        help="experiment scale (default: quick)",
    )
    figure_parser.add_argument(
        "--out", type=Path, default=None,
        help="directory for CSV export (one file per panel)",
    )
    figure_parser.add_argument(
        "--json", action="store_true",
        help="also write <figure_id>.json into --out (requires --out)",
    )
    figure_parser.add_argument(
        "--plot", action="store_true",
        help="render Unicode sparklines instead of the numeric table",
    )
    figure_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the repetition fan-out "
             "(default: profile setting; 0 = all cores; results are "
             "bit-identical for any worker count)",
    )
    figure_parser.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="world seed override (default: profile setting)",
    )
    _add_checkpoint_arguments(figure_parser)
    _add_telemetry_arguments(figure_parser)

    report_parser = sub.add_parser(
        "report", help="run every figure and write the claims scorecard"
    )
    report_parser.add_argument(
        "--profile", choices=sorted(_PROFILES), default="quick"
    )
    report_parser.add_argument(
        "--only", nargs="+", choices=sorted(FIGURES), default=None,
        help="restrict to a subset of figures",
    )
    report_parser.add_argument(
        "--out", type=Path, default=None,
        help="write the markdown report here (default: stdout only)",
    )
    report_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the repetition fan-out "
             "(default: profile setting; 0 = all cores)",
    )
    report_parser.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="world seed override (default: profile setting)",
    )
    _add_checkpoint_arguments(report_parser)
    _add_telemetry_arguments(report_parser)

    trace_parser = sub.add_parser("trace", help="synthesise a Wi-Fi trace")
    trace_parser.add_argument("--hotspots", type=int, default=20)
    trace_parser.add_argument("--users", type=int, default=100)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument("--horizon", type=int, default=100)
    trace_parser.add_argument("--out", type=Path, required=True)

    campaign_parser = sub.add_parser(
        "campaign", help="run/inspect declarative experiment campaigns"
    )
    campaign_sub = campaign_parser.add_subparsers(
        dest="campaign_command", required=True
    )

    run_parser = campaign_sub.add_parser(
        "run", help="execute a TOML campaign spec into a result directory"
    )
    run_parser.add_argument("spec", type=Path, help="campaign TOML file")
    run_parser.add_argument(
        "--out", type=Path, required=True,
        help="campaign result directory (one sub-directory per cell)",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes: 1 (default) runs in-process; more share "
             "one pool that drains every unfinished cell's (repetition x "
             "controller) grid (0 = all cores; results are bit-identical "
             "for any worker count)",
    )
    run_parser.add_argument(
        "--resume", action="store_true",
        help="continue a killed campaign: finished cells are skipped, "
             "partial cells run only their missing items",
    )
    run_parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-execute crashed work items up to N extra rounds",
    )
    run_parser.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="stop after executing N cells (smoke tests / staged runs)",
    )
    _add_telemetry_arguments(run_parser)

    status_parser = campaign_sub.add_parser(
        "status", help="show per-cell progress of a campaign directory"
    )
    status_parser.add_argument("out", type=Path, help="campaign directory")

    report_parser = campaign_sub.add_parser(
        "report", help="aggregate finished cells into report.md + results.csv"
    )
    report_parser.add_argument("out", type=Path, help="campaign directory")
    report_parser.add_argument(
        "--metric", default="mean_delay_ms",
        help="metric to tabulate (default: mean_delay_ms)",
    )

    serve_parser = sub.add_parser(
        "serve", help="run a controller as a long-lived decision service"
    )
    serve_parser.add_argument(
        "--controller", default="OL_GD",
        help="registry name of the served controller (default: OL_GD)",
    )
    serve_parser.add_argument(
        "--topology", default="gtitm",
        help="registry name of the network topology (default: gtitm)",
    )
    serve_parser.add_argument(
        "--workload", default="bursty",
        help="registry name of the anchoring workload (default: bursty)",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=2020, metavar="N",
        help="world seed (default: 2020)",
    )
    serve_parser.add_argument(
        "--horizon", type=int, default=1000, metavar="N",
        help="synthetic-trace horizon the world is anchored on "
             "(serving itself is open-ended; default: 1000)",
    )
    serve_parser.add_argument(
        "--requests", type=int, default=30, metavar="N",
        help="number of user requests / demand-vector size (default: 30)",
    )
    serve_parser.add_argument(
        "--services", type=int, default=4, metavar="N",
        help="number of service types (default: 4)",
    )
    serve_parser.add_argument(
        "--stations", type=int, default=None, metavar="N",
        help="number of base stations (default: topology default)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address of the TCP front-end (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=0, metavar="P",
        help="TCP port of the line-JSON protocol (0 = ephemeral, "
             "announced on stdout; default: 0)",
    )
    serve_parser.add_argument(
        "--stdio", action="store_true",
        help="speak the line-JSON protocol over stdin/stdout instead of "
             "TCP (banner goes to stderr)",
    )
    serve_parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="P",
        help="also serve GET /metrics (Prometheus text format) on this "
             "port (0 = ephemeral)",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=8, metavar="N",
        help="maximum concurrently-served protocol connections "
             "(default: 8)",
    )
    serve_parser.add_argument(
        "--buffer-limit", type=int, default=1024, metavar="N",
        help="maximum pending offers per slot; overflow is rejected and "
             "counted (default: 1024)",
    )
    serve_parser.add_argument(
        "--tick-interval", type=float, default=None, metavar="SECONDS",
        help="automatic slot ticks every SECONDS (default: slots advance "
             "only on explicit 'decide' requests)",
    )
    serve_parser.add_argument(
        "--predicted-demands", action="store_true",
        help="run the §V setting: the controller predicts demand "
             "internally instead of seeing the aggregated offers",
    )
    _add_checkpoint_arguments(serve_parser)
    _add_telemetry_arguments(serve_parser)
    return parser


def _add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-dir", type=Path, default=None, metavar="DIR",
        help="persist completed (repetition, controller) runs under DIR "
             "(repro.state sweep snapshots); required by --resume and "
             "--checkpoint-every",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="load completed runs from --checkpoint-dir (after a manifest "
             "identity check) and execute only the missing ones",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="additionally snapshot each run every N completed slots, so "
             "an interrupted run resumes mid-horizon (requires "
             "--checkpoint-dir)",
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", type=Path, default=None, metavar="PATH",
        help="write merged repro.obs telemetry (counters + stage timing "
             "histograms) as JSON; works for serial and --jobs runs "
             "(workers report snapshots that are merged here)",
    )
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="write a JSONL span trace (schema: repro.obs.trace); spans "
             "are emitted by in-process execution, so use --jobs 1 for a "
             "complete trace",
    )


def _run_with_telemetry(args: argparse.Namespace, fn: Callable[[], int]) -> int:
    """Run ``fn`` under a CLI-installed telemetry registry when asked.

    Without ``--metrics-out``/``--trace`` this is a plain call — telemetry
    stays disabled and the hot paths keep their no-op spans.
    """
    metrics_out: Optional[Path] = getattr(args, "metrics_out", None)
    trace_path: Optional[Path] = getattr(args, "trace", None)
    if metrics_out is None and trace_path is None:
        return fn()
    writer = obs.TraceWriter(trace_path) if trace_path is not None else None
    registry = obs.MetricsRegistry(trace=writer)
    try:
        with obs.activate(registry):
            status = fn()
    finally:
        if writer is not None:
            writer.close()
    print("\ntelemetry:")
    print(registry.table())
    if metrics_out is not None:
        metrics_out.parent.mkdir(parents=True, exist_ok=True)
        metrics_out.write_text(
            json.dumps(registry.snapshot(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote metrics -> {metrics_out}")
    if writer is not None:
        print(f"wrote {writer.n_events} trace events -> {trace_path}")
    return status


def _cmd_list() -> int:
    print("available figure experiments:")
    for figure_id, fn in sorted(FIGURES.items()):
        summary = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  {figure_id}: {summary}")
    return 0


def _select_profile(args: argparse.Namespace):
    """The chosen profile, with CLI overrides (--jobs, checkpoints) applied."""
    profile = _PROFILES[args.profile]
    overrides: Dict[str, object] = {}
    if getattr(args, "jobs", None) is not None:
        overrides["n_jobs"] = args.jobs
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "checkpoint_dir", None) is not None:
        overrides["checkpoint_dir"] = str(args.checkpoint_dir)
    if getattr(args, "resume", False):
        overrides["resume"] = True
    if getattr(args, "checkpoint_every", None) is not None:
        overrides["checkpoint_every"] = args.checkpoint_every
    if overrides:
        profile = dataclasses.replace(profile, **overrides)
    return profile


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.json and args.out is None:
        print("--json requires --out", file=sys.stderr)
        return 2
    try:
        profile = _select_profile(args)
    except ValueError as exc:  # e.g. --resume without --checkpoint-dir
        print(str(exc), file=sys.stderr)
        return 2
    figure = FIGURES[args.figure_id](profile)
    if args.plot:
        print(render_figure_plots(figure))
    else:
        print(render_figure(figure))
    if args.out is not None:
        written = figure_to_csv(figure, args.out)
        if args.json:
            json_path = Path(args.out) / f"{figure.figure_id}.json"
            figure_to_json(figure, json_path)
            written.append(json_path)
        print("\nwrote:")
        for path in written:
            print(f"  {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import (
        render_report_markdown,
        run_full_report,
        write_report,
    )

    try:
        profile = _select_profile(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = run_full_report(profile, only=args.only)
    print(render_report_markdown(report))
    if args.out is not None:
        path = write_report(report, args.out)
        print(f"wrote {path}")
    return 0 if report.all_hard_claims_pass else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    # Imported lazily: the campaign layer pulls in the whole scenario
    # stack, which `repro figure`/`repro trace` invocations never need.
    from repro.campaigns import (
        CampaignError,
        load_campaign_toml,
        campaign_status,
        run_campaign,
        render_campaign_report,
        write_campaign_report,
    )

    try:
        if args.campaign_command == "run":
            from repro.sim import RunConfig

            spec = load_campaign_toml(args.spec)
            result = run_campaign(
                spec,
                args.out,
                config=RunConfig(
                    jobs=args.jobs,
                    resume=args.resume,
                    retries=args.retries,
                ),
                max_cells=args.max_cells,
            )
            print(campaign_status(args.out, spec).table())
            if not result.complete:
                print(
                    f"stopped early ({len(result.remaining)} cells left); "
                    f"continue with: repro campaign run {args.spec} "
                    f"--out {args.out} --resume"
                )
                return 1
            return 0
        if args.campaign_command == "status":
            status = campaign_status(args.out)
            print(status.table())
            return 0 if status.complete else 1
        if args.campaign_command == "report":
            report_path, csv_path, report = write_campaign_report(
                args.out, metric=args.metric
            )
            print(render_campaign_report(report, args.metric))
            print(f"\nwrote {report_path}\nwrote {csv_path}")
            return 0
    except (CampaignError, RuntimeError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    raise AssertionError(
        f"unhandled campaign command {args.campaign_command!r}"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: serving pulls in the scenario/campaign stack,
    # which the figure/trace commands never need.
    from repro.serve import ServeConfig, serve

    try:
        config = ServeConfig(
            controller=args.controller,
            topology=args.topology,
            workload=args.workload,
            seed=args.seed,
            horizon=args.horizon,
            n_stations=args.stations,
            n_services=args.services,
            n_requests=args.requests,
            buffer_limit=args.buffer_limit,
            demands_known=not args.predicted_demands,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            tick_interval=args.tick_interval,
        )
    except (ValueError, KeyError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return serve(
        config,
        host=args.host,
        port=args.port,
        stdio=args.stdio,
        metrics_port=args.metrics_port,
        max_connections=args.jobs,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    # Named stream from the seeding registry (not a bare default_rng):
    # the CLI trace draws stay isolated from any other consumer of the
    # same root seed, and seed validation comes for free.
    rng = RngRegistry(seed=args.seed).get("cli.trace")
    trace = synthesize_nyc_wifi_trace(
        args.hotspots, args.users, rng, horizon_slots=args.horizon
    )
    args.out.mkdir(parents=True, exist_ok=True)
    hotspot_path = args.out / "hotspots.csv"
    user_path = args.out / "users.csv"
    trace.to_csv(hotspot_path, user_path)
    print(f"wrote {trace.n_hotspots} hotspots -> {hotspot_path}")
    print(f"wrote {trace.n_users} users    -> {user_path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "figure":
        return _run_with_telemetry(args, lambda: _cmd_figure(args))
    if args.command == "report":
        return _run_with_telemetry(args, lambda: _cmd_report(args))
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "campaign":
        if getattr(args, "campaign_command", None) == "run":
            return _run_with_telemetry(args, lambda: _cmd_campaign(args))
        return _cmd_campaign(args)
    if args.command == "serve":
        return _run_with_telemetry(args, lambda: _cmd_serve(args))
    raise AssertionError(f"unhandled command {args.command!r}")
