"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``info``        design summary: blocks, devices, thermal profile
``lifetime``    ppm lifetime by any method (st_fast/st_mc/hybrid/guard/...)
``curve``       reliability curve over a time range
``thermal``     block temperatures from the power model
``sensitivity`` lifetime elasticities (tornado)
``scenario``    piecewise stress scenarios (``run``: lifetime under a
                phase schedule x mechanism set, see docs/scenarios.md)
``report``      one-page design report (thermal map, lifetimes, budget)
``batch``       sweep benchmarks x temperatures x methods into one report
``bench``       performance benchmarks (``kernels``: kernels vs their reference oracles)
``cache``       result-cache maintenance (``stats``/``clear``)
``serve``       HTTP reliability service (async job queue, see docs/service.md)
``fleet``       distributed runs over ``serve`` workers (``run``/``status``,
                see docs/fleet.md)
``trace``       trace tooling (``show``: render a trace tree from a file/URL)

Designs come from ``--design C1..C6`` (the paper's benchmarks), a JSON
setup file (``--setup``, see :mod:`repro.io.design_json`) or a HotSpot
floorplan (``--flp``, optionally with ``--ptrace``). Add ``--json`` for
machine-readable output.

Execution: ``--jobs N`` (or ``REPRO_JOBS``) parallelises the sampled
engines across N worker processes; ``REPRO_EXEC_BACKEND`` picks
``serial``/``thread``/``process`` explicitly.  Results are bit-identical
for every backend and worker count (see ``docs/execution.md``).

Observability (every command): ``--log-level``/``--log-json`` configure the
structured diagnostic logger (stderr, stdout output stays clean), and
``--trace FILE`` enables the :mod:`repro.obs` span/metric collection and
writes the span tree + counters as JSON when the command finishes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from repro import __version__, obs, payloads
from repro.chip.benchmarks import BENCHMARK_DEVICE_COUNTS, make_benchmark
from repro.core.analyzer import METHODS, AnalysisConfig, ReliabilityAnalyzer
from repro.errors import ReproError
from repro.exec.backends import resolve_backend
from repro.units import hours_to_years


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {raw!r}"
        )
    return value


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="diagnostic log level (DEBUG/INFO/WARNING/ERROR), on stderr",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit diagnostics as line-delimited JSON",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="collect spans/metrics and write them as JSON to FILE",
    )


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes for the sampled engines "
        "(default: REPRO_JOBS, else serial; results are identical "
        "for any worker count)",
    )


def _add_design_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--design",
        choices=sorted(BENCHMARK_DEVICE_COUNTS),
        help="one of the paper's benchmark designs",
    )
    source.add_argument(
        "--setup", metavar="FILE", help="JSON analysis setup file"
    )
    source.add_argument(
        "--flp", metavar="FILE", help="HotSpot floorplan file"
    )
    parser.add_argument(
        "--ptrace",
        metavar="FILE",
        help="HotSpot power trace applied to the --flp floorplan",
    )
    parser.add_argument(
        "--grid", type=int, default=25, help="correlation grid size (default 25)"
    )
    parser.add_argument(
        "--rho", type=float, default=0.5, help="correlation distance (default 0.5)"
    )
    parser.add_argument(
        "--vdd", type=float, default=None, help="supply voltage override"
    )
    _add_obs_arguments(parser)


def _build_analyzer(args: argparse.Namespace) -> ReliabilityAnalyzer:
    jobs = getattr(args, "jobs", None)
    if args.setup:
        import dataclasses

        from repro.io.design_json import load_setup

        floorplan, budget, obd_model, config = load_setup(args.setup)
        if args.vdd is not None:
            config = dataclasses.replace(config, vdd=args.vdd)
        if jobs is not None:
            config = dataclasses.replace(config, exec_jobs=jobs)
        return ReliabilityAnalyzer(
            floorplan, budget=budget, obd_model=obd_model, config=config
        )
    if args.flp:
        from repro.io.hotspot_files import apply_ptrace_sample, read_flp, read_ptrace

        floorplan = read_flp(args.flp)
        if args.ptrace:
            names, powers = read_ptrace(args.ptrace)
            floorplan = apply_ptrace_sample(floorplan, names, powers)
    else:
        floorplan = make_benchmark(args.design)
    config = AnalysisConfig(
        grid_size=args.grid, rho_dist=args.rho, vdd=args.vdd, exec_jobs=jobs
    )
    return ReliabilityAnalyzer(floorplan, config=config)


def _load_scenario_file(path: str) -> Any:
    """Parse and validate a scenario JSON document from disk."""
    from repro.errors import ConfigurationError
    from repro.scenario import Scenario

    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read scenario file {path!r}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"scenario file {path!r} is not valid JSON: {exc}"
        ) from exc
    return Scenario.from_dict(document)


def _emit(args: argparse.Namespace, payload: dict[str, Any], text: str) -> None:
    # Every JSON envelope carries version/schema_version provenance; the
    # shared builders stamp their own payloads, setdefault covers the rest.
    if args.json:
        print(payloads.dump_payload(payloads.stamp_envelope(payload)))
    else:
        print(text)


def _cmd_info(args: argparse.Namespace) -> int:
    analyzer = _build_analyzer(args)
    summary = analyzer.summary()
    lines = [
        f"blocks : {summary['design']['blocks']}",
        f"devices: {summary['design']['devices']:,}",
        f"oxide area (normalized): {summary['design']['total_oxide_area']:.3e}",
        f"PCA factors: {summary['variation']['pca_factors']}",
        "block temperatures (degC):",
    ]
    for name, temp in sorted(
        summary["temperatures_c"].items(), key=lambda kv: -kv[1]
    ):
        lines.append(f"  {name:>16} {temp:7.1f}")
    _emit(args, summary, "\n".join(lines))
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    analyzer = _build_analyzer(args)
    payload = payloads.lifetime_payload(
        analyzer,
        args.ppm,
        args.method,
        mc_chips=args.mc_chips,
        seed=args.seed,
    )
    text = "\n".join(
        f"{m:>14}: {v:.4e} h = {hours_to_years(v):8.1f} years"
        for m, v in payload["lifetime_hours"].items()
    )
    _emit(args, payload, text)
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario_file(args.scenario)
    analyzer = _build_analyzer(args)
    payload = payloads.scenario_payload(analyzer, scenario, args.ppm)
    hours = payload["lifetime_hours"]["st_fast"]
    lines = [
        f"scenario lifetime: {hours:.4e} h = "
        f"{hours_to_years(hours):8.1f} years",
        "mechanism damage shares:",
    ]
    for name, share in payload["scenario"]["mechanism_damage"].items():
        lines.append(f"  {name:>8} {share:7.2%}")
    lines.append("phase damage shares:")
    for name, share in payload["scenario"]["phase_damage"].items():
        lines.append(f"  {name:>16} {share:7.2%}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    analyzer = _build_analyzer(args)
    payload = payloads.curve_payload(
        analyzer,
        args.method[0],
        t_min=args.t_min,
        t_max=args.t_max,
        points=args.points,
    )
    text = "\n".join(
        f"{t:.4e} h   R = {r:.8f}   1-R = {1.0 - r:.3e}"
        for t, r in zip(
            payload["times_hours"], payload["reliability"], strict=True
        )
    )
    _emit(args, payload, text)
    return 0


def _cmd_thermal(args: argparse.Namespace) -> int:
    analyzer = _build_analyzer(args)
    temps = dict(
        zip(
            analyzer.floorplan.block_names,
            (float(t) for t in analyzer.block_temperatures),
            strict=True,
        )
    )
    payload = {
        "block_temperatures_c": temps,
        "spread_c": max(temps.values()) - min(temps.values()),
    }
    text = "\n".join(
        f"{name:>16} {temp:7.1f} degC"
        for name, temp in sorted(temps.items(), key=lambda kv: -kv[1])
    )
    _emit(args, payload, text)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    # The report always carries a stage-timing appendix, so the builder
    # switches observability on for its duration unless --trace already did.
    payload = payloads.report_payload(lambda: _build_analyzer(args))
    _emit(args, payload, payload["report"])
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    # Imported here: batch pulls in the full analyzer stack.
    from repro.exec.batch import SweepSpec, batch_table, run_batch
    from repro.exec.cache import ResultCache

    scenario = None
    if args.scenario:
        scenario = _load_scenario_file(args.scenario).as_dict()
    spec = SweepSpec(
        designs=tuple(args.design),
        methods=tuple(args.method),
        temperatures_c=tuple(args.temps or ()),
        ppm=args.ppm,
        grid_size=args.grid,
        mc_chips=args.mc_chips,
        seed=args.seed,
        scenario=scenario,
    )
    backend = resolve_backend(jobs=args.jobs)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    report = run_batch(
        spec,
        backend=backend,
        cache=cache,
        use_cache=not args.no_cache,
        fuse=not args.no_fuse,
    )
    _emit(args, report, batch_table(report))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.exec.cache import ResultCache
    from repro.kernels.artifacts import ArtifactCache

    cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
    if args.cache_command == "stats":
        # Top-level keys stay the local tier's (backwards compatible);
        # the per-tier breakdown rides along under "tiers".  An explicit
        # --cache-dir relocates every tier (shared and artifacts nest
        # under it, the same layout the default roots use).
        if args.cache_dir:
            shared = ResultCache(
                Path(args.cache_dir) / "shared", tier="shared"
            )
            artifacts = ArtifactCache(Path(args.cache_dir) / "artifacts")
        else:
            shared = ResultCache(tier="shared")
            artifacts = ArtifactCache()
        payload = cache.stats().as_dict()
        payload["tiers"] = {
            "local": dict(payload),
            "shared": shared.stats().as_dict(),
            "artifacts": artifacts.stats().as_dict(),
        }
        payload["tiers"]["artifacts"]["tier"] = "artifacts"
        # The hit/miss counters describe the current process, which for
        # a fresh CLI invocation has performed no lookups — they stay in
        # the JSON for long-lived callers but would always print 0 here.
        lines = []
        for tier_stats in payload["tiers"].values():
            lines += [
                f"[{tier_stats['tier']}] root : {tier_stats['root']}",
                f"  entries    : {tier_stats['entries']}",
                f"  total bytes: {tier_stats['total_bytes']:,}",
            ]
        _emit(args, payload, "\n".join(lines))
    else:  # clear
        if args.artifacts:
            artifacts = (
                ArtifactCache(Path(args.cache_dir) / "artifacts")
                if args.cache_dir
                else ArtifactCache()
            )
            removed = artifacts.clear()
            root = artifacts.root
        else:
            removed = cache.clear()
            root = cache.root
        _emit(
            args,
            {"root": str(root), "removed": removed},
            f"removed {removed} cache entr"
            f"{'y' if removed == 1 else 'ies'} from {root}",
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # Imported here: the benchmark harness and its reference oracles stay
    # off every other command's import path.
    from repro.kernels.bench import (
        DEFAULT_BENCH_PATH,
        format_kernel_report,
        run_kernel_benchmarks,
        write_bench_json,
    )

    results = run_kernel_benchmarks(args.scale)
    text = format_kernel_report(results)
    if not args.no_save:
        path = write_bench_json(results, args.output or DEFAULT_BENCH_PATH)
        text += f"\nwrote {path}"
    _emit(args, results, text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here: the service stack is not needed by any other command.
    import signal
    import threading

    from repro.exec.cache import ResultCache
    from repro.service import (
        AdmissionController,
        JobManager,
        ReliabilityService,
        make_server,
    )

    # The service exports live /metrics, so observability is always on
    # for its lifetime (per-request overhead is negligible next to a solve).
    obs.enable()
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
    manager = JobManager(
        workers=args.jobs or 2,
        max_queue=args.max_queue,
        cache=cache,
        checkpoint_dir=args.checkpoint_dir,
        job_timeout_s=args.job_timeout,
        flight_slow_s=(
            args.flight_slow_threshold
            if args.flight_slow_threshold > 0
            else None
        ),
    )
    admission = (
        AdmissionController(rate=args.rate, burst=args.burst)
        if args.rate > 0
        else None
    )
    server = make_server(
        args.host, args.port, ReliabilityService(manager, admission)
    )
    manager.start()

    def _stop(signum: int, frame: Any) -> None:
        # serve_forever() must be stopped from another thread, and the
        # handler must not block; drain happens after the loop exits.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    host, port = server.server_address[:2]
    # Machine-parseable banner: the smoke harness reads the bound port
    # from this line when --port 0 picked an ephemeral one.
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    finally:
        drained = manager.shutdown(drain_timeout=args.drain_timeout)
        server.server_close()
        print(
            "shutdown complete"
            + ("" if drained else " (cancelled unfinished jobs)"),
            flush=True,
        )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    # Imported here: the fleet stack is not needed by any other command.
    from repro.exec.cache import ResultCache
    from repro.fleet import FleetCoordinator
    from repro.service.requests import JobRequest

    shared_cache: Any
    if getattr(args, "no_cache", False):
        shared_cache = False
    elif getattr(args, "shared_cache_dir", None):
        shared_cache = ResultCache(args.shared_cache_dir, tier="shared")
    else:
        shared_cache = None
    coordinator = FleetCoordinator(
        args.workers,
        group_size=getattr(args, "group_size", 4),
        shared_cache=shared_cache,
        checkpoint_path=getattr(args, "checkpoint", None),
    )
    if args.fleet_command == "status":
        report = coordinator.status()
        lines = []
        for worker in report:
            if worker["ready"]:
                info = worker["info"]
                lines.append(
                    f"ready {worker['url']} "
                    f"(queue={info.get('queue_depth')}, "
                    f"running={info.get('running')})"
                )
            else:
                lines.append(f"down  {worker['url']}")
        _emit(args, {"workers": report}, "\n".join(lines))
        return 0 if all(worker["ready"] for worker in report) else 1

    setup = None
    if args.setup:
        with open(args.setup, encoding="utf-8") as handle:
            setup = json.load(handle)
    document = {
        "kind": "lifetime",
        "design": args.design,
        "setup": setup,
        "grid": args.grid,
        "rho": args.rho,
        "vdd": args.vdd,
        "ppm": args.ppm,
        "methods": args.method,
        "mc_chips": args.mc_chips,
        "seed": args.seed,
    }
    if getattr(args, "scenario", None):
        # Scenario jobs evaluate st_fast only; the coordinator runs them
        # locally (no MC shards to distribute), byte-identical to
        # `repro scenario run --json`.
        document["kind"] = "scenario"
        document["scenario"] = _load_scenario_file(args.scenario).as_dict()
        document["methods"] = ["st_fast"]
    request = JobRequest.from_dict(
        {key: value for key, value in document.items() if value is not None}
    )
    payload = coordinator.run(request)
    stats = coordinator.last_run_stats
    if args.stats_file:
        with open(args.stats_file, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2)
    if stats:
        # Stderr, so --json stdout stays byte-identical to the serial CLI.
        print(
            f"fleet: {stats['shards']} shards in {stats['groups']} groups "
            f"across {stats['workers']} worker(s); "
            f"{stats['shared_cache_hits']} group(s) from shared cache, "
            f"{stats['groups_reassigned']} reassigned, "
            f"{stats['workers_lost']} worker(s) lost, "
            f"{stats['wall_s']:.2f}s wall",
            file=sys.stderr,
        )
    text = "\n".join(
        f"{m:>14}: {v:.4e} h = {hours_to_years(v):8.1f} years"
        for m, v in payload["lifetime_hours"].items()
    )
    _emit(args, payload, text)
    return 0


def _trace_roots(document: Any) -> list[dict[str, Any]]:
    """Root span dicts from any of the trace document shapes we emit.

    Accepts the CLI ``--trace FILE`` document (``{"trace": [roots...]}``),
    the ``GET /v1/jobs/{id}/trace`` envelope (``{"trace": {root}}``), a
    bare root node, or a bare list of roots.
    """
    from repro.errors import ConfigurationError

    if isinstance(document, dict):
        inner = document.get("trace", document)
        if isinstance(inner, list):
            return inner
        if isinstance(inner, dict) and "name" in inner:
            return [inner]
    elif isinstance(document, list):
        return document
    raise ConfigurationError(
        "unrecognised trace document; expected the CLI --trace output, "
        "a /v1/jobs/{id}/trace response, or a span-node JSON object"
    )


def _cmd_trace_show(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError

    source: str = args.source
    try:
        if source.startswith(("http://", "https://")):
            from urllib.request import urlopen

            with urlopen(source, timeout=10.0) as response:
                document = json.load(response)
        else:
            with open(source, encoding="utf-8") as handle:
                document = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace {source!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"trace {source!r} is not valid JSON: {exc}"
        ) from exc
    roots = _trace_roots(document)
    rendered = obs.render_trace(
        roots, max_depth=args.depth, show_attrs=not args.no_attrs
    )
    _emit(args, {"trace": roots}, rendered)
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.core.sensitivity import lifetime_sensitivities, tornado_text

    analyzer = _build_analyzer(args)
    results = lifetime_sensitivities(analyzer, ppm=args.ppm)
    payload = {
        "ppm": args.ppm,
        "elasticities": {r.parameter: r.elasticity for r in results},
    }
    _emit(args, payload, tornado_text(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Process variation and temperature-aware full-chip "
        "OBD reliability analysis",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="design and thermal summary")
    _add_design_arguments(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_life = sub.add_parser("lifetime", help="ppm lifetime by method")
    _add_design_arguments(p_life)
    p_life.add_argument("--ppm", type=float, default=10.0)
    p_life.add_argument(
        "--method",
        nargs="+",
        choices=METHODS,
        default=["st_fast"],
    )
    p_life.add_argument("--mc-chips", type=int, default=500)
    p_life.add_argument("--seed", type=int, default=0)
    _add_jobs_argument(p_life)
    p_life.set_defaults(func=_cmd_lifetime)

    p_curve = sub.add_parser("curve", help="reliability curve over time")
    _add_design_arguments(p_curve)
    p_curve.add_argument("--t-min", type=float, required=True)
    p_curve.add_argument("--t-max", type=float, required=True)
    p_curve.add_argument("--points", type=int, default=20)
    p_curve.add_argument(
        "--method", nargs=1, choices=METHODS, default=["st_fast"]
    )
    _add_jobs_argument(p_curve)
    p_curve.set_defaults(func=_cmd_curve)

    p_scenario = sub.add_parser(
        "scenario",
        help="piecewise stress scenarios (see docs/scenarios.md)",
    )
    scenario_sub = p_scenario.add_subparsers(
        dest="scenario_command", required=True
    )
    p_scenario_run = scenario_sub.add_parser(
        "run",
        help="lifetime under a phase schedule with a mechanism set",
    )
    _add_design_arguments(p_scenario_run)
    p_scenario_run.add_argument(
        "--scenario",
        metavar="FILE",
        required=True,
        help="scenario JSON document: phases, mechanisms, composition",
    )
    p_scenario_run.add_argument("--ppm", type=float, default=10.0)
    _add_jobs_argument(p_scenario_run)
    p_scenario_run.set_defaults(func=_cmd_scenario_run)

    p_thermal = sub.add_parser("thermal", help="block temperatures")
    _add_design_arguments(p_thermal)
    p_thermal.set_defaults(func=_cmd_thermal)

    p_sens = sub.add_parser("sensitivity", help="lifetime elasticities")
    _add_design_arguments(p_sens)
    p_sens.add_argument("--ppm", type=float, default=10.0)
    p_sens.set_defaults(func=_cmd_sensitivity)

    p_report = sub.add_parser("report", help="one-page design report")
    _add_design_arguments(p_report)
    _add_jobs_argument(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_batch = sub.add_parser(
        "batch", help="sweep benchmarks x temperatures x methods"
    )
    p_batch.add_argument(
        "--design",
        nargs="+",
        choices=sorted(BENCHMARK_DEVICE_COUNTS),
        required=True,
        help="benchmark designs to sweep",
    )
    p_batch.add_argument(
        "--method",
        nargs="+",
        choices=METHODS,
        default=["st_fast"],
        help="evaluation methods per cell",
    )
    p_batch.add_argument(
        "--temps",
        nargs="*",
        type=float,
        default=None,
        metavar="DEGC",
        help="uniform temperatures to sweep (default: each design's own "
        "thermal profile)",
    )
    p_batch.add_argument("--ppm", type=float, default=10.0)
    p_batch.add_argument(
        "--scenario",
        metavar="FILE",
        default=None,
        help="evaluate every cell under this scenario JSON document "
        "instead of the steady operating point (st_fast cells only)",
    )
    p_batch.add_argument(
        "--grid", type=int, default=25, help="correlation grid size"
    )
    p_batch.add_argument("--mc-chips", type=int, default=500)
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell, bypassing the result cache",
    )
    p_batch.add_argument(
        "--no-fuse",
        action="store_true",
        help="evaluate each temperature cell separately instead of fusing "
        "the st_fast/temp_unaware temperature axis into one kernel "
        "dispatch per design (results are bit-identical either way)",
    )
    p_batch.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result cache location (default: REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    _add_jobs_argument(p_batch)
    _add_obs_arguments(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_bench = sub.add_parser("bench", help="performance benchmarks")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_kernels = bench_sub.add_parser(
        "kernels",
        help="time the production kernels against their "
        "repro.kernels.reference oracles",
    )
    p_kernels.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="workload size (default quick, ~1 min)",
    )
    p_kernels.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="benchmark report destination (default BENCH_kernels.json)",
    )
    p_kernels.add_argument(
        "--no-save",
        action="store_true",
        help="print the report without writing the JSON file",
    )
    _add_obs_arguments(p_kernels)
    p_kernels.set_defaults(func=_cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="HTTP reliability service (see docs/service.md)"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port; 0 picks an ephemeral port (default 8080)",
    )
    p_serve.add_argument(
        "--max-queue",
        type=_positive_int,
        default=16,
        metavar="N",
        help="jobs allowed to wait before submissions get 429 (default 16)",
    )
    p_serve.add_argument(
        "--rate",
        type=float,
        default=2.0,
        metavar="R",
        help="per-client submissions per second; 0 disables rate limiting "
        "(default 2)",
    )
    p_serve.add_argument(
        "--burst",
        type=_positive_int,
        default=5,
        metavar="N",
        help="per-client burst allowance (default 5)",
    )
    p_serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget (default: unlimited)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds to let jobs finish on shutdown before cancelling "
        "them (default 30)",
    )
    p_serve.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="directory for Monte-Carlo job checkpoints (enables progress "
        "reporting and resume across restarts)",
    )
    p_serve.add_argument(
        "--flight-slow-threshold",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="dump a job's flight-recorder timeline when it takes longer "
        "than this (0 disables the slow-job criterion; default 30)",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache (identical submissions recompute)",
    )
    p_serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result cache location (default: REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    _add_jobs_argument(p_serve)
    p_serve.set_defaults(func=_cmd_serve, json=False)

    p_fleet = sub.add_parser(
        "fleet",
        help="distributed coordinator over repro serve workers",
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)
    p_fleet_run = fleet_sub.add_parser(
        "run",
        help="run a lifetime analysis across the fleet "
        "(byte-identical to the serial CLI)",
    )
    fleet_source = p_fleet_run.add_mutually_exclusive_group(required=True)
    fleet_source.add_argument(
        "--design",
        choices=sorted(BENCHMARK_DEVICE_COUNTS),
        help="one of the paper's benchmark designs",
    )
    fleet_source.add_argument(
        "--setup", metavar="FILE", help="JSON analysis setup file"
    )
    p_fleet_run.add_argument("--grid", type=int, default=25)
    p_fleet_run.add_argument("--rho", type=float, default=0.5)
    p_fleet_run.add_argument("--vdd", type=float, default=None)
    p_fleet_run.add_argument("--ppm", type=float, default=10.0)
    p_fleet_run.add_argument(
        "--method", nargs="+", choices=METHODS, default=["mc"]
    )
    p_fleet_run.add_argument("--mc-chips", type=int, default=500)
    p_fleet_run.add_argument("--seed", type=int, default=0)
    p_fleet_run.add_argument(
        "--scenario",
        metavar="FILE",
        default=None,
        help="run a scenario job (phase schedule JSON) instead of a "
        "lifetime analysis; implies --method st_fast",
    )
    p_fleet_run.add_argument(
        "--workers",
        nargs="+",
        required=True,
        metavar="URL",
        help="worker base URLs (http://host:port of repro serve processes)",
    )
    p_fleet_run.add_argument(
        "--group-size",
        type=_positive_int,
        default=4,
        metavar="N",
        help="shard indices per dispatched worker job (default 4)",
    )
    p_fleet_run.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help="accumulate finished shards here for crash resume",
    )
    p_fleet_run.add_argument(
        "--shared-cache-dir",
        metavar="DIR",
        default=None,
        help="shared result-cache tier location (default: "
        "REPRO_SHARED_CACHE_DIR, else <local cache>/shared)",
    )
    p_fleet_run.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the shared result-cache tier entirely",
    )
    p_fleet_run.add_argument(
        "--stats-file",
        metavar="FILE",
        default=None,
        help="write dispatch statistics (reassignments, cache hits, "
        "wall time) as JSON",
    )
    _add_obs_arguments(p_fleet_run)
    p_fleet_run.set_defaults(func=_cmd_fleet)

    p_fleet_status = fleet_sub.add_parser(
        "status", help="probe each worker's /readyz"
    )
    p_fleet_status.add_argument(
        "--workers", nargs="+", required=True, metavar="URL"
    )
    _add_obs_arguments(p_fleet_status)
    p_fleet_status.set_defaults(func=_cmd_fleet)

    p_trace = sub.add_parser(
        "trace", help="trace tooling (render recorded span trees)"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_show = trace_sub.add_parser(
        "show",
        help="render a trace tree from a --trace file, a saved "
        "/v1/jobs/{id}/trace response, or a live service URL",
    )
    p_trace_show.add_argument(
        "source",
        metavar="FILE_OR_URL",
        help="trace JSON file, or an http(s) URL returning one "
        "(e.g. http://127.0.0.1:8080/v1/jobs/<id>/trace)",
    )
    p_trace_show.add_argument(
        "--depth",
        type=_positive_int,
        default=None,
        metavar="N",
        help="prune the rendered tree below N levels (default: unlimited)",
    )
    p_trace_show.add_argument(
        "--no-attrs",
        action="store_true",
        help="hide span attributes (show names and wall times only)",
    )
    _add_obs_arguments(p_trace_show)
    p_trace_show.set_defaults(func=_cmd_trace_show)

    p_cache = sub.add_parser("cache", help="result-cache maintenance")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "entry count and size of the result and artifact caches"),
        ("clear", "delete every result-cache entry"),
    ):
        p_sub = cache_sub.add_parser(name, help=help_text)
        p_sub.add_argument(
            "--cache-dir",
            metavar="DIR",
            default=None,
            help="cache location (default: REPRO_CACHE_DIR or ~/.cache/repro)",
        )
        if name == "clear":
            p_sub.add_argument(
                "--artifacts",
                action="store_true",
                help="clear the kernels artifact cache (memoized "
                "characterizations) instead of the result cache",
            )
        _add_obs_arguments(p_sub)
        p_sub.set_defaults(func=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    log_level = getattr(args, "log_level", None)
    log_json = getattr(args, "log_json", False)
    if log_level is not None or log_json:
        try:
            obs.configure_logging(
                level=log_level if log_level is not None else "INFO",
                json_output=log_json,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    trace_file = getattr(args, "trace", None)
    if trace_file:
        try:
            # Fail before the (possibly long) analysis, not after it.
            with open(trace_file, "w", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"error: cannot write trace file: {exc}", file=sys.stderr)
            return 2
        obs.reset()
        obs.enable()
    try:
        return args.func(args)
    except ReproError as exc:
        # The short message is user-facing (stderr); the traceback is a
        # diagnostic, visible with --log-level DEBUG.
        obs.get_logger("cli").debug("command failed", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed early (`repro ... | head`); the convention
        # is a silent exit, not a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        if trace_file:
            snapshot = obs.observability_snapshot()
            obs.disable()
            obs.reset()
            with open(trace_file, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, indent=2)
                handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
