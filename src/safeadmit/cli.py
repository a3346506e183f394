"""Command-line front end.

Subcommands:
  run      execute a preset or a config file, emit CSV (and optionally SVG)
  report   recompute the summary report from an emitted CSV
  presets  list the built-in scenario presets

Exit codes: 0 success, 1 validation/config error, 2 runtime abort (the
partial trace is still written).

``run --all-presets`` runs the presets in forked worker processes, one per
CPU that sim.fork_cpus finds (at most one per preset). Each worker
simulates its preset in one process and writes its files; the text it
would have printed comes back and is printed in preset order, so the
output is that of the serial run. With one such CPU (one CPU, no
``os.fork``, other threads running in this process, which a fork cannot
copy safely, or this process itself a worker) or one scenario, the
presets run one after another in this process, where ``run`` may use a
second CPU for each.
"""

import argparse
import io
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

from .config import CONSTRAINT_SETS, parse_config
from .errors import ConfigError, SimulationAborted, ValidationError
from .safety import DEFAULT_SAFE_DISTANCE, ObstacleConstraint, WorkspaceConstraint
from .sim import ScenarioConfig, fork_cpus, run, scenario_library
from .traceio import compute_report, emit_csv, emit_plot, read_csv

OUT_ENV = "SAFEGUARD_OUT"

# Errors a run reports on stderr and exits 1 for.
_USER_ERRORS = (ConfigError, ValidationError, OSError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="safeadmit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and emit its trace")
    p_run.add_argument("--scenario", default="combined",
                       help="preset name or path to a config file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--no-filter", action="store_true",
                       help="bypass the safety filter")
    p_run.add_argument("--constraints",
                       choices=list(CONSTRAINT_SETS),
                       default=None, help="override the enabled constraints")
    p_run.add_argument("--duration", type=float, default=None)
    p_run.add_argument("--dt", type=float, default=None)
    p_run.add_argument("--plot", action="store_true", help="also emit an SVG plot")
    p_run.add_argument("--slack", action="store_true",
                       help="where the barrier rows conflict, fall back to "
                            "penalized slack instead of aborting")
    p_run.add_argument("--all-presets", action="store_true",
                       help="run every preset")

    p_rep = sub.add_parser("report", help="recompute the report from a CSV trace")
    p_rep.add_argument("csv", help="trace file written by 'run'")
    p_rep.add_argument("--scenario", default="custom")
    p_rep.add_argument("--r", type=float, default=DEFAULT_SAFE_DISTANCE,
                       help="safe distance used to convert h_obs to a distance")

    sub.add_parser("presets", help="list scenario presets")
    return parser


def _resolve_scenario(name: str) -> ScenarioConfig:
    presets = scenario_library()
    if name in presets:
        return presets[name]
    if os.path.exists(name):
        return parse_config(name)
    raise ConfigError(f"unknown preset and no such file: {name!r}")


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    if args.constraints is not None:
        # an enabled constraint keeps its configured geometry, else takes the default
        enabled = CONSTRAINT_SETS[args.constraints]
        config = replace(config, **{
            name: (getattr(config, name) or cls()) if name in enabled else None
            for name, cls in (("workspace", WorkspaceConstraint),
                              ("obstacle", ObstacleConstraint))})
    if args.no_filter:
        config = replace(config, filter_bypass=True)
    if args.slack:
        config = replace(config, slack=True)
    if args.duration is not None:
        config = replace(config, duration=args.duration)
    if args.dt is not None:
        config = replace(config, dt=args.dt)
    return config


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_one(config: ScenarioConfig, out_dir: Path, plot: bool) -> int:
    started = time.perf_counter()
    safe_distance = (config.obstacle.r if config.obstacle is not None
                     else DEFAULT_SAFE_DISTANCE)
    csv_path = out_dir / f"{config.name}.csv"
    try:
        trace = run(config)
    except SimulationAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.trace:
            emit_csv(exc.trace, csv_path)
            print(f"partial trace written to {csv_path}", file=sys.stderr)
        return 2
    runtime = time.perf_counter() - started
    emit_csv(trace, csv_path)
    if plot:
        emit_plot(trace, out_dir / f"{config.name}.svg",
                  workspace=config.workspace, obstacle=config.obstacle)
    report = compute_report(trace, scenario=config.name,
                            safe_distance=safe_distance, runtime_s=runtime)
    print(report.format())
    print(f"trace written to {csv_path}")
    return 0


def _run_captured(job) -> tuple:
    """``_run_one`` in a worker: (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = _run_one(*job)
        except _USER_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()


def _run_all(configs, out_dir: Path, plot: bool) -> int:
    """Run every config and return the largest exit code, in forked
    workers when more than one CPU and more than one config are at hand."""
    workers = min(len(configs), fork_cpus())
    if workers > 1:
        # imported here only: every other command would pay tens of ms for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        sys.stdout.flush()  # a worker must not inherit unwritten output
        sys.stderr.flush()
        jobs = [(c, out_dir, plot) for c in configs]
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(_run_captured, jobs))
        for code, out, err in results:
            sys.stdout.write(out)
            sys.stderr.write(err)
            if code == 1:  # the serial loop ends at its first error
                return code
        return max(code for code, _, _ in results)
    return max([_run_one(c, out_dir, plot) for c in configs])


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            for name, cfg in scenario_library().items():
                parts = []
                if cfg.workspace is not None:
                    parts.append("workspace box")
                if cfg.obstacle is not None:
                    parts.append("obstacle")
                if cfg.filter_bypass:
                    parts.append("filter bypassed")
                print(f"{name}: {', '.join(parts) or 'unconstrained'}")
            return 0

        if args.command == "report":
            # --r is checked as an obstacle's r is: finite and positive
            safe_distance = ObstacleConstraint(r=args.r).r
            trace = read_csv(args.csv)
            report = compute_report(trace, scenario=args.scenario,
                                    safe_distance=safe_distance)
            print(report.format())
            return 0

        out_dir = _out_dir(args)
        if args.all_presets:
            configs = list(scenario_library().values())
        else:
            configs = [_resolve_scenario(args.scenario)]
        return _run_all([_apply_overrides(c, args) for c in configs],
                        out_dir, args.plot)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
