"""Command-line front end.

Subcommands:
  run      execute a preset or a config file, emit CSV (and optionally SVG)
  report   recompute the summary report from an emitted CSV
  presets  list the built-in scenario presets

Exit codes: 0 success, 1 validation/config error, 2 runtime abort (the
partial trace is still written).

``run --all-presets`` runs the presets one after another and stops at the
first error (exit 1); each ``run`` may use a second CPU for its reference
chain and its trace I/O (see safeadmit.forks).
"""

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .config import CONSTRAINT_SETS, parse_config
from .errors import ConfigError, SimulationAborted, ValidationError
from .safety import DEFAULT_SAFE_DISTANCE, ObstacleConstraint, WorkspaceConstraint
from .sim import ScenarioConfig, run, scenario_library
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


def _name_max(path: Path) -> int:
    """The longest file name, in bytes, that the nearest existing ancestor
    of ``path`` (or path itself) takes; 0 or less where that is not known."""
    path = path.absolute()
    while not path.exists():
        path = path.parent
    try:
        return os.pathconf(path, "PC_NAME_MAX")
    except (AttributeError, OSError):  # no pathconf on this platform
        return 0


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

        if args.all_presets:
            configs = list(scenario_library().values())
        else:
            configs = [_resolve_scenario(args.scenario)]
        configs = [_apply_overrides(c, args) for c in configs]
        out_dir = Path(args.out or os.environ.get(OUT_ENV) or ".")
        name_max = _name_max(out_dir)
        for c in configs:  # each name is the stem of a file in the output directory
            if (c.name in ("", ".", "..") or "/" in c.name or "\0" in c.name
                    or 0 < name_max < len(os.fsencode(f"{c.name}.csv"))):
                raise ConfigError(f"scenario name {c.name!r} cannot name a file")
        out_dir.mkdir(parents=True, exist_ok=True)  # made only once every config is valid
        return max([_run_one(c, out_dir, args.plot) for c in configs])
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
