"""The benchmark's workloads: their inputs, their measured passes and I/O
rounds, and the checks on the program's outputs.

A pass simulates every scenario of the workload once; an I/O round writes
and reads back the trace of every scenario of a pass once. Only calls into the program are timed; the
checks that follow them are not. Two kinds of problem are recorded apart:

- a *failed scenario* aborts, breaks the barrier bound on a filtered run
  without slack, stays inside the shrunk box although the filter is
  bypassed, or makes the command line exit nonzero; these are counted in
  the result's ``failed``;
- a *broken output* is a CSV that does not read back ``records_equal``, a
  report that differs when rebuilt from the CSV, a missing output file, or
  an I/O round or traced run whose output differs; any of these makes the
  result's ``correct`` false, and the scenario counts as failed too.
"""

import hashlib
import io
import resource
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations
from time import perf_counter, process_time
from typing import Dict, List, Optional

import numpy as np

from safeadmit import arm, cli, config, safety, sim, smc, traceio
from safeadmit.errors import SimulationAborted

import sweep

# Simulated seconds per preset in ``all-presets``: long enough for the
# human force to ramp in, short enough to leave most of a run for trace I/O.
ALL_PRESETS_DURATION = 4.5

BARRIER_TOL = -1e-6  # the report's own violation threshold


@dataclass
class Inputs:
    workload: str
    configs: List[sim.ScenarioConfig]
    ini_sha256: Optional[str] = None


def setup(workload: str, seed: int, sim_duration: Optional[float] = None) -> Inputs:
    """Build a workload's inputs from its seed. ``sim_duration`` shortens
    every scenario (for smoke tests)."""
    presets = sim.scenario_library()
    if workload == "sweep":
        texts = sweep.generate(seed, duration=sim_duration or sweep.DURATION)
        return Inputs(workload, [config.parse_config_text(t) for t in texts],
                      ini_sha256=sweep.digest(texts))
    if workload == "all-presets":
        duration = sim_duration or ALL_PRESETS_DURATION
        return Inputs(workload, [replace(c, duration=duration) for c in presets.values()])
    name = {"combined": "combined", "unfiltered": "baseline-unsafe"}[workload]
    cfg = presets[name]
    if sim_duration:
        cfg = replace(cfg, duration=sim_duration)
    return Inputs(workload, [cfg])


def _cpu() -> float:
    """CPU time of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


@dataclass
class Item:
    """One simulated scenario of a pass and what its I/O rounds check against."""
    cfg: sim.ScenarioConfig
    trace: list           # the simulated trace; on all-presets, the CLI's CSV read back
    report: object        # in-memory report; on all-presets, the block ``run`` printed
    csv_path: object      # the CSV a round reads
    csv_bytes: bytes = b""


@dataclass
class PassResult:
    workload: str
    sim_s: float = 0.0    # wall time of sim.run, or of the whole CLI run on all-presets
    sim_cpu_s: float = 0.0
    steps: int = 0
    # One entry per I/O round: a write and a read of every scenario's trace.
    write_s: List[float] = field(default_factory=list)  # emit_csv + emit_plot
    read_s: List[float] = field(default_factory=list)   # read_csv + compute_report
    io_cpu_s: List[float] = field(default_factory=list)
    csv_bytes: int = 0
    cli_wall_s: float = 0.0
    cli_cpu_s: float = 0.0
    scenarios: List[str] = field(default_factory=list)
    failures: Dict[str, List[str]] = field(default_factory=dict)
    broken: List[str] = field(default_factory=list)
    csv_sha256: Dict[str, str] = field(default_factory=dict)
    items: List[Item] = field(default_factory=list)

    def fail(self, name: str, message: str, broken: bool = False) -> None:
        self.failures.setdefault(name, []).append(message)
        if broken:
            self.broken.append(f"{name}: {message}")

    @property
    def traces(self) -> Dict[str, list]:
        return {item.cfg.name: item.trace for item in self.items}


def simulate(inputs: Inputs, out_dir) -> PassResult:
    """Simulate every scenario of the workload once into ``out_dir`` (which
    must not exist yet) and check the outcomes."""
    out_dir.mkdir(parents=True)
    result = PassResult(inputs.workload)
    if inputs.workload == "all-presets":
        _simulate_cli(inputs, out_dir, result)
    else:
        for cfg in inputs.configs:
            _simulate_scenario(cfg, out_dir, result)
    return result


def io_round(result: PassResult, out_dir) -> None:
    """Write and read back the trace of every scenario of the pass once,
    timing the program calls and checking what they return."""
    io_item = _io_cli if result.workload == "all-presets" else _io_scenario
    write = read = 0.0
    c0 = _cpu()
    for item in result.items:
        w, r = io_item(item, out_dir, result)
        write += w
        read += r
    result.io_cpu_s.append(_cpu() - c0)
    result.write_s.append(write)
    result.read_s.append(read)


def _safe_distance(cfg) -> float:
    return cfg.obstacle.r if cfg.obstacle is not None else sim.DEFAULT_SAFE_DISTANCE


def _check_outcome(cfg, trace, report, result: PassResult) -> None:
    """Safety checks: the barrier bound on filtered runs without slack, and
    the unfiltered reference leaving the shrunk box."""
    name = cfg.name
    if cfg.filter_bypass and cfg.workspace is not None:
        ws = cfg.workspace
        xf = np.array([rec.x_f for rec in trace])
        if not ((xf < ws.x_min + ws.r) | (xf > ws.x_max - ws.r)).any():
            result.fail(name, "unfiltered reference never left the shrunk box")
    elif not cfg.filter_bypass and not cfg.slack and report.min_h:
        worst = min(report.min_h.values())
        if worst < BARRIER_TOL:
            result.fail(name, f"min h = {worst:.3g} < {BARRIER_TOL:g}")


def _check_csv(item: Item, result: PassResult) -> None:
    """Every round must write the bytes the first round wrote."""
    name = item.cfg.name
    data = item.csv_path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if name not in result.csv_sha256:
        result.csv_sha256[name] = digest
        result.csv_bytes += len(data)
    elif result.csv_sha256[name] != digest:
        result.fail(name, "CSV differs between I/O rounds", broken=True)


def _simulate_scenario(cfg, out_dir, result: PassResult) -> None:
    name = cfg.name
    result.scenarios.append(name)
    c0, t0 = _cpu(), perf_counter()
    try:
        trace = sim.run(cfg)
    except SimulationAborted as exc:
        trace = None
        result.steps += len(exc.trace)
        result.fail(name, f"aborted: {exc}")
    result.sim_s += perf_counter() - t0
    result.sim_cpu_s += _cpu() - c0
    if trace is None:
        return
    result.steps += len(trace)
    report = traceio.compute_report(trace, scenario=name, safe_distance=_safe_distance(cfg))
    _check_outcome(cfg, trace, report, result)
    result.items.append(Item(cfg, trace, report, out_dir / f"{name}.csv"))


def _io_scenario(item: Item, out_dir, result: PassResult) -> tuple:
    cfg, name = item.cfg, item.cfg.name
    first = name not in result.csv_sha256
    t0 = perf_counter()
    traceio.emit_csv(item.trace, item.csv_path)
    traceio.emit_plot(item.trace, out_dir / f"{name}.svg",
                      workspace=cfg.workspace, obstacle=cfg.obstacle)
    t1 = perf_counter()
    back = traceio.read_csv(item.csv_path)
    rebuilt = traceio.compute_report(back, scenario=name, safe_distance=_safe_distance(cfg))
    t2 = perf_counter()
    # The full record comparison is slow, so only the first round makes it;
    # later rounds must write the same bytes, which _check_csv enforces.
    if first and (len(back) != len(item.trace)
                  or not all(map(sim.records_equal, item.trace, back))):
        result.fail(name, "CSV does not read back records_equal", broken=True)
    if rebuilt != item.report:
        result.fail(name, "report rebuilt from the CSV differs", broken=True)
    _check_csv(item, result)
    return t1 - t0, t2 - t1


def traces_equal(a: Dict[str, list], b: Dict[str, list]) -> bool:
    """Whether two passes kept the same traces, record for record."""
    return a.keys() == b.keys() and all(
        len(a[k]) == len(b[k]) and all(map(sim.records_equal, a[k], b[k])) for k in a)


def _cli(argv) -> tuple:
    """Call the command line in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _report_blocks(text: str) -> Dict[str, str]:
    """Reports printed by ``run``, keyed by scenario, without the lines
    that ``report`` cannot reproduce (runtime, output paths)."""
    blocks = {}
    for chunk in text.split("scenario: ")[1:]:
        name, _, rest = chunk.partition("\n")
        lines = [line for line in rest.splitlines()
                 if not line.startswith(("runtime:", "trace written", "partial trace"))]
        blocks[name] = "\n".join([f"scenario: {name}"] + lines)
    return blocks


def _simulate_cli(inputs: Inputs, out_dir, result: PassResult) -> None:
    run_dir = out_dir / "run"
    argv = ["run", "--all-presets", "--plot", "--out", str(run_dir),
            "--duration", repr(inputs.configs[0].duration)]
    c0, t0 = _cpu(), perf_counter()
    code, printed = _cli(argv)
    t1, c1 = perf_counter(), _cpu()
    result.cli_wall_s = result.sim_s = t1 - t0
    result.cli_cpu_s = result.sim_cpu_s = c1 - c0
    blocks = _report_blocks(printed)
    for cfg in inputs.configs:
        name = cfg.name
        result.scenarios.append(name)
        if code != 0:
            result.fail(name, f"'run --all-presets' exited with {code}")
        csv_path, svg_path = run_dir / f"{name}.csv", run_dir / f"{name}.svg"
        if not (csv_path.exists() and svg_path.exists()):
            result.fail(name, "CSV or SVG missing", broken=True)
            continue
        back = traceio.read_csv(csv_path)
        result.steps += len(back)
        report = traceio.compute_report(back, scenario=name, safe_distance=_safe_distance(cfg))
        _check_outcome(cfg, back, report, result)
        item = Item(cfg, back, blocks.get(name), csv_path, csv_path.read_bytes())
        _check_csv(item, result)
        result.items.append(item)


def _io_cli(item: Item, out_dir, result: PassResult) -> tuple:
    cfg, name = item.cfg, item.cfg.name
    t0 = perf_counter()
    code, text = _cli(["report", str(item.csv_path), "--scenario", name,
                       "--r", repr(_safe_distance(cfg))])
    t1 = perf_counter()
    csv_copy = out_dir / f"{name}.csv"
    traceio.emit_csv(item.trace, csv_copy)
    traceio.emit_plot(item.trace, out_dir / f"{name}.svg",
                      workspace=cfg.workspace, obstacle=cfg.obstacle)
    t2 = perf_counter()
    if code != 0:
        result.fail(name, f"'report' exited with {code}")
    if text.rstrip("\n") != item.report:
        result.fail(name, "report rebuilt from the CSV differs", broken=True)
    if csv_copy.read_bytes() != item.csv_bytes:
        result.fail(name, "CSV re-emitted from its read-back differs", broken=True)
    return t2 - t1, t1 - t0


# -- per-layer tracing -------------------------------------------------------

def trace_targets():
    """(layer, owner, attribute) for every call the traced run records,
    each at the name its caller looks up."""
    cs = safety.ConstraintSet
    return [
        ("cli.main", cli, "main"),
        ("config.parse_config_text", config, "parse_config_text"),
        ("sim.run", sim, "run"),
        ("sim.run", cli, "run"),
        ("sim.desired_trajectory", sim, "desired_trajectory"),
        ("sim.human_force", sim, "human_force"),
        ("admittance.drift_term", sim, "drift_term"),
        ("admittance.step", sim, "admittance_step"),
        ("safety.filter_force", sim, "filter_force"),
        ("safety.evaluate", cs, "evaluate"),
        ("safety.barrier_values", cs, "barrier_values"),
        ("safety.assemble_qp", safety, "assemble_qp"),
        ("qp.solve", safety, "solve"),
        ("qp.solve_with_slack", safety, "solve_with_slack"),
        ("arm.cartesian_dynamics_terms", arm, "cartesian_dynamics_terms"),
        ("arm.cartesian_state", arm, "cartesian_state"),
        ("arm.jacobian", arm, "jacobian"),
        ("arm.plant_step", arm, "plant_step"),
        ("smc.control", smc, "control"),
        ("traceio.emit_csv", traceio, "emit_csv"),
        ("traceio.emit_csv", cli, "emit_csv"),
        ("traceio.emit_plot", traceio, "emit_plot"),
        ("traceio.emit_plot", cli, "emit_plot"),
        ("traceio.read_csv", traceio, "read_csv"),
        ("traceio.read_csv", cli, "read_csv"),
        ("traceio.compute_report", traceio, "compute_report"),
        ("traceio.compute_report", cli, "compute_report"),
    ]


CALL_LAYERS = ("qp.solve_with_slack", "safety.filter_force", "safety.evaluate",
               "safety.assemble_qp", "safety.barrier_values", "admittance.step",
               "admittance.drift_term", "arm.plant_step",
               "arm.cartesian_dynamics_terms", "arm.cartesian_state",
               "arm.jacobian", "smc.control")
SELF_LAYERS = ("sim.run", "sim.desired_trajectory", "sim.human_force",
               "config.parse_config_text")
TOTAL_LAYERS = ("traceio.emit_csv", "traceio.read_csv", "traceio.compute_report",
                "traceio.emit_plot", "cli.main")


@lru_cache(maxsize=None)
def _subset_positions(rows: int) -> Dict[tuple, int]:
    """1-based position of each active set in the solver's documented
    (size, lexicographic) enumeration over ``rows`` rows."""
    order = [s for k in range(1, rows + 1) for s in combinations(range(rows), k)]
    return {s: i + 1 for i, s in enumerate(order)}


def layer_metrics(layers, qp_results, plain: PassResult, traced: PassResult) -> Dict[str, float]:
    """Per-layer metrics of one traced pass; ``plain`` is the untraced pass
    it is compared with."""
    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    m = {}
    calls = get("qp.solve", "calls")
    m["qp.solve.calls"] = calls
    m["qp.solve.self_s"] = get("qp.solve", "self_s")
    m["qp.solve.us_per_call"] = 1e6 * m["qp.solve.self_s"] / calls if calls else 0.0
    m["qp.identity_hits"] = sum(1 for _, active in qp_results if not active)
    tried = sum(_subset_positions(rows)[tuple(active)]
                for rows, active in qp_results if active)
    m["qp.subsets_tried"] = tried
    m["qp.useful_ratio"] = calls / tried if tried else 0.0
    for k in range(3):
        m[f"qp.active_rows.{k}"] = sum(1 for _, active in qp_results if len(active) == k)
    for layer in CALL_LAYERS:
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.self_s"] = get(layer, "self_s")
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = get(layer, "self_s")
    for layer in TOTAL_LAYERS:
        m[f"{layer}.s"] = get(layer, "total_s")
    m["sim.steps"] = traced.steps
    m["traceio.csv_bytes"] = traced.csv_bytes
    m["cli.cpu_over_wall"] = traced.cli_cpu_s / traced.cli_wall_s if traced.cli_wall_s else 0.0
    m["bench.trace_overhead"] = ((traced.sim_s / traced.steps) / (plain.sim_s / plain.steps) - 1.0
                                 if traced.steps and plain.steps else 0.0)
    return m


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("csv_bytes"):
        return "B"
    if name.endswith(("ratio", "overhead", "cpu_over_wall")):
        return "ratio"
    return "count"
