"""safeadmit benchmark: one command, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload combined --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` of that checkout and nothing else. With ``--trace 0`` it
alternates passes, which simulate every scenario of the workload once, with
rounds that write and read back the traces, until ``--seconds`` have
passed, and prints the end-to-end metrics; with ``--trace 1`` it runs an
untraced and a traced pass, each with one round, and prints the per-layer
metrics. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The line before it, also
written to ``.perfbench_out/``, holds the details: machine, seed, input
digests, CSV digests and every failure message.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
MIN_ROUNDS = 3
IO_SHARE = 0.5


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("combined", "unfiltered", "sweep", "all-presets"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sim-duration", type=float, default=None,
                   help="shorten every scenario to this many simulated seconds "
                        "(smoke tests)")
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs and exit (times setup_s)")
    return p.parse_args(argv)


def _import_program():
    """Import safeadmit from this checkout's src/, and the workloads."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import safeadmit
    if not Path(safeadmit.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"safeadmit was imported from {safeadmit.__file__}, not {src}")
    import workloads
    return workloads


def _setup_seconds(args) -> float:
    """Median time from spawning a fresh process until it has imported the
    package and built the workload's inputs. The child reports the moment
    on the monotonic clock it shares with this process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.sim_duration:
        cmd += ["--sim-duration", repr(args.sim_duration)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        child = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                               stdout=subprocess.PIPE, text=True)
        times.append(float(child.stdout.split()[-1]) - t0)
    return statistics.median(times)


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_sha256() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "safeadmit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _machine():
    import numpy
    return {"cores": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": _commit(),
            "source_sha256": _source_sha256()}


def _end_to_end(passes, setup_s):
    """End-to-end metrics: means over the run's passes and I/O rounds. The
    host this was tuned on changes speed by up to 1.6x in phases of tens of
    seconds; a mean over the whole run varies less between runs than a
    median, which takes its value from whichever speed held longest."""
    n = len(passes)
    sim_s = sum(p.sim_s for p in passes)
    write = statistics.mean(w for p in passes for w in p.write_s)
    read = statistics.mean(r for p in passes for r in p.read_s)
    io_cpu = statistics.mean(c for p in passes for c in p.io_cpu_s)
    return {
        "setup_s": (setup_s, "s"),
        "sim_us_per_step": (1e6 * sim_s / sum(p.steps for p in passes), "us"),
        "wall_s": (sim_s / n + write + read, "s"),
        "cpu_s": (sum(p.sim_cpu_s for p in passes) / n + io_cpu, "s"),
        "trace_write_s": (write, "s"),
        "trace_read_s": (read, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _measure(args, workloads, inputs, work):
    """Untraced passes, each followed by I/O rounds for half as long as its
    simulation took, while another pass fits in ``--seconds``; then I/O
    rounds until ``--seconds`` have passed. Spreading both kinds of sample
    over the whole run averages the host's speed over more of it."""
    deadline = perf_counter() + args.seconds
    passes = []
    while True:
        p = workloads.simulate(inputs, work / f"pass{len(passes)}")
        passes.append(p)
        io_until = min(perf_counter() + IO_SHARE * p.sim_s, deadline)
        while p.items and (not p.write_s or perf_counter() < io_until):
            workloads.io_round(p, work / f"pass{len(passes) - 1}")
        if perf_counter() + p.sim_s > deadline:
            break
        p.items = []
    while p.items and (sum(len(q.write_s) for q in passes) < MIN_ROUNDS
                       or perf_counter() < deadline):
        workloads.io_round(p, work / f"pass{len(passes) - 1}")
    return passes


def _trace(args, workloads, inputs, work):
    """Pairs of an untraced and a traced pass, each with one I/O round, for
    as many pairs as fit in ``--seconds`` (at least one). Returns the passes,
    the per-layer metrics of each pair, the last tracer and any breakage."""
    passes, layer_runs, broken = [], [], []
    started = perf_counter()
    while True:
        k, t0 = len(layer_runs), perf_counter()
        plain = workloads.simulate(inputs, work / f"pass{k}")
        workloads.io_round(plain, work / f"pass{k}")
        tracer = Tracer()
        with tracer.installed(workloads.trace_targets()):
            traced_inputs = workloads.setup(args.workload, args.seed, args.sim_duration)
            traced = workloads.simulate(traced_inputs, work / f"traced{k}")
            workloads.io_round(traced, work / f"traced{k}")
        if not workloads.traces_equal(plain.traces, traced.traces):
            broken.append("traced run is not records_equal to the untraced run")
        plain.items = traced.items = []
        passes += [plain, traced]
        layer_runs.append(workloads.layer_metrics(
            tracer.layers(), tracer.qp_results, plain, traced))
        now = perf_counter()
        if now - started + (now - t0) > args.seconds:
            return passes, layer_runs, tracer, broken


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        workloads = _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.setup(args.workload, args.seed, args.sim_duration)
        print(perf_counter())
        return 0

    setup_s = None if args.trace else _setup_seconds(args)
    inputs = workloads.setup(args.workload, args.seed, args.sim_duration)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        if args.trace:
            passes, layer_runs, tracer, broken = _trace(args, workloads, inputs, work)
        else:
            passes, broken = _measure(args, workloads, inputs, work), []
    finally:
        shutil.rmtree(work)

    for p in passes:
        broken += p.broken
    if any(p.csv_sha256 != passes[0].csv_sha256 for p in passes):
        broken.append("CSV digests differ between passes of identical inputs")
    failed = sum(len(p.failures) for p in passes)
    attempted = sum(len(p.scenarios) for p in passes)

    if args.trace:
        metrics = {}
        for name, value in layer_runs[0].items():
            values = [run[name] for run in layer_runs]
            if isinstance(value, int) and any(v != value for v in values):
                broken.append(f"count {name} differs between traced passes")
            metrics[name] = statistics.median(values) if isinstance(value, float) else value
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans_path)
        metrics = {name: {"value": value, "unit": workloads.layer_unit(name)}
                   for name, value in metrics.items()}
    else:
        spans_path = None
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in _end_to_end(passes, setup_s).items()}

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(), "passes": len(passes),
        "steps_per_pass": passes[0].steps, "io_rounds": sum(len(p.write_s) for p in passes),
        "fail_ratio": failed / attempted,
        "failures": sorted({f"{name}: {msg}" for p in passes
                            for name, msgs in p.failures.items() for msg in msgs}),
        "broken": sorted(set(broken)), "csv_sha256": passes[0].csv_sha256,
        "sweep_ini_sha256": inputs.ini_sha256,
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    result = {"correct": not broken, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
