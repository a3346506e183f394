"""Compare the traces of two source checkouts, run by run, bit for bit.

    python3 tools/parity.py PARENT_CHECKOUT [--duration SECONDS]

Runs the four presets, each preset again at the steps DIVERGING_DTS (where
every one of them diverges within 0.07 simulated seconds and aborts, so
that its abort message is compared), and the ``sweep`` configs of seeds
1-3 (generated by this checkout's perfbench/sweep.py) under the ``src/`` of
this checkout and under that of PARENT_CHECKOUT, each side in its own
subprocess. Each side also writes every run's trace with its own emit_csv
and reads it back with its own read_csv. For every run it prints whether
the active sets, the statuses, the abort message and the sha256 digests of
the two CSV files are equal, whether each side's read_csv gave back its
trace bit for bit, and the largest |difference| of t, of each 2-vector
column and of the barrier values. It exits 1 if any run differs in any of
them (a NaN against a number counts as a difference) or a CSV does not
read back, 0 otherwise. ``--duration`` shortens every run to that many
simulated seconds.
"""

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("baseline-unsafe", "workspace", "obstacle-only", "combined")
DIVERGING_DTS = (5e-3, 8e-3, 2e-2)
SWEEP_SEEDS = (1, 2, 3)


def _scenarios(duration):
    """(label, spec) of every run: a spec is an INI text, or a dict naming
    a preset and the ScenarioConfig fields that replace its own."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import sweep
    runs = [(name, {"preset": name}) for name in PRESETS]
    runs += [(f"{name}-dt{dt:g}", {"preset": name, "dt": dt})
             for dt in DIVERGING_DTS for name in PRESETS]
    for seed in SWEEP_SEEDS:
        texts = sweep.generate(seed, duration=duration or sweep.DURATION)
        runs += [(f"sweep-seed{seed}-{i:02d}", text) for i, text in enumerate(texts)]
    return runs


def dump(src: str, runs_file: str, out_dir: str, duration) -> None:
    """Run every scenario of ``runs_file`` with the safeadmit of ``src`` and
    write each run's columns to ``out_dir/<label>.npz``, with the sha256 of
    the CSV that its emit_csv writes and whether its read_csv reads that
    CSV back bit for bit."""
    sys.path.insert(0, src)
    import safeadmit
    from safeadmit import config, sim, traceio
    if not Path(safeadmit.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"safeadmit was imported from {safeadmit.__file__}, not {src}")
    presets = sim.scenario_library()
    for label, spec in json.loads(Path(runs_file).read_text()):
        if isinstance(spec, str):
            cfg = config.parse_config_text(spec)
        else:
            changes = dict(spec)
            cfg = replace(presets[changes.pop("preset")], **changes)
            if duration:
                cfg = replace(cfg, duration=duration)
        abort = ""
        try:
            trace = sim.run(cfg)
        except safeadmit.SimulationAborted as exc:
            trace, abort = exc.trace, str(exc)
        digest, reads_back = "", True  # an empty trace has no CSV
        if len(trace):
            csv_path = Path(out_dir) / f"{label}.csv"
            traceio.emit_csv(trace, csv_path)
            digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            reads_back = sim.records_equal(trace, traceio.read_csv(csv_path))
            csv_path.unlink()
        np.savez(Path(out_dir) / f"{label}.npz", t=trace.t, h=trace.h,
                 h_names=np.array(trace.h_names, dtype=str),
                 qp_active=np.array([";".join(map(str, a)) for a in trace.qp_active], dtype=str),
                 qp_status=np.array(trace.qp_status, dtype=str), abort=np.array(abort),
                 csv_sha256=np.array(digest), csv_reads_back=np.array(reads_back),
                 **{name: getattr(trace, name) for name in sim.VECTORS})


def _diff(a: np.ndarray, b: np.ndarray):
    """(bit-equal, max |a - b|) of two arrays; the max is inf where the
    shapes or the NaN positions differ."""
    if a.shape != b.shape:
        return False, float("inf")
    if np.array_equal(a.view(np.uint8), b.view(np.uint8)):
        return True, 0.0
    if not np.array_equal(np.isnan(a), np.isnan(b)):
        return False, float("inf")
    return False, float(np.nan_to_num(np.abs(a - b)).max(initial=0.0))


def compare(a, b, vectors):
    """(all equal, one report line) of the runs loaded from ``a`` and ``b``.
    Floats compare by their bits, so a zero of the other sign differs (its
    max |difference| is printed as 0 with a '!')."""
    same = {key: bool(np.array_equal(a[key], b[key]))
            for key in ("qp_active", "qp_status", "abort", "h_names", "csv_sha256")}
    same["csv_reads_back"] = bool(a["csv_reads_back"]) and bool(b["csv_reads_back"])
    diffs = {key: _diff(a[key], b[key]) for key in ("t", *vectors, "h")}
    ok = all(same.values()) and all(equal for equal, _ in diffs.values())
    line = " ".join([*(f"{k}={'same' if v else 'DIFF'}" for k, v in same.items()),
                     *(f"{k}={d:.3g}{'' if equal else '!'}" for k, (equal, d) in diffs.items())])
    return ok, line


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="root of the other source checkout")
    p.add_argument("--duration", type=float, default=None,
                   help="simulated seconds of every run (default: each run's own)")
    args = p.parse_args(argv)
    checkouts = {"this": ROOT, "parent": Path(args.parent).resolve()}
    for path in checkouts.values():
        if not (path / "src" / "safeadmit").is_dir():
            p.error(f"{path} has no src/safeadmit")
    runs = _scenarios(args.duration)
    with tempfile.TemporaryDirectory() as tmp:
        runs_file = Path(tmp) / "runs.json"
        runs_file.write_text(json.dumps(runs))
        children = {}
        for side, path in checkouts.items():
            (Path(tmp) / side).mkdir()
            code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import parity; "
                    f"parity.dump({str(path / 'src')!r}, {str(runs_file)!r}, "
                    f"{str(Path(tmp) / side)!r}, {args.duration!r})")
            children[side] = subprocess.Popen([sys.executable, "-c", code], cwd=tmp,
                                              stdout=subprocess.DEVNULL)
        failed = [side for side, child in children.items() if child.wait() != 0]
        if failed:
            print(f"parity: the run of {', '.join(failed)} failed", file=sys.stderr)
            return 1
        sys.path.insert(0, str(ROOT / "src"))
        from safeadmit.sim import VECTORS
        differing = 0
        for label, _ in runs:
            with np.load(Path(tmp) / "this" / f"{label}.npz") as a, \
                    np.load(Path(tmp) / "parent" / f"{label}.npz") as b:
                ok, line = compare(a, b, VECTORS)
            differing += not ok
            print(f"{'same' if ok else 'DIFF'}  {label}: {line}")
    print(f"{len(runs) - differing} of {len(runs)} runs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
