"""Workspace scenario walkthrough.

Runs the unfiltered baseline and the filtered workspace scenario side by
side, prints where the unfiltered admittance reference escapes the
workspace box, and shows the filtered reference staying inside. Writes
CSV traces and an SVG overlay for both runs into demos/out/.
"""

from pathlib import Path

import numpy as np

from safeadmit import (compute_report, emit_csv, emit_plot, run,
                       scenario_library)

OUT = Path(__file__).parent / "out"


def main():
    OUT.mkdir(exist_ok=True)
    presets = scenario_library()

    print("=== baseline (filter bypassed) ===")
    baseline = run(presets["baseline-unsafe"])
    peaks = np.abs(baseline.x_r_shadow).max(axis=1)
    worst, t_worst = peaks.max(), baseline.t[peaks.argmax()]
    print(f"unfiltered reference peaks at |x| = {worst:.4f} m (t = {t_worst:.2f} s)")
    print(f"workspace bound is 0.13 m -> violated by {worst - 0.13:.4f} m")
    print()

    print("=== workspace scenario (filter active) ===")
    cfg = presets["workspace"]
    trace = run(cfg)
    report = compute_report(trace, scenario="workspace")
    print(report.format())
    print()

    active_steps = sum(map(bool, trace.qp_active))
    peak_comp = np.abs(trace.f_e_comp).max()
    print(f"filter engaged on {active_steps} of {len(trace)} steps, "
          f"peak compensating force {peak_comp:.2f} N")

    emit_csv(baseline, OUT / "baseline-unsafe.csv")
    emit_csv(trace, OUT / "workspace.csv")
    emit_plot(trace, OUT / "workspace.svg", workspace=cfg.workspace)
    print(f"artifacts in {OUT}/")


if __name__ == "__main__":
    main()
