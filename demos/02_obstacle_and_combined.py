"""Obstacle clearance and the value of combining constraints.

Runs the obstacle-only and combined scenarios, reports the minimum
distance to the obstacle in both, and shows that the combined run keeps a
healthy margin to the workspace boundary that the obstacle-only run gives
up. Writes an SVG overlay of the combined run into demos/out/.
"""

from pathlib import Path

import numpy as np

from safeadmit import emit_plot, run, scenario_library

OUT = Path(__file__).parent / "out"
OBSTACLE = np.array([-0.07, 0.07])


def workspace_margin(trace):
    """Worst-case workspace barrier value recomputed from positions."""
    x_f = trace.x_f
    return np.minimum((x_f - 0.13) ** 2 - 0.04 ** 2,
                      (-0.13 - x_f) ** 2 - 0.04 ** 2).min()


def main():
    OUT.mkdir(exist_ok=True)
    presets = scenario_library()

    for name in ("obstacle-only", "combined"):
        trace = run(presets[name])
        dist = np.linalg.norm(trace.x_f - OBSTACLE, axis=1).min()
        print(f"{name:15s} min obstacle distance = {dist:.4f} m "
              f"(clearance radius 0.04 m)")
        print(f"{'':15s} worst workspace barrier value = "
              f"{workspace_margin(trace):+.2e} m^2")
        if name == "combined":
            cfg = presets[name]
            emit_plot(trace, OUT / "combined.svg",
                      workspace=cfg.workspace, obstacle=cfg.obstacle)

    print()
    print("the obstacle-only run drifts into the workspace margin (clearly")
    print("negative barrier value) because nothing constrains the box sides;")
    print("the combined run enforces both and rides the boundary to within")
    print("integration tolerance.")
    print(f"overlay written to {OUT / 'combined.svg'}")


if __name__ == "__main__":
    main()
