"""Time each chain of a run alone, per preset, in process CPU us/step.

    python3 tools/chains.py [CHECKOUT] [--duration SECONDS] [--repeat N]

For each preset, runs the reference chain (sim._reference_chain) alone in
this process, keeping its blocks, and then feeds those blocks to a plant
chain (sim._PlantChain) alone. Prints the least process CPU time
per step of each chain over --repeat runs, and the in-process ratio of
combined to baseline-unsafe: both chains' sum on combined over their sum
on baseline-unsafe. CHECKOUT (default: this one) is the source checkout
whose src/ is imported.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from time import process_time


def chain_seconds(sim, cfg):
    """(reference, plant) process CPU seconds of one run of ``cfg``."""
    cset, steps, blocks = cfg.constraint_set(), round(cfg.duration / cfg.dt), []
    plant = sim._PlantChain(cfg, steps, sim._H + len(cset.names))

    def hand(rows, events, handoff, failure) -> bool:
        blocks.append((rows, handoff))  # fresh arrays, which the plant chain fills in
        return True
    t0 = process_time()
    sim._reference_chain(cfg, cset, cfg.initial_admittance_state(), steps, hand)
    t1 = process_time()
    for rows, handoff in blocks:
        plant.feed(rows, handoff)
    return t1 - t0, process_time() - t1


def main(argv=None) -> dict:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parent.parent))
    p.add_argument("--duration", type=float, default=16.0, help="simulated seconds per run")
    p.add_argument("--repeat", type=int, default=3, help="runs per preset; the least is kept")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.checkout) / "src"))
    from safeadmit import sim
    out = {}
    for name, cfg in sim.scenario_library().items():
        cfg = replace(cfg, duration=args.duration)
        runs = [chain_seconds(sim, cfg) for _ in range(args.repeat)]
        scale = 1e6 / (round(cfg.duration / cfg.dt) + 1)
        out[name] = ref, plant = [min(t) * scale for t in zip(*runs)]
        print(f"{name:16s} reference {ref:6.2f}  plant {plant:6.2f} us/step")
    ratio = sum(out["combined"]) / sum(out["baseline-unsafe"])
    print(f"in-process ratio combined / baseline-unsafe: {ratio:.3f}")
    return out


if __name__ == "__main__":
    main()
