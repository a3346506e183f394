"""The per-stage names that sim.run looks up stay in use.

The benchmark's traced run times each stage by replacing it at the name its
caller looks up (perfbench/workloads.py, trace_targets). A step kernel that
inlined a stage would leave that layer reading zero there; here it fails.
With one usable CPU every stage runs, and is counted, in this process; when
run pipelines its two chains, the plant chain's stages run in a forked
child, and only the reference chain's are counted here.
"""

import os
from dataclasses import replace

import pytest

from safeadmit import arm, safety, sim, smc

STAGES = [
    (sim, "desired_trajectory"), (sim, "human_force"), (sim, "drift_term"),
    (sim, "admittance_step"), (sim, "filter_force"),
    (safety.ConstraintSet, "evaluate"), (safety, "assemble_qp"),
    (safety, "solve"), (safety, "solve_with_slack"),
    (arm, "cartesian_dynamics_terms"), (arm, "cartesian_state"),
    (arm, "jacobian"), (arm, "plant_step"), (smc, "control"),
]

# On a step where the hard projection is feasible, a slack set never needs
# the penalized solver.
MAY_READ_ZERO = {"safety.solve_with_slack"}
# The stages of the plant chain.
PLANT_CHAIN = {"arm.cartesian_dynamics_terms", "arm.cartesian_state", "arm.jacobian",
               "arm.plant_step", "smc.control"}


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def calls(monkeypatch):
    counts = {}
    solved = []

    def wrap(label, fn):
        def counted(*args, **kwargs):
            counts[label] += 1
            result = fn(*args, **kwargs)
            if label == "safety.solve":
                solved.append((args[0].A.ndim, result.active_set))
            return result
        return counted

    for owner, name in STAGES:
        label = f"{getattr(owner, '__name__', '').rsplit('.', 1)[-1]}.{name}"
        counts[label] = 0
        monkeypatch.setattr(owner, name, wrap(label, owner.__dict__[name]))
    return counts, solved


def test_every_stage_is_called(calls, monkeypatch):
    usable_cpus(monkeypatch, 1)
    counts, solved = calls
    presets = sim.scenario_library()
    steps = len(sim.run(replace(presets["combined"], duration=0.05)))
    steps += len(sim.run(replace(presets["workspace"], duration=0.05, slack=True)))
    for label, n in counts.items():
        if label not in MAY_READ_ZERO:
            assert n > 0, f"{label} was never called"
    assert counts["sim.filter_force"] == steps
    assert len(solved) == steps
    for ndim, active in solved:
        assert ndim == 2
        assert isinstance(active, tuple)


def test_pipelined_reference_stages_are_called_here(calls, monkeypatch):
    usable_cpus(monkeypatch, 2)
    counts, solved = calls
    cfg = replace(sim.scenario_library()["combined"], duration=0.5)
    assert cfg.duration / cfg.dt > sim.BLOCK  # long enough to pipeline
    steps = len(sim.run(cfg))
    for label, n in counts.items():
        if label in PLANT_CHAIN:
            assert n == 0, f"{label} ran in this process"
        elif label not in MAY_READ_ZERO:
            assert n > 0, f"{label} was never called"
    assert counts["sim.filter_force"] == len(solved) == steps
