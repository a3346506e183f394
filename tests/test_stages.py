"""Every stage kernel of both chains runs once per step.

A chain's step is one call per stage to a float kernel that sim.run looks
up as a global of sim; a filtered step's admittance stage steps both the
reference and its unfiltered shadow. Here each kernel is replaced by one
that counts its calls in shared memory, so that the calls of a pipelined
run's reference chain, which runs in a forked child, are counted too.
"""

import os
from dataclasses import replace
from multiprocessing.sharedctypes import RawArray

import pytest

from safeadmit import sim

PRESETS = sim.scenario_library()
CASES = {
    "combined": replace(PRESETS["combined"], duration=0.5),
    # every step passes the filter by, and one admittance step serves both references
    "bypass": replace(PRESETS["baseline-unsafe"], duration=0.5),
    "no-constraints": replace(PRESETS["workspace"], duration=0.5, workspace=None),
    "slack": replace(PRESETS["workspace"], duration=0.5, slack=True),
    "nominal-only": replace(PRESETS["combined"], duration=0.5, nominal_only=True),
}
# Each chain's stage kernels, in the order a step calls them.
REFERENCE = ("_sample", "_filter_floats", "_admittance_floats")
PLANT = ("_task_floats", "_control_floats", "_plant_floats")


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def calls(monkeypatch):
    """A function that returns each kernel's calls so far."""
    counts = RawArray("q", len(REFERENCE + PLANT))

    def wrap(i, fn):
        def counted(*args):
            counts[i] += 1
            return fn(*args)
        return counted

    for i, name in enumerate(REFERENCE + PLANT):
        monkeypatch.setattr(sim, name, wrap(i, getattr(sim, name)))
    return lambda: dict(zip(REFERENCE + PLANT, counts))


def per_step(n, shadow):
    """Each kernel's calls in a complete run of n steps: a state-stepping
    kernel runs on every step but the last, the admittance kernel once
    more for the shadow of a filtered run."""
    return {"_sample": n, "_filter_floats": n, "_admittance_floats": (n - 1) * (1 + shadow),
            "_task_floats": n, "_control_floats": n, "_plant_floats": n - 1}


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pipelined"])
@pytest.mark.parametrize("name", CASES)
def test_every_kernel_runs_once_per_step(name, cpus, calls, monkeypatch):
    usable_cpus(monkeypatch, cpus)
    cfg = CASES[name]
    assert cfg.duration / cfg.dt > sim.BLOCK  # long enough to pipeline
    steps = len(sim.run(cfg))
    filtered = bool(cfg.constraint_set().names) and not cfg.filter_bypass
    assert calls() == per_step(steps, filtered)


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pipelined"])
def test_aborted_run_stops_the_kernels(cpus, calls, monkeypatch):
    # at dt = 2e-2 the plant chain fails in its control stage at step 3, on
    # the reference chain's first block, and the chain stops
    usable_cpus(monkeypatch, cpus)
    with pytest.raises(sim.SimulationAborted, match="at step 3 .* in the control stage"):
        sim.run(replace(PRESETS["combined"], dt=2e-2))
    counted = calls()
    assert {k: counted[k] for k in PLANT} == {"_task_floats": 4, "_control_floats": 4,
                                              "_plant_floats": 3}
    if cpus == 1:  # the reference chain ran the one block the plant chain took
        assert {k: counted[k] for k in REFERENCE} == {
            "_sample": sim.BLOCK, "_filter_floats": sim.BLOCK, "_admittance_floats": 2 * sim.BLOCK}
    else:  # the child runs ahead until it is stopped
        assert counted["_sample"] >= sim.BLOCK
