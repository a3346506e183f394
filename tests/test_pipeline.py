"""run's two chains give one answer whether the reference chain runs in
a forked child (pipelined) or in this process.

The pipelined side makes the affinity lookup report two usable CPUs; the
in-process side reports one, or keeps a second thread alive, either of
which keeps run from forking. The runs last 5 s, which takes in the human
force's ramp-in and the filter's active steps. Every case compares the traces bit for bit,
and an abort's type, message and cause type as well; afterwards no child
process of this one is left, and around a pipelined run this process
holds the same descriptors before and after.
"""

import os
import pickle
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace

import pytest

from safeadmit import (AdmittanceParams, InfeasibleQp, SimulationAborted,
                       SingularConfiguration, ValidationError, config, forks,
                       records_equal, scenario_library, sim)

PRESETS = scenario_library()

SWEEP_STYLE_INI = """\
[admittance]
k_m = 12.5,26
[scenario]
name = sweep-style
duration = 5.0
dt = 0.002
radius = 0.15
a1 = 2.2
a2 = -1.9
[constraints]
set = both
x_min = -0.12,-0.13
x_max = 0.12,0.13
x_obs = -0.04,0.08
r = 0.035
slack = true
"""

COMPLETING = {
    **{name: replace(cfg, duration=5.0) for name, cfg in PRESETS.items()},
    "sweep-style": config.parse_config_text(SWEEP_STYLE_INI),
    "nominal-only": replace(PRESETS["combined"], duration=5.0, nominal_only=True),
    "bypass": replace(PRESETS["combined"], duration=5.0, filter_bypass=True),
}

ABORTING = {
    # a stiff virtual spring makes the RK4 reference diverge: the reference
    # chain fails, in the admittance stage at step 939
    "reference-diverges": replace(PRESETS["combined"], duration=2.0,
                                  admittance=AdmittanceParams(k_m=1.0, k_k=1e7)),
    # at dt = 2e-2 the tracked arm diverges first: the plant chain fails, in
    # the control stage at step 3
    "dt-2e-2": replace(PRESETS["combined"], dt=2e-2),
    # an 80 N push drives the arm into its singularity: SingularConfiguration
    # in the control stage at step 5186
    "singular": replace(PRESETS["obstacle-only"], duration=6.0,
                        force_amplitude=(-40.0, 40.0)),
}


@contextmanager
def usable_cpus(monkeypatch, n):
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        yield


@contextmanager
def other_thread():
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        yield
    finally:
        release.set()
        waiter.join(timeout=60)


@pytest.fixture
def in_process(monkeypatch):
    """``in_process(mode)`` is a context in which run keeps both chains in
    this process: with one usable CPU ("one-cpu"), or with two and a
    second thread alive ("other-thread")."""
    @contextmanager
    def serial(mode):
        if mode == "one-cpu":
            with usable_cpus(monkeypatch, 1):
                yield
        else:
            with usable_cpus(monkeypatch, 2), other_thread():
                yield
    return serial


MODES = ["one-cpu", "other-thread"]


def outcome(cfg):
    """(trace, None) of a completed run, or (partial trace, abort)."""
    try:
        return sim.run(cfg), None
    except SimulationAborted as exc:
        return exc.trace, exc


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    """The descriptors this process holds, or None where /proc/self/fd
    does not list them."""
    try:
        return sorted(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


@contextmanager
def leaves_nothing():
    """Around a run: afterwards no child is left, and this process holds
    the descriptors it held before."""
    before = open_fds()
    yield
    assert_no_child_left()
    assert open_fds() == before


def assert_same(a, b):
    (trace_a, exc_a), (trace_b, exc_b) = a, b
    assert records_equal(trace_a, trace_b)
    assert type(exc_a) is type(exc_b)
    if exc_a is not None:
        assert str(exc_a) == str(exc_b)
        assert type(exc_a.cause) is type(exc_b.cause)


@pytest.mark.parametrize("name, mode", [*((name, "one-cpu") for name in COMPLETING),
                                        ("combined", "other-thread"),
                                        ("sweep-style", "other-thread")])
def test_completed_runs_equal(name, mode, monkeypatch, in_process):
    cfg = COMPLETING[name]
    with usable_cpus(monkeypatch, 2), leaves_nothing():
        piped = outcome(cfg)
    with in_process(mode):
        serial = outcome(cfg)
    assert piped[1] is None and len(piped[0]) == round(cfg.duration / cfg.dt) + 1
    assert_same(piped, serial)


@pytest.mark.parametrize("name, stage, cause", [
    ("reference-diverges", "admittance", ValidationError),
    ("dt-2e-2", "control", ValidationError),
    ("singular", "control", SingularConfiguration),
])
@pytest.mark.parametrize("mode", MODES)
def test_aborts_equal(name, stage, cause, mode, monkeypatch, in_process):
    cfg = ABORTING[name]
    with usable_cpus(monkeypatch, 2), leaves_nothing():
        piped = outcome(cfg)
    with in_process(mode):
        serial = outcome(cfg)
    assert_same(piped, serial)
    exc = piped[1]
    assert f"in the {stage} stage" in str(exc) and type(exc.cause) is cause


class Boom(RuntimeError):
    """What a broken stage raises."""


def failing_at(fn, step, error):
    calls = []

    def stage(*args, **kwargs):
        calls.append(None)
        if len(calls) > step:
            raise error
        return fn(*args, **kwargs)
    return stage


# Each chain looks its stage kernels up as globals of sim, where a test
# replaces one with a failing_at wrapper.
@pytest.mark.parametrize("name, error", [
    ("_control_floats", Boom("control broke")),      # in the plant chain
    ("_plant_floats", Boom("plant broke")),          # in the plant chain
    ("_filter_floats", Boom("filter broke")),        # in the reference chain
    ("_control_floats", KeyboardInterrupt()),        # not an Exception, in this process
])
@pytest.mark.parametrize("mode", MODES)
def test_stage_exception_raised_as_is(name, error, mode, monkeypatch, in_process):
    cfg = replace(PRESETS["combined"], duration=0.5)
    results = []
    for context in (usable_cpus(monkeypatch, 2), in_process(mode)):
        with monkeypatch.context() as m, context, leaves_nothing():
            m.setattr(sim, name, failing_at(getattr(sim, name), 300, error))
            with pytest.raises(type(error)) as excinfo:
                sim.run(cfg)
        results.append(str(excinfo.value))
    assert results[0] == results[1]


@pytest.mark.parametrize("plant_stage, plant_step, ref_stage, ref_step, first", [
    # the reference chain is past step 70 before the plant chain fails at 50
    ("_control_floats", 50, "_filter_floats", 70, SingularConfiguration),
    # within one step: control, then the admittance step, then the plant step
    ("_control_floats", 100, "_admittance_floats", 100, SingularConfiguration),
    ("_plant_floats", 100, "_admittance_floats", 100, InfeasibleQp),
])
def test_earliest_failure_wins(plant_stage, plant_step, ref_stage, ref_step, first,
                               monkeypatch):
    # unfiltered, so that each stage runs once per step
    cfg = replace(PRESETS["combined"], duration=1.0, filter_bypass=True)
    outcomes = []
    for cpus in (2, 1):
        with monkeypatch.context() as m, usable_cpus(monkeypatch, cpus), leaves_nothing():
            for name, step, error in ((plant_stage, plant_step, SingularConfiguration),
                                      (ref_stage, ref_step, InfeasibleQp)):
                m.setattr(sim, name, failing_at(getattr(sim, name), step, error(name)))
            outcomes.append(outcome(cfg))
    assert_same(*outcomes)
    assert type(outcomes[0][1].cause) is first


@pytest.fixture(scope="module")
def full_combined_1s():
    return sim.run(replace(PRESETS["combined"], duration=1.0))


@pytest.mark.parametrize("name, calls, rows", [
    # a failure before the step's log row is written cuts the row
    ("_control_floats", 300, 300),
    ("_filter_floats", 300, 300),
    # one after keeps it, with the row's x_actual and f_c filled in; the
    # reference and its shadow take one admittance step each per step
    ("_plant_floats", 300, 301),
    ("_admittance_floats", 600, 301),
])
@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pipelined"])
def test_partial_trace_is_the_completed_runs_prefix(name, calls, rows, cpus,
                                                    full_combined_1s, monkeypatch):
    cfg = replace(PRESETS["combined"], duration=1.0)
    with usable_cpus(monkeypatch, cpus), leaves_nothing():
        monkeypatch.setattr(sim, name, failing_at(getattr(sim, name), calls,
                                                   SingularConfiguration(name)))
        partial, exc = outcome(cfg)
    assert "at step 300 " in str(exc)
    assert len(partial) == rows
    assert records_equal(partial, full_combined_1s[:rows])


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pipelined"])
def test_stopped_plant_chain_stops_the_reference_chain(cpus, monkeypatch, tmp_path):
    # the plant chain fails at step 100 of 16,001; the reference chain's
    # steps are counted by its filter calls, each of which appends one byte
    # to a file, from whichever process runs the chain
    cfg = PRESETS["combined"]
    count, filter_floats = tmp_path / "filtered", sim._filter_floats

    def counted(*args):
        with open(count, "ab") as file:
            file.write(b".")
        return filter_floats(*args)
    monkeypatch.setattr(sim, "_filter_floats", counted)
    monkeypatch.setattr(sim, "_control_floats",
                        failing_at(sim._control_floats, 100, Boom("control broke")))
    with usable_cpus(monkeypatch, cpus), leaves_nothing():
        with pytest.raises(Boom):
            sim.run(cfg)
    filtered = count.read_bytes()
    if cpus == 1:
        # it stops at the end of the block in which the plant chain failed
        assert len(filtered) == 2 * sim.BLOCK
    else:
        # it runs ahead by at most what the pipe holds (about 250 steps)
        assert 100 < len(filtered) < 4000


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pipelined"])
def test_exception_of_the_handoff_raised_as_is(cpus, monkeypatch):
    # a ValueError from a stage would abort the run as a divergence; one
    # from the handoff itself (only the third) is no stage's failure
    cfg = replace(PRESETS["combined"], duration=0.5)
    calls, real = [], sim._PlantChain.feed

    def third_fails(*args):
        calls.append(None)
        if len(calls) == 3:
            raise ValueError("hand broke")
        return real(*args)
    monkeypatch.setattr(sim._PlantChain, "feed", third_fails)
    with usable_cpus(monkeypatch, cpus), leaves_nothing():
        with pytest.raises(ValueError, match="^hand broke$"):
            sim.run(cfg)


def test_unpicklable_exception_comes_back_as_its_text(monkeypatch):
    class Local(Exception):  # a class local to a function does not pickle
        pass
    cfg = replace(PRESETS["combined"], duration=0.5)
    monkeypatch.setattr(sim, "_filter_floats",
                        failing_at(sim._filter_floats, 100, Local("lost class")))
    with usable_cpus(monkeypatch, 2), leaves_nothing():
        with pytest.raises(RuntimeError, match="^Local: lost class$"):
            sim.run(cfg)


def test_child_that_writes_nothing_raises_its_wait_status(monkeypatch):
    # portable runs only in the child, on the reference chain's failure,
    # just before the block it cut short is sent
    cfg = replace(PRESETS["combined"], duration=0.5)
    monkeypatch.setattr(sim, "_filter_floats",
                        failing_at(sim._filter_floats, 100, Boom("filter broke")))
    monkeypatch.setattr(forks, "portable", lambda exc: os._exit(3))
    with usable_cpus(monkeypatch, 2), leaves_nothing():
        with pytest.raises(RuntimeError, match=r"ended without a result \(wait status 768\)$"):
            sim.run(cfg)


def test_non_exception_in_the_child_raises_its_wait_status(monkeypatch):
    # the reference chain catches only Exception, so a KeyboardInterrupt in
    # the child ends it with status 1 before it sends the block
    cfg = replace(PRESETS["combined"], duration=0.5)
    monkeypatch.setattr(sim, "_filter_floats",
                        failing_at(sim._filter_floats, 100, KeyboardInterrupt()))
    with usable_cpus(monkeypatch, 2), leaves_nothing():
        with pytest.raises(RuntimeError, match=r"ended without a result \(wait status 256\)$"):
            sim.run(cfg)


@pytest.mark.parametrize("end", [1, 100, -1], ids=["first-byte", "100-bytes", "all-but-last"])
def test_child_whose_result_is_cut_short_raises_its_wait_status(end, monkeypatch):
    parent, send = os.getpid(), forks._send

    def send_part(fd, message):
        if os.getpid() == parent:
            return send(fd, message)
        os.write(fd, pickle.dumps(message)[:end])
        os._exit(0)
    # the child exits normally after writing part of its first message
    cfg = replace(PRESETS["combined"], duration=0.5)
    monkeypatch.setattr(forks, "_send", send_part)
    with usable_cpus(monkeypatch, 2), leaves_nothing():
        with pytest.raises(RuntimeError, match=r"ended without a result \(wait status 0\)$"):
            sim.run(cfg)


def test_no_fork_runs_in_process(monkeypatch):
    # a failed fork falls back to the in-process chains
    def no_fork():
        raise OSError("no process")
    cfg = replace(PRESETS["combined"], duration=0.5)
    with usable_cpus(monkeypatch, 1):
        serial = outcome(cfg)
    with usable_cpus(monkeypatch, 2), leaves_nothing():
        monkeypatch.setattr(os, "fork", no_fork)
        assert_same(outcome(cfg), serial)


class TestForkCpus:
    def test_counts_usable_cpus(self, monkeypatch):
        with usable_cpus(monkeypatch, 3):
            assert forks.fork_cpus() == 3

    def test_other_thread_means_one(self, monkeypatch):
        with usable_cpus(monkeypatch, 2), other_thread():
            assert forks.fork_cpus() == 1

    def test_no_fork_means_one(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with usable_cpus(monkeypatch, 2):
            assert forks.fork_cpus() == 1

    @staticmethod
    def fresh_python(code, *args):
        """The lines that ``code`` prints in a new interpreter."""
        src = os.path.dirname(os.path.dirname(sim.__file__))
        done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        return done.stdout.splitlines()

    def test_import_leaves_multiprocessing_out(self):
        code = "import sys, safeadmit; print('multiprocessing' in sys.modules)"
        assert self.fresh_python(code) == ["False"]

    def test_all_presets_leaves_multiprocessing_out(self, tmp_path):
        code = ("import sys\n"
                "from safeadmit import cli\n"
                "code = cli.main(['run', '--all-presets', '--duration', '0.05', '--out', sys.argv[1]])\n"
                "print(code, 'multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)")
        assert self.fresh_python(code, str(tmp_path))[-1] == "0 False False"
