"""Closed-loop scenario orchestration on a shared fixed-step clock.

Per step: sample the desired circle and the scripted human force, filter
the force through the barrier QP, advance the (filtered) admittance
reference and an unfiltered shadow copy, run the tracker, and advance the
arm plant. The first three make the reference chain, which never reads the
plant; the tracker and the plant make the plant chain, which follows the
reference chain's x1, x2, drift, f_hat and f_e. run runs the two as two
loops: the reference chain hands each block of steps to a callback, which
feeds the plant chain here or, on a second CPU, the pipe to a forked child
that runs it (see run). The stages pass float pairs to each other, and each
step's floats are appended to one flat float log (an ``array('d')``);
after the loop that log is viewed as an (N, width) matrix whose columns
make the Trace, one array per signal. A step is read from the columns, or
as the one-row Trace ``trace[k]``; ``records_equal`` compares two traces
bit for bit. The forked child of a pipelined run and that of
alternate_blocks, which traceio's CSV writer and reader use, are made and
reaped by one helper, _forked.
"""

import math
import os
import pickle
import signal
import sys
import threading
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import arm, smc
from .admittance import AdmittanceParams, AdmittanceState, DesiredPoint, drift_term, admittance_step
from .arm import JointState, ManipulatorParams, _tv
from .errors import (InfeasibleQp, Pair, SimulationAborted, SingularConfiguration, StartOutsideSafeSet,
                     ValidationError, finite_fields)
# DEFAULT_SAFE_DISTANCE is re-exported: callers read it as sim.DEFAULT_SAFE_DISTANCE.
from .safety import DEFAULT_SAFE_DISTANCE, ConstraintSet, EcbfGains, ObstacleConstraint, WorkspaceConstraint, check_start_inside, filter_force
from .smc import ControllerState, FxtismcGains

# Table-1 style defaults shared by the preset scenarios.
DEFAULT_Q0 = (0.5236, 2.0944)
DEFAULT_AMPLITUDES = (1.0, 2.0)
DEFAULT_CIRCLE_RADIUS = 0.14
DEFAULT_CIRCLE_RATE = 0.5


def desired_trajectory(t: float, radius: float = DEFAULT_CIRCLE_RADIUS,
                       rate: float = DEFAULT_CIRCLE_RATE) -> DesiredPoint:
    """Circular desired trajectory with analytic derivatives."""
    c, s = math.cos(rate * t), math.sin(rate * t)
    return DesiredPoint.of_floats(
        (radius * c, radius * s),
        (-radius * rate * s, radius * rate * c),
        (-radius * rate * rate * c, -radius * rate * rate * s),
    )


def human_force(t: float, a: Pair = DEFAULT_AMPLITUDES) -> Pair:
    """Scripted interaction force for the amplitude pair ``a``: cosine
    ramp-in over [4,5), constant 2a over [5,10), cosine ramp-out over
    [10,11), zero elsewhere."""
    if 4.0 <= t < 5.0:
        scale = 1.0 - math.cos(math.pi * t)
    elif 5.0 <= t < 10.0:
        scale = 2.0
    elif 10.0 <= t < 11.0:
        scale = 1.0 + math.cos(math.pi * t)
    else:
        return 0.0, 0.0
    ax, ay = a
    return ax * scale, ay * scale


@dataclass
class ScenarioConfig:
    name: str = "custom"
    duration: float = 16.0
    dt: float = 1e-3
    circle_radius: float = DEFAULT_CIRCLE_RADIUS
    circle_rate: float = DEFAULT_CIRCLE_RATE
    force_amplitude: Tuple[float, float] = DEFAULT_AMPLITUDES
    robot: ManipulatorParams = field(default_factory=ManipulatorParams)
    admittance: AdmittanceParams = field(default_factory=AdmittanceParams)
    ecbf: EcbfGains = field(default_factory=EcbfGains)
    controller: FxtismcGains = field(default_factory=FxtismcGains)
    workspace: Optional[WorkspaceConstraint] = None
    obstacle: Optional[ObstacleConstraint] = None
    filter_bypass: bool = False
    slack: bool = False
    q0: Tuple[float, float] = DEFAULT_Q0
    qdot0: Tuple[float, float] = (0.0, 0.0)
    admittance_start: Optional[Tuple[float, float]] = None
    nominal_only: bool = False

    def __post_init__(self):
        # the step's kernels take these as Python floats and pass on what
        # they compute without coercing it again
        finite_fields(self, numbers=("duration", "dt", "circle_radius", "circle_rate"),
                      pairs=("force_amplitude", "q0", "qdot0")
                      + (("admittance_start",) if self.admittance_start is not None else ()))
        if not self.dt > 0.0:
            raise ValidationError("dt must be positive")
        if not self.duration >= self.dt:
            raise ValidationError("duration must be at least one step")
        if not math.isfinite(self.duration / self.dt):
            raise ValidationError("duration / dt must be a finite number of steps")

    def constraint_set(self) -> ConstraintSet:
        return ConstraintSet(workspace=self.workspace, obstacle=self.obstacle,
                             gains=self.ecbf, slack=self.slack)

    def initial_admittance_state(self) -> AdmittanceState:
        """Default start: the circle start, clipped into the shrunk
        workspace box when the workspace constraint is enabled."""
        des = desired_trajectory(0.0, self.circle_radius, self.circle_rate)
        if self.admittance_start is not None:
            return AdmittanceState(self.admittance_start, des.xdot_d)
        x1 = des.x_d
        if self.workspace is not None:
            ws = self.workspace
            x1 = np.clip(x1, ws.x_min + ws.r, ws.x_max - ws.r)
        return AdmittanceState(x1, des.xdot_d)


# The 2-vector signals of a trace, in column order.
VECTORS = ("x_d", "x_f", "x_r_shadow", "x_actual", "f_e", "f_e_hat", "f_e_comp", "f_c")
# Every value of the qp_status column: the filter's own answer ("ok"), its
# penalized fallback where the rows conflict ("slack"), and a bypassed filter.
QP_STATUSES = ("ok", "slack", "bypass")


@dataclass(eq=False)
class Trace:
    """A run's signals, one column per signal over its N steps.

    ``t`` is (N,); each name in VECTORS is an (N, 2) float array; ``h`` is
    the (N, rows) matrix of barrier values, its columns named by
    ``h_names`` in row-table order; ``qp_active`` holds one active set (a
    tuple of row indices) and ``qp_status`` one of QP_STATUSES per step.

    ``len(trace)`` is N. A slice is a Trace of the sliced columns, which
    share memory with these; ``trace[k]`` is the one-row Trace of step k
    (negative k counts from the end, and k past the end raises IndexError,
    so iterating yields the N one-row traces in order).
    """

    t: np.ndarray
    x_d: np.ndarray
    x_f: np.ndarray
    x_r_shadow: np.ndarray
    x_actual: np.ndarray
    f_e: np.ndarray
    f_e_hat: np.ndarray
    f_e_comp: np.ndarray
    f_c: np.ndarray
    h: np.ndarray
    h_names: Tuple[str, ...]
    qp_active: Tuple[Tuple[int, ...], ...]
    qp_status: Tuple[str, ...]

    @classmethod
    def from_matrix(cls, t, signals: np.ndarray, h_names, qp_active, qp_status) -> "Trace":
        """A Trace whose columns are views of ``signals``, an (N, 16 + rows)
        matrix holding the x/y pairs of the VECTORS in order, then the
        barrier values."""
        width = 2 * len(VECTORS)
        return cls(t, *(signals[:, i:i + 2] for i in range(0, width, 2)),
                   h=signals[:, width:], h_names=tuple(h_names),
                   qp_active=tuple(qp_active), qp_status=tuple(qp_status))

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Trace(self.t[k], *(getattr(self, v)[k] for v in VECTORS), h=self.h[k],
                         h_names=self.h_names, qp_active=self.qp_active[k],
                         qp_status=self.qp_status[k])
        k = range(len(self))[k]
        return self[k:k + 1]


def records_equal(a: Trace, b: Trace) -> bool:
    """Bit-exact trace comparison (used by the determinism checks): the row
    names, active sets and statuses are equal, and t, every vector column
    and h have equal shapes and bytes, so a zero of the other sign differs
    and a NaN equals the same NaN."""
    return (a.h_names == b.h_names and a.qp_active == b.qp_active
            and a.qp_status == b.qp_status
            and all(getattr(a, c).shape == getattr(b, c).shape
                    and getattr(a, c).tobytes() == getattr(b, c).tobytes()
                    for c in ("t", *VECTORS, "h")))


# The log columns of x_actual and f_c, which the plant chain fills.
_X_ACTUAL = 1 + 2 * VECTORS.index("x_actual")
_F_C = 1 + 2 * VECTORS.index("f_c")


def _trace_from_logs(log: array, plant_log: array, rows: int, h_names: Tuple[str, ...],
                     events: list) -> Trace:
    """The Trace of a run's first ``rows`` steps. ``log`` holds, step after
    step, t, the x/y pairs of the VECTORS (x_actual and f_c zero) and the
    row-ordered barrier values; ``plant_log`` holds x_actual and f_c per
    step; ``events`` holds the active set and the status of each step. The
    plant's columns are copied into the log, cut to ``rows`` steps, and the
    Trace's columns are views of the log's memory."""
    width = 1 + 2 * len(VECTORS) + len(h_names)
    del log[rows * width:]
    matrix = np.frombuffer(log, dtype=float).reshape(-1, width)
    plant = np.frombuffer(plant_log, dtype=float, count=4 * rows).reshape(-1, 4)
    matrix[:, _X_ACTUAL:_X_ACTUAL + 2] = plant[:, :2]
    matrix[:, _F_C:_F_C + 2] = plant[:, 2:]
    return Trace.from_matrix(matrix[:, 0], matrix[:, 1:], h_names,
                             events[0:2 * rows:2], events[1:2 * rows:2])


# Steps per handoff from the reference chain to the plant chain; a run of
# more steps may pipeline the two (see run).
BLOCK = 64
# The floats handed over per step: x1, x2, the drift, f_hat and f_e.
_HANDOFF = 10
# The stages of a step in their serial order, as an abort names them: the
# reference's drift, the filter, the tracker, the admittance steps, the
# plant step. The step's log row is written between control and admittance,
# so a failure from index _LOGGED on leaves its row in the trace.
_STAGES = ("admittance", "filter", "control", "admittance", "plant")
_LOGGED = 3


class _Failed(NamedTuple):
    """A chain's failure: the step ``k``, the index of its stage in _STAGES
    and the exception raised there."""

    k: int
    stage: int
    exc: Exception


def _reference_chain(config: ScenarioConfig, cset: ConstraintSet, adm: AdmittanceState,
                     steps: int, log: array, events: list, hand) -> Optional[_Failed]:
    """The reference layer of steps 0..steps from the admittance state
    ``adm``: the desired samples, the human force, the drift, the filter,
    and the admittance steps of the reference and of its unfiltered shadow.
    It never reads the plant. Each step appends its log row to ``log``
    (x_actual and f_c zero), its active set and status to ``events``, and
    the x1, x2, drift, f_hat and f_e that the plant chain reads to its own
    handoff array. After each block of BLOCK steps, the last one and one a
    failure cuts short included, the array goes to ``hand``, which empties
    it and returns whether the plant chain still runs; on False the chain
    stops. Returns the chain's failure, or None; what ``hand`` raises is no
    failure of the chain and propagates."""
    adm_params, dt, amplitude = config.admittance, config.dt, config.force_amplitude
    filtered = bool(cset.names) and not config.filter_bypass
    g = adm_params.input_gain

    def desired(t: float) -> DesiredPoint:
        return desired_trajectory(t, config.circle_radius, config.circle_rate)

    shadow = AdmittanceState(adm.x1, adm.x2)
    bypass_status = "bypass" if config.filter_bypass and cset.names else "ok"
    active_sets: dict = {}  # each distinct active set of the run, logged as one object
    handoff = array("d")
    for first in range(0, steps + 1, BLOCK):
        try:
            for k in range(first, min(first + BLOCK, steps + 1)):
                t = k * dt
                stage = 0
                des = desired(t)
                f_e = human_force(t, amplitude)
                drift = drift_term(adm_params, adm, des)

                if filtered:
                    stage = 1
                    f_hat, f_comp, diag = filter_force(cset, adm, drift, g, f_e)
                    h, active, status = diag.rows.h, diag.active, diag.status
                else:
                    f_hat, f_comp = f_e, (0.0, 0.0)
                    h, active, status = cset.barrier_values(adm.x1), (), bypass_status

                log.extend((t, *des.x_d, *adm.x1, *shadow.x1, 0.0, 0.0, *f_e, *f_hat, *f_comp,
                            0.0, 0.0, *h))
                events += (active_sets.setdefault(active, active), status)
                handoff.extend((*adm.x1, *adm.x2, *drift, *f_hat, *f_e))

                if k < steps:
                    stage = 3
                    # one sampling of the substep points serves both references
                    points = (des, desired(t + 0.5 * dt), desired(t + dt))
                    adm = admittance_step(adm_params, adm, points, f_hat, dt)
                    # unfiltered, f_hat is f_e and the shadow equals the reference
                    shadow = (admittance_step(adm_params, shadow, points, f_e, dt)
                              if filtered else adm)
        except Exception as exc:
            hand(handoff)
            return _Failed(k, stage, exc)
        if not hand(handoff):
            break
    return None


class _PlantChain:
    """The plant layer, which tracks the reference the reference chain
    hands over: per step, the task-space terms, the tracker's force toward
    the reference point (x1, x2, drift + f_hat / k_m) and the arm's RK4 step
    under that force and f_e. ``log`` holds x_actual and f_c per step run;
    after a failure, ``failure`` holds it and no further step runs."""

    def __init__(self, config: ScenarioConfig, steps: int):
        self.config, self.steps = config, steps
        self.joint = JointState(config.q0, config.qdot0)
        self.ctrl = ControllerState()
        self.k = 0
        self.log = array("d")
        self.failure: Optional[_Failed] = None

    def feed(self, handoff: array) -> bool:
        """Run the steps whose inputs ``handoff`` holds, then empty it;
        returns whether the chain still runs."""
        if self.failure is None:
            config, steps, log = self.config, self.steps, self.log
            params, gains, dt = config.robot, config.controller, config.dt
            gx, gy = config.admittance.input_gain
            joint, ctrl, k, stage = self.joint, self.ctrl, self.k, 2
            try:
                for i in range(0, len(handoff), _HANDOFF):
                    x1x, x1y, x2x, x2y, dx, dy, fx, fy, fex, fey = handoff[i:i + _HANDOFF]
                    stage = 2
                    terms = arm.cartesian_dynamics_terms(params, joint, include_friction=False)
                    cart = arm.cartesian_state(params, joint)
                    ref = DesiredPoint.of_floats((x1x, x1y), (x2x, x2y),
                                                 (dx + gx * fx, dy + gy * fy))
                    f_c, ctrl = smc.control(gains, ctrl, terms, cart, ref, dt,
                                            nominal_only=config.nominal_only)
                    log.extend((*cart.x, *f_c))
                    if k < steps:
                        stage = 4
                        tau_c = _tv(arm.jacobian(params, joint.q), f_c)  # J^T f_c
                        joint = arm.plant_step(params, joint, tau_c, (fex, fey), dt)
                    k += 1
            except Exception as exc:
                self.failure = _Failed(k, stage, exc)
            self.joint, self.ctrl, self.k = joint, ctrl, k
        del handoff[:]
        return self.failure is None


def fork_cpus() -> int:
    """The CPUs that processes forked from this one may use: as many as
    this process may run on, or 1 where there is no os.fork, where another
    thread runs (a fork copies only the calling thread, so a lock held by
    another one would stay locked in the child), or where this process is a
    multiprocessing worker (so that pools and pipelines do not nest)."""
    mp = sys.modules.get("multiprocessing")  # looked up, never imported
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or (mp is not None and mp.parent_process() is not None)):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_all(fd: int, data) -> bool:
    """Write the bytes of ``data`` to ``fd``; False if the reader has gone."""
    view = memoryview(data).cast("B")
    try:
        while view:
            view = view[os.write(fd, view):]
    except BrokenPipeError:
        return False
    return True


def _portable(exc: BaseException) -> BaseException:
    """``exc``, or where it does not survive pickling, a RuntimeError that
    carries its text."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


class _Child:
    """This process's side of a child forked by _forked: ``results`` reads
    what the child writes, ``feed`` (-1 if there is none) writes what it
    reads, and ``status`` is its wait status once it has been reaped."""

    def __init__(self, pid: int, results, feed: int):
        self.pid, self.results, self.feed = pid, results, feed
        self.status: Optional[int] = None

    def end_feed(self) -> None:
        """Close ``feed``, so that the child reads to its end."""
        if self.feed >= 0:
            os.close(self.feed)
            self.feed = -1

    def wait(self) -> int:
        self.status = os.waitpid(self.pid, 0)[1]
        return self.status

    def load(self):
        """The child's next pickled message. A child that ended without a
        whole one raises RuntimeError with its wait status."""
        try:
            return pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):  # no message, or one cut short
            raise RuntimeError(f"a forked process ended without a result "
                               f"(wait status {self.wait()})") from None


@contextmanager
def _forked(body, feed: bool = False):
    """Fork a child that runs ``body`` and leaves only through os._exit,
    with status 0 if body returns and 1 if it raises: it never returns into
    the caller's code, nor flushes a file buffer it inherited. body takes
    the write end of a pipe whose read end this process holds, after, if
    ``feed``, the read end of one whose write end this process holds.
    Yields a _Child over this process's ends, or None where no pipe or no
    process could be made. On the way out those ends are closed, and a
    child not yet reaped is killed and reaped."""
    pipes: list = []
    try:
        for _ in range(1 + feed):
            pipes.append(os.pipe())
        pid = os.fork()
    except OSError:  # no pipe or no process
        for fd in sum(pipes, ()):
            os.close(fd)
        pid = None
    if pid is None:
        yield None
        return
    (results_r, results_w), *fed = pipes
    theirs, ours = [r for r, _ in fed] + [results_w], [results_r] + [w for _, w in fed]
    if pid == 0:
        status = 1
        try:
            for fd in ours:
                os.close(fd)
            body(*theirs)
            status = 0
        finally:
            os._exit(status)
    for fd in theirs:
        os.close(fd)
    child = _Child(pid, open(results_r, "rb"), fed[0][1] if fed else -1)
    try:
        yield child
    finally:
        child.end_feed()
        child.results.close()
        if child.status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def alternate_blocks(count: int, work, hand) -> None:
    """Call ``hand(i, work(i))`` for each block i in range(count), in order.
    Where count > 1 and fork_cpus() finds a second CPU, a forked child runs
    work on the odd blocks and sends each result back, pickled, through a
    pipe, while this process runs the even ones; otherwise, or where no
    child can be started, this process runs them all. What work(i) raises
    is raised when block i is reached, from either process (an exception
    that does not pickle as a RuntimeError that carries its text), so the
    first failing block wins either way; what hand raises propagates. The
    child is reaped on every way out, killed first if this process leaves
    early."""
    def odd_blocks(results_w: int) -> None:
        for i in range(1, count, 2):
            try:
                message = work(i), None
            except Exception as exc:
                message = None, _portable(exc)
            if not _write_all(results_w, pickle.dumps(message)) or message[1] is not None:
                return

    with (_forked(odd_blocks) if count > 1 and fork_cpus() > 1 else nullcontext()) as child:
        for i in range(count):
            if child is None or i % 2 == 0:
                hand(i, work(i))
                continue
            result, exc = child.load()
            if exc is not None:
                raise exc
            hand(i, result)
        if child is not None:
            child.wait()


def _plant_process(plant: _PlantChain, handoff_r: int, result_w: int) -> None:
    """The forked child's work in a pipelined run: run ``plant`` on the
    handoff blocks read from ``handoff_r`` until the pipe closes or the
    chain stops, then write its log and failure to ``result_w`` as one
    pickled message."""
    handoff, pending, size = array("d"), b"", 8 * _HANDOFF
    while plant.failure is None and (data := os.read(handoff_r, 1 << 16)):
        pending += data
        whole = len(pending) - len(pending) % size
        handoff.frombytes(pending[:whole])
        pending = pending[whole:]
        plant.feed(handoff)
    os.close(handoff_r)  # a stopped plant chain stops the reference chain
    failure = plant.failure
    if failure is not None:
        failure = failure._replace(exc=_portable(failure.exc))
    with open(result_w, "wb") as result:
        pickle.dump((plant.log, failure), result)


def _pipelined(plant: _PlantChain, reference):
    """Run the reference chain here, as ``reference(hand)``, and ``plant``
    in a forked child behind it (see _forked). Its ``hand`` writes each
    handoff block down a pipe, which holds the reference chain back when it
    is full, and returns False once the child has closed the pipe; the
    plant chain's log and failure come back as one pickled message through
    a second pipe. Returns (the reference chain's failure, the plant
    chain's log and failure), or None if no child could be started. A child
    that ends without a whole message raises RuntimeError."""
    with _forked(partial(_plant_process, plant), feed=True) as child:
        if child is None:
            return None

        def send(block: array) -> bool:
            sent = _write_all(child.feed, block)
            del block[:]
            return sent

        failure = reference(send)
        child.end_feed()
        plant_log, plant_failure = child.load()
        child.wait()
    return failure, plant_log, plant_failure


def run(config: ScenarioConfig) -> Trace:
    """Execute one scenario; returns its Trace, one row per step, endpoints
    inclusive. On abort the partial trace is attached to the raised
    SimulationAborted as ``.trace``, and the message names the step, its
    time and the stage that failed: start (the safe-set check), admittance,
    filter, control or plant. A state that is not finite, or a float kernel
    that overflows on the way to one, aborts with ValidationError.

    A step is two chains of stages: the reference chain (the admittance
    references and the filter, which never read the plant) and the plant
    chain (the tracker and the arm), which takes x1, x2, the drift, f_hat
    and f_e from the reference chain. When fork_cpus() finds a second CPU
    and the run is longer than one BLOCK, the plant chain runs in a forked
    child that follows the reference chain block by block; otherwise the
    reference chain hands each block to the plant chain here. The numbers are
    the same either way, and a run that fails reports the earliest failure
    in the serial order of the stages, with the same partial trace."""
    cset = config.constraint_set()
    steps = round(config.duration / config.dt)
    log, events = array("d"), []
    adm = config.initial_admittance_state()
    if cset.names and not config.filter_bypass:
        try:
            check_start_inside(cset, adm)
        except Exception as exc:
            _raise_aborted(config, _trace_from_logs(log, array("d"), 0, cset.names, events),
                           0, "start", exc)
    reference = partial(_reference_chain, config, cset, adm, steps, log, events)
    plant = _PlantChain(config, steps)
    chains = None
    if steps >= BLOCK and fork_cpus() > 1:
        chains = _pipelined(plant, reference)
    if chains is None:
        chains = reference(plant.feed), plant.log, plant.failure
    failure, plant_log, plant_failure = chains
    failures = [f for f in (failure, plant_failure) if f is not None]
    if not failures:
        return _trace_from_logs(log, plant_log, steps + 1, cset.names, events)
    first = min(failures, key=lambda f: (f.k, f.stage))
    trace = _trace_from_logs(log, plant_log, first.k + (first.stage >= _LOGGED),
                             cset.names, events)
    _raise_aborted(config, trace, first.k, _STAGES[first.stage], first.exc)


# What a stage may raise that aborts the run with itself as the cause.
_ABORTS = (SingularConfiguration, InfeasibleQp, StartOutsideSafeSet, ValidationError)


def _raise_aborted(config: ScenarioConfig, trace: Trace, k: int, stage: str,
                   exc: Exception) -> None:
    """Raise the SimulationAborted of ``exc`` at step k of ``stage``: with
    exc as its cause if exc is one of _ABORTS, or as a divergence if a
    float kernel met an overflow or a non-finite argument (a bare
    OverflowError, or ValueError from math.sin(inf)); any other exception
    is raised as it is."""
    if isinstance(exc, _ABORTS):
        cause = exc
    elif isinstance(exc, (ArithmeticError, ValueError)):
        cause = ValidationError(f"the {stage} state diverged: {exc}")
    else:
        raise exc
    t = k * config.dt
    raise SimulationAborted(
        f"scenario '{config.name}' aborted at step {k} (t = {t:.6g} s) in the "
        f"{stage} stage: {cause}",
        cause=cause, trace=trace,
    ) from exc


def scenario_library() -> Dict[str, ScenarioConfig]:
    """The four canonical presets."""
    ws = WorkspaceConstraint()
    obs = ObstacleConstraint()
    workspace = ScenarioConfig(name="workspace", workspace=ws)
    baseline = replace(workspace, name="baseline-unsafe", filter_bypass=True)
    obstacle_only = ScenarioConfig(name="obstacle-only", obstacle=obs)
    combined = ScenarioConfig(name="combined", workspace=ws, obstacle=obs)
    return {
        "baseline-unsafe": baseline,
        "workspace": workspace,
        "obstacle-only": obstacle_only,
        "combined": combined,
    }
