"""Closed-loop scenario orchestration on a shared fixed-step clock.

Per step: sample the desired circle and the scripted human force, filter
the force through the barrier QP, advance the (filtered) admittance
reference and an unfiltered shadow copy, run the tracker, and advance the
arm plant. The first three make the reference chain, which never reads the
plant; the tracker and the plant make the plant chain, which follows the
reference chain's x1, x2, drift, f_hat and f_e. run runs the plant chain
on each block of the reference chain, whose loop runs ahead in a forked
child where a second CPU is free.

A chain's step is one call per stage to a float kernel, looked up as a
global here, with bare floats between them; the public per-term functions
are validating wrappers over the same kernels. The parameter records,
ScenarioConfig among them, are frozen, and each holds its kernels'
constants, built once when it is made: the plant chain reads the arm's and
the tracker's constant tuples (ManipulatorParams.constants,
FxtismcGains.constants), and the reference chain the row table of its
ConstraintSet and the admittance axes. Each step's floats are one row of
a flat float log (an ``array('d')``), which the reference chain writes, h
included, with one extend per step and hands on a block at a time, and
which the plant chain reads x1, f_e and f_hat from and writes x_actual
and f_c into. The loop's log is viewed as the (N, width) step matrix that
the Trace holds, laid out as COLUMNS says, and each signal is a view of
its columns. A step is read from the columns, or as the one-row Trace
``trace[k]``; ``records_equal`` compares two traces bit for bit.
"""

import math
from array import array
from contextlib import nullcontext
from dataclasses import astuple, dataclass, field, replace
from functools import partial
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import forks
# drift_term, admittance_step and filter_force are re-exported: callers look them up here.
from .admittance import (AdmittanceParams, AdmittanceState, DesiredPoint, _admittance_floats,
                         _msd_accel, admittance_step, drift_term)
from .arm import ManipulatorParams, _plant_floats, _task_floats
from .errors import (InfeasibleQp, Pair, SimulationAborted, SingularConfiguration, StartOutsideSafeSet,
                     ValidationError, finite_fields)
# DEFAULT_SAFE_DISTANCE is re-exported: callers read it as sim.DEFAULT_SAFE_DISTANCE.
from .safety import (DEFAULT_SAFE_DISTANCE, ConstraintSet, EcbfGains, ObstacleConstraint,
                     WorkspaceConstraint, _filter_floats, check_start_inside, filter_force)
from .smc import ControllerState, FxtismcGains, _control_floats

# Table-1 style defaults shared by the preset scenarios.
DEFAULT_Q0 = (0.5236, 2.0944)
DEFAULT_AMPLITUDES = (1.0, 2.0)
DEFAULT_CIRCLE_RADIUS = 0.14
DEFAULT_CIRCLE_RATE = 0.5


def _circle(t: float, radius: float, rate: float):
    """The desired circle's sample at t: (x, y, xdot, ydot, xddot, yddot)."""
    c, s = math.cos(rate * t), math.sin(rate * t)
    return (radius * c, radius * s, -radius * rate * s, radius * rate * c,
            -radius * rate * rate * c, -radius * rate * rate * s)


def desired_trajectory(t: float, radius: float = DEFAULT_CIRCLE_RADIUS,
                       rate: float = DEFAULT_CIRCLE_RATE) -> DesiredPoint:
    """Circular desired trajectory with analytic derivatives."""
    x, y, vx, vy, ax, ay = _circle(t, radius, rate)
    return DesiredPoint.of_floats((x, y), (vx, vy), (ax, ay))


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


def _sample(t, dt, radius, rate, amplitude: Pair, axes, x1x, x1y, x2x, x2y):
    """The step at t's desired samples at t, t + dt/2 and t + dt, human force
    and drift at the reference state: (d0, dh, d1, fx, fy, dx, dy)."""
    d0 = x, y, vx, vy, ax, ay = _circle(t, radius, rate)
    fx, fy = human_force(t, amplitude)
    (k_mx, k_bx, k_kx, _), (k_my, k_by, k_ky, _) = axes
    return (d0, _circle(t + 0.5 * dt, radius, rate), _circle(t + dt, radius, rate), fx, fy,
            _msd_accel(k_mx, k_bx, k_kx, x1x, x2x, x, vx, ax),
            _msd_accel(k_my, k_by, k_ky, x1y, x2y, y, vy, ay))


@dataclass(frozen=True)
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


# The 2-vector groups of a step row, in row order: each group's field name
# and CSV prefix. A row is t, the x/y pair of each group, then the barrier
# values.
COLUMNS = (("x_d", "xd"), ("x_f", "xf"), ("x_r_shadow", "xrs"), ("x_actual", "xa"),
           ("f_e", "fe"), ("f_e_hat", "feh"), ("f_e_comp", "fec"), ("f_c", "fc"))
VECTORS = tuple(name for name, _ in COLUMNS)
# The row column of each group's x, and of the first barrier value.
_AT = {name: 1 + 2 * i for i, name in enumerate(VECTORS)}
_H = 1 + 2 * len(VECTORS)
# Every value of the qp_status column: the filter's own answer ("ok"), its
# penalized fallback where the rows conflict ("slack"), and a bypassed filter.
QP_STATUSES = ("ok", "slack", "bypass")


@dataclass(eq=False)
class Trace:
    """A run's N steps: ``matrix`` is the (N, 1 + 16 + rows) float matrix of
    the step rows, laid out as COLUMNS says; the tuple ``h_names`` names the
    barrier rows in row-table order, and the tuples ``qp_active`` and
    ``qp_status`` hold each step's active set (a tuple of row indices) and
    one of QP_STATUSES; the constructor makes tuples of them. The signals
    are read-only views of the matrix: ``t`` is (N,), each name in VECTORS
    is (N, 2), and ``h`` is (N, rows).

    ``len(trace)`` is N. A slice is the Trace of the sliced matrix, a view
    of this one; ``trace[k]`` is the one-row Trace of step k (negative k
    counts from the end, and k past the end raises IndexError, so iterating
    yields the N one-row traces in order).
    """

    matrix: np.ndarray
    h_names: Tuple[str, ...]
    qp_active: Tuple[Tuple[int, ...], ...]
    qp_status: Tuple[str, ...]

    t = property(lambda self: self.matrix[:, 0])
    h = property(lambda self: self.matrix[:, _H:])

    def __post_init__(self):
        self.h_names, self.qp_status = tuple(self.h_names), tuple(self.qp_status)
        self.qp_active = tuple(map(tuple, self.qp_active))

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Trace(self.matrix[k], self.h_names, self.qp_active[k], self.qp_status[k])
        k = range(len(self))[k]
        return self[k:k + 1]


for _name, _at in _AT.items():
    setattr(Trace, _name, property(lambda self, at=_at: self.matrix[:, at:at + 2]))


def records_equal(a: Trace, b: Trace) -> bool:
    """Bit-exact trace comparison (used by the determinism checks): the row
    names, active sets and statuses are equal, and the matrices have equal
    shapes and bytes, so a zero of the other sign differs and a NaN equals
    the same NaN."""
    return (a.h_names == b.h_names and a.qp_active == b.qp_active
            and a.qp_status == b.qp_status and a.matrix.shape == b.matrix.shape
            and a.matrix.tobytes() == b.matrix.tobytes())


# The log columns the plant chain reads (x_f to f_e_hat) and writes.
_X_F, _F_E_HAT, _X_ACTUAL, _F_C = (_AT[v] for v in ("x_f", "f_e_hat", "x_actual", "f_c"))


def _trace_from_log(log: array, rows: int, width: int, h_names: Tuple[str, ...],
                    events: list) -> Trace:
    """The Trace of a run's first ``rows`` steps. ``log`` holds, step after
    step, a row of ``width`` floats laid out as COLUMNS says; ``events``
    holds the active set and the status of each step. The log is cut to
    ``rows`` steps, and the Trace's matrix is a view of its memory."""
    del log[rows * width:]
    return Trace(np.frombuffer(log, dtype=float).reshape(-1, width), h_names,
                 events[0:2 * rows:2], events[1:2 * rows:2])


# Steps per handoff from the reference chain to the plant chain; a run of
# more steps may pipeline the two (see run).
BLOCK = 64
# The floats handed over per step beside its log row: x2 and the drift.
_HANDOFF = 4
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
                     steps: int, hand) -> None:
    """The reference layer of steps 0..steps from the admittance state
    ``adm``: the desired samples, the human force, the drift, the filter,
    and the admittance steps of the reference and of its unfiltered shadow.
    It never reads the plant. For each block of BLOCK steps, the last one
    and one a failure cuts short included, it calls ``hand(rows, events,
    handoff, failure)`` with fresh arrays: the block's log rows (x_actual
    and f_c zero), its active sets and statuses, the x2 and drift per step
    that the plant chain reads beside the rows, and the chain's failure in
    the block, or None. The chain stops after a failure, or once hand
    returns False; what hand raises is no failure of the chain and
    propagates."""
    dt, radius, rate = config.dt, config.circle_radius, config.circle_rate
    amplitude, axes = config.force_amplitude, config.admittance.axes
    (_, _, _, gx), (_, _, _, gy) = axes
    # None to filter; else the status of an unfiltered step
    bypass = None if cset.names and not config.filter_bypass else ("bypass" if cset.names else "ok")
    (x1x, x1y), (x2x, x2y) = adm.x1, adm.x2
    sx, sy, svx, svy = x1x, x1y, x2x, x2y  # the shadow
    for first in range(0, steps + 1, BLOCK):
        rows, events, handoff = [], [], []  # sent on as arrays of the block's floats
        failure = None
        try:
            for k in range(first, min(first + BLOCK, steps + 1)):
                t = k * dt
                stage = 0
                d0, dh, d1, fex, fey, dx, dy = _sample(t, dt, radius, rate, amplitude, axes,
                                                       x1x, x1y, x2x, x2y)
                stage = 1
                fx, fy, cx, cy, h, active, status, _, _ = _filter_floats(
                    cset, bypass, x1x, x1y, x2x, x2y, dx, dy, gx, gy, fex, fey)
                # the step's row in COLUMNS order; the plant chain fills x_actual and f_c
                rows += [t, d0[0], d0[1], x1x, x1y, sx, sy, 0.0, 0.0, fex, fey, fx, fy, cx, cy,
                         0.0, 0.0, *h]
                events += (active, status)
                handoff += (x2x, x2y, dx, dy)
                if k < steps:
                    stage = 3
                    # one sampling of the substep points serves both references
                    x1x, x1y, x2x, x2y = _admittance_floats(axes, x1x, x1y, x2x, x2y, d0, dh, d1,
                                                            fx, fy, dt)
                    # unfiltered, f_hat is f_e and the shadow equals the reference
                    sx, sy, svx, svy = (x1x, x1y, x2x, x2y) if bypass is not None else (
                        _admittance_floats(axes, sx, sy, svx, svy, d0, dh, d1, fex, fey, dt))
        except Exception as exc:
            failure = _Failed(k, stage, exc)
        if not hand(array("d", rows), events, array("d", handoff), failure) or failure is not None:
            return


class _PlantChain:
    """The plant layer, which tracks the reference the reference chain
    hands over: per step, the task-space terms, the tracker's force toward
    the reference point (x1, x2, drift + f_hat / k_m) and the arm's RK4 step
    under that force and f_e. It fills in x_actual and f_c of each log row
    of ``width`` floats; after a failure, ``failure`` holds it, and the
    chain is fed no more."""

    def __init__(self, config: ScenarioConfig, steps: int, width: int):
        self.config, self.steps, self.width = config, steps, width
        self.joint, self.ctrl, self.k = (*config.q0, *config.qdot0), astuple(ControllerState()), 0
        self.failure: Optional[_Failed] = None

    def feed(self, rows: array, handoff: array) -> bool:
        """Run the steps of the log ``rows`` (x1, f_e, f_hat) and ``handoff``
        (x2, the drift); returns whether the chain still runs."""
        config, steps, width = self.config, self.steps, self.width
        dt, nominal_only, (gx, gy) = config.dt, config.nominal_only, config.admittance.input_gain
        arm_k, smc_k = config.robot.constants, config.controller.constants
        (q1, q2, qd1, qd2), ctrl, k, stage = self.joint, self.ctrl, self.k, 2
        try:
            for o, i in zip(range(0, len(rows), width), range(0, len(handoff), _HANDOFF)):
                x1x, x1y, _, _, _, _, fex, fey, fx, fy = rows[o + _X_F:o + _F_E_HAT + 2]
                x2x, x2y, dx, dy = handoff[i:i + _HANDOFF]
                stage = 2
                terms, x, y, xdot, ydot, j00, j01, j10, j11, trig = _task_floats(
                    arm_k, q1, q2, qd1, qd2, False)
                fcx, fcy, ctrl = _control_floats(
                    smc_k, ctrl, terms, x, y, xdot, ydot,
                    (x1x, x1y, x2x, x2y, dx + gx * fx, dy + gy * fy), dt, nominal_only)
                rows[o + _X_ACTUAL], rows[o + _X_ACTUAL + 1] = x, y
                rows[o + _F_C], rows[o + _F_C + 1] = fcx, fcy
                if k < steps:
                    stage = 4
                    # tau_c = J^T f_c
                    q1, q2, qd1, qd2 = _plant_floats(arm_k, trig, q1, q2, qd1, qd2,
                                                     j00 * fcx + j10 * fcy, j01 * fcx + j11 * fcy,
                                                     fex, fey, dt, True)
                k += 1
        except Exception as exc:
            self.failure = _Failed(k, stage, exc)
        self.joint, self.ctrl, self.k = (q1, q2, qd1, qd2), ctrl, k
        return self.failure is None


def _reference_child(reference, send) -> None:
    """The forked child's work in a pipelined run: run ``reference``,
    sending up each block with its failure made to survive pickling, and
    then None."""
    def hand(rows, events, handoff, failure) -> bool:
        if failure is not None:
            failure = failure._replace(exc=forks.portable(failure.exc))
        return send((rows, events, handoff, failure))
    reference(hand)
    send(None)


def run(config: ScenarioConfig) -> Trace:
    """Execute one scenario; returns its Trace, one row per step, endpoints
    inclusive. On abort the partial trace is attached to the raised
    SimulationAborted as ``.trace``, and the message names the step, its
    time and the stage that failed: start (the safe-set check), admittance,
    filter, control or plant. A state that is not finite, or a float kernel
    that overflows on the way to one, aborts with ValidationError.

    The plant chain runs here, on each block of the reference chain as it
    comes. When the run is longer than one BLOCK and forks.fork_cpus()
    finds a second CPU, the reference chain runs ahead in a forked child
    that sends each block up as one pickled message (forks.forked);
    otherwise it runs here too, block by block. The numbers are the same
    either way, and a run that fails reports the earliest failure in the
    serial order of the stages, with the same partial trace."""
    cset = config.constraint_set()
    steps = round(config.duration / config.dt)
    width = _H + len(cset.names)
    log, events = array("d"), []
    adm = config.initial_admittance_state()
    if cset.names and not config.filter_bypass:
        try:
            check_start_inside(cset, adm)
        except Exception as exc:
            _raise_aborted(config, _trace_from_log(log, 0, width, cset.names, events),
                           0, "start", exc)
    reference = partial(_reference_chain, config, cset, adm, steps)
    plant = _PlantChain(config, steps, width)
    failures = []  # the chains' failures
    seen: dict = {}  # each distinct active set and status of the run, logged as one object

    def take(rows, block_events, handoff, failure) -> bool:
        running = plant.feed(rows, handoff)
        log.extend(rows)
        events.extend([seen.setdefault(e, e) for e in block_events])
        if failure is not None:
            failures.append(failure)
        return running

    with (forks.forked(partial(_reference_child, reference)) if steps >= BLOCK
          else nullcontext()) as child:
        if child is None:
            reference(take)
        else:
            for block in iter(child.load, None):
                if not take(*block):
                    break
            else:
                child.wait()
    if plant.failure is not None:
        failures.append(plant.failure)
    if not failures:
        return _trace_from_log(log, steps + 1, width, cset.names, events)
    first = min(failures, key=lambda f: (f.k, f.stage))
    trace = _trace_from_log(log, first.k + (first.stage >= _LOGGED), width, cset.names, events)
    _raise_aborted(config, trace, first.k, _STAGES[first.stage], first.exc)


# What a stage may raise that aborts the run with itself as the cause.
_ABORTS = (SingularConfiguration, InfeasibleQp, StartOutsideSafeSet, ValidationError)


def _raise_aborted(config: ScenarioConfig, trace: Trace, k: int, stage: str,
                   exc: Exception) -> None:
    """Raise the SimulationAborted of ``exc`` at step k of ``stage``: with
    exc as its cause if exc is one of _ABORTS, or as a divergence if a
    float kernel met an overflow or a non-finite argument (a bare
    OverflowError, whose text may be an errno tuple and is named in words,
    or ValueError from math.sin(inf)); any other exception is raised as it
    is."""
    if isinstance(exc, _ABORTS):
        cause = exc
    elif isinstance(exc, (ArithmeticError, ValueError)):
        what = "a float overflowed" if isinstance(exc, OverflowError) else exc
        cause = ValidationError(f"the {stage} state diverged: {what}")
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
