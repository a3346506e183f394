"""Closed-loop scenario orchestration on a shared fixed-step clock.

Per step: sample the desired circle and the scripted human force, filter
the force through the barrier QP, advance the (filtered) admittance
reference and an unfiltered shadow copy, run the tracker, and advance the
arm plant. The stages pass float pairs to each other, and each step's
floats are appended to one flat float log (an ``array('d')``); after the
loop that log is viewed as an (N, width) matrix whose columns make the
Trace, one array per signal. A step is read from the columns, or as the
one-row Trace ``trace[k]``; ``records_equal`` compares two traces bit for
bit.
"""

import math
from array import array
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

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


def _trace_from_log(log: array, h_names: Tuple[str, ...], events: list) -> Trace:
    """The Trace of a run's logs. ``log`` holds, step after step, t, the
    x/y pairs of the VECTORS and the row-ordered barrier values; ``events``
    holds the active set and the status of each step. The columns are views
    of the log's memory."""
    matrix = np.frombuffer(log, dtype=float).reshape(-1, 1 + 2 * len(VECTORS) + len(h_names))
    return Trace.from_matrix(matrix[:, 0], matrix[:, 1:], h_names, events[0::2], events[1::2])


def run(config: ScenarioConfig) -> Trace:
    """Execute one scenario; returns its Trace, one row per step, endpoints
    inclusive. On abort the partial trace is attached to the raised
    SimulationAborted as ``.trace``, and the message names the step, its
    time and the stage that failed: start (the safe-set check), admittance,
    filter, control or plant. A state that is not finite, or a float kernel
    that overflows on the way to one, aborts with ValidationError."""
    params = config.robot
    adm_params = config.admittance
    cset = config.constraint_set()
    filtered = bool(cset.names) and not config.filter_bypass
    g = gx, gy = adm_params.input_gain
    dt = config.dt
    amplitude = config.force_amplitude

    def desired(t: float) -> DesiredPoint:
        return desired_trajectory(t, config.circle_radius, config.circle_rate)

    adm = config.initial_admittance_state()
    shadow = AdmittanceState(adm.x1, adm.x2)
    joint = JointState(config.q0, config.qdot0)
    ctrl_state = ControllerState()
    steps = round(config.duration / dt)
    bypass_status = "bypass" if config.filter_bypass and cset.names else "ok"
    log = array("d")  # per step: t, the VECTORS' x/y pairs, the barrier values
    events: list = []  # per step: the active set, the status
    active_sets: dict = {}  # each distinct active set of the run, logged as one object
    k, t, stage = 0, 0.0, "start"

    try:
        if filtered:
            check_start_inside(cset, adm)
        for k in range(steps + 1):
            t = k * dt
            stage = "admittance"
            des = desired(t)
            f_e = human_force(t, amplitude)
            drift = drift_term(adm_params, adm, des)

            if filtered:
                stage = "filter"
                f_hat, f_comp, diag = filter_force(cset, adm, drift, g, f_e)
                h, active, status = diag.rows.h, diag.active, diag.status
            else:
                f_hat, f_comp = f_e, (0.0, 0.0)
                h, active, status = cset.barrier_values(adm.x1), (), bypass_status

            stage = "control"
            terms = arm.cartesian_dynamics_terms(params, joint, include_friction=False)
            cart = arm.cartesian_state(params, joint)
            (dx, dy), (fx, fy) = drift, f_hat
            ref = DesiredPoint.of_floats(adm.x1, adm.x2, (dx + gx * fx, dy + gy * fy))
            f_c, ctrl_state = smc.control(config.controller, ctrl_state, terms,
                                          cart, ref, dt,
                                          nominal_only=config.nominal_only)

            log.extend((t, *des.x_d, *adm.x1, *shadow.x1, *cart.x, *f_e, *f_hat, *f_comp,
                        *f_c, *h))
            events += (active_sets.setdefault(active, active), status)

            if k < steps:
                stage = "admittance"
                # one sampling of the substep points serves both references
                points = (des, desired(t + 0.5 * dt), desired(t + dt))
                adm = admittance_step(adm_params, adm, points, f_hat, dt)
                # unfiltered, f_hat is f_e and the shadow equals the reference
                shadow = (admittance_step(adm_params, shadow, points, f_e, dt)
                          if filtered else adm)
                stage = "plant"
                tau_c = _tv(arm.jacobian(params, joint.q), f_c)  # J^T f_c
                joint = arm.plant_step(params, joint, tau_c, f_e, dt)
    except (SingularConfiguration, InfeasibleQp, StartOutsideSafeSet,
            ValidationError) as exc:
        raise _aborted(config, _trace_from_log(log, cset.names, events), k, t, stage, exc) from exc
    except (ArithmeticError, ValueError) as exc:
        # a float kernel met an overflow or a non-finite argument (a bare
        # OverflowError, or ValueError from math.sin(inf)): the state diverged
        cause = ValidationError(f"the {stage} state diverged: {exc}")
        raise _aborted(config, _trace_from_log(log, cset.names, events), k, t, stage, cause) from exc
    return _trace_from_log(log, cset.names, events)


def _aborted(config: ScenarioConfig, trace: Trace, k: int, t: float, stage: str,
             cause: Exception) -> SimulationAborted:
    return SimulationAborted(
        f"scenario '{config.name}' aborted at step {k} (t = {t:.6g} s) in the "
        f"{stage} stage: {cause}",
        cause=cause, trace=trace,
    )


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
