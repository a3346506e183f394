"""Safety-filtered admittance control toolkit for a two-link planar arm.

A barrier-based quadratic program reshapes measured human interaction
forces so that the admittance-generated reference trajectory never leaves
the workspace box or enters an obstacle's clearance ball; a fixed-time
integral sliding-mode tracker closes the loop on a two-link manipulator
plant.
"""

from .admittance import AdmittanceParams, AdmittanceState, DesiredPoint, admittance_step, drift_term
from .arm import (CartesianDynamicsTerms, CartesianState, JointState,
                  ManipulatorParams, cartesian_dynamics_terms, forward_kinematics,
                  inverse_kinematics, jacobian, jacobian_dot, joint_dynamics_terms,
                  plant_step)
from .errors import (ConfigError, InfeasibleQp, SimulationAborted,
                     SingularConfiguration, StartOutsideSafeSet, ValidationError)
from .qp import QpProblem, QpSolution, solve, solve_with_slack
from .safety import (ConstraintSet, EcbfGains, ObstacleConstraint, RowValues,
                     WorkspaceConstraint, assemble_qp, check_start_inside,
                     filter_force)
from .sim import (ScenarioConfig, Trace, desired_trajectory, human_force,
                  records_equal, run, scenario_library)
from .smc import (ControllerState, FxtismcGains, compensating_control, control,
                  nominal_control, signed_power, sliding_variable)
from .traceio import RunReport, compute_report, emit_csv, emit_plot, read_csv
from .config import parse_config, parse_config_text, serialize_config

__version__ = "0.1.0"
