"""Ideal gear-train networks: kinematics, constrained dynamics, verification.

A mechanism is a set of rigid shafts joined by lossless gear elements,
each contributing one linear constraint row over the shaft speeds.  The
package builds such graphs (including a three-output open differential),
counts their freedoms, integrates their constrained dynamics, and checks
recorded trajectories against the mechanism's analytic invariants.
"""

from .builders import (
    BUILDERS,
    build_2_2d,
    build_3ood,
    build_by_name,
    build_initial_design,
    build_multi_axle,
    build_two_output_diff,
)
from .dynamics import (
    Drive,
    Scenario,
    SimOptions,
    Trajectory,
    impulse_response,
    simulate,
    step,
)
from .errors import (
    GearnetError,
    GraphValidationError,
    InfeasiblePrescription,
    NonFiniteState,
    ScenarioError,
    SingularKKT,
    UnderdeterminedExternal,
)
from .kinematics import (
    MobilityReport,
    constraint_matrix,
    mobility,
    nullspace_basis,
    solve_velocities,
)
from .mechanism import (
    AppliedTorque,
    ConstantResistive,
    Differential,
    FixedRatio,
    Free,
    Locked,
    MechanismGraph,
    Planetary,
    RigidCoupling,
    Shaft,
    Viscous,
    WormPair,
)
from .scenario_io import ScenarioFile, load_scenario, parse_scenario
from .trajectory_io import write_trajectory_csv
from .verification import (
    CheckResult,
    VerificationReport,
    check_invariants,
    power_balance,
    registered_checks,
)

__version__ = "0.1.0"

__all__ = [
    "AppliedTorque",
    "BUILDERS",
    "CheckResult",
    "ConstantResistive",
    "Differential",
    "Drive",
    "FixedRatio",
    "Free",
    "GearnetError",
    "GraphValidationError",
    "InfeasiblePrescription",
    "Locked",
    "MechanismGraph",
    "MobilityReport",
    "NonFiniteState",
    "Planetary",
    "RigidCoupling",
    "Scenario",
    "ScenarioError",
    "ScenarioFile",
    "Shaft",
    "SimOptions",
    "SingularKKT",
    "Trajectory",
    "UnderdeterminedExternal",
    "VerificationReport",
    "Viscous",
    "WormPair",
    "build_2_2d",
    "build_3ood",
    "build_by_name",
    "build_initial_design",
    "build_multi_axle",
    "build_two_output_diff",
    "check_invariants",
    "constraint_matrix",
    "impulse_response",
    "load_scenario",
    "mobility",
    "nullspace_basis",
    "parse_scenario",
    "power_balance",
    "registered_checks",
    "simulate",
    "solve_velocities",
    "step",
    "write_trajectory_csv",
]
