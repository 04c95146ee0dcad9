"""Penalty-method reference integrator.

An independent cross-check for the constrained dynamics: instead of
enforcing C @ v = 0 exactly, every constraint row becomes a very stiff
damper with torque -K_PEN * C^T (C @ v).  The resulting unconstrained ODE
is integrated with an implicit stiff solver, so no part of the
reduced-coordinate machinery is shared.  Agreement between the two
routes validates both the constraint assembly and the stepping.

Only free (torque-driven) scenarios on shafts that all carry inertia are
supported; velocity prescriptions have no penalty analogue here and are
cross-checked kinematically instead.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from .dynamics import Scenario
from .errors import ScenarioError
from .kinematics import constraint_matrix
from .mechanism import OMEGA_EPS, AppliedTorque, ConstantResistive, Locked, Viscous

K_PEN = 1e8  # N*m*s/rad, stiffness of each constraint row's damper


def penalty_velocities(
    scenario: Scenario,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> np.ndarray:
    """Final shaft velocities of the penalty-regularized system.

    Integrates M dv/dt = tau(v, t) - K_PEN * C^T C v from rest over the
    scenario duration with an implicit Radau scheme and returns v(T).

    Raises ScenarioError when the scenario contains velocity
    prescriptions, locked shafts or massless shafts, which this
    reference does not model.
    """
    scenario.validate()
    g = scenario.graph
    if scenario.drive.mode != "torque" or any(
        isinstance(load, Locked) for load in scenario.loads.values()
    ):
        raise ScenarioError(
            "penalty reference handles torque-driven scenarios only; "
            "got velocity-prescribed or locked shafts"
        )
    massless = [s.name for s in g.shafts if s.inertia == 0.0]
    if massless:
        raise ScenarioError(
            "penalty reference needs inertia on every shaft; massless: " + ", ".join(massless)
        )

    inertia = np.asarray(g.inertias(), dtype=float)
    damping = np.zeros(g.n_shafts)
    resistive: list[tuple[int, float]] = []
    applied: list[tuple[int, AppliedTorque]] = []
    for name, load in scenario.loads.items():
        sid = g.shaft_id(name)
        if isinstance(load, Viscous):
            damping[sid] += load.b
        elif isinstance(load, ConstantResistive):
            resistive.append((sid, load.tau))
        elif isinstance(load, AppliedTorque):
            applied.append((sid, load))
    drive_sid = g.shaft_id(scenario.drive_shaft())
    C = constraint_matrix(g)
    stiff = K_PEN * (C.T @ C)

    def rate(t: float, v: np.ndarray) -> np.ndarray:
        tau = -damping * v - stiff @ v
        tau[drive_sid] += scenario.drive.value_at(t)
        for sid, load in applied:
            tau[sid] += load.value(t)
        for sid, mag in resistive:
            tau[sid] -= mag * math.tanh(v[sid] / OMEGA_EPS)
        return tau / inertia

    def jac(t: float, v: np.ndarray) -> np.ndarray:
        # The resistive tanh terms are omitted from the Jacobian; Radau
        # only needs it approximately right for step control.
        return (-stiff - np.diag(damping)) / inertia[:, None]

    sol = solve_ivp(
        rate,
        (0.0, scenario.options.duration),
        np.zeros(g.n_shafts),
        method="Radau",
        rtol=rtol,
        atol=atol,
        jac=jac,
        dense_output=False,
    )
    if not sol.success:  # pragma: no cover - scipy failure is exceptional
        raise RuntimeError(f"penalty reference integration failed: {sol.message}")
    return sol.y[:, -1]
