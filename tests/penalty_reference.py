"""Penalty-method reference for the constrained dynamics.

An independent cross-check: instead of enforcing C @ v = 0 exactly, every
constraint row becomes a very stiff damper with torque -K_PEN * C^T (C @ v),
so no part of the reduced-coordinate machinery is shared.  Agreement
between the two routes validates both the constraint assembly and the
stepping.

A scenario whose inputs are all constants and that has no
ConstantResistive load is linear, M dv/dt = f - (D + K_PEN * C^T C) v,
and is solved in closed form in numpy.  Any other is integrated with
scipy's implicit Radau scheme, which is why scipy is a test dependency.

Only free (torque-driven) scenarios on shafts that all carry inertia are
supported; velocity prescriptions have no penalty analogue here and are
cross-checked kinematically instead.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from gearnet.dynamics import Scenario
from gearnet.errors import ScenarioError
from gearnet.kinematics import constraint_matrix
from gearnet.mechanism import OMEGA_EPS, AppliedTorque, ConstantResistive, Locked, Viscous

K_PEN = 1e8  # N*m*s/rad, stiffness of each constraint row's damper


def value_at(value, t: float) -> float:
    """A constant input, or a callable one called at t."""
    return value(t) if callable(value) else value


class PenaltySystem:
    """M dv/dt = tau(v, t) - K_PEN * C^T C v from rest, over the duration.

    Raises ScenarioError when the scenario contains velocity
    prescriptions, locked shafts or massless shafts, which this reference
    does not model.
    """

    def __init__(self, scenario: Scenario):
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

        self.inertia = np.asarray(g.inertias(), dtype=float)
        self.damping = np.zeros(g.n_shafts)
        self.resistive: list[tuple[int, float]] = []
        self.applied: list[tuple[int, float | Callable[[float], float]]] = []
        for name, load in scenario.loads.items():
            sid = g.shaft_id(name)
            if isinstance(load, Viscous):
                self.damping[sid] += load.b
            elif isinstance(load, ConstantResistive):
                self.resistive.append((sid, load.tau))
            elif isinstance(load, AppliedTorque):
                self.applied.append((sid, load.tau))
        self.drive = scenario.drive
        self.drive_sid = g.shaft_id(scenario.drive_shaft())
        C = constraint_matrix(g)
        self.stiff = K_PEN * (C.T @ C)
        self.duration = scenario.options.duration

    @property
    def linear(self) -> bool:
        """Every input is a constant and no load is resistive."""
        return not (
            self.resistive
            or callable(self.drive.value)
            or any(callable(tau) for _, tau in self.applied)
        )

    def forcing(self, t: float) -> np.ndarray:
        f = np.zeros_like(self.inertia)
        f[self.drive_sid] += value_at(self.drive.value, t)
        for sid, tau in self.applied:
            f[sid] += value_at(tau, t)
        return f

    def closed_form(self) -> np.ndarray:
        """v(T) of a linear system, exactly.

        With S = M^{-1/2}(D + K_PEN C^T C)M^{-1/2} = Q diag(lam) Q^T,
        v(T) = M^{-1/2} Q phi(lam) Q^T M^{-1/2} f, where
        phi(lam) = (1 - exp(-lam T)) / lam.  An undamped free mode has
        lam = 0, which eigh returns within its round-off of n * eps *
        max|lam|, possibly below 0: there phi = T.
        """
        if not self.linear:
            raise ValueError("the closed form needs constant inputs and no resistive load")
        root = 1.0 / np.sqrt(self.inertia)
        S = root[:, None] * (self.stiff + np.diag(self.damping)) * root
        lam, Q = np.linalg.eigh(S)
        T = self.duration
        phi = np.full_like(lam, T)
        moving = np.abs(lam) > len(lam) * np.finfo(float).eps * np.abs(lam).max()
        phi[moving] = -np.expm1(-lam[moving] * T) / lam[moving]
        return root * (Q @ (phi * (Q.T @ (root * self.forcing(0.0)))))

    def radau(self) -> np.ndarray:
        """v(T) by scipy's Radau at rtol 1e-9 and atol 1e-9.

        A tighter atol lies below the round-off of the K_PEN rows: at 1e-12
        Radau makes about a hundred times as many LU factorisations and
        lands no closer to the closed form."""
        from scipy.integrate import solve_ivp

        def rate(t: float, v: np.ndarray) -> np.ndarray:
            tau = -self.damping * v - self.stiff @ v + self.forcing(t)
            for sid, mag in self.resistive:
                tau[sid] -= mag * math.tanh(v[sid] / OMEGA_EPS)
            return tau / self.inertia

        def jac(t: float, v: np.ndarray) -> np.ndarray:
            # The resistive tanh terms are omitted from the Jacobian; Radau
            # only needs it approximately right for step control.
            return (-self.stiff - np.diag(self.damping)) / self.inertia[:, None]

        sol = solve_ivp(
            rate,
            (0.0, self.duration),
            np.zeros_like(self.inertia),
            method="Radau",
            rtol=1e-9,
            atol=1e-9,
            jac=jac,
        )
        if not sol.success:  # pragma: no cover - scipy failure is exceptional
            raise RuntimeError(f"penalty reference integration failed: {sol.message}")
        return sol.y[:, -1]


def penalty_velocities(scenario: Scenario) -> np.ndarray:
    """Final shaft velocities of the penalty-regularized system, started
    from rest: in closed form when the system is linear, else by Radau."""
    system = PenaltySystem(scenario)
    return system.closed_form() if system.linear else system.radau()
