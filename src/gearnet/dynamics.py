"""Constrained rigid-body dynamics of mechanism graphs.

The constraint matrix A stacks the element rows C (C @ v = 0) with one
pin row per velocity-prescribed or locked shaft (v_s = p_s(t)).  Every
feasible velocity is v = N @ q + B @ p(t), where N is an orthonormal
kernel basis of A and B the pin columns of A's pseudo-inverse, so each
step solves only the small reduced system in q:

    (N^T W N) q = N^T (rhs - W B p)

with W the diagonal of declared shaft inertias (plus dt times viscous
damping under semi-implicit Euler, which takes viscous load torque at
the end-of-step velocity).  Every state is rebuilt on the constraint
set, so constraint drift does not accumulate.  Massless shafts are simulated as declared: the reduced
matrix only has to be positive definite, and when some feasible motion
carries no inertia at all the run stops with :class:`SingularKKT`
naming that motion.  Constraint multipliers, and from them every element
port torque, are recovered after the loop from A^T lambda = W alpha - tau.
A classical fourth-order Runge-Kutta variant is available for
convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GraphValidationError, MissingTorqueSeries, ScenarioError, SingularKKT
from .kinematics import RANK_RTOL, _kernel, constraint_matrix
from .mechanism import (
    OMEGA_EPS,
    AppliedTorque,
    ConstantResistive,
    Free,
    Load,
    Locked,
    MechanismGraph,
    Viscous,
)

INTEGRATORS = ("semi_implicit_euler", "rk4")
DRIVE_MODES = ("torque", "velocity")


@dataclass(frozen=True)
class Drive:
    """How the mechanism is driven.

    mode "torque" applies an effort source tau(t) to the drive shaft;
    "velocity" prescribes the drive shaft's speed omega(t) exactly.  The
    drive shaft is ``shaft``, or the graph's input when that is None.  To
    hold the input still (the worm cannot be back-driven) and drive some
    other shaft, give that shaft here and put a :class:`Locked` load on
    the input.
    """

    mode: str
    value: float | Callable[[float], float] = 0.0
    shaft: str | None = None

    @staticmethod
    def torque(value, shaft: str | None = None) -> "Drive":
        return Drive(mode="torque", value=value, shaft=shaft)

    @staticmethod
    def velocity(value, shaft: str | None = None) -> "Drive":
        return Drive(mode="velocity", value=value, shaft=shaft)

    def value_at(self, t: float) -> float:
        return self.value(t) if callable(self.value) else self.value


@dataclass(frozen=True)
class SimOptions:
    """Integration settings.

    initial "consistent" seeds the run with the minimum-norm feasible
    state matching the t=0 prescriptions; "rest" starts every shaft at
    zero, letting the first Euler step absorb any prescribed jump as an
    impulsive (but constraint-consistent) spin-up.
    """

    duration: float = 0.5
    dt: float = 1e-4
    integrator: str = "semi_implicit_euler"
    record_torques: bool = True
    initial: str = "consistent"


@dataclass(frozen=True)
class Scenario:
    """A mechanism plus drive, per-shaft loads, and integration options."""

    graph: MechanismGraph
    drive: Drive
    loads: dict[str, Load] = field(default_factory=dict)
    options: SimOptions = field(default_factory=SimOptions)
    name: str = ""

    def drive_shaft(self) -> str:
        if self.drive.shaft is not None:
            return self.drive.shaft
        inp = self.graph.meta.get("input")
        if inp is None:
            raise ScenarioError(
                "drive.shaft: no shaft given and the graph does not name an input"
            )
        return inp

    def validate(self) -> None:
        """Raise ScenarioError, naming the field, on any contradiction.

        Graph errors pass through.  This is the one validator of a
        scenario; the file reader checks only the document's shape.
        """
        self.graph.require_valid()
        opts = self.options
        if not opts.duration > 0:
            raise ScenarioError(f"sim.duration: must be > 0, got {opts.duration}")
        if not opts.dt > 0:
            raise ScenarioError(f"sim.dt: must be > 0, got {opts.dt}")
        if opts.integrator not in INTEGRATORS:
            raise ScenarioError(
                f"sim.integrator: unknown integrator {opts.integrator!r}; "
                f"expected one of {INTEGRATORS}"
            )
        if opts.initial not in ("consistent", "rest"):
            raise ScenarioError(f"sim.initial: expected 'consistent' or 'rest', got {opts.initial!r}")
        if self.drive.mode not in DRIVE_MODES:
            raise ScenarioError(
                f"drive.mode: unknown mode {self.drive.mode!r}; expected one of {DRIVE_MODES}"
            )
        drive_shaft = self.drive_shaft()
        _require_shaft(self.graph, drive_shaft, "drive.shaft")
        for name in self.loads:
            _require_shaft(self.graph, name, f"loads.{name}")
        if isinstance(self.loads.get(drive_shaft), Locked):
            raise ScenarioError(f"loads.{drive_shaft}: cannot lock the driven shaft")


def _require_shaft(graph: MechanismGraph, name: str, path: str) -> None:
    try:
        graph.shaft_id(name)
    except GraphValidationError:
        raise ScenarioError(f"{path}: no such shaft {name!r} in the mechanism") from None


@dataclass
class Trajectory:
    """Recorded simulation output, together with the scenario it came from.

    ``scenario`` is the simulated :class:`Scenario` itself, not a copy:
    its graph names the shafts and element ports, and verification reads
    its drive, loads and options.  Scenarios are frozen, so it still
    describes the run.

    All series share the same length: one row per time point, where row i
    holds the state at t[i] together with the acceleration and torques of
    the step launched from it (the final row gets an extra instantaneous
    solve).  ``omega`` and ``alpha`` have one column per shaft, in graph
    order; ``element_torques[name]`` has one column per port of that
    element, in the element's port order.
    """

    scenario: Scenario
    t: np.ndarray
    omega: np.ndarray
    alpha: np.ndarray
    element_torques: dict[str, np.ndarray] | None
    drive_torque: np.ndarray

    @property
    def shaft_names(self) -> list[str]:
        return self.scenario.graph.shaft_names()

    def omega_of(self, name: str) -> np.ndarray:
        return self.omega[:, self.scenario.graph.shaft_id(name)]

    def alpha_of(self, name: str) -> np.ndarray:
        return self.alpha[:, self.scenario.graph.shaft_id(name)]

    def port_torque(self, element: str, port: str) -> np.ndarray:
        if self.element_torques is None:
            raise MissingTorqueSeries(
                "trajectory was recorded with record_torques=False"
            )
        ports = [p for p, _ in self.scenario.graph.element(element).ports()]
        return self.element_torques[element][:, ports.index(port)]

    def final_state(self) -> dict[str, float]:
        return {n: float(self.omega[-1, i]) for i, n in enumerate(self.shaft_names)}

    def to_csv(self, path) -> None:
        write_trajectory_csv(self, path)


_CSV_CHUNK = 64  # rows formatted per write; larger chunks raise the peak RSS


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write `t,<shaft>.omega,<shaft>.alpha[,<element>.tau_<port>]` rows.

    Shafts, elements and ports appear in graph order.  Numbers carry 17
    significant digits so the file round-trips floats exactly and reruns
    produce bit-identical output.
    """
    headers = ["t"]
    columns = [traj.t]
    for i, name in enumerate(traj.shaft_names):
        headers.append(f"{name}.omega")
        columns.append(traj.omega[:, i])
        headers.append(f"{name}.alpha")
        columns.append(traj.alpha[:, i])
    if traj.element_torques is not None:
        for e in traj.scenario.graph.elements:
            series = traj.element_torques[e.name]
            for c, (port, _) in enumerate(e.ports()):
                headers.append(f"{e.name}.tau_{port}")
                columns.append(series[:, c])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(headers) + "\n")
        for a in range(0, len(traj.t), _CSV_CHUNK):
            chunk = zip(*(col[a : a + _CSV_CHUNK].tolist() for col in columns))
            fh.write("".join(row % values for values in chunk))


# --------------------------------------------------------------------------
# Assembly
# --------------------------------------------------------------------------


class _Assembled:
    """Constraint rows, loads, pins, and the reduced-system operators.

    ``dt`` folds the semi-implicit viscous term into the weights,
    W = M + dt * D; None gives W = M, for RK4 rates and impulse probes.
    """

    def __init__(self, scenario: Scenario, dt: float | None):
        g = scenario.graph
        opts = scenario.options
        self.graph = g
        self.opts = opts
        self.n = g.n_shafts
        self.dt = dt
        self.inertia = np.asarray(g.inertias(), dtype=float)

        self.damping = np.zeros(self.n)
        self.resistive: list[tuple[int, float]] = []
        self.applied: list[tuple[int, AppliedTorque]] = []
        for name, load in scenario.loads.items():
            sid = g.shaft_id(name)
            if isinstance(load, Viscous):
                self.damping[sid] += load.b
            elif isinstance(load, ConstantResistive):
                self.resistive.append((sid, load.tau))
            elif isinstance(load, AppliedTorque):
                self.applied.append((sid, load))
            elif isinstance(load, (Free, Locked)):
                pass
            else:
                raise ScenarioError(f"loads.{name}: unsupported load {load!r}")

        C = constraint_matrix(g)
        # (shaft, target fn): the locked shafts, then a velocity drive last
        pins: list[tuple[int, Callable[[float], float]]] = [
            (g.shaft_id(name), lambda t: 0.0)
            for name, load in scenario.loads.items()
            if isinstance(load, Locked)
        ]
        drive = scenario.drive
        drive_sid = g.shaft_id(scenario.drive_shaft())
        self.effort: list[tuple[int, Callable[[float], float]]] = []
        if drive.mode == "torque":
            self.effort.append((drive_sid, drive.value_at))
        else:
            pins.append((drive_sid, drive.value_at))

        self.n_element_rows = C.shape[0]
        self.pins = pins
        P = np.zeros((len(pins), self.n))
        for r, (sid, _) in enumerate(pins):
            P[r, sid] = 1.0
        self.A = np.vstack([C, P])
        self.w = self.inertia + dt * self.damping if dt is not None else self.inertia
        self._reduce()

    def _reduce(self) -> None:
        """Kernel basis N, pin map B, and the operators every step applies.

        G = N (N^T W N)^-1 N^T maps a torque to the feasible acceleration
        (or, scaled by dt, velocity change) it produces; H carries the pin
        targets into the state, H = B - G W B.
        """
        A = self.A
        N = _kernel(A)
        if self.n - N.shape[1] < A.shape[0]:
            u, _, _ = np.linalg.svd(A)
            raise SingularKKT(
                "constraint system is singular (redundant or conflicting rows)",
                direction=u[:, -1],
            )
        self.A_pinv = np.linalg.pinv(A)
        self.N = N
        self.B = self.A_pinv[:, self.n_element_rows :]
        evals, evecs = np.linalg.eigh(N.T @ (self.w[:, None] * N))
        if evals.size and not evals[0] > RANK_RTOL * evals[-1]:
            mode = N @ evecs[:, 0]
            moving = [self.graph.shaft_name(int(i)) for i in np.flatnonzero(np.abs(mode) > 1e-9)]
            raise SingularKKT(
                "a feasible motion carries no inertia, so its acceleration is "
                f"undetermined; it moves only massless shafts: {', '.join(moving)}",
                direction=mode,
            )
        root = N @ (evecs / np.sqrt(evals))
        self.G = root @ root.T
        self.H = self.B - self.G @ (self.w[:, None] * self.B)

    def tau_explicit(self, v: np.ndarray, t: float) -> np.ndarray:
        """All torque that goes on the RHS: sources, applied, resistive."""
        tau = np.zeros(self.n)
        for sid, fn in self.effort:
            tau[sid] += fn(t)
        for sid, load in self.applied:
            tau[sid] += load.value(t)
        for sid, mag in self.resistive:
            tau[sid] += -mag * math.tanh(v[sid] / OMEGA_EPS)
        return tau

    def pin_targets(self, t: float) -> np.ndarray:
        return np.array([target(t) for _, target in self.pins], dtype=float)

    def pin_rates(self, t: float, h: float = 1e-7) -> np.ndarray:
        """Pin target derivatives by central difference (for RK4)."""
        return np.array(
            [(target(t + h) - target(t - h)) / (2.0 * h) for _, target in self.pins],
            dtype=float,
        )

    def euler_step(self, v: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """State at t + dt, and the explicit torque the step used."""
        tau = self.tau_explicit(v, t)
        v_next = self.G @ (self.inertia * v + self.dt * tau) + self.H @ self.pin_targets(t + self.dt)
        return v_next, tau - self.damping * v

    def rate(self, v: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Acceleration at (v, t), and the torque it answers to."""
        tau = self.tau_explicit(v, t) - self.damping * v
        return self.G @ tau + self.H @ self.pin_rates(t), tau

    def project(self, v: np.ndarray, t: float) -> np.ndarray:
        """The feasible state closest to v whose pins sit at their targets."""
        return self.N @ (self.N.T @ v) + self.B @ self.pin_targets(t)

    def multipliers(self, alpha: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Multipliers solving A^T lambda = W alpha - tau, one row per row of alpha.

        Every step leaves W alpha - tau in the row space of A, so this
        least-squares solve is exact.
        """
        return (alpha * self.w - tau) @ self.A_pinv

    def initial_state(self) -> np.ndarray:
        if self.opts.initial == "rest":
            if self.opts.integrator == "rk4" and np.any(self.pin_targets(0.0) != 0.0):
                raise ScenarioError(
                    "sim.initial: 'rest' conflicts with a nonzero prescribed "
                    "speed under rk4; use initial='consistent'"
                )
            return np.zeros(self.n)
        return self.B @ self.pin_targets(0.0)


# --------------------------------------------------------------------------
# Stepping and simulation
# --------------------------------------------------------------------------


def step(
    scenario: Scenario,
    v: np.ndarray,
    t: float,
    dt: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance one semi-implicit Euler step from (v, t).

    Returns (v_next, alpha, multipliers).  A convenience wrapper over the
    machinery :func:`simulate` uses; it re-assembles per call, so prefer
    :func:`simulate` for long runs.
    """
    scenario.validate()
    dt = scenario.options.dt if dt is None else dt
    sys_ = _Assembled(scenario, dt)
    v_next, tau = sys_.euler_step(v, t)
    alpha = (v_next - v) / dt
    return v_next, alpha, sys_.multipliers(alpha, tau)


def _rk4_step(sys_: _Assembled, v: np.ndarray, t: float, dt: float, k1: np.ndarray):
    k2, _ = sys_.rate(v + 0.5 * dt * k1, t + 0.5 * dt)
    k3, _ = sys_.rate(v + 0.5 * dt * k2, t + 0.5 * dt)
    k4, _ = sys_.rate(v + dt * k3, t + dt)
    return sys_.project(v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), t + dt)


def simulate(scenario: Scenario) -> Trajectory:
    """Integrate a scenario over its full duration and record everything."""
    scenario.validate()
    opts = scenario.options
    g = scenario.graph
    dt = opts.dt
    euler = opts.integrator == "semi_implicit_euler"
    sys_ = _Assembled(scenario, dt if euler else None)

    n_steps = max(1, int(round(opts.duration / dt)))
    times = np.arange(n_steps + 1) * dt
    v = sys_.initial_state()
    omega = np.empty((n_steps + 1, sys_.n))
    alpha = np.empty_like(omega)
    tau = np.empty_like(omega)  # explicit torque each row's step used
    for i, t in enumerate(times):
        omega[i] = v
        if euler:
            v_next, tau[i] = sys_.euler_step(v, t)
            alpha[i] = (v_next - v) / dt
        else:
            alpha[i], tau[i] = sys_.rate(v, t)
            v_next = _rk4_step(sys_, v, t, dt, alpha[i]) if i < n_steps else v
        v = v_next

    lam = sys_.multipliers(alpha, tau)
    torques = None
    if opts.record_torques:
        torques = {
            e.name: lam[:, [r]] * [coeff for _, coeff in e.row_entries()]
            for r, e in enumerate(g.elements)
        }
    return Trajectory(
        scenario=scenario,
        t=times,
        omega=omega,
        alpha=alpha,
        element_torques=torques,
        drive_torque=_drive_torque(scenario.drive, lam, times),
    )


def _drive_torque(drive: Drive, lam: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The commanded value of an effort source; a prescribed speed's torque
    is the multiplier of its pin row, the last row of A."""
    if drive.mode == "torque":
        return np.array([drive.value_at(t) for t in times], dtype=float)
    return lam[:, -1].copy()


def impulse_response(
    graph: MechanismGraph,
    shaft: str,
    tau: float = 1.0,
    held: tuple[str, ...] | list[str] = (),
) -> np.ndarray:
    """Instantaneous accelerations from rest under a unit of applied torque.

    Args:
        graph: validated mechanism graph.
        shaft: name of the shaft receiving the torque.
        tau: applied torque (N*m).
        held: shafts whose acceleration is pinned to zero (e.g. a locked
            input) during the probe.

    Returns:
        Array of angular accelerations indexed by shaft id.

    Raises:
        SingularKKT: the constraint rows are redundant, or some feasible
            motion carries no inertia.
    """
    graph.require_valid()
    probe = Scenario(
        graph=graph,
        drive=Drive.torque(tau, shaft=shaft),
        loads={name: Locked() for name in held},
    )
    alpha, _ = _Assembled(probe, None).rate(np.zeros(graph.n_shafts), 0.0)
    return alpha
