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
set, so constraint drift does not accumulate.  Massless shafts are
simulated as declared: the reduced matrix only has to be positive
definite, and when some feasible motion carries no inertia at all the
run stops with :class:`SingularKKT` naming that motion.  Constraint
multipliers are recovered after the loop from A^T lambda = W alpha - tau
and kept on the trajectory; every element port torque is its row's
multiplier times the port's coefficient in that row.  A classical
fourth-order Runge-Kutta variant is available for convergence studies.

Inputs that depend on time only (source and applied torques, pin
targets and their rates) are sampled once, before the loop, on every
time the integrator visits; inside the loop only the resistive torque
depends on the state.  A run that diverges stops with
:class:`NonFiniteState` instead of returning non-finite rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    GraphValidationError,
    NonFiniteState,
    ScenarioError,
    SingularKKT,
)
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


@dataclass(frozen=True, eq=False)
class Series:
    """A tabulated function of time: ``values`` at strictly increasing
    ``times``, linear in between and held constant outside.

    Called on a float it returns a float; called on an array of times it
    returns an array, from one interpolation.  Two series are equal only
    when they are the same object, as two functions are.
    """

    times: np.ndarray
    values: np.ndarray

    def __call__(self, t):
        if np.ndim(t):
            return np.interp(t, self.times, self.values)
        return float(np.interp(t, self.times, self.values))

    def slope(self, t: np.ndarray) -> np.ndarray:
        """The derivative from the right at each of ``t``: the slope of the
        segment that starts there, and 0 where the series is held."""
        slopes = np.append(np.diff(self.values) / np.diff(self.times), 0.0)
        # before the first knot the index is -1, from the last knot on it
        # is len - 1: both pick the appended 0
        return slopes[np.searchsorted(self.times, t, side="right") - 1]


def _sample(value: float | Callable[[float], float], times: np.ndarray) -> np.ndarray:
    """A constant or a function of time, at each of ``times``.

    A :class:`Series` is interpolated over the whole array at once; any
    other callable is called once per time.
    """
    if isinstance(value, Series):
        return value(times)
    if callable(value):
        return np.array([value(t) for t in times], dtype=float)
    return np.full(len(times), value, dtype=float)


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

    ``record_torques`` picks whether the trajectory CSV carries the element
    port torque columns; the run and its verification are the same either
    way.  initial "consistent" seeds the run with the minimum-norm feasible
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
        if not 0 < opts.duration < math.inf:
            raise ScenarioError(f"sim.duration: must be finite and > 0, got {opts.duration}")
        if not 0 < opts.dt < math.inf:
            raise ScenarioError(f"sim.dt: must be finite and > 0, got {opts.dt}")
        if not math.isfinite(opts.duration / opts.dt):
            raise ScenarioError(
                f"sim.dt: {opts.dt} is too small for sim.duration {opts.duration}: "
                "the number of steps is not finite"
            )
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
        if not callable(self.drive.value):
            _require_number(self.drive.value, "drive.value")
        drive_shaft = self.drive_shaft()
        _require_shaft(self.graph, drive_shaft, "drive.shaft")
        for name, load in self.loads.items():
            _require_shaft(self.graph, name, f"loads.{name}")
            if isinstance(load, Viscous):
                _require_number(load.b, f"loads.{name}.b", minimum=0.0)
            elif isinstance(load, ConstantResistive):
                _require_number(load.tau, f"loads.{name}.tau", minimum=0.0)
            elif isinstance(load, AppliedTorque) and not callable(load.tau):
                _require_number(load.tau, f"loads.{name}.tau")
        if isinstance(self.loads.get(drive_shaft), Locked):
            raise ScenarioError(f"loads.{drive_shaft}: cannot lock the driven shaft")


def _require_number(value: float, path: str, minimum: float = -math.inf) -> None:
    if not (math.isfinite(value) and value >= minimum):
        bound = "" if minimum == -math.inf else f" and >= {minimum:g}"
        raise ScenarioError(f"{path}: must be finite{bound}, got {value}")


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

    All series but ``step_torque`` have one row per time point: row i
    holds the state at t[i] with the acceleration and torques of the step
    launched from it (the final row gets an extra instantaneous solve).
    ``omega`` and ``alpha`` have one column per shaft, in graph order.
    ``multipliers`` has one column per row of the constraint matrix A: the
    element rows in graph order, then the pin rows (locked shafts, then a
    velocity drive).  Every port torque is derived from them on demand
    (:meth:`port_torque`), as is the drive torque.

    ``step_torque`` has ``len(t) - 1`` rows, one per step, of shaft torques:
    what the step applied as the integrator weighted it (Euler: viscous at
    the end speed; RK4: the stage torques) plus the pinned shafts' reactions,
    whose power at the mid-step speed is the step's change of kinetic energy.
    """

    scenario: Scenario
    t: np.ndarray
    omega: np.ndarray
    alpha: np.ndarray
    multipliers: np.ndarray
    step_torque: np.ndarray

    @property
    def shaft_names(self) -> list[str]:
        return self.scenario.graph.shaft_names()

    def omega_of(self, name: str) -> np.ndarray:
        return self.omega[:, self.scenario.graph.shaft_id(name)]

    def alpha_of(self, name: str) -> np.ndarray:
        return self.alpha[:, self.scenario.graph.shaft_id(name)]

    @property
    def drive_torque(self) -> np.ndarray:
        """The commanded value of an effort source; a prescribed speed's
        torque is the multiplier of its pin row, the last row of A."""
        drive = self.scenario.drive
        if drive.mode == "torque":
            return _sample(drive.value, self.t)
        return self.multipliers[:, -1]

    def port_torque(self, element: str, port: str) -> np.ndarray:
        """Torque on one port of an element: the multiplier of the element's
        row times the port's coefficient in it."""
        graph = self.scenario.graph
        for name, p, row, coeff in _port_rows(graph):
            if (name, p) == (element, port):
                return self.multipliers[:, row] * coeff
        graph.element(element)  # raises, naming an unknown element
        raise GraphValidationError(f"element {element!r} has no port {port!r}")

    def final_state(self) -> dict[str, float]:
        return {n: float(self.omega[-1, i]) for i, n in enumerate(self.shaft_names)}

    def to_csv(self, path) -> None:
        write_trajectory_csv(self, path)


def _port_rows(graph: MechanismGraph) -> list[tuple[str, str, int, float]]:
    """(element, port, element row, coefficient) of every port, in graph order."""
    return [
        (e.name, port, row, coeff)
        for row, e in enumerate(graph.elements)
        for (port, _), (_, coeff) in zip(e.ports(), e.row_entries())
    ]


# rows formatted per write, and the span over which repeated values are
# found; larger chunks raise the peak RSS
_CSV_CHUNK = 64


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write `t,<shaft>.omega,<shaft>.alpha[,<element>.tau_<port>]` rows.

    Shafts, elements and ports appear in graph order.  The port torque
    columns are written when the scenario's ``record_torques`` is set; each
    is the product :meth:`Trajectory.port_torque` takes.  Numbers carry 17
    significant digits so the file round-trips floats exactly and reruns
    produce bit-identical output.

    The rows go out ``_CSV_CHUNK`` at a time, so memory is bounded by one
    chunk.  A steady run repeats most of its values (the canonical
    equal-load run has 3.7 % distinct cells), so a chunk in which at most
    half the cells are distinct formats each distinct value once and
    looks every cell up by its bit pattern.  Keys are bit patterns, never
    floats: float equality would merge -0.0 with 0.0 and write "0" for
    "-0".  Other chunks format every cell, all in one ``%`` call, since
    there the lookup and join cost more than the formatting they save:
    sharing every chunk measured 5 % slower on the sweep-3ood benchmark
    files, whose chunks are 69-98 % distinct.  The rule is a cost model,
    not a setting; either path writes the same bytes.
    """
    headers = ["t"]
    for name in traj.shaft_names:
        headers += [f"{name}.omega", f"{name}.alpha"]
    ports = _port_rows(traj.scenario.graph) if traj.scenario.options.record_torques else []
    headers += [f"{element}.tau_{port}" for element, port, _, _ in ports]
    rows_of_a = [row for _, _, row, _ in ports]
    coeffs = np.array([coeff for _, _, _, coeff in ports])
    row = ",".join(["%.17g"] * len(headers)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(headers) + "\n")
        for a in range(0, len(traj.t), _CSV_CHUNK):
            rows = slice(a, a + _CSV_CHUNK)
            t = traj.t[rows]
            # one line of the block per CSV column, in header order: t, the
            # omega and alpha of each shaft in turn, then the port torques
            shafts = np.stack((traj.omega[rows].T, traj.alpha[rows].T), axis=1)
            torques = traj.multipliers[rows][:, rows_of_a] * coeffs
            block = np.concatenate([t[None], shafts.reshape(-1, len(t)), torques.T])
            bits = block.view(np.int64)
            keys = np.sort(bits, axis=None)
            distinct = keys[np.append(True, keys[1:] != keys[:-1])]
            if 2 * distinct.size > keys.size:
                fh.write(row * len(t) % tuple(block.T.ravel().tolist()))
                continue
            text = "%.17g," * distinct.size % tuple(distinct.view(np.float64).tolist())
            cells = np.array(text.split(","), dtype=object)[np.searchsorted(distinct, bits)]
            fh.write("\n".join(map(",".join, zip(*cells.tolist()))) + "\n")


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

        drive = scenario.drive
        drive_sid = g.shaft_id(scenario.drive_shaft())
        # (shaft, constant or function of time), summed in this order: a
        # torque drive, then the applied loads
        self.explicit: list[tuple[int, float | Callable[[float], float]]] = []
        # (shaft, target): the locked shafts, then a velocity drive last
        pins: list[tuple[int, float | Callable[[float], float]]] = []
        if drive.mode == "torque":
            self.explicit.append((drive_sid, drive.value))
        self.damping = np.zeros(self.n)
        self.resistive: list[tuple[int, float]] = []
        for name, load in scenario.loads.items():
            sid = g.shaft_id(name)
            if isinstance(load, Viscous):
                self.damping[sid] += load.b
            elif isinstance(load, ConstantResistive):
                self.resistive.append((sid, load.tau))
            elif isinstance(load, AppliedTorque):
                self.explicit.append((sid, load.tau))
            elif isinstance(load, Locked):
                pins.append((sid, 0.0))
            elif not isinstance(load, Free):
                raise ScenarioError(f"loads.{name}: unsupported load {load!r}")
        if drive.mode == "velocity":
            pins.append((drive_sid, drive.value))

        C = constraint_matrix(g)

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

    def explicit_torques(self, times: np.ndarray) -> np.ndarray:
        """Source and applied-load torque at each time, one row per time.

        The resistive torque depends on the state, so the loop adds it
        (:meth:`add_resistive`).
        """
        tau = np.zeros((len(times), self.n))
        for sid, value in self.explicit:
            tau[:, sid] += _sample(value, times)
        return tau

    def add_resistive(self, tau: np.ndarray, v: np.ndarray) -> None:
        """Add the resistive loads' torque at state v to the row tau, in place."""
        for sid, mag in self.resistive:
            tau[sid] += -mag * math.tanh(v[sid] / OMEGA_EPS)

    def pin_targets(self, times: np.ndarray) -> np.ndarray:
        """Pin targets at each time, one row per time and one column per pin."""
        targets = np.empty((len(times), len(self.pins)))
        for c, (_, value) in enumerate(self.pins):
            targets[:, c] = _sample(value, times)
        return targets

    def pin_rates(self, times: np.ndarray, h: float = 1e-7) -> np.ndarray:
        """Pin target derivatives (for RK4), one row per time: a
        :class:`Series` gives the slope of the segment each time starts,
        any other function a central difference."""
        rates = np.zeros((len(times), len(self.pins)))
        for c, (_, value) in enumerate(self.pins):
            if isinstance(value, Series):
                rates[:, c] = value.slope(times)
            elif callable(value):
                rates[:, c] = (_sample(value, times + h) - _sample(value, times - h)) / (2.0 * h)
        return rates

    def rate(self, v: np.ndarray, tau: np.ndarray, pin_rate: np.ndarray):
        """Acceleration at state v, and the torque it answers to.

        ``tau`` and ``pin_rate`` are the sampled rows for the same time;
        ``tau`` is left unchanged.
        """
        if self.resistive:
            tau = tau.copy()
            self.add_resistive(tau, v)
        tau = tau - self.damping * v
        return self.G @ tau + self.H @ pin_rate, tau

    def multipliers(self, alpha: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Multipliers solving A^T lambda = W alpha - tau, one row per row of alpha.

        Every step leaves W alpha - tau in the row space of A, so this
        least-squares solve is exact.
        """
        return (alpha * self.w - tau) @ self.A_pinv

    def initial_state(self) -> np.ndarray:
        targets = self.pin_targets(np.zeros(1))[0]
        if self.opts.initial == "rest":
            if self.opts.integrator == "rk4" and np.any(targets != 0.0):
                raise ScenarioError(
                    "sim.initial: 'rest' conflicts with a nonzero prescribed "
                    "speed under rk4; use initial='consistent'"
                )
            return np.zeros(self.n)
        return self.B @ targets


# --------------------------------------------------------------------------
# Stepping and simulation
# --------------------------------------------------------------------------


def _euler(sys_: _Assembled, v: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Semi-implicit Euler steps launched from v at each of ``times``.

    Returns the states, one more row than ``times`` (row 0 is v), and
    the explicit torque each step used, without the viscous part.
    """
    dt = sys_.dt
    tau = sys_.explicit_torques(times)
    pins = sys_.pin_targets(times + dt)
    states = np.empty((len(times) + 1, sys_.n))
    states[0] = v
    G, H, inertia = sys_.G, sys_.H, sys_.inertia
    for i in range(len(times)):
        sys_.add_resistive(tau[i], v)
        v = G @ (inertia * v + dt * tau[i]) + H @ pins[i]
        states[i + 1] = v
    return states, tau


def _rk4(sys_: _Assembled, v: np.ndarray, times: np.ndarray, dt: float):
    """Classical RK4 from v at times[0]; the last row takes no step.

    Returns omega, alpha, the torque each row's rate answers to, and the
    torque each step applied, (tau1 + 2 tau2 + 2 tau3 + tau4) / 6.
    """
    starts = times[:-1]
    half, end = starts + 0.5 * dt, starts + dt
    tau0, rate0 = sys_.explicit_torques(times), sys_.pin_rates(times)
    tau_half = sys_.explicit_torques(half)
    tau_end, rate_end = sys_.explicit_torques(end), sys_.pin_rates(end)
    # the pin targets each step starts from and ends on, and the mid-stage
    # pin rate whose Simpson sum lands exactly on the end target
    targets = sys_.pin_targets(np.concatenate((times[:1], end)))
    pins = targets[1:]
    rate_half = (6.0 * (pins - targets[:-1]) / dt - rate0[:-1] - rate_end) / 4.0
    omega = np.empty((len(times), sys_.n))
    alpha = np.empty_like(omega)
    tau = np.empty_like(omega)
    step_tau = np.empty((len(starts), sys_.n))
    N, B = sys_.N, sys_.B
    for i in range(len(times)):
        omega[i] = v
        k1, tau[i] = sys_.rate(v, tau0[i], rate0[i])
        alpha[i] = k1
        if i == len(starts):
            break
        k2, tau2 = sys_.rate(v + 0.5 * dt * k1, tau_half[i], rate_half[i])
        k3, tau3 = sys_.rate(v + 0.5 * dt * k2, tau_half[i], rate_half[i])
        k4, tau4 = sys_.rate(v + dt * k3, tau_end[i], rate_end[i])
        step_tau[i] = (tau[i] + 2.0 * tau2 + 2.0 * tau3 + tau4) / 6.0
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = N @ (N.T @ v) + B @ pins[i]  # back onto the constraint set
    return omega, alpha, tau, step_tau


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
    v = np.asarray(v, dtype=float)
    states, tau = _euler(sys_, v, np.array([t], dtype=float))
    v_next = states[1]
    alpha = (v_next - v) / dt
    return v_next, alpha, sys_.multipliers(alpha, tau[0] - sys_.damping * v)


def simulate(scenario: Scenario) -> Trajectory:
    """Integrate a scenario over its full duration and record everything.

    Raises:
        NonFiniteState: a speed or acceleration stopped being finite.
    """
    scenario.validate()
    opts = scenario.options
    dt = opts.dt
    euler = opts.integrator == "semi_implicit_euler"
    sys_ = _Assembled(scenario, dt if euler else None)

    n_steps = max(1, int(round(opts.duration / dt)))
    times = np.arange(n_steps + 1) * dt
    v = sys_.initial_state()
    with np.errstate(all="ignore"):  # a diverging run is reported below
        if euler:
            states, tau = _euler(sys_, v, times)
            omega = states[:-1]
            alpha = (states[1:] - omega) / dt
            step_tau = tau[:-1] - sys_.damping * states[1:-1]
            tau -= sys_.damping * omega
        else:
            omega, alpha, tau, step_tau = _rk4(sys_, v, times, dt)
        # each step's pin reactions, from A^T lambda = M (v1 - v0) / dt - step torque
        secant = (omega[1:] - omega[:-1]) / dt
        step_tau[:, [sid for sid, _ in sys_.pins]] += (secant * sys_.inertia - step_tau) @ sys_.B
    _require_finite(times, omega, alpha)
    return Trajectory(
        scenario=scenario,
        t=times,
        omega=omega,
        alpha=alpha,
        multipliers=sys_.multipliers(alpha, tau),
        step_torque=step_tau,
    )


def _require_finite(times: np.ndarray, omega: np.ndarray, alpha: np.ndarray) -> None:
    finite = np.isfinite(omega).all(axis=1) & np.isfinite(alpha).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteState(
            f"the run diverged: speed or acceleration is not finite from step {i} "
            f"(t={times[i]:.6g} s); a smaller sim.dt may help",
            step=i,
            time=float(times[i]),
        )


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
        ScenarioError: a shaft is not in the graph, or ``shaft`` is held.
        SingularKKT: the constraint rows are redundant, or some feasible
            motion carries no inertia.
    """
    probe = Scenario(
        graph=graph,
        drive=Drive.torque(tau, shaft=shaft),
        loads={name: Locked() for name in held},
    )
    probe.validate()
    sys_ = _Assembled(probe, None)
    at_zero = np.zeros(1)
    alpha, _ = sys_.rate(
        np.zeros(graph.n_shafts), sys_.explicit_torques(at_zero)[0], sys_.pin_rates(at_zero)[0]
    )
    return alpha
