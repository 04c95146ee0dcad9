"""Constrained rigid-body dynamics of mechanism graphs.

The constraint matrix A stacks the element rows C (C @ v = 0) with one
pin row per velocity-prescribed or locked shaft (v_s = p_s(t)), built
as for ``solve_velocities``.  Every feasible velocity is
v = N @ q + B @ p(t), where N is an orthonormal kernel basis of A and B
the pin columns of A's pseudo-inverse, so each step solves only the
small reduced system in q:

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
multiplier times the port's coefficient in that row.

A classical fourth-order Runge-Kutta variant is available for
convergence studies.  Apart from the resistive loads' tanh the system
is linear, so one RK4 step is affine in the state, the step's sampled
inputs and the friction torques of its four stages:
v' = Phi v + f + Psi rho, where
Phi = N N^T (I + Z + Z^2/2 + Z^3/6 + Z^4/24) with Z = -dt G diag(damping),
f is linear in the sampled inputs, and rho holds the friction torque of
each stage on each of the r resistive shafts.
The same map gives each stage's speeds at those shafts, linear in v, f
and the torques of the stages before it.  Every RK4 run builds the map
once and steps in one loop: a step is one matrix-vector product, and
only when r > 0 the 4r friction torques in turn as Python floats, then
Psi rho.  After the loop it reads each step's torque off the map, which
is linear in v, the inputs and rho too, and takes the rates over all
states at once.  This is the textbook step in another order of
operations: near zero speed the friction chatters and amplifies that
round-off, as it amplifies any.  Both integrators return the same
blocks, omega, alpha, the torque each row's rate answers to and each
step's torque, so ``simulate`` does no per-integrator work.

Inputs that depend on time only (source and applied torques, pin
targets and their rates) are sampled once, before the loop, on every
time the integrator visits; inside the loop only the resistive torque
depends on the state.  A run that diverges stops with
:class:`NonFiniteState` instead of returning non-finite rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, get_args

import numpy as np

from .errors import (
    GraphValidationError,
    NonFiniteState,
    ScenarioError,
    SingularKKT,
)
from .kinematics import RANK_RTOL, _pinned_system, constraint_matrix
from .mechanism import (
    OMEGA_EPS,
    AppliedTorque,
    ConstantResistive,
    Load,
    Locked,
    MechanismGraph,
    Viscous,
    require_number,
)
# also imported from here by bench/spans.py, as gearnet.dynamics.write_trajectory_csv
from .trajectory_io import write_trajectory_csv

INTEGRATORS = ("semi_implicit_euler", "rk4")
DRIVE_MODES = ("torque", "velocity")


@dataclass(frozen=True, eq=False)
class Series:
    """A tabulated function of time: ``values`` at strictly increasing
    ``times``, linear in between and held constant outside.  Both hold
    numbers, one value per time (else :class:`ScenarioError`).

    Called on a float it returns a float; called on an array of times it
    returns an array, from one interpolation.  Two series are equal only
    when they are the same object, as two functions are.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("times", "values"):
            dtype = np.asarray(getattr(self, name)).dtype
            if dtype.kind not in "iuf":
                raise ScenarioError(f"{name} must be numbers, got an array of {dtype}")
        if np.shape(self.values) != np.shape(self.times):
            raise ScenarioError(
                f"values must be one per time: {np.size(self.values)} values "
                f"for {np.size(self.times)} times"
            )
        if not (np.isfinite(self.times).all() and (np.diff(self.times) > 0).all()):
            raise ScenarioError("times must be finite and strictly increasing")

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


def _sample(value: float | Callable[[float], float], times: np.ndarray, path: str) -> np.ndarray:
    """A constant or a function of time, at each of ``times``.

    A :class:`Series` is interpolated over the whole array at once; any
    other callable is called once per time.  A value that is not finite
    is a :class:`ScenarioError` naming ``path``, the scenario field the
    value came from.
    """
    if isinstance(value, Series):
        samples = value(times)
    elif callable(value):
        samples = np.array([value(t) for t in times], dtype=float)
    else:
        samples = np.full(len(times), value, dtype=float)
    _require_finite_input(samples, times, path)
    return samples


def _require_finite_input(samples: np.ndarray, times: np.ndarray, path: str) -> None:
    finite = np.isfinite(samples)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ScenarioError(f"{path}: not finite at t={times[i]:.6g} s, got {samples[i]}")


@dataclass(frozen=True)
class Drive:
    """How the mechanism is driven.

    mode "torque" applies an effort source tau(t) to the drive shaft;
    "velocity" prescribes the drive shaft's speed omega(t) exactly.  The
    drive shaft is ``shaft``, or the shaft of role ``input`` when that is
    None.  To hold the input still (the worm cannot be back-driven) and
    drive some other shaft, give that shaft here and put a
    :class:`Locked` load on the input.
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
        """``drive.shaft``, or else the graph's one shaft of role ``input``."""
        shaft = self.drive.shaft if self.drive.shaft is not None else self.graph.meta.get("input")
        if shaft is None:
            raise ScenarioError("drive.shaft: no shaft given and no single shaft has role 'input'")
        return shaft

    def validate(self) -> None:
        """Raise ScenarioError, naming the field, on any bad value or contradiction.

        It checks the type of every value it reads: each number by
        ``require_number``, and ``sim.record_torques`` is a boolean.  Graph
        errors pass through.  This is the one validator of a scenario,
        library or file; the file reader checks only the document's shape.
        A graph that was never finalized is finalized here, so its ``meta``
        (the input, the outputs and a 3ood's keys) follows its shaft roles.
        """
        self.graph.require_valid()
        self.graph.finalize()
        opts = self.options
        require_number(opts.duration, "sim.duration", ScenarioError, "> 0")
        require_number(opts.dt, "sim.dt", ScenarioError, "> 0")
        steps = opts.duration / opts.dt
        if not math.isfinite(steps):
            raise ScenarioError(
                f"sim.dt: {opts.dt} is too small for sim.duration {opts.duration}: "
                "the number of steps is not finite"
            )
        # 0.3 / 0.1 is 2.9999999999999996: a whole count to round-off passes
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
            raise ScenarioError(
                f"sim.dt: {opts.dt} does not divide sim.duration {opts.duration} "
                f"into a whole number of steps (it gives {steps:.6g})"
            )
        if opts.integrator not in INTEGRATORS:
            raise ScenarioError(
                f"sim.integrator: unknown integrator {opts.integrator!r}; "
                f"expected one of {INTEGRATORS}"
            )
        if opts.initial not in ("consistent", "rest"):
            raise ScenarioError(f"sim.initial: expected 'consistent' or 'rest', got {opts.initial!r}")
        if not isinstance(opts.record_torques, bool):
            raise ScenarioError(
                f"sim.record_torques: expected true or false, got {opts.record_torques!r}"
            )
        if self.drive.mode not in DRIVE_MODES:
            raise ScenarioError(
                f"drive.mode: unknown mode {self.drive.mode!r}; expected one of {DRIVE_MODES}"
            )
        if not callable(self.drive.value):
            require_number(self.drive.value, "drive.value", ScenarioError)
        drive_shaft = self.drive_shaft()
        _require_shaft(self.graph, drive_shaft, "drive.shaft")
        if (
            opts.initial == "rest"
            and opts.integrator == "rk4"
            and self.drive.mode == "velocity"
            and _sample(self.drive.value, np.zeros(1), "drive.value")[0] != 0.0
        ):
            raise ScenarioError(
                "sim.initial: 'rest' conflicts with a nonzero prescribed "
                "speed under rk4; use initial='consistent'"
            )
        for name, load in self.loads.items():
            _require_shaft(self.graph, name, f"loads.{name}")
            if not isinstance(load, get_args(Load)):
                raise ScenarioError(f"loads.{name}: unsupported load {load!r}")
            if isinstance(load, Viscous):
                require_number(load.b, f"loads.{name}.b", ScenarioError, ">= 0")
            elif isinstance(load, ConstantResistive):
                require_number(load.tau, f"loads.{name}.tau", ScenarioError, ">= 0")
            elif isinstance(load, AppliedTorque) and not callable(load.tau):
                require_number(load.tau, f"loads.{name}.tau", ScenarioError)
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
            return _sample(drive.value, self.t, "drive.value")
        return self.multipliers[:, -1]

    def port_torque(self, element: str, port: str) -> np.ndarray:
        """Torque on one port of an element: the multiplier of the element's
        row times the port's coefficient in it."""
        graph = self.scenario.graph
        for row, e in enumerate(graph.elements):
            if e.name == element:
                for p, _, coeff in e.row():
                    if p == port:
                        return self.multipliers[:, row] * coeff
                raise GraphValidationError(f"element {element!r} has no port {port!r}")
        graph.element(element)  # raises, naming an unknown element

    def to_csv(self, path) -> None:
        write_trajectory_csv(self, path)


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
        # (shaft, constant or function of time, scenario field), summed in
        # this order: a torque drive, then the applied loads
        self.explicit: list[tuple[int, float | Callable[[float], float], str]] = []
        # (shaft, target, scenario field): the locked shafts, then a
        # velocity drive last
        pins: list[tuple[int, float | Callable[[float], float], str]] = []
        if drive.mode == "torque":
            self.explicit.append((drive_sid, drive.value, "drive.value"))
        self.damping = np.zeros(self.n)
        self.resistive: list[tuple[int, float]] = []
        for name, load in scenario.loads.items():
            sid = g.shaft_id(name)
            if isinstance(load, Viscous):
                self.damping[sid] += load.b
            elif isinstance(load, ConstantResistive):
                self.resistive.append((sid, load.tau))
            elif isinstance(load, AppliedTorque):
                self.explicit.append((sid, load.tau, f"loads.{name}.tau"))
            elif isinstance(load, Locked):
                pins.append((sid, 0.0, f"loads.{name}"))
        if drive.mode == "velocity":
            pins.append((drive_sid, drive.value, "drive.value"))

        C = constraint_matrix(g)
        self.pins = pins
        self.A, self.N, self.A_pinv = _pinned_system(C, [sid for sid, _, _ in pins])
        self.B = self.A_pinv[:, C.shape[0] :]
        self.w = self.inertia + dt * self.damping if dt is not None else self.inertia
        self._reduce()

    def _reduce(self) -> None:
        """Check the pinned system, and build the operators every step applies.

        G = N (N^T W N)^-1 N^T maps a torque to the feasible acceleration
        (or, scaled by dt, velocity change) it produces; H carries the pin
        targets into the state, H = B - G W B.
        """
        A, N = self.A, self.N
        if self.n - N.shape[1] < A.shape[0]:
            u, _, _ = np.linalg.svd(A)
            raise SingularKKT(
                "constraint system is singular (redundant or conflicting rows)",
                direction=u[:, -1],
            )
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
        (:func:`_friction`).
        """
        tau = np.zeros((len(times), self.n))
        for sid, value, path in self.explicit:
            tau[:, sid] += _sample(value, times, path)
        return tau

    def pin_targets(self, times: np.ndarray) -> np.ndarray:
        """Pin targets at each time, one row per time and one column per pin."""
        targets = np.empty((len(times), len(self.pins)))
        for c, (_, value, path) in enumerate(self.pins):
            targets[:, c] = _sample(value, times, path)
        return targets

    def pin_rates(self, times: np.ndarray) -> np.ndarray:
        """Pin target derivatives (for RK4), one row per time: a
        :class:`Series` gives the slope of the segment each time starts,
        any other function a central difference of half-width h."""
        h = 1e-7  # s
        rates = np.zeros((len(times), len(self.pins)))
        for c, (_, value, path) in enumerate(self.pins):
            if isinstance(value, Series):
                rates[:, c] = value.slope(times)
            elif callable(value):
                ahead, behind = _sample(value, times + h, path), _sample(value, times - h, path)
                rates[:, c] = (ahead - behind) / (2.0 * h)
            _require_finite_input(rates[:, c], times, f"{path} (its rate)")
        return rates

    def rates(self, v: np.ndarray, tau: np.ndarray, pin_rate: np.ndarray):
        """Acceleration at each state (row) of v, and the torque it answers
        to.

        ``tau`` and ``pin_rate`` are the sampled rows for the same times,
        ``tau`` with any resistive torque already added; it is left
        unchanged.
        """
        tau = tau - self.damping * v
        return tau @ self.G + pin_rate @ self.H.T, tau

    def rk4_map(self, dt: float) -> "_StepMap":
        """One RK4 step of ``dt`` as an affine map.

        It applies the stage formulas (:func:`_rk4_stages`) once, to one
        unit row per state entry, per sampled input and per resistive
        shaft and stage (the friction torque that stage adds there), and
        keeps the next state, the resistive shafts' speeds at stages 2 to
        4, and the torque the step applied.
        """
        n, m = self.n, len(self.pins)
        res = [sid for sid, _ in self.resistive]
        r = len(res)
        shafts = sorted({sid for sid, _, _ in self.explicit})
        width = len(shafts) + m  # the inputs sampled at one stage time
        first_torque = n + 3 * width  # the first friction unit row
        units = np.eye(first_torque + 4 * r)
        stages = []
        # start, middle (twice) and end of the step
        for k, at in enumerate((0, 1, 1, 2)):
            block = units[:, n + at * width : n + (at + 1) * width]
            tau = np.zeros((len(units), n))
            tau[:, shafts] = block[:, : len(shafts)]
            tau[:, res] += units[:, first_torque + k * r : first_torque + (k + 1) * r]
            stages.append((tau, block[:, len(shafts) :]))
        v = units[:, :n]
        k1, tau1 = self.rates(v, *stages[0])
        readout, end, speeds = _rk4_stages(self, dt, v, k1, tau1, stages[1:])
        step = np.hstack([(end @ self.N) @ self.N.T] + [u[:, res] for u in speeds])
        inputs = np.vstack([step[n:first_torque], np.hstack([self.B.T, np.zeros((m, 3 * r))])])
        friction = step[first_torque:]
        return _StepMap(
            phi=step[:n].T.copy(),
            inputs=inputs,
            shafts=shafts,
            torques=friction[:, :n].T.copy(),
            coupling=friction[:, n:],
            readout=readout,
        )

    def multipliers(self, alpha: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Multipliers solving A^T lambda = W alpha - tau, one row per row of alpha.

        Every step leaves W alpha - tau in the row space of A, so this
        least-squares solve is exact.
        """
        return (alpha * self.w - tau) @ self.A_pinv

    def initial_state(self) -> np.ndarray:
        if self.opts.initial == "rest":
            return np.zeros(self.n)
        return self.B @ self.pin_targets(np.zeros(1))[0]


@dataclass(frozen=True)
class _StepMap:
    """An RK4 step: the next state is ``phi @ v`` plus its forcing, plus
    ``torques`` times the friction torques of its four stages.

    With r resistive shafts, ``phi`` has 3r more rows than the state: the
    resistive shafts' speeds at stages 2, 3 and 4, before the friction
    torques of the stages before them.  ``coupling`` (4r rows, 3r columns)
    adds those: row ``k * r + j`` is what a unit torque on resistive shaft
    j at stage k + 1 adds to each stage speed.  It is zero from each
    stage's own torques on, since an explicit stage sees only the stages
    before it.

    The forcing is linear in the step's sampled inputs: the explicit
    torques on ``shafts`` and the pin rates at the start, middle and end of
    the step, then the end pin targets.  ``inputs`` has one row per input,
    in that order, holding what one unit of it adds to each row of ``phi``.
    The step torque, (tau1 + 2 tau2 + 2 tau3 + tau4) / 6, is ``readout``
    times the start state, those inputs but the end pin targets, and the
    4r friction torques, in that order.
    """

    phi: np.ndarray
    inputs: np.ndarray
    shafts: list[int]
    torques: np.ndarray
    coupling: np.ndarray
    readout: np.ndarray

    def _sampled(self, taus, rates) -> list[np.ndarray]:
        columns = []  # one per input, in the order of ``inputs``
        for tau, rate in zip(taus, rates):
            columns += [tau[:, self.shafts], rate]
        return columns

    def forcing(self, taus, rates, pins: np.ndarray) -> np.ndarray:
        """Each step's forcing, one row per row of ``pins``.

        ``taus`` and ``rates`` are the explicit torque and pin rate rows at
        the start, middle and end of the steps.  Each input adds its column
        times its row of ``inputs`` in turn, so a step's forcing has the
        same bits whether it is formed alone or with others.
        """
        u = np.hstack(self._sampled(taus, rates) + [pins])
        f = np.zeros((len(pins), self.phi.shape[0]))
        for c, row in enumerate(self.inputs):
            f += u[:, c, None] * row
        return f

    def step_torque(self, v, taus, rates, friction: np.ndarray) -> np.ndarray:
        """The torque each step from a row of v applied, given its inputs as
        for :meth:`forcing` and its 4r friction torques."""
        return np.hstack([v] + self._sampled(taus, rates) + [friction]) @ self.readout


def _rk4_stages(sys_: _Assembled, dt: float, v, k1, tau1, stages):
    """Stages 2-4 of RK4 steps launched from each row of v.

    ``k1`` and ``tau1`` are the first stage's rate and torque; ``stages``
    the (torque, pin rate) rows of stages 2, 3 and 4, each torque the
    explicit one plus any friction the stage adds.  Returns the torque
    each step applied, (tau1 + 2 tau2 + 2 tau3 + tau4) / 6, the end states
    before they are put back on the constraint set, and the states of
    stages 2-4.
    """
    u2 = v + 0.5 * dt * k1
    k2, tau2 = sys_.rates(u2, *stages[0])
    u3 = v + 0.5 * dt * k2
    k3, tau3 = sys_.rates(u3, *stages[1])
    u4 = v + dt * k3
    k4, tau4 = sys_.rates(u4, *stages[2])
    step_tau = (tau1 + 2.0 * tau2 + 2.0 * tau3 + tau4) / 6.0
    return step_tau, v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (u2, u3, u4)


# --------------------------------------------------------------------------
# Stepping and simulation
# --------------------------------------------------------------------------


def _friction(resistive: list[tuple[int, float]], v: np.ndarray) -> list[float]:
    """The resistive loads' torques at state v, one Python float per load."""
    return [-mag * math.tanh(v.item(sid) / OMEGA_EPS) for sid, mag in resistive]


def _euler(sys_: _Assembled, v: np.ndarray, times: np.ndarray):
    """Semi-implicit Euler from v at times[0], one step launched from each
    of ``times``; the last row's step gives its rate and is not kept.

    Returns omega, alpha, the torque each row's rate answers to, and the
    torque each step applied: the explicit torques, resistive included,
    and the viscous one at the step's end speed.
    """
    dt = sys_.dt
    tau = sys_.explicit_torques(times)
    # every step's pin term H @ p, for any number of pins, in one product
    # whose entries round as H @ p per step does; H @ p sums from +0.0, so
    # the + 0.0 turns any -0.0 entry into +0.0 as that sum does.  The term
    # is added even when it is zero
    pin_terms = sys_.pin_targets(times + dt) @ sys_.H.T + 0.0
    G, inertia, resistive = sys_.G, sys_.inertia, sys_.resistive
    states = np.empty((len(times) + 1, sys_.n))
    states[0] = v
    dt_tau = dt * tau
    for i, pin_term in enumerate(pin_terms):
        dt_row = dt_tau[i]
        # each entry rounds as the whole-row sum and product would
        for sid, mag in resistive:
            tau[i, sid] = total = tau.item(i, sid) - mag * math.tanh(v.item(sid) / OMEGA_EPS)
            dt_row[sid] = dt * total
        states[i + 1] = v = G.dot(inertia * v + dt_row) + pin_term
    omega = states[:-1]
    alpha = (states[1:] - omega) / dt
    step_tau = tau[:-1] - sys_.damping * states[1:-1]
    tau -= sys_.damping * omega
    return omega, alpha, tau, step_tau


def _rk4(sys_: _Assembled, v: np.ndarray, times: np.ndarray):
    """Classical RK4 from v at times[0]; the last row takes no step.

    Returns what :func:`_euler` returns, each step's torque being
    (tau1 + 2 tau2 + 2 tau3 + tau4) / 6.

    Every run steps by :meth:`_Assembled.rk4_map`, its forcing formed
    before the loop.  A step forms the map's linear part,
    w = phi @ v + f.  With no resistive load that is the next state, so
    the step is one matrix-vector product.  With r resistive loads, the
    last 3r rows of w are the stage 2-4 speeds of the resistive shafts; a
    stage's friction torques follow from its speeds and the torques of
    the stages before it, so the four stages are taken in turn, in
    Python floats, and the next state adds ``torques`` times all 4r.  The
    step torques are then read off the map, and the rates are taken over
    all states at once, with the recorded friction torques added.
    """
    dt = sys_.opts.dt
    starts = times[:-1]
    half, end = starts + 0.5 * dt, starts + dt
    tau0, rate0 = sys_.explicit_torques(times), sys_.pin_rates(times)
    tau_end, rate_end = sys_.explicit_torques(end), sys_.pin_rates(end)
    # the pin targets each step starts from and ends on, and the mid-stage
    # pin rate whose Simpson sum lands exactly on the end target
    targets = sys_.pin_targets(np.concatenate((times[:1], end)))
    pins = targets[1:]
    rate_half = (6.0 * (pins - targets[:-1]) / dt - rate0[:-1] - rate_end) / 4.0
    taus = (tau0[:-1], sys_.explicit_torques(half), tau_end)
    rates = (rate0[:-1], rate_half, rate_end)
    step_map = sys_.rk4_map(dt)
    forcing = step_map.forcing(taus, rates, pins)
    n, resistive = sys_.n, sys_.resistive
    r = len(resistive)
    phi, torques, tanh, mul = step_map.phi, step_map.torques, math.tanh, operator.mul
    # per stage 2-4 speed, in order: its row of w, its coupling to the
    # torques of the stages before it (the sum stops at its end, so no
    # stage reads its own torques), and its load's magnitude
    speed_rows = [
        (j, step_map.coupling[: (j // r + 1) * r, j].tolist(), resistive[j % r][1])
        for j in range(3 * r)
    ]
    omega = np.empty((len(times), n))
    omega[0] = v
    # one row per step: stage 1 on every resistive shaft, then stages 2-4
    friction = np.empty((len(starts), 4 * r))
    for i, f in enumerate(forcing):
        w = phi.dot(v) + f
        if r:
            speeds = w[n:].tolist()
            rho = _friction(resistive, v)
            for j, coupling, mag in speed_rows:
                rho.append(-mag * tanh((speeds[j] + sum(map(mul, coupling, rho))) / OMEGA_EPS))
            friction[i] = rho
            w = w[:n] + torques.dot(friction[i])
        omega[i + 1] = v = w
    del forcing
    # taus holds a view of tau0, so the step torques are read first; then
    # the start friction torques join the explicit ones, and the last row,
    # which takes no step, gets its own here
    step_tau = step_map.step_torque(omega[:-1], taus, rates, friction)
    res = [sid for sid, _ in resistive]
    tau0[:-1, res] += friction[:, :r]
    tau0[-1, res] += _friction(resistive, omega[-1])
    alpha, tau = sys_.rates(omega, tau0, rate0)
    return omega, alpha, tau, step_tau


def step(scenario: Scenario, v: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance one semi-implicit Euler step of ``scenario.options.dt`` from (v, t).

    Returns (v_next, alpha, multipliers).  A convenience wrapper over the
    machinery :func:`simulate` uses; it re-assembles per call, so prefer
    :func:`simulate` for long runs.
    """
    scenario.validate()
    dt = scenario.options.dt
    sys_ = _Assembled(scenario, dt)
    omega, alpha, tau, _ = _euler(sys_, np.asarray(v, dtype=float), np.array([t, t + dt]))
    return omega[1], alpha[0], sys_.multipliers(alpha[0], tau[0])


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

    n_steps = round(opts.duration / dt)
    try:
        times = np.arange(n_steps + 1) * dt
        v = sys_.initial_state()
        with np.errstate(all="ignore"):  # a diverging run is reported below
            omega, alpha, tau, step_tau = (_euler if euler else _rk4)(sys_, v, times)
            # each step's pin reactions, from A^T lambda = M (v1 - v0) / dt - step torque
            secant = (omega[1:] - omega[:-1]) / dt
            step_tau[:, [sid for sid, _, _ in sys_.pins]] += (
                secant * sys_.inertia - step_tau
            ) @ sys_.B
        _require_finite(times, omega, alpha)
        multipliers = sys_.multipliers(alpha, tau)
    except MemoryError:
        # what the trajectory holds per time: t, omega, alpha, the
        # multipliers and the step torques
        row_bytes = 8 * (1 + 3 * sys_.n + sys_.A.shape[0])
        raise ScenarioError(
            f"sim.dt: {dt} over sim.duration {opts.duration} is {n_steps} steps, whose "
            f"trajectory needs about {row_bytes * (n_steps + 1):.3g} bytes; there is not "
            "enough memory for it"
        ) from None
    return Trajectory(
        scenario=scenario,
        t=times,
        omega=omega,
        alpha=alpha,
        multipliers=multipliers,
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
    held: tuple[str, ...] | list[str] = (),
) -> np.ndarray:
    """Instantaneous accelerations from rest under a unit of applied torque.

    Args:
        graph: validated mechanism graph.
        shaft: name of the shaft receiving the 1 N*m torque.
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
        drive=Drive.torque(1.0, shaft=shaft),
        loads={name: Locked() for name in held},
    )
    probe.validate()
    sys_ = _Assembled(probe, None)
    at_zero = np.zeros(1)
    alpha, _ = sys_.rates(
        np.zeros(graph.n_shafts), sys_.explicit_torques(at_zero)[0], sys_.pin_rates(at_zero)[0]
    )
    return alpha
