"""The step loop against a per-step reference.

:func:`gearnet.dynamics.simulate` samples every time-only input (source
and applied torques, pin targets and their rates) once, on all the times
the integrator visits, before the loop.  ``reference_simulate`` below is
the loop it replaced, which called each input on every step and RK4
stage, with the RK4 mid-stage pin rate that lands each step on its next
target, and with a tabulated target's rate at t taken as the slope of the
segment that starts at t.  The two share only the assembled operators
(G, H, N, B, the weights and the RK4 step map), and must produce the
same bits.

An RK4 run steps by that map, its forcing formed from the step's sampled
inputs; with a resistive load the reference takes each stage's friction
torque per call, from the stage speeds the map gives, in the same order
as the run.  The torque each step applied is the map's readout of the
step's start state, inputs and friction torques.  Against the textbook four-stage loop, which the reference
also runs, the map agrees to round-off while the friction shafts slip,
or creep within OMEGA_EPS of 0 rad/s where the explicit step is stable;
where it is not, the friction chatters and amplifies round-off, so there
the two differ by more.
"""

import bisect
import math

import numpy as np
import pytest

from gearnet.builders import BUILDERS, build_two_output_diff
from gearnet.dynamics import Drive, Scenario, Series, SimOptions, _Assembled, simulate
from gearnet.errors import NonFiniteState
from gearnet.mechanism import OMEGA_EPS, AppliedTorque, ConstantResistive, Locked, Viscous
from gearnet.scenario_io import parse_scenario


def value_at(value, t):
    """A constant input, or a callable one called at t."""
    return value(t) if callable(value) else value


class _ReferenceLoop:
    """Per-call inputs and steps: every input function is called each time."""

    def __init__(self, scenario: Scenario, dt):
        g = scenario.graph
        self.ops = _Assembled(scenario, dt)
        self.dt = dt
        drive = scenario.drive
        drive_sid = g.shaft_id(scenario.drive_shaft())
        self.effort = [(drive_sid, drive.value)] if drive.mode == "torque" else []
        self.resistive, self.pins = [], []
        for name, load in scenario.loads.items():
            sid = g.shaft_id(name)
            if isinstance(load, AppliedTorque):
                self.effort.append((sid, load.tau))
            elif isinstance(load, ConstantResistive):
                self.resistive.append((sid, load.tau))
            elif isinstance(load, Locked):
                self.pins.append((sid, 0.0))
        self.drive_series = None  # the only pin that can be tabulated, pinned last
        if drive.mode == "velocity":
            self.pins.append((drive_sid, drive.value))
            if isinstance(drive.value, Series):
                self.drive_series = drive.value

    def tau_explicit(self, v, t):
        """The explicit torques at t, plus the friction at state v unless v is None."""
        tau = np.zeros(self.ops.n)
        for sid, value in self.effort:
            tau[sid] += value_at(value, t)
        if v is not None:
            for sid, mag in self.resistive:
                tau[sid] += -mag * math.tanh(v[sid] / OMEGA_EPS)
        return tau

    def friction(self, speeds):
        """The resistive torques at the given speeds of the resistive shafts."""
        return [-mag * math.tanh(s / OMEGA_EPS) for (_, mag), s in zip(self.resistive, speeds)]

    def pin_targets(self, t):
        return np.array([value_at(target, t) for _, target in self.pins], dtype=float)

    def pin_rates(self, t, h=1e-7):
        rates = [
            (value_at(target, t + h) - value_at(target, t - h)) / (2.0 * h)
            for _, target in self.pins
        ]
        if self.drive_series is not None:
            rates[-1] = _segment_slope(self.drive_series, t)
        return np.array(rates, dtype=float)

    def euler_step(self, v, t):
        """The next state, the torque the row's rate answers to, and the
        torque the step applied (viscous at the end speed)."""
        ops = self.ops
        tau = self.tau_explicit(v, t)
        v_next = ops.G @ (ops.inertia * v + self.dt * tau) + ops.H @ self.pin_targets(t + self.dt)
        return v_next, tau - ops.damping * v, tau - ops.damping * v_next

    def rate(self, v, t, pin_rate=None):
        tau = self.tau_explicit(v, t) - self.ops.damping * v
        pin_rate = self.pin_rates(t) if pin_rate is None else pin_rate
        return self.ops.G @ tau + self.ops.H @ pin_rate, tau

    def _half_rate(self, t, dt, p_start, p_end):
        """The mid-stage pin rate whose Simpson sum lands exactly on p_end."""
        return (6.0 * (p_end - p_start) / dt - self.pin_rates(t) - self.pin_rates(t + dt)) / 4.0

    def rk4_step(self, v, t, dt, k1, tau1, p_start):
        """One textbook step from the state projected onto ``p_start``;
        returns the next state, the target it is projected onto, and the
        torque the step applied."""
        p_end = self.pin_targets(t + dt)
        r_half = self._half_rate(t, dt, p_start, p_end)
        k2, tau2 = self.rate(v + 0.5 * dt * k1, t + 0.5 * dt, r_half)
        k3, tau3 = self.rate(v + 0.5 * dt * k2, t + 0.5 * dt, r_half)
        k4, tau4 = self.rate(v + dt * k3, t + dt)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        step_tau = (tau1 + 2.0 * tau2 + 2.0 * tau3 + tau4) / 6.0
        return self.ops.N @ (self.ops.N.T @ v) + self.ops.B @ p_end, p_end, step_tau

    def rk4_map_step(self, step_map, v, t, dt, p_start):
        """One step by the shared step map, its forcing formed from this
        step's per-call inputs and its stage friction torques taken per call
        from the stage speeds the map gives; returns the next state, its
        target, its explicit torque and pin rate rows at the start, middle
        and end of the step, and the friction torques of its four stages."""
        n, r = self.ops.n, len(self.resistive)
        p_end = self.pin_targets(t + dt)
        start = self.tau_explicit(None, t), self.pin_rates(t)
        half = self.tau_explicit(None, t + 0.5 * dt), self._half_rate(t, dt, p_start, p_end)
        end = self.tau_explicit(None, t + dt), self.pin_rates(t + dt)
        taus, rates = ([row[None] for row in rows] for rows in zip(start, half, end))
        forcing = step_map.forcing(taus, rates, p_end[None])[0]
        w = step_map.phi @ v + forcing
        rho = self.friction([v[sid] for sid, _ in self.resistive])
        for stage in range(3):
            speeds = []
            for j in range(stage * r, (stage + 1) * r):
                coupling = step_map.coupling[: len(rho), j].tolist()
                speeds.append(w[n + j] + sum(c * x for c, x in zip(coupling, rho)))
            rho += self.friction(speeds)
        return w[:n] + step_map.torques @ np.array(rho), p_end, (taus, rates), rho


def _segment_slope(series: Series, t: float) -> float:
    """Slope of the segment [t_k, t_k+1) that holds t; 0 outside the table."""
    k = bisect.bisect_right(series.times.tolist(), t) - 1
    if 0 <= k < len(series.times) - 1:
        dv = series.values[k + 1] - series.values[k]
        return dv / (series.times[k + 1] - series.times[k])
    return 0.0


def _rates(ops: _Assembled, v, tau, pin_rate):
    """The RK4 rate at each state (row) of v; ``tau`` holds any friction."""
    tau = tau - ops.damping * v
    return tau @ ops.G + pin_rate @ ops.H.T, tau


def reference_simulate(scenario: Scenario, step_map: bool = True) -> dict[str, np.ndarray]:
    """The per-call run.  An RK4 run steps by the shared step map, unless
    ``step_map`` is False: then it takes the textbook four stages per
    step."""
    opts = scenario.options
    dt = opts.dt
    euler = opts.integrator == "semi_implicit_euler"
    ref = _ReferenceLoop(scenario, dt if euler else None)
    ops = ref.ops
    by_map = not euler and step_map
    n_steps = max(1, int(round(opts.duration / dt)))
    times = np.arange(n_steps + 1) * dt
    p_start = ref.pin_targets(0.0)
    v = np.zeros(ops.n) if opts.initial == "rest" else ops.B @ p_start
    omega = np.empty((n_steps + 1, ops.n))
    alpha = np.empty_like(omega)
    tau = np.empty_like(omega)
    step_tau = np.empty((n_steps, ops.n))
    # by the step map: each row's pin rate, each step's start, middle and
    # end input rows and the friction torques of its stages
    start_rates, input_rows, frictions = [], [], []
    stepper = ops.rk4_map(dt) if by_map else None
    for i, t in enumerate(times):
        omega[i] = v
        if euler:
            v_next, tau[i], applied = ref.euler_step(v, t)
            alpha[i] = (v_next - v) / dt
            if i < n_steps:
                step_tau[i] = applied
        elif by_map:
            # alpha and tau are taken from the start rows after the loop
            tau[i] = ref.tau_explicit(v, t)
            start_rates.append(ref.pin_rates(t))
            if i < n_steps:
                v_next, p_start, rows, rho = ref.rk4_map_step(stepper, v, t, dt, p_start)
                input_rows.append(rows)
                frictions.append(rho)
        else:
            alpha[i], tau[i] = ref.rate(v, t)
            if i < n_steps:
                v_next, p_start, step_tau[i] = ref.rk4_step(v, t, dt, alpha[i], tau[i], p_start)
        v = v_next
    if by_map:
        # the step torque is the map's readout of each step's start state,
        # inputs and friction torques
        taus, rates = ([np.vstack(stage) for stage in zip(*rows)] for rows in zip(*input_rows))
        rho = np.array(frictions).reshape(n_steps, 4 * len(ref.resistive))
        step_tau = stepper.step_torque(omega[:-1], taus, rates, rho)
        alpha, tau = _rates(ops, omega, tau, np.array(start_rates))
    # each step's pin reactions, from A^T lambda = M (v1 - v0) / dt - step torque
    secant = (omega[1:] - omega[:-1]) / dt
    step_tau[:, [sid for sid, _ in ref.pins]] += (secant * ops.inertia - step_tau) @ ops.B
    lam = ops.multipliers(alpha, tau)
    out = {"omega": omega, "alpha": alpha, "multipliers": lam, "step_torque": step_tau}
    for r, e in enumerate(scenario.graph.elements):
        out[e.name] = lam[:, [r]] * [coeff for _, _, coeff in e.row()]
    if scenario.drive.mode == "torque":
        out["drive"] = np.array([value_at(scenario.drive.value, t) for t in times], dtype=float)
    else:
        out["drive"] = lam[:, -1].copy()
    return out


def recorded(scenario: Scenario) -> dict[str, np.ndarray]:
    traj = simulate(scenario)
    ports = {
        e.name: np.column_stack([traj.port_torque(e.name, port) for port, _ in e.ports()])
        for e in scenario.graph.elements
    }
    return {"omega": traj.omega, "alpha": traj.alpha, "multipliers": traj.multipliers,
            "step_torque": traj.step_torque, "drive": traj.drive_torque, **ports}


def assert_same_bits(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].shape == want[key].shape, key
        assert np.array_equal(got[key].view(np.int64), want[key].view(np.int64)), key


SERIES = [[0.0, 1.0], [0.007, 2.5], [0.013, -0.5], [0.05, 1.5]]

CASES = {
    "velocity-series": {
        "mechanism": {"builder": "3ood"},
        "drive": {"mode": "velocity", "series": [[0.0, 10.0], [0.011, 25.0], [0.03, 18.0]]},
        "loads": {
            "O1": {"kind": "viscous", "b": 0.8},
            "O2": {"kind": "resistive", "tau": 0.4},
            "O3": {"kind": "applied_torque", "series": [[0.0, -0.2], [0.009, -1.0]]},
        },
    },
    "torque-series-rest": {
        "mechanism": {"builder": "2od"},
        "drive": {"mode": "torque", "series": SERIES},
        "loads": {"side_a": {"kind": "viscous", "b": 0.5}, "side_b": {"kind": "resistive", "tau": 0.3}},
        "sim": {"initial": "rest"},
    },
    "locked-torque-source": {
        "mechanism": {"builder": "3ood"},
        "drive": {"mode": "input_locked", "source": {"shaft": "O1", "kind": "torque", "series": SERIES}},
        "loads": {"O2": {"kind": "viscous", "b": 1.0}, "O3": {"kind": "applied_torque", "tau": -0.1}},
    },
    "locked-velocity-source": {
        "mechanism": {"builder": "3ood"},
        "drive": {"mode": "input_locked", "source": {"shaft": "O2", "kind": "velocity", "value": 3.0}},
        "loads": {"O1": {"kind": "resistive", "tau": 0.2}, "O3": {"kind": "viscous", "b": 0.5}},
    },
    "velocity-rest": {
        "mechanism": {"builder": "2-2d"},
        "drive": {"mode": "velocity", "value": 5.0},
        "loads": {},
        "sim": {"initial": "rest"},
    },
}

# two pins over 10^4 Euler steps, where BLAS threads the product that forms
# every step's pin term
CASES["locked-velocity-source-long"] = {**CASES["locked-velocity-source"], "sim": {"duration": 1.0}}


def _scenario(doc: dict, integrator: str) -> Scenario:
    dt = 1e-4 if integrator == "semi_implicit_euler" else 2e-4
    sim = {"duration": 0.02, "dt": dt, "integrator": integrator, **doc.get("sim", {})}
    return parse_scenario({**doc, "sim": sim}).scenario


# rk4 rejects a rest start with a nonzero prescribed speed; the long run
# is there for Euler's pin term
REFERENCE_RUNS = [
    (case, integrator)
    for case in CASES
    for integrator in ("semi_implicit_euler", "rk4")
    if (case, integrator) not in {("velocity-rest", "rk4"), ("locked-velocity-source-long", "rk4")}
]


@pytest.mark.parametrize("case, integrator", REFERENCE_RUNS)
def test_simulate_matches_per_step_reference(case, integrator):
    scn = _scenario(CASES[case], integrator)
    assert_same_bits(recorded(scn), reference_simulate(scn))


TORQUE_SERIES = {"mode": "torque", "series": [[0.0, 0.5], [0.006, 2.0], [0.015, 1.0]]}
VELOCITY_SERIES = {"mode": "velocity", "series": [[0.0, 4.0], [0.007, 9.0], [0.014, 6.0]]}
INLINE = {
    "shafts": [
        {"name": "motor", "inertia": 0.6, "role": "input"},
        {"name": "lay", "inertia": 0.3},
        {"name": "carrier", "inertia": 1.2},
        {"name": "left", "inertia": 0.8, "role": "output"},
        {"name": "right", "inertia": 0.5, "role": "output"},
    ],
    "elements": [
        {"kind": "fixed_ratio", "ports": {"a": "motor", "b": "lay"}, "params": {"ratio": 1.5}},
        {"kind": "worm_pair", "ports": {"worm": "lay", "wheel": "carrier"}, "params": {"ratio_k": 4.0}},
        {"kind": "differential", "ports": {"ring": "carrier", "side_a": "left", "side_b": "right"}},
    ],
    "external": ["motor", "left", "right"],
}


APPLIED_SERIES = {"kind": "applied_torque", "series": [[0.0, -0.1], [0.009, -0.6], [0.02, -0.2]]}


def _linear_loads(outputs) -> dict:
    """Viscous and a series applied torque, in turn, on the outputs."""
    kinds = [{"kind": "viscous", "b": 0.8}, APPLIED_SERIES]
    return {o: kinds[i % 2] for i, o in enumerate(outputs)}


def _linear_cases() -> dict:
    # (mechanism, its outputs, the drive's fields beside the input)
    mechanisms = {
        name: ({"builder": name}, BUILDERS[name]().meta["outputs"], {}) for name in BUILDERS
    }
    mechanisms["inline"] = ({"inline": INLINE}, ["left", "right"], {"shaft": "motor"})
    cases = {
        f"{name}-{kind}": {
            "mechanism": mechanism, "drive": {**drive, **shaft}, "loads": _linear_loads(outputs)
        }
        for name, (mechanism, outputs, shaft) in mechanisms.items()
        for kind, drive in (("torque", TORQUE_SERIES), ("velocity", VELOCITY_SERIES))
    }
    locked = {"input": {"kind": "locked"}, "O2": {"kind": "viscous", "b": 1.0}}
    cases["3ood-locked-torque"] = {
        "mechanism": {"builder": "3ood"}, "drive": dict(TORQUE_SERIES, shaft="O1"), "loads": locked,
    }
    cases["3ood-locked-velocity"] = {
        "mechanism": {"builder": "3ood"}, "drive": dict(VELOCITY_SERIES, shaft="O1"), "loads": locked,
    }
    cases["2od-torque-rest"] = {**cases["2od-torque"], "sim": {"initial": "rest"}}
    return cases


def _friction_cases() -> dict:
    """Runs with 1, 2 and 3 resistive shafts, each in one of two regimes.

    Under a velocity drive well above 0 rad/s the shafts slip throughout:
    there tanh is +-1 to the last bit, so the friction torque is the same
    at every stage.  Under a small torque drive with small friction they
    creep within OMEGA_EPS of 0 rad/s: there each stage's torque follows
    its own speed, which carries the torques of the stages before it, and
    the explicit step is stable, since dt * tau / (OMEGA_EPS * inertia) is
    small.
    """
    resistive = lambda tau: {"kind": "resistive", "tau": tau}  # noqa: E731
    viscous = lambda b: {"kind": "viscous", "b": b}  # noqa: E731
    small = lambda k: {  # noqa: E731
        "mode": "torque", "series": [[t, k * v] for t, v in TORQUE_SERIES["series"]]
    }
    return {
        "2od-slipping": {
            "mechanism": {"builder": "2od"}, "drive": VELOCITY_SERIES,
            "loads": {"side_a": resistive(0.3), "side_b": viscous(0.8)},
        },
        "2-2d-slipping": {
            "mechanism": {"builder": "2-2d"}, "drive": VELOCITY_SERIES,
            "loads": {"A": resistive(0.2), "B": viscous(0.5), "C": resistive(0.4),
                      "D": APPLIED_SERIES},
        },
        "3ood-slipping": {
            "mechanism": {"builder": "3ood"}, "drive": VELOCITY_SERIES,
            "loads": {o: resistive(tau) for o, tau in (("O1", 0.02), ("O2", 0.03), ("O3", 0.025))},
        },
        "2od-creeping": {
            "mechanism": {"builder": "2od"}, "drive": small(1e-5),
            "loads": {"side_a": resistive(1e-5), "side_b": viscous(0.01)},
        },
        "2-2d-creeping": {
            "mechanism": {"builder": "2-2d"}, "drive": small(1e-3),
            "loads": {"A": resistive(1e-3), "B": viscous(0.5), "C": resistive(2e-3), "D": viscous(0.5)},
        },
        "3ood-creeping": {
            "mechanism": {"builder": "3ood"}, "drive": small(1e-5),
            "loads": {o: resistive(tau) for o, tau in (("O1", 1e-5), ("O2", 2e-5), ("O3", 1.5e-5))},
        },
        # 4500 steps: the step torque readout holds over a long run with friction
        "2od-long-slipping": {
            "mechanism": {"builder": "2od"}, "drive": VELOCITY_SERIES,
            "loads": {"side_a": resistive(0.3), "side_b": viscous(0.8)}, "sim": {"duration": 0.9},
        },
    }


LINEAR_CASES = _linear_cases()
FRICTION_CASES = _friction_cases()


@pytest.mark.parametrize("case", [*LINEAR_CASES, *FRICTION_CASES])
def test_linear_rk4_map_matches_the_stage_loop(case):
    doc = {**LINEAR_CASES, **FRICTION_CASES}[case]
    scn = _scenario(doc, "rk4")
    got, want = recorded(scn), reference_simulate(scn, step_map=False)
    for key in ("omega", "alpha", "multipliers", "step_torque"):
        scale = np.max(np.abs(want[key]))
        assert np.max(np.abs(got[key] - want[key])) <= 1e-12 * scale, key
    # each friction case stays in its regime; near 0 rad/s but outside the
    # creeping one, the friction chatters and amplifies round-off
    speeds = np.abs(got["omega"][:, [
        scn.graph.shaft_id(name) for name, load in doc["loads"].items()
        if load["kind"] == "resistive"
    ]])
    if case.endswith("-slipping"):
        assert np.min(speeds) > 1e3 * OMEGA_EPS
    elif case.endswith("-creeping"):
        assert np.max(speeds) < OMEGA_EPS


@pytest.mark.parametrize("integrator", ["semi_implicit_euler", "rk4"])
def test_plain_function_and_series_give_the_same_run(integrator):
    times = np.array([t for t, _ in SERIES])
    values = np.array([v for _, v in SERIES])

    def run(make):
        return recorded(
            Scenario(
                graph=build_two_output_diff(side_inertia=0.5),
                drive=Drive.torque(make()),
                loads={"side_a": Viscous(0.5), "side_b": AppliedTorque(make())},
                options=SimOptions(duration=0.02, dt=2e-4, integrator=integrator),
            )
        )

    assert_same_bits(
        run(lambda: lambda t: float(np.interp(t, times, -values))),
        run(lambda: Series(times, -values)),
    )


@pytest.mark.parametrize("integrator", ["semi_implicit_euler", "rk4"])
def test_series_inputs_are_sampled_per_grid_not_per_step(integrator, monkeypatch):
    calls = 0
    interp = np.interp

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return interp(*args, **kwargs)

    monkeypatch.setattr(np, "interp", counting)
    counts = []
    for duration in (0.01, 0.04):
        scn = _scenario({**CASES["velocity-series"], "sim": {"duration": duration}}, integrator)
        calls = 0
        simulate(scn)
        counts.append(calls)
    # two series (drive speed, applied load), each interpolated once per
    # grid: under rk4 up to 3 torque grids and 2 pin grids (a series' pin
    # rates are its segment slopes, looked up without interpolating)
    assert counts[0] == counts[1] <= 16


def test_diverging_run_raises_non_finite_state():
    # the second run's friction recurrences meet inf and then nan speeds:
    # Python floats take them without raising, and the run stops at the
    # first non-finite row, as the textbook loop's first non-finite row is
    for loads in (
        {"side_a": Viscous(1000.0)},
        {"side_a": Viscous(1000.0), "side_b": ConstantResistive(0.5)},
    ):
        scn = Scenario(
            graph=build_two_output_diff(),
            drive=Drive.torque(1.0),
            loads=loads,
            options=SimOptions(duration=0.05, dt=1e-3, integrator="rk4"),
        )
        with pytest.raises(NonFiniteState) as info:
            simulate(scn)
        assert info.value.step == 30
        assert info.value.time == pytest.approx(0.03)
