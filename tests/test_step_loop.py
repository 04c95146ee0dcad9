"""The step loop against a per-step reference, bit for bit.

:func:`gearnet.dynamics.simulate` samples every time-only input (source
and applied torques, pin targets and their rates) once, on all the times
the integrator visits, before the loop.  ``reference_simulate`` below is
the loop it replaced, which called each input on every step and RK4
stage, with the RK4 mid-stage pin rate that lands each step on its next
target, and with a tabulated target's rate at t taken as the slope of the
segment that starts at t.  The two share only the assembled operators
(G, H, N, B and the weights), and must produce the same bits.
"""

import bisect
import math

import numpy as np
import pytest

from gearnet.builders import build_two_output_diff
from gearnet.dynamics import Drive, Scenario, Series, SimOptions, _Assembled, simulate
from gearnet.errors import NonFiniteState
from gearnet.mechanism import OMEGA_EPS, AppliedTorque, ConstantResistive, Locked, Viscous
from gearnet.scenario_io import parse_scenario


class _ReferenceLoop:
    """Per-call inputs and steps: every input function is called each time."""

    def __init__(self, scenario: Scenario, dt):
        g = scenario.graph
        self.ops = _Assembled(scenario, dt)
        self.dt = dt
        drive = scenario.drive
        drive_sid = g.shaft_id(scenario.drive_shaft())
        self.effort = [(drive_sid, drive.value_at)] if drive.mode == "torque" else []
        self.applied, self.resistive, self.pins = [], [], []
        for name, load in scenario.loads.items():
            sid = g.shaft_id(name)
            if isinstance(load, AppliedTorque):
                self.applied.append((sid, load))
            elif isinstance(load, ConstantResistive):
                self.resistive.append((sid, load.tau))
            elif isinstance(load, Locked):
                self.pins.append((sid, lambda t: 0.0))
        self.drive_series = None  # the only pin that can be tabulated, pinned last
        if drive.mode == "velocity":
            self.pins.append((drive_sid, drive.value_at))
            if isinstance(drive.value, Series):
                self.drive_series = drive.value

    def tau_explicit(self, v, t):
        tau = np.zeros(self.ops.n)
        for sid, fn in self.effort:
            tau[sid] += fn(t)
        for sid, load in self.applied:
            tau[sid] += load.value(t)
        for sid, mag in self.resistive:
            tau[sid] += -mag * math.tanh(v[sid] / OMEGA_EPS)
        return tau

    def pin_targets(self, t):
        return np.array([target(t) for _, target in self.pins], dtype=float)

    def pin_rates(self, t, h=1e-7):
        rates = [(target(t + h) - target(t - h)) / (2.0 * h) for _, target in self.pins]
        if self.drive_series is not None:
            rates[-1] = _segment_slope(self.drive_series, t)
        return np.array(rates, dtype=float)

    def euler_step(self, v, t):
        ops = self.ops
        tau = self.tau_explicit(v, t)
        v_next = ops.G @ (ops.inertia * v + self.dt * tau) + ops.H @ self.pin_targets(t + self.dt)
        return v_next, tau - ops.damping * v

    def rate(self, v, t, pin_rate=None):
        tau = self.tau_explicit(v, t) - self.ops.damping * v
        pin_rate = self.pin_rates(t) if pin_rate is None else pin_rate
        return self.ops.G @ tau + self.ops.H @ pin_rate, tau

    def rk4_step(self, v, t, dt, k1, p_start):
        """One step from the state projected onto ``p_start``; returns the
        next state and the target it is projected onto."""
        p_end = self.pin_targets(t + dt)
        # the mid-stage pin rate whose Simpson sum lands exactly on p_end
        r_half = (6.0 * (p_end - p_start) / dt - self.pin_rates(t) - self.pin_rates(t + dt)) / 4.0
        k2, _ = self.rate(v + 0.5 * dt * k1, t + 0.5 * dt, r_half)
        k3, _ = self.rate(v + 0.5 * dt * k2, t + 0.5 * dt, r_half)
        k4, _ = self.rate(v + dt * k3, t + dt)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return self.ops.N @ (self.ops.N.T @ v) + self.ops.B @ p_end, p_end


def _segment_slope(series: Series, t: float) -> float:
    """Slope of the segment [t_k, t_k+1) that holds t; 0 outside the table."""
    k = bisect.bisect_right(series.times.tolist(), t) - 1
    if 0 <= k < len(series.times) - 1:
        dv = series.values[k + 1] - series.values[k]
        return dv / (series.times[k + 1] - series.times[k])
    return 0.0


def reference_simulate(scenario: Scenario) -> dict[str, np.ndarray]:
    opts = scenario.options
    dt = opts.dt
    euler = opts.integrator == "semi_implicit_euler"
    ref = _ReferenceLoop(scenario, dt if euler else None)
    n_steps = max(1, int(round(opts.duration / dt)))
    times = np.arange(n_steps + 1) * dt
    p_start = ref.pin_targets(0.0)
    v = np.zeros(ref.ops.n) if opts.initial == "rest" else ref.ops.B @ p_start
    omega = np.empty((n_steps + 1, ref.ops.n))
    alpha = np.empty_like(omega)
    tau = np.empty_like(omega)
    for i, t in enumerate(times):
        omega[i] = v
        if euler:
            v_next, tau[i] = ref.euler_step(v, t)
            alpha[i] = (v_next - v) / dt
        else:
            alpha[i], tau[i] = ref.rate(v, t)
            if i < n_steps:
                v_next, p_start = ref.rk4_step(v, t, dt, alpha[i], p_start)
        v = v_next
    lam = ref.ops.multipliers(alpha, tau)
    out = {"omega": omega, "alpha": alpha, "multipliers": lam}
    for r, e in enumerate(scenario.graph.elements):
        out[e.name] = lam[:, [r]] * [coeff for _, coeff in e.row_entries()]
    if scenario.drive.mode == "torque":
        out["drive"] = np.array([scenario.drive.value_at(t) for t in times], dtype=float)
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
            "drive": traj.drive_torque, **ports}


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


def _scenario(doc: dict, integrator: str) -> Scenario:
    dt = 1e-4 if integrator == "semi_implicit_euler" else 2e-4
    sim = {"duration": 0.02, "dt": dt, "integrator": integrator, **doc.get("sim", {})}
    return parse_scenario({**doc, "sim": sim}).scenario


# rk4 rejects a rest start with a nonzero prescribed speed
REFERENCE_RUNS = [
    (case, integrator)
    for case in CASES
    for integrator in ("semi_implicit_euler", "rk4")
    if (case, integrator) != ("velocity-rest", "rk4")
]


@pytest.mark.parametrize("case, integrator", REFERENCE_RUNS)
def test_simulate_matches_per_step_reference(case, integrator):
    scn = _scenario(CASES[case], integrator)
    assert_same_bits(recorded(scn), reference_simulate(scn))


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
    scn = Scenario(
        graph=build_two_output_diff(),
        drive=Drive.torque(1.0),
        loads={"side_a": Viscous(1000.0)},
        options=SimOptions(duration=0.05, dt=1e-3, integrator="rk4"),
    )
    with pytest.raises(NonFiniteState) as info:
        simulate(scn)
    assert info.value.step == 30
    assert info.value.time == pytest.approx(0.03)
