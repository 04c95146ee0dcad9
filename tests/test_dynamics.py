"""Constrained integration: stepping, trajectories, torque recovery."""

import math

import numpy as np
import pytest

from conftest import canonical_equal_load_scenario, random_tree_scenario

from gearnet.builders import build_2_2d, build_3ood, build_two_output_diff
from gearnet.dynamics import (
    Drive,
    Scenario,
    Series,
    SimOptions,
    impulse_response,
    simulate,
    step,
)
from gearnet.errors import ScenarioError, SingularKKT
from gearnet.kinematics import constraint_matrix
from gearnet.penalty import penalty_velocities
from gearnet.mechanism import (
    AppliedTorque,
    ConstantResistive,
    Locked,
    MechanismGraph,
    RigidCoupling,
    Viscous,
)


def test_constraints_hold_at_every_step():
    # Every state is rebuilt on the constraint set, so |C @ omega| stays
    # at round-off over the whole canonical run instead of drifting.
    scn = canonical_equal_load_scenario()
    traj = simulate(scn)
    C = constraint_matrix(scn.graph)
    assert np.max(np.abs(C @ traj.omega.T)) < 1e-13
    assert np.max(np.abs(C @ traj.alpha.T)) < 1e-8


def test_step_matches_simulate():
    scn = canonical_equal_load_scenario(duration=0.01)
    traj = simulate(scn)
    v_next, alpha, _ = step(scn, traj.omega[0], traj.t[0])
    assert np.allclose(alpha, traj.alpha[0], atol=1e-12)
    assert np.allclose(v_next, traj.omega[1], atol=1e-12)


def test_equal_loads_reach_balanced_speeds():
    traj = simulate(canonical_equal_load_scenario())
    final = traj.final_state()
    for name in ("O1", "O2", "O3"):
        assert final[name] == pytest.approx(2.0, abs=1e-9)


def test_velocity_drive_from_rest_spins_up_in_one_step():
    scn = canonical_equal_load_scenario(duration=0.01, initial="rest")
    traj = simulate(scn)
    assert traj.omega_of("input")[0] == 0.0
    assert traj.omega_of("input")[1] == pytest.approx(20.0, abs=1e-9)


def test_element_power_is_conjugate_along_trajectory():
    # Lossless elements: recorded port torques do no net work on any
    # feasible velocity pattern, at every time point.
    rng = np.random.default_rng(3)
    scn = random_tree_scenario(rng, duration=0.05)
    traj = simulate(scn)
    for e in scn.graph.elements:
        power = np.zeros(len(traj.t))
        for port, sid in e.ports():
            power += traj.port_torque(e.name, port) * traj.omega_of(scn.graph.shaft_name(sid))
        scale = max(1.0, np.max(np.abs(power)))
        assert np.max(np.abs(power)) / max(scale, 1.0) < 1e-8 or np.max(np.abs(power)) < 1e-8


def test_torque_driven_reaches_analytic_steady_state():
    # Input effort tau_e against viscous b on each output: the effective
    # drag seen by the input is 3*b*j^2/k^2, so omega_in -> tau_e / that.
    g = build_3ood()
    k = g.meta["ratio_k"]
    j = g.meta["ratio_j"]
    tau_e, b = 3.0, 1.0
    scn = Scenario(
        graph=g,
        drive=Drive.torque(tau_e),
        loads={n: Viscous(b) for n in g.meta["outputs"]},
        options=SimOptions(duration=0.6, dt=1e-4, initial="rest"),
    )
    traj = simulate(scn)
    w_in = traj.omega_of("input")[-1]
    assert w_in == pytest.approx(tau_e * k * k / (3.0 * b * j * j), rel=1e-4)
    for n in g.meta["outputs"]:
        assert traj.omega_of(n)[-1] == pytest.approx(j * w_in / k, rel=1e-6)


def test_locked_input_recirculates_output_motion():
    g = build_3ood()
    scn = Scenario(
        graph=g,
        drive=Drive.velocity(3.0, shaft="O1"),
        loads={"input": Locked(), "O2": Viscous(1.0), "O3": Viscous(1.0)},
        options=SimOptions(duration=0.3, dt=1e-4),
    )
    traj = simulate(scn)
    assert np.max(np.abs(traj.omega_of("input"))) < 1e-12
    assert traj.omega_of("O2")[-1] == pytest.approx(-1.5, abs=1e-6)
    assert traj.omega_of("O3")[-1] == pytest.approx(-1.5, abs=1e-6)


def test_rk4_and_euler_agree_when_converged():
    rng = np.random.default_rng(11)
    scn = random_tree_scenario(rng, duration=0.05)
    euler = Scenario(
        graph=scn.graph,
        drive=scn.drive,
        loads=scn.loads,
        options=SimOptions(duration=0.05, dt=2e-5),
    )
    v_rk4 = simulate(scn).omega[-1]
    v_euler = simulate(euler).omega[-1]
    assert np.max(np.abs(v_rk4 - v_euler)) < 1e-4


def test_applied_torque_load_accepts_time_series():
    g = build_two_output_diff(side_inertia=1.0)
    scn = Scenario(
        graph=g,
        drive=Drive.velocity(2.0, shaft="ring"),
        loads={"side_a": AppliedTorque(lambda t: 0.5 * np.sin(t))},
        options=SimOptions(duration=0.02, dt=1e-3),
    )
    traj = simulate(scn)
    assert traj.omega_of("ring")[-1] == pytest.approx(2.0, abs=1e-12)


def test_redundant_rows_raise_singular_kkt():
    g = MechanismGraph()
    g.add_shaft("x", inertia=1.0, role="input")
    g.add_shaft("y", inertia=1.0)
    g.add_element(RigidCoupling(a=0, b=1, name="c1"))
    g.add_element(RigidCoupling(a=0, b=1, name="c2"))
    g.set_external("x", "y")
    scn = Scenario(
        graph=g.finalize(),
        drive=Drive.torque(1.0, shaft="x"),
        options=SimOptions(duration=0.01, dt=1e-3),
    )
    with pytest.raises(SingularKKT) as err:
        simulate(scn)
    assert err.value.direction is not None


def test_motion_without_inertia_raises_singular_kkt():
    # All-massless differential under a torque drive: no feasible motion
    # carries inertia, so nothing determines the accelerations.
    g = build_two_output_diff(ring_inertia=0.0, side_inertia=0.0)
    scn = Scenario(
        graph=g,
        drive=Drive.torque(1.0),
        options=SimOptions(duration=0.01, dt=1e-3),
    )
    with pytest.raises(SingularKKT, match="carries no inertia") as err:
        simulate(scn)
    mode = err.value.direction
    assert mode.shape == (g.n_shafts,)
    assert np.max(np.abs(constraint_matrix(g) @ mode)) < 1e-12


def test_scenario_validation_rejects_contradictions():
    g = build_3ood()
    base = dict(graph=g, drive=Drive.velocity(20.0))
    with pytest.raises(ScenarioError, match="duration"):
        Scenario(**base, options=SimOptions(duration=0.0)).validate()
    with pytest.raises(ScenarioError, match="integrator"):
        Scenario(**base, options=SimOptions(integrator="leapfrog")).validate()
    with pytest.raises(ScenarioError, match="cannot lock the driven shaft"):
        Scenario(graph=g, drive=Drive.velocity(1.0), loads={"input": Locked()}).validate()


def test_record_torques_off_slims_trajectory():
    scn = canonical_equal_load_scenario(duration=0.01, record_torques=False)
    traj = simulate(scn)
    assert traj.element_torques is None
    from gearnet.errors import MissingTorqueSeries

    with pytest.raises(MissingTorqueSeries):
        traj.port_torque("worm1", "worm")


def test_csv_round_trips_exactly(tmp_path):
    scn = canonical_equal_load_scenario(duration=0.005)
    traj = simulate(scn)
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "t"
    assert f"input.omega" in header and f"input.alpha" in header
    assert any(col.startswith("worm1.tau_") for col in header)
    data = np.genfromtxt(path, delimiter=",", names=True)
    i = traj.shaft_names.index("O1")
    assert np.array_equal(np.asarray(data["O1omega"]), traj.omega[:, i])
    assert np.array_equal(np.asarray(data["t"]), traj.t)


def test_csv_is_deterministic(tmp_path):
    scn = canonical_equal_load_scenario(duration=0.01)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    simulate(scn).to_csv(a)
    simulate(scn).to_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_impulse_response_of_cascaded_tree():
    # Unit torque on output A of the two-stage tree with the root braked:
    # the sibling B reacts twice as hard as the cousins C and D.
    g = build_2_2d()
    alpha = impulse_response(g, "A", held=("root",))
    a, b, c, d = (alpha[g.shaft_id(n)] for n in "ABCD")
    assert a == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert b == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert c == pytest.approx(-1.0 / 6.0, abs=1e-9)
    assert d == pytest.approx(-1.0 / 6.0, abs=1e-9)


def test_impulse_response_with_held_shaft():
    g = build_3ood()
    alpha = impulse_response(g, "O1", held=("input",))
    assert alpha[g.shaft_id("input")] == pytest.approx(0.0, abs=1e-12)
    assert alpha[g.shaft_id("O1")] > 0
    o2 = alpha[g.shaft_id("O2")]
    o3 = alpha[g.shaft_id("O3")]
    assert o2 == pytest.approx(o3, abs=1e-12)
    assert o2 < 0


def test_impulse_response_rejects_holding_the_probed_shaft():
    with pytest.raises(ScenarioError, match="loads.O1: cannot lock the driven shaft"):
        impulse_response(build_3ood(), "O1", held=("O1",))
    with pytest.raises(ScenarioError, match="drive.shaft: no such shaft 'nope'"):
        impulse_response(build_3ood(), "nope")


@pytest.mark.parametrize("integrator", ["semi_implicit_euler", "rk4"])
def test_load_models_converge_to_the_penalty_reference(integrator):
    # power_balance checks the energy of the torque each step applied, not
    # the load models behind it, so check those against the independent
    # penalty reference: the final-speed gap halves with dt, where a sign
    # or timing error in a load would leave a gap of order one.
    ramp = Series(np.array([0.0, 0.04, 0.1]), np.array([-0.1, -0.5, -0.2]))

    def scenario(dt):
        return Scenario(
            graph=build_two_output_diff(),
            drive=Drive.torque(1.0),
            loads={"side_a": ConstantResistive(0.2), "side_b": AppliedTorque(ramp)},
            options=SimOptions(duration=0.1, dt=dt, integrator=integrator),
        )

    reference = penalty_velocities(scenario(1e-4))
    gaps = [
        np.max(np.abs(simulate(scenario(dt)).omega[-1] - reference)) for dt in (2e-4, 1e-4, 5e-5)
    ]
    assert gaps[-1] < 1e-2
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.7 < coarse / fine < 2.4


def test_rk4_is_fourth_order_under_a_smooth_velocity_drive():
    def final_speeds(dt):
        scn = Scenario(
            graph=build_3ood(),
            drive=Drive.velocity(lambda t: 20.0 * math.sin(30.0 * t) + 5.0),
            loads={"O1": Viscous(0.5), "O2": Viscous(1.0), "O3": Viscous(2.0)},
            options=SimOptions(duration=0.2, dt=dt, integrator="rk4"),
        )
        return simulate(scn).omega[-1]

    reference = final_speeds(2.5e-5)
    errors = [np.max(np.abs(final_speeds(dt) - reference)) for dt in (8e-4, 4e-4, 2e-4, 1e-4)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 12.0


@pytest.mark.parametrize("integrator", ["semi_implicit_euler", "rk4"])
def test_velocity_ramp_records_its_slope_from_the_first_row(integrator):
    # each row holds the acceleration of the step launched from it, so the
    # first row of a 0 -> 10 rad/s ramp over 0.1 s is on the ramp already
    scn = Scenario(
        graph=build_two_output_diff(),
        drive=Drive.velocity(Series(np.array([0.0, 0.1]), np.array([0.0, 10.0]))),
        loads={"side_a": Viscous(1.0), "side_b": Viscous(2.0)},
        options=SimOptions(duration=0.01, dt=1e-3, integrator=integrator),
    )
    alpha = simulate(scn).alpha_of(scn.drive_shaft())
    assert alpha == pytest.approx(np.full(len(alpha), 100.0), rel=1e-9)
