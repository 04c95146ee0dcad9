"""Invariant checking of recorded trajectories."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import canonical_equal_load_scenario, random_tree_scenario

from gearnet.builders import BUILDERS, build_3ood
from gearnet.dynamics import Drive, Scenario, Series, SimOptions, _Assembled, simulate
from gearnet.mechanism import (
    AppliedTorque,
    ConstantResistive,
    Differential,
    Locked,
    MechanismGraph,
    Viscous,
)
from gearnet.verification import (
    check_invariants,
    power_balance,
    registered_checks,
)


def test_registry_covers_the_three_output_family():
    checks = registered_checks("3ood")
    assert len(checks) == 17
    names = {c.name for c in checks}
    assert "output_speed_sum" in names
    assert "power_balance" in names
    # unknown families still get the generic energy check
    generic = registered_checks(None)
    assert [c.name for c in generic] == ["power_balance"]


def test_canonical_run_passes_every_applicable_check():
    traj = simulate(canonical_equal_load_scenario())
    report = check_invariants(traj)
    assert report.all_passed()
    applicable = {r.check for r in report.applicable()}
    assert "equal_load_output_speeds" in applicable
    assert "locked_input_speed_sum" not in applicable
    assert len(report.applicable()) == 15


def test_locked_regime_enables_locked_checks_only():
    scn = Scenario(
        graph=build_3ood(),
        drive=Drive.velocity(3.0, shaft="O1"),
        loads={"input": Locked(), "O2": Viscous(1.0), "O3": Viscous(1.0)},
        options=SimOptions(duration=0.1, dt=1e-4),
    )
    report = check_invariants(simulate(scn))
    assert report.all_passed()
    applicable = {r.check for r in report.applicable()}
    assert "locked_input_speed_sum" in applicable
    assert "locked_input_torque_sum" in applicable
    assert "equal_load_output_speeds" not in applicable


def test_equal_load_regime_compares_series_by_identity():
    # One series shared by all outputs is an equal load; separate series
    # objects are not, even when they happen to tabulate the same values.
    def ramp(scale):
        return lambda t: -scale * t

    def equal_load_checks(loads):
        scn = Scenario(
            graph=build_3ood(),
            drive=Drive.velocity(20.0),
            loads=loads,
            options=SimOptions(duration=0.02, dt=1e-4),
        )
        report = check_invariants(simulate(scn))
        assert report.all_passed()
        return {r.check for r in report.applicable() if r.check.startswith("equal_load")}

    shared = ramp(10.0)
    assert equal_load_checks({o: AppliedTorque(shared) for o in ("O1", "O2", "O3")}) == {
        "equal_load_side_speeds",
        "equal_load_output_speeds",
        "equal_load_output_torques",
    }
    assert equal_load_checks({o: AppliedTorque(ramp(10.0)) for o in ("O1", "O2", "O3")}) == set()


def test_corrupted_speeds_fail_kinematic_checks():
    traj = simulate(canonical_equal_load_scenario(duration=0.05))
    omega = traj.omega.copy()
    omega[:, traj.shaft_names.index("O1")] *= 1.01
    bad = replace(traj, omega=omega)
    report = check_invariants(bad)
    assert not report.all_passed()
    failed = {r.check for r in report.failed()}
    assert "output_speed_sum" in failed


def test_corrupted_torques_fail_torque_checks():
    traj = simulate(canonical_equal_load_scenario(duration=0.05))
    multipliers = traj.multipliers.copy()
    ratio1 = [e.name for e in traj.scenario.graph.elements].index("ratio1")
    multipliers[:, ratio1] *= 1.5
    bad = replace(traj, multipliers=multipliers)
    report = check_invariants(bad)
    failed = {r.check for r in report.failed()}
    assert "output_ratio_torque" in failed


def test_report_json_schema(tmp_path):
    traj = simulate(canonical_equal_load_scenario(duration=0.02))
    report = check_invariants(traj)
    path = tmp_path / "report.json"
    report.write(path)
    import json

    entries = json.loads(path.read_text())
    assert len(entries) == len(report.applicable())
    for entry in entries:
        assert sorted(entry) == ["anchor_quote", "check", "max_rel_residual", "pass"]
        assert entry["pass"] is True
        assert isinstance(entry["anchor_quote"], str) and entry["anchor_quote"]


def test_short_trajectory_gets_a_note_not_a_crash():
    traj = simulate(canonical_equal_load_scenario(duration=0.02))
    stub = replace(
        traj,
        t=traj.t[:1],
        omega=traj.omega[:1],
        alpha=traj.alpha[:1],
        multipliers=traj.multipliers[:1],
    )
    report = check_invariants(stub)
    assert report.results == []
    assert "too short" in report.note
    assert report.all_passed()


@pytest.mark.parametrize("drive", [Drive.velocity(20.0), Drive.torque(2.0)], ids=["velocity", "torque"])
def test_record_torques_off_verifies_the_same(drive):
    # the multipliers are kept either way, so every torque check runs and
    # reads the same residuals as with the torque columns recorded
    def residuals(record):
        scn = canonical_equal_load_scenario(duration=0.02, record_torques=record)
        report = check_invariants(simulate(replace(scn, drive=drive)))
        assert report.all_passed()
        return [(r.check, r.max_abs_residual) for r in report.applicable()]

    off = residuals(False)
    assert len(off) == 15
    assert off == residuals(True)


def test_abrupt_start_passes_every_check_without_allowance():
    # Massless intermediates are simulated as declared, so even the
    # impulsive spin-up from rest leaves every torque identity and the
    # power balance exact to round-off, with no slack subtracted.
    scn = Scenario(
        graph=build_3ood(),
        drive=Drive.velocity(25.0),
        loads={"O1": Viscous(0.5), "O2": Viscous(2.0), "O3": ConstantResistive(1.0)},
        options=SimOptions(duration=0.05, dt=1e-4, initial="rest"),
    )
    traj = simulate(scn)
    report = check_invariants(traj)
    assert report.all_passed()
    for r in report.applicable():
        assert r.max_rel_residual <= 1e-3 * r.tolerance, r.check


def _ledger_rel_residual(traj) -> float:
    report = check_invariants(traj)
    return next(r.max_rel_residual for r in report.results if r.check == "power_balance")


def test_power_balance_accounts_for_all_load_kinds():
    rng = np.random.default_rng(5)
    scn = random_tree_scenario(rng, duration=0.05)
    names = scn.graph.shaft_names()
    ramp = Series(np.array([0.0, 0.02, 0.05]), np.array([0.0, -0.8, 0.3]))
    loads = {**scn.loads, names[1]: ConstantResistive(0.3), names[-1]: AppliedTorque(ramp)}
    for integrator in ("semi_implicit_euler", "rk4"):
        options = replace(scn.options, integrator=integrator)
        traj = simulate(replace(scn, loads=loads, options=options))
        assert traj.step_torque.shape == (len(traj.t) - 1, len(names))
        assert power_balance(traj).shape == (len(traj.t) - 1,)
        assert _ledger_rel_residual(traj) <= 1e-12, integrator


def _family_loads(graph) -> dict:
    """Viscous, resistive and a series applied torque, in turn, on the outputs."""
    ramp = Series(np.array([0.0, 0.007, 0.02]), np.array([-0.1, -0.6, -0.2]))
    kinds = [Viscous(0.8), ConstantResistive(0.05), AppliedTorque(ramp)]
    return {o: kinds[i % 3] for i, o in enumerate(graph.meta["outputs"])}


@pytest.mark.parametrize("family", sorted(BUILDERS))
@pytest.mark.parametrize(
    "drive",
    [
        Drive.velocity(Series(np.array([0.0, 0.006, 0.013, 0.02]), np.array([4.0, 9.0, 6.0, 8.0]))),
        Drive.torque(Series(np.array([0.0, 0.009, 0.02]), np.array([0.5, 2.0, 1.0]))),
    ],
    ids=["velocity-series", "torque-series"],
)
def test_rk4_series_runs_pass_every_check(family, drive):
    graph = BUILDERS[family]()
    traj = simulate(
        Scenario(
            graph=graph,
            drive=drive,
            loads=_family_loads(graph),
            options=SimOptions(duration=0.02, dt=2e-4, integrator="rk4"),
        )
    )
    report = check_invariants(traj)
    assert report.all_passed(), report.summary_lines()
    assert _ledger_rel_residual(traj) <= 1e-12


def test_rk4_ledger_closes_when_pins_couple_to_inertia():
    # Unequal side inertias make N^T M B nonzero: a pinned state that the
    # projection snapped back onto its target would move kinetic energy
    # that no torque accounts for.
    g = MechanismGraph()
    ring = g.add_shaft("ring", inertia=0.5, role="input")
    a = g.add_shaft("a", inertia=1.0)
    b = g.add_shaft("b", inertia=3.0)
    g.add_element(Differential(ring=ring, side_a=a, side_b=b, name="diff"))
    g.set_external("ring", "a", "b")
    g = g.finalize()
    scn = Scenario(
        graph=g,
        drive=Drive.velocity(
            Series(np.array([0.0, 0.013, 0.03, 0.05]), np.array([5.0, 15.0, 2.0, 9.0])),
            shaft="ring",
        ),
        loads={"a": Viscous(2.0), "b": ConstantResistive(0.5)},
        options=SimOptions(duration=0.05, dt=2e-4, integrator="rk4"),
    )
    ops = _Assembled(scn, None)
    assert np.max(np.abs(ops.N.T @ (ops.inertia[:, None] * ops.B))) > 0.1
    traj = simulate(scn)
    assert _ledger_rel_residual(traj) <= 1e-12


def test_generic_family_still_checks_energy():
    rng = np.random.default_rng(9)
    traj = simulate(random_tree_scenario(rng, duration=0.05))
    report = check_invariants(traj)
    assert [r.check for r in report.results] == ["power_balance"]
    assert report.all_passed()
