"""Invariant checking of recorded trajectories."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import canonical_equal_load_scenario, random_tree_scenario

from gearnet.builders import build_3ood
from gearnet.dynamics import Drive, Scenario, SimOptions, simulate
from gearnet.errors import MissingTorqueSeries
from gearnet.mechanism import AppliedTorque, ConstantResistive, Locked, Viscous
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
    torques = {k: v.copy() for k, v in traj.element_torques.items()}
    torques["ratio1"] *= 1.5
    bad = replace(traj, element_torques=torques)
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
        element_torques={k: v[:1] for k, v in traj.element_torques.items()},
        drive_torque=traj.drive_torque[:1],
    )
    report = check_invariants(stub)
    assert report.results == []
    assert "too short" in report.note
    assert report.all_passed()


def test_missing_torque_series_raises():
    scn = canonical_equal_load_scenario(duration=0.02, record_torques=False)
    with pytest.raises(MissingTorqueSeries):
        check_invariants(simulate(scn))


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


def test_power_balance_accounts_for_all_load_kinds():
    rng = np.random.default_rng(5)
    traj = simulate(random_tree_scenario(rng, duration=0.05))
    residual = power_balance(traj)
    assert residual.shape == (len(traj.t) - 1,)
    assert np.max(np.abs(residual)) < 1e-8


def test_generic_family_still_checks_energy():
    rng = np.random.default_rng(9)
    traj = simulate(random_tree_scenario(rng, duration=0.05))
    report = check_invariants(traj)
    assert [r.check for r in report.results] == ["power_balance"]
    assert report.all_passed()
