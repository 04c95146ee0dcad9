"""Invariant checking of recorded trajectories."""

import json
import random
from dataclasses import replace
from typing import Callable

import numpy as np
import pytest

from conftest import bench_workloads, canonical_equal_load_scenario, random_tree_scenario

from gearnet.builders import BUILDERS, build_3ood
from gearnet.cli import main
from gearnet.dynamics import Drive, Scenario, Series, SimOptions, _Assembled, simulate
from gearnet.kinematics import constraint_matrix
from gearnet.mechanism import (
    AppliedTorque,
    ConstantResistive,
    Differential,
    Free,
    Locked,
    MechanismGraph,
    Viscous,
)
from gearnet.scenario_io import parse_scenario
from gearnet.verification import (
    check_invariants,
    power_balance,
    registered_checks,
)


def test_registry_covers_the_three_output_family():
    checks = registered_checks("3ood")
    assert len(checks) == 10
    names = {c.name for c in checks}
    assert "output_speed_sum" in names
    assert "power_balance" in names
    assert "constraint_residual" in names
    assert "torque_balance" in names
    # unknown families still get the generic row, shaft and energy checks
    generic = registered_checks(None)
    assert [c.name for c in generic] == ["constraint_residual", "torque_balance", "power_balance"]


def test_canonical_run_passes_every_applicable_check():
    traj = simulate(canonical_equal_load_scenario())
    report = check_invariants(traj)
    assert report.all_passed()
    applicable = {r.check for r in report.applicable()}
    assert "equal_load_output_speeds" in applicable
    assert len(report.applicable()) == 10


_ALWAYS_ON = [
    "constraint_residual", "output_speed_sum", "torque_balance", "output_torque_sum",
    "power_balance",
]


def _held_input_scenario(integrator: str = "semi_implicit_euler") -> Scenario:
    """3ood driven from O1 with the input held by a Locked load."""
    return Scenario(
        graph=build_3ood(),
        drive=Drive.velocity(3.0, shaft="O1"),
        loads={"input": Locked(), "O2": Viscous(1.0), "O3": Viscous(1.0)},
        options=SimOptions(duration=0.1, dt=1e-4, integrator=integrator),
    )


def test_held_input_applies_the_always_on_checks():
    # the speed and torque sums hold in every regime: with the input held
    # they read w_O1 + w_O2 + w_O3 = 0 and keep the worm reaction
    for integrator in ("semi_implicit_euler", "rk4"):
        report = check_invariants(simulate(_held_input_scenario(integrator)))
        assert report.all_passed(), report.summary_lines()
        assert [r.check for r in report.applicable()] == _ALWAYS_ON, integrator


def test_held_input_mutations_fail_the_always_on_sums():
    traj = simulate(_held_input_scenario())
    omega = traj.omega.copy()
    omega[:, traj.shaft_names.index("O1")] *= 1.01
    failed = {r.check for r in check_invariants(replace(traj, omega=omega)).failed()}
    assert "output_speed_sum" in failed

    multipliers = traj.multipliers.copy()
    ratio1 = [e.name for e in traj.scenario.graph.elements].index("ratio1")
    multipliers[:, ratio1] *= 1.5
    failed = {r.check for r in check_invariants(replace(traj, multipliers=multipliers)).failed()}
    assert "output_torque_sum" in failed


_EQUAL_VISCOUS = {o: Viscous(1.0) for o in ("O1", "O2", "O3")}


@pytest.mark.parametrize("integrator", ["semi_implicit_euler", "rk4"])
@pytest.mark.parametrize(
    "loads, applicable, drive",
    [
        ({}, 10, None),
        ({o: Free() for o in ("O1", "O2", "O3")}, 10, None),
        ({**_EQUAL_VISCOUS, "R1": Free()}, 10, None),
        ({**_EQUAL_VISCOUS, "input": Viscous(1.0)}, 5, None),
        *(({**_EQUAL_VISCOUS, shaft: Viscous(1.0)}, 4, None) for shaft in ("R1", "S7", "R4", "S1")),
        (_EQUAL_VISCOUS, 4, Drive.torque(0.1, shaft="R1")),
    ],
    ids=[
        "no-loads", "free-outputs", "free-on-R1", "viscous-on-input", "viscous-on-R1",
        "viscous-on-S7", "viscous-on-R4", "viscous-on-S1", "torque-drive-on-R1",
    ],
)
def test_unconstrained_outputs_are_an_equal_load(loads, applicable, drive, integrator):
    # a missing load and a Free one are the same load: outputs without one
    # are unconstrained, which the equal-load claims cover; a load on a
    # shaft that is not an output leaves only the always-on checks, and
    # one on an internal shaft also output_torque_sum, whose law leaves
    # out the torque that load takes
    scn = Scenario(
        graph=build_3ood(),
        drive=drive or Drive.velocity(20.0),
        loads=loads,
        options=SimOptions(duration=0.05, dt=1e-4, integrator=integrator),
    )
    report = check_invariants(simulate(scn))
    assert len(report.applicable()) == applicable
    assert ("output_torque_sum" in {r.check for r in report.applicable()}) == (applicable > 4)
    for r in report.applicable():
        assert r.max_rel_residual <= 1e-3 * r.tolerance, r.check


def test_zero_speed_input_drive_is_not_an_equal_load():
    # a velocity drive of constant zero holds the input: the outputs'
    # equal loads then share no motion from it
    scn = Scenario(
        graph=build_3ood(),
        drive=Drive.velocity(0.0),
        loads={o: Viscous(1.0) for o in ("O1", "O2", "O3")},
        options=SimOptions(duration=0.02, dt=1e-4),
    )
    report = check_invariants(simulate(scn))
    assert report.all_passed()
    assert [r.check for r in report.applicable()] == _ALWAYS_ON


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
    assert "torque_balance" in failed


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
    assert len(off) == 10
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
    assert [r.check for r in report.results] == [
        "constraint_residual", "torque_balance", "power_balance"
    ]
    assert report.all_passed()


_INLINE = {
    "shafts": [
        {"name": "in", "inertia": 0.01, "role": "input"},
        {"name": "wheel", "inertia": 0.02},
        {"name": "sun", "inertia": 0.01},
        {"name": "left", "inertia": 0.03, "role": "output"},
        {"name": "right", "inertia": 0.05, "role": "output"},
    ],
    "elements": [
        {"kind": "worm_pair", "name": "worm", "ports": {"worm": "in", "wheel": "wheel"},
         "params": {"ratio_k": 8.0}},
        {"kind": "rigid_coupling", "name": "shaft", "ports": {"a": "wheel", "b": "sun"}},
        {"kind": "planetary", "name": "stage", "ports": {"sun": "sun", "ring": "left",
         "carrier": "right"}, "params": {"rho": 2.5}},
    ],
    "external": ["in", "left", "right"],
}


def _family_scenario(family: str) -> Scenario:
    """A short velocity-driven run of a builder family or the inline graph."""
    if family == "inline":
        graph = MechanismGraph.from_dict(_INLINE)
        drive, loads = Drive.velocity(12.0, shaft="in"), {"left": Viscous(0.5)}
    else:
        graph = BUILDERS[family]()
        drive, loads = Drive.velocity(20.0), _family_loads(graph)
    return Scenario(graph=graph, drive=drive, loads=loads, options=SimOptions(duration=0.02, dt=1e-4))


@pytest.mark.parametrize("family", [*sorted(BUILDERS), "inline"])
def test_constraint_residual_fails_on_one_nudged_speed(family):
    # every family's element rows are checked: moving one shaft's speed
    # off its rows by 1e-6 on one row of the run fails the check
    scn = _family_scenario(family)
    graph = scn.graph
    traj = simulate(scn)
    report = check_invariants(traj)
    assert report.all_passed(), report.summary_lines()
    assert report.results[0].check == "constraint_residual"
    assert report.results[0].max_rel_residual <= 1e-10

    # the shaft with the largest coefficient of the first element's row
    _, sid, _ = max(graph.elements[0].row(), key=lambda entry: abs(entry[2]))
    omega = traj.omega.copy()
    omega[len(omega) // 2, sid] += 1e-6
    failed = {r.check for r in check_invariants(replace(traj, omega=omega)).failed()}
    assert "constraint_residual" in failed


def _balance(report):
    return next(r for r in report.results if r.check == "torque_balance")


@pytest.mark.parametrize("family", [*sorted(BUILDERS), "inline"])
def test_torque_balance_fails_on_one_scaled_multiplier(family):
    # every shaft that no drive or load acts on is balanced: scaling one
    # port torque on such a shaft by 1 + 1e-4 on one row of the run fails
    # the check
    scn = _family_scenario(family)
    if family == "2od":  # with both sides loaded it has no such shaft
        scn = replace(scn, loads={"side_a": scn.loads["side_a"]})
    traj = simulate(scn)
    report = check_invariants(traj)
    assert report.all_passed(), report.summary_lines()
    assert _balance(report).max_rel_residual <= 1e-10

    C = constraint_matrix(scn.graph)
    acted = {scn.graph.shaft_id(name) for name in (scn.drive_shaft(), *scn.loads)}
    unloaded = [sid for sid in range(scn.graph.n_shafts) if sid not in acted]
    # the largest port torque on such a shaft over the run: its step and row
    ports = np.abs(traj.multipliers[:, : len(C)]) * np.abs(C[:, unloaded]).max(axis=1)
    step, row = np.unravel_index(np.argmax(ports), ports.shape)
    multipliers = traj.multipliers.copy()
    multipliers[step, row] *= 1 + 1e-4
    failed = {r.check for r in check_invariants(replace(traj, multipliers=multipliers)).failed()}
    assert "torque_balance" in failed


def test_two_output_diff_with_both_sides_loaded_has_no_shaft_to_balance():
    report = check_invariants(simulate(_family_scenario("2od")))
    assert report.all_passed()
    balance = _balance(report)
    assert (balance.max_abs_residual, balance.max_rel_residual, balance.passed) == (0.0, 0.0, True)


def test_elementless_graph_passes_the_row_check():
    g = MechanismGraph()
    g.add_shaft("x", inertia=0.5, role="input")
    g.set_external("x")
    scn = Scenario(
        graph=g.finalize(),
        drive=Drive.torque(1.0, shaft="x"),
        loads={"x": Viscous(0.2)},
        options=SimOptions(duration=0.01, dt=1e-3),
    )
    report = check_invariants(simulate(scn))
    assert report.all_passed()
    rows = report.results[0]
    assert (rows.check, rows.max_abs_residual, rows.max_rel_residual) == (
        "constraint_residual", 0.0, 0.0
    )


# --- the checks follow the graph, however it was made ------------------------

_EQUAL_DOC_LOADS = {o: {"kind": "viscous", "b": 1.0} for o in ("O1", "O2", "O3")}
_UNEQUAL_DOC_LOADS = {
    "O1": {"kind": "viscous", "b": 0.5},
    "O2": {"kind": "resistive", "tau": 0.2},
    "O3": {"kind": "viscous", "b": 1.0},
}


def _scenario_doc(mechanism: dict, loads: dict) -> dict:
    return {
        "mechanism": mechanism,
        "drive": {"mode": "velocity", "value": 20.0},
        "loads": loads,
        "sim": {"duration": 0.02, "dt": 1e-4},
        "outputs": {"report": "report.json"},
    }


def _outcomes(report) -> str:
    """Every check's result tuple, as exact text (NaN compares equal)."""
    return repr(
        [(r.check, r.applicable, r.passed, r.max_abs_residual, r.max_rel_residual) for r in report.results]
    )


@pytest.mark.parametrize(
    "loads, applicable", [(_EQUAL_DOC_LOADS, 10), (_UNEQUAL_DOC_LOADS, 5)], ids=["equal", "unequal"]
)
def test_saved_and_inline_3ood_get_the_built_graphs_checks(tmp_path, capsys, loads, applicable):
    # meta is derived from the graph, so a 3ood read back from a file, or
    # given inline, is checked exactly as the built one
    build_3ood(10, 4).save(tmp_path / "3ood.json")
    built = parse_scenario(_scenario_doc({"builder": "3ood", "params": {"ratio_k": 10, "ratio_j": 4}}, loads))
    expected = check_invariants(simulate(built.scenario))
    assert len(expected.applicable()) == applicable

    loaded = replace(built.scenario, graph=MechanismGraph.load(tmp_path / "3ood.json"))
    assert _outcomes(check_invariants(simulate(loaded))) == _outcomes(expected)

    inline = _scenario_doc({"inline": json.loads((tmp_path / "3ood.json").read_text())}, loads)
    assert _outcomes(check_invariants(simulate(parse_scenario(inline).scenario))) == _outcomes(expected)
    (tmp_path / "inline.json").write_text(json.dumps(inline))
    assert main(["simulate", str(tmp_path / "inline.json"), "--verify"]) == 0
    assert f"{applicable}/{applicable} applicable checks passed" in capsys.readouterr().out
    assert (tmp_path / "report.json").read_text() == expected.to_json() + "\n"


def _relabelled_3ood(seed: int) -> tuple[dict, dict]:
    """build_3ood's document with shafts and elements shuffled and renamed,
    and the map from each old shaft name to its new one."""
    rng = np.random.default_rng(seed)
    doc = build_3ood().to_dict()
    shafts = [doc["shafts"][i] for i in rng.permutation(len(doc["shafts"]))]
    elements = [doc["elements"][i] for i in rng.permutation(len(doc["elements"]))]
    new = {s["name"]: f"q{n}" for n, s in enumerate(shafts)}
    return {
        "shafts": [{**s, "name": new[s["name"]]} for s in shafts],
        "elements": [
            {**e, "name": f"part{n}", "ports": {p: new[s] for p, s in e["ports"].items()}}
            for n, e in enumerate(elements)
        ],
        "external": [new[s] for s in doc["external"]],
    }, new


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_renamed_shuffled_3ood_is_recognised(seed):
    doc, new = _relabelled_3ood(seed)
    graph = MechanismGraph.from_dict(doc).finalize()
    meta, built = graph.meta, build_3ood().meta
    assert (meta["family"], meta["ratio_k"], meta["ratio_j"]) == ("3ood", 20.0, 2.0)
    assert meta["input"] == new["input"]
    for key in ("outputs", "first_sides", "second_sides"):
        assert sorted(meta[key]) == sorted(new[s] for s in built[key]), key
    scn = Scenario(
        graph=graph,
        drive=Drive.velocity(20.0),
        loads={o: Viscous(1.0) for o in meta["outputs"]},
        options=SimOptions(duration=0.02, dt=1e-4),
    )
    report = check_invariants(simulate(scn))
    assert len(report.applicable()) == 10
    assert report.all_passed(), report.summary_lines()


def _edited_3ood(edit) -> Callable[[], MechanismGraph]:
    def make():
        doc = build_3ood().to_dict()
        edit({s["name"]: s for s in doc["shafts"]}, {e["name"]: e for e in doc["elements"]})
        return MechanismGraph.from_dict(doc).finalize()

    return make


def _rewire(shafts, elements):
    # first-stage diff1 feeds both sides of second-stage diff4
    pairs = [("S1", "S7"), ("S2", "S8"), ("S3", "S9"), ("S4", "S11"), ("S5", "S10"), ("S6", "S12")]
    couplings = [e for e in elements.values() if e["kind"] == "rigid_coupling"]
    for coupling, (a, b) in zip(couplings, pairs):
        coupling["ports"] = {"a": a, "b": b}


@pytest.mark.parametrize(
    "make",
    [
        _edited_3ood(lambda shafts, elements: shafts["R1"].update(inertia=1e-3)),
        _edited_3ood(lambda shafts, elements: shafts["S7"].update(inertia=2e-3)),
        _edited_3ood(_rewire),
        _edited_3ood(lambda shafts, elements: elements["couple_s1_s7"]["params"].update(sign=-1)),
        BUILDERS["initial"],
        BUILDERS["2-2d"],
        lambda: MechanismGraph.from_dict(
            bench_workloads().inline_mechanism(random.Random(0))
        ).finalize(),
    ],
    ids=["inertia-on-R1", "unequal-side-inertia", "one-diff-feeds-both-sides", "coupling-sign-minus-1", "initial", "2-2d",
         "bench-inline"],
)
def test_near_3ood_and_other_graphs_get_the_generic_checks(make):
    graph = make()
    assert "family" not in graph.meta
    scn = Scenario(
        graph=graph,
        drive=Drive.torque(1.0),
        loads={o: Viscous(1.0) for o in graph.meta["outputs"]},
        options=SimOptions(duration=0.01, dt=1e-4),
    )
    report = check_invariants(simulate(scn))
    assert [r.check for r in report.applicable()] == [
        "constraint_residual", "torque_balance", "power_balance"
    ]
    assert report.all_passed(), report.summary_lines()
