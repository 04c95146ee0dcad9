"""Scenario document parsing: schema strictness and diagnostics."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from gearnet.builders import build_3ood
from gearnet.cli import main
from gearnet.dynamics import Drive, Scenario, Series, SimOptions, simulate
from gearnet.errors import GraphValidationError, ScenarioError
from gearnet.mechanism import AppliedTorque, ConstantResistive, Locked, RigidCoupling, Viscous
from gearnet.scenario_io import load_scenario, parse_scenario


def base_doc():
    return {
        "name": "case",
        "mechanism": {"builder": "3ood"},
        "drive": {"mode": "velocity", "value": 20.0},
        "loads": {
            "O1": {"kind": "viscous", "b": 1.0},
            "O2": {"kind": "resistive", "tau": 0.5},
            "O3": {"kind": "free"},
        },
        "sim": {"duration": 0.1, "dt": 1e-3},
        "outputs": {"trajectory": "out.csv", "report": "report.json"},
    }


def test_full_document_parses():
    sf = parse_scenario(base_doc())
    scn = sf.scenario
    assert scn.name == "case"
    assert scn.graph.meta["family"] == "3ood"
    assert scn.drive.mode == "velocity"
    assert isinstance(scn.loads["O1"], Viscous)
    assert isinstance(scn.loads["O2"], ConstantResistive)
    assert scn.options.duration == 0.1
    assert sf.trajectory_path == "out.csv"
    assert sf.report_path == "report.json"


def test_builder_params_forwarded():
    doc = base_doc()
    doc["mechanism"] = {"builder": "3ood", "params": {"ratio_k": 10.0}}
    sf = parse_scenario(doc)
    assert sf.scenario.graph.meta["ratio_k"] == 10.0


def test_inline_mechanism_round_trip():
    from gearnet.builders import build_two_output_diff

    doc = {
        "mechanism": {"inline": build_two_output_diff().to_dict()},
        "drive": {"mode": "velocity", "value": 2.0, "shaft": "ring"},
        "sim": {"duration": 0.01},
    }
    sf = parse_scenario(doc)
    assert sf.scenario.graph.n_shafts == 3
    assert sf.scenario.drive_shaft() == "ring"


def test_inline_graph_is_finalized():
    # a parsed scenario is frozen, and so is the inline graph it holds
    doc = base_doc()
    doc["mechanism"] = {"inline": build_3ood().to_dict()}
    graph = parse_scenario(doc).scenario.graph
    assert graph.meta["family"] == "3ood"
    with pytest.raises(GraphValidationError, match="graph is finalized"):
        graph.add_shaft("extra")
    with pytest.raises(GraphValidationError, match="graph is finalized"):
        graph.add_element(RigidCoupling(a=0, b=1))


def test_drive_time_series_interpolates():
    doc = base_doc()
    doc["drive"] = {"mode": "torque", "series": [[0.0, 0.0], [1.0, 2.0]]}
    drive = parse_scenario(doc).scenario.drive
    assert drive.value_at(0.5) == pytest.approx(1.0)
    assert drive.value_at(5.0) == pytest.approx(2.0)  # held past the table


def test_applied_torque_load_series():
    doc = base_doc()
    doc["loads"]["O3"] = {"kind": "applied_torque", "series": [[0.0, 1.0], [1.0, 3.0]]}
    load = parse_scenario(doc).scenario.loads["O3"]
    assert isinstance(load, AppliedTorque)
    assert load.value(0.5) == pytest.approx(2.0)


def test_locked_load_and_input_locked_drive():
    # input_locked reads as a Locked input plus a drive on the source shaft
    doc = base_doc()
    doc["drive"] = {"mode": "input_locked", "source": {"shaft": "O1", "value": 3.0}}
    doc["loads"] = {"O2": {"kind": "viscous", "b": 1.0}, "O3": {"kind": "locked"}}
    scn = parse_scenario(doc).scenario
    assert scn.drive == Drive.velocity(3.0, shaft="O1")
    assert list(scn.loads) == ["input", "O2", "O3"]
    assert isinstance(scn.loads["input"], Locked)
    assert isinstance(scn.loads["O3"], Locked)

    doc["drive"] = {"mode": "input_locked"}
    doc["loads"] = {}
    scn = parse_scenario(doc).scenario
    assert scn.drive == Drive.velocity(0.0, shaft="input")
    assert scn.loads == {}


def test_input_locked_source_errors_name_the_field():
    def drive(**source):
        doc = base_doc()
        doc["drive"] = {"mode": "input_locked", "source": source}
        return doc

    held_nowhere = base_doc()
    held_nowhere["drive"] = {"mode": "input_locked", "shaft": "nope"}
    rejects(held_nowhere, r"drive\.shaft: no such shaft 'nope'")
    rejects(drive(value=3.0), r"drive\.source\.shaft: required")
    rejects(drive(shaft="input", value=3.0), r"drive\.source\.shaft: coincides")
    rejects(drive(shaft="O9", value=3.0), r"drive\.source\.shaft: no such shaft")
    rejects(drive(shaft="O1", kind="brake", value=3.0), r"drive\.source\.kind: expected")
    doc = drive(shaft="O1", value=3.0)
    doc["loads"]["input"] = {"kind": "viscous", "b": 1.0}
    rejects(doc, r"loads\.input: drive\.mode 'input_locked' already holds")


def rejects(doc, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(doc)


def test_unknown_fields_rejected_with_paths():
    doc = base_doc()
    doc["typo"] = 1
    rejects(doc, "scenario: unknown field")

    doc = base_doc()
    doc["sim"]["step"] = 1e-3
    rejects(doc, "sim: unknown field")

    doc = base_doc()
    doc["sim"]["epsilon_inertia"] = 1e-8
    rejects(doc, r"sim: unknown field\(s\) epsilon_inertia")

    doc = base_doc()
    doc["sim"]["omega_eps"] = 1e-4
    rejects(doc, r"sim: unknown field\(s\) omega_eps")

    doc = base_doc()
    doc["loads"]["O1"]["color"] = "red"
    rejects(doc, r"loads\.O1: unknown field")


def test_missing_required_sections():
    doc = base_doc()
    del doc["drive"]
    rejects(doc, "missing required field 'drive'")
    doc = base_doc()
    del doc["sim"]
    rejects(doc, "missing required field 'sim'")
    doc = base_doc()
    del doc["sim"]["duration"]
    rejects(doc, r"sim\.duration: required")


def test_mechanism_requires_exactly_one_source():
    doc = base_doc()
    doc["mechanism"] = {}
    rejects(doc, "exactly one of 'builder' or 'inline'")
    doc["mechanism"] = {"builder": "3ood", "inline": {}}
    rejects(doc, "exactly one of 'builder' or 'inline'")


def test_bad_values_name_the_field():
    doc = base_doc()
    doc["loads"]["O1"]["b"] = "strong"
    rejects(doc, r"loads\.O1\.b: expected a number")

    doc = base_doc()
    doc["drive"]["value"] = True
    rejects(doc, r"drive\.value: expected a number")

    doc = base_doc()
    doc["loads"]["O1"] = {"kind": "magnetic"}
    rejects(doc, r"loads\.O1\.kind: expected one of")

    doc = base_doc()
    doc["loads"] = {"phantom": {"kind": "free"}}
    rejects(doc, r"loads\.phantom: no such shaft")

    # a meaning of the values, checked on reading rather than at the run
    doc = base_doc()
    doc["sim"].update(integrator="rk4", initial="rest")
    rejects(doc, r"sim\.initial: 'rest' conflicts with a nonzero prescribed speed under rk4")


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d["loads"]["O1"].update(b=float("nan")), r"loads\.O1\.b"),
        (
            lambda d: d.update(drive={"mode": "torque", "series": [[0.0, 1.0], [0.1, float("inf")]]}),
            r"drive\.series\[1\]",
        ),
        (
            lambda d: d.update(mechanism={"inline": _inline_pair(ratio=float("nan"))}),
            r"elements\[0\]\.params\.ratio: must be finite and nonzero, got nan",
        ),
        (lambda d: d.update(mechanism={"inline": _inline_pair(inertia=float("nan"))}), "inertia"),
    ],
    ids=["nan-viscous-b", "infinite-series-value", "nan-fixed-ratio", "nan-inertia"],
)
def test_non_finite_numbers_rejected(tmp_path, edit, field):
    doc = base_doc()
    doc["loads"] = {"O1": {"kind": "viscous", "b": 1.0}}
    edit(doc)
    if "inline" in doc["mechanism"]:
        doc["drive"]["shaft"] = "x"
        doc["loads"] = {}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))  # json writes NaN / Infinity literals
    with pytest.raises(ScenarioError, match=field):
        load_scenario(path)


def _inline_pair(ratio=2.0, inertia=1.0, **params):
    return {
        "shafts": [{"name": "x", "inertia": inertia}, {"name": "y", "inertia": 1.0}],
        "elements": [
            {"kind": "fixed_ratio", "ports": {"a": "x", "b": "y"}, "params": {"ratio": ratio, **params}}
        ],
        "external": ["x", "y"],
    }


def test_series_validation():
    doc = base_doc()
    doc["drive"] = {"mode": "torque", "series": [[0.0, 1.0]]}
    rejects(doc, "at least two")
    doc["drive"] = {"mode": "torque", "series": [[0.0, 1.0], [0.0, 2.0]]}
    rejects(doc, "strictly increasing")
    doc["drive"] = {"mode": "torque", "series": [[0.0, 1.0], ["x", 2.0]]}
    rejects(doc, r"series\[1\]")
    # a library series is checked when it is built
    for times in ([0.0, 0.02, 0.01], [0.0, math.nan, 0.02]):
        with pytest.raises(ScenarioError, match="^times must be finite and strictly increasing$"):
            Series(np.array(times), np.array([1.0, 5.0, 3.0]))
    # values of another length, or not numbers, would end simulate in a
    # bare error from np.interp
    with pytest.raises(ScenarioError, match="^values must be one per time: 3 values for 2 times$"):
        Series(np.array([0.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ScenarioError, match="^values must be numbers, got an array of <U1$"):
        Series(np.array([0.0, 1.0]), np.array(["a", "b"]))
    with pytest.raises(ScenarioError, match="^times must be numbers, got an array of bool$"):
        Series(np.array([False, True]), np.array([1.0, 2.0]))


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(base_doc()))
    sf = load_scenario(path)
    assert sf.scenario.name == "case"

    path.write_text("{broken")
    with pytest.raises(ScenarioError, match="line 1 column"):
        load_scenario(path)

    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "absent.json")


def test_default_name_comes_from_file_stem(tmp_path):
    doc = base_doc()
    del doc["name"]
    path = tmp_path / "spinup.json"
    path.write_text(json.dumps(doc))
    assert load_scenario(path).scenario.name == "spinup"


_LIBRARY = Scenario(
    graph=build_3ood(),
    drive=Drive.velocity(20.0),
    loads={"O1": Viscous(1.0)},
    options=SimOptions(duration=0.01),
)


def _loads(**loads):
    return replace(_LIBRARY, loads=loads)


def _sim(**options):
    return replace(_LIBRARY, options=SimOptions(**{"duration": 0.01, **options}))


def _doc_sim(**sim):
    return lambda d: d["sim"].update(sim)


def _rk4(scenario):
    return replace(scenario, options=replace(scenario.options, integrator="rk4"))


_UNJOINED_PAIRS = {
    "shafts": [{"name": name} for name in "xyuv"],
    "elements": [
        {"kind": "fixed_ratio", "ports": {"a": "x", "b": "y"}, "params": {"ratio": 2.0}},
        {"kind": "fixed_ratio", "ports": {"a": "u", "b": "v"}, "params": {"ratio": 2.0}},
    ],
    "external": ["x", "y"],
}
_NAN_SERIES = Drive.torque(Series(np.array([0.0, 1.0]), np.array([math.nan, 1.0])))
_NAN_LATER = AppliedTorque(lambda t: math.nan if t > 0.005 else -0.1)


@pytest.mark.parametrize(
    "case, field",
    [
        (_loads(O1=Viscous(math.nan)), r"loads\.O1\.b: must be finite and >= 0, got nan"),
        (_loads(O1=Viscous(-1.0)), r"loads\.O1\.b: must be finite and >= 0, got -1"),
        (_loads(O2=ConstantResistive(math.inf)), r"loads\.O2\.tau: must be finite and >= 0"),
        (_loads(O2=ConstantResistive(-0.5)), r"loads\.O2\.tau: must be finite and >= 0"),
        (_loads(O3=AppliedTorque(math.nan)), r"loads\.O3\.tau: must be finite, got nan"),
        (replace(_LIBRARY, drive=Drive.torque(math.nan)), r"drive\.value: must be finite"),
        (replace(_LIBRARY, drive=Drive.velocity(-math.inf)), r"drive\.value: must be finite"),
        (_sim(duration=math.inf), r"sim\.duration: must be finite and > 0"),
        (_sim(dt=math.inf), r"sim\.dt: must be finite and > 0"),
        (_sim(dt=0.0), r"sim\.dt: must be finite and > 0"),
        (_sim(initial="moving"), r"sim\.initial: expected"),
        (_sim(duration="0.01"), r"sim\.duration: expected a number, got '0\.01'$"),
        (_sim(dt=True), r"sim\.dt: expected a number, got True$"),
        (_sim(record_torques="no"), r"sim\.record_torques: expected true or false, got 'no'$"),
        (replace(_LIBRARY, drive=Drive.torque("1")), r"drive\.value: expected a number, got '1'$"),
        (replace(_LIBRARY, drive=Drive.torque(True)), r"drive\.value: expected a number, got True$"),
        (_loads(O1=Viscous(True)), r"loads\.O1\.b: expected a number, got True$"),
        (_loads(O2=ConstantResistive("0.5")), r"loads\.O2\.tau: expected a number, got '0\.5'$"),
        (_loads(O3=AppliedTorque(True)), r"loads\.O3\.tau: expected a number, got True$"),
        (replace(_LIBRARY, drive=_NAN_SERIES), r"drive\.value: not finite at t=0 s, got nan"),
        (_rk4(replace(_LIBRARY, drive=_NAN_SERIES)), r"drive\.value: not finite at t=0 s"),
        (_loads(O3=_NAN_LATER), r"loads\.O3\.tau: not finite at t=0\.0051 s, got nan"),
        (_rk4(_loads(O3=_NAN_LATER)), r"loads\.O3\.tau: not finite at t=0\.0051 s"),
        (lambda d: d["loads"]["O1"].update(b=-1.0), r"loads\.O1\.b: must be finite and >= 0"),
        (lambda d: d["loads"]["O2"].update(tau=-0.5), r"loads\.O2\.tau: must be finite and >= 0"),
        (_doc_sim(dt=-1e-3), r"sim\.dt: must be finite and > 0"),
        (_doc_sim(duration=1e308, dt=1e-300), r"sim\.dt: 1e-300 is too small for sim\.duration"),
        (_doc_sim(initial="moving"), r"sim\.initial: expected"),
        (lambda d: d["drive"].update(mode="spin"), r"drive\.mode: expected one of .*, got 'spin'"),
        (
            lambda d: d.update(mechanism={"inline": _inline_pair(gain=3.0)}),
            r"mechanism\.inline: elements\[0\] \(fixed_ratio\): .*unexpected keyword argument 'gain'",
        ),
        (
            lambda d: d.update(mechanism={"inline": _UNJOINED_PAIRS}),
            r"mechanism: graph splits into 2 disconnected groups: \{x, y\}; \{u, v\}$",
        ),
        (
            lambda d: d.update(mechanism={"builder": "nope"}),
            r"mechanism: unknown mechanism builder 'nope'; available: 2-2d, 2od, 3ood, initial",
        ),
        (
            lambda d: d.update(mechanism={"builder": "3ood", "params": {"gain": 2.0}}),
            r"mechanism: bad parameters for builder '3ood': .*unexpected keyword argument 'gain'",
        ),
        (
            lambda d: d.update(mechanism={"builder": "3ood", "params": {"ratio_j": 0}}),
            r"mechanism: ratio_j: must be finite and > 0, got 0\.0$",
        ),
        (
            lambda d: d.update(drive={"mode": "input_locked", "source": {"shaft": "O1", "value": "x"}}),
            r"drive\.source\.value: expected a number, got 'x'$",
        ),
    ],
    ids=[
        "nan-viscous", "negative-viscous", "infinite-resistive", "negative-resistive",
        "nan-applied-torque", "nan-torque-drive", "infinite-velocity-drive", "infinite-duration",
        "infinite-dt", "zero-dt", "unknown-initial", "string-duration", "bool-dt",
        "string-record-torques", "string-torque-drive", "bool-torque-drive", "bool-viscous",
        "string-resistive", "bool-applied-torque", "nan-series-drive", "nan-series-drive-rk4",
        "nan-callable-load", "nan-callable-load-rk4",
        "file-negative-viscous", "file-negative-resistive", "file-negative-dt",
        "file-step-count-overflow", "file-unknown-initial", "file-unknown-drive-mode",
        "file-inline-unknown-parameter", "file-disconnected-inline", "file-unknown-builder",
        "file-unknown-builder-parameter", "file-zero-ratio-j", "file-string-source-value",
    ],
)
def test_bad_values_are_scenario_errors_naming_the_field(tmp_path, capsys, case, field):
    # A library scenario fails in simulate, before any step; a file fails
    # to load and the command line exits 1 with the same message.
    if isinstance(case, Scenario):
        with pytest.raises(ScenarioError, match=field):
            simulate(case)
        return
    doc = base_doc()
    case(doc)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=field):
        load_scenario(path)
    assert main(["simulate", str(path)]) == 1
    assert re.match(f"error: {field}", capsys.readouterr().err)
