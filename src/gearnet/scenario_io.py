"""Reading and validating scenario documents.

A scenario file is one self-contained JSON document describing an
experiment end to end:

    {
      "name": "spin-up",
      "mechanism": {"builder": "3ood", "params": {"ratio_k": 20.0}},
      "drive": {"mode": "velocity", "value": 20.0},
      "loads": {"O1": {"kind": "viscous", "b": 1.0}},
      "sim": {"duration": 0.5, "dt": 1e-4},
      "outputs": {"trajectory": "run.csv", "report": "report.json"}
    }

``mechanism`` takes either ``builder`` (a registry name, with optional
``params``) or ``inline`` (a full mechanism description in the same shape
``MechanismGraph.to_dict`` produces).  Drive values, drive source values,
and applied-torque loads may be given as a time series instead of a
constant: a list of ``[t, value]`` pairs with strictly increasing times,
linearly interpolated and held constant outside the tabulated range.

Drive mode ``input_locked`` holds the input (``drive.shaft``, or the
graph's input) still and optionally drives another shaft through
``source: {shaft, kind, value|series}``.  It reads as a :class:`Locked`
load on the held shaft plus a ``kind`` drive on ``source.shaft``; with
no source, the held shaft gets a velocity drive of zero.

Validation is strict.  Unknown fields anywhere in the document are
rejected, and every error message names the offending field by dotted
path so a long scenario file can be fixed without guesswork.  This
module checks the document's shape and value types; what the values
mean (shaft names, integrator, initial state) is checked once, by
:meth:`Scenario.validate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .builders import build_by_name
from .dynamics import DRIVE_MODES, Drive, Scenario, Series, SimOptions, _require_shaft
from .errors import GraphValidationError, ScenarioError
from .mechanism import (
    AppliedTorque,
    ConstantResistive,
    Free,
    Load,
    Locked,
    MechanismGraph,
    Viscous,
    read_json,
    reject_unknown_fields,
)

_TOP_FIELDS = ("name", "mechanism", "drive", "loads", "sim", "outputs")
_LOAD_KINDS = ("free", "viscous", "resistive", "locked", "applied_torque")
_DRIVE_MODES = DRIVE_MODES + ("input_locked",)


@dataclass(frozen=True)
class ScenarioFile:
    """A parsed scenario plus the output paths the document asked for."""

    scenario: Scenario
    trajectory_path: str | None = None
    report_path: str | None = None


def load_scenario(path: str | Path) -> ScenarioFile:
    """Read and validate a scenario JSON file.

    Raises ScenarioError with a line/column diagnostic on bytes that are
    not UTF-8 or malformed JSON, and with a dotted field path on schema
    violations.
    """
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {p}")
    return parse_scenario(read_json(p, ScenarioError), default_name=p.stem)


def parse_scenario(doc: object, default_name: str = "") -> ScenarioFile:
    """Validate a scenario document and build the Scenario it describes."""
    top = _mapping(doc, "scenario")
    _known_fields(top, "scenario", _TOP_FIELDS)
    for required in ("mechanism", "drive", "sim"):
        if required not in top:
            raise ScenarioError(f"scenario: missing required field {required!r}")
    name = top.get("name", default_name)
    if not isinstance(name, str):
        raise ScenarioError(f"name: expected a string, got {type(name).__name__}")
    graph = _parse_mechanism(top["mechanism"])
    drive, held = _parse_drive(top["drive"], graph)
    loads = _parse_loads(top.get("loads", {}))
    if held is not None:
        if held in loads:
            raise ScenarioError(
                f"loads.{held}: drive.mode 'input_locked' already holds this shaft"
            )
        if drive.shaft != held:  # a source drives another shaft
            loads = {held: Locked(), **loads}
    options = _parse_sim(top["sim"])
    trajectory_path, report_path = _parse_outputs(top.get("outputs", {}))
    scenario = Scenario(graph=graph, drive=drive, loads=loads, options=options, name=name)
    try:
        scenario.validate()
    except GraphValidationError as exc:  # only the graph check raises one
        raise ScenarioError(f"mechanism: {exc}") from None
    return ScenarioFile(
        scenario=scenario, trajectory_path=trajectory_path, report_path=report_path
    )


# --------------------------------------------------------------------------
# section parsers
# --------------------------------------------------------------------------


def _parse_mechanism(spec: object) -> MechanismGraph:
    m = _mapping(spec, "mechanism")
    _known_fields(m, "mechanism", ("builder", "params", "inline"))
    if ("builder" in m) == ("inline" in m):
        raise ScenarioError("mechanism: give exactly one of 'builder' or 'inline'")
    if "inline" in m:
        if "params" in m:
            raise ScenarioError("mechanism.params: only valid together with 'builder'")
        try:
            return MechanismGraph.from_dict(_mapping(m["inline"], "mechanism.inline"))
        except GraphValidationError as exc:
            raise ScenarioError(f"mechanism.inline: {exc}") from None
    builder = m["builder"]
    if not isinstance(builder, str):
        raise ScenarioError("mechanism.builder: expected a builder name string")
    params = _mapping(m.get("params", {}), "mechanism.params")
    # every builder parameter is a number
    kwargs = {key: _finite(value, f"mechanism.params.{key}") for key, value in params.items()}
    try:
        return build_by_name(builder, **kwargs)
    except GraphValidationError as exc:
        raise ScenarioError(f"mechanism: {exc}") from None


def _parse_drive(spec: object, graph: MechanismGraph) -> tuple[Drive, str | None]:
    """The drive, and the shaft an ``input_locked`` drive holds (else None)."""
    d = _mapping(spec, "drive")
    mode = d.get("mode")
    if mode not in _DRIVE_MODES:
        raise ScenarioError(
            f"drive.mode: expected one of {', '.join(_DRIVE_MODES)}, got {mode!r}"
        )
    if mode != "input_locked":
        _known_fields(d, "drive", ("mode", "shaft", "value", "series"))
        drive = Drive(mode=mode, value=_time_value(d, "drive"), shaft=_optional_str(d, "drive", "shaft"))
        return drive, None
    _known_fields(d, "drive", ("mode", "shaft", "source"))
    held = _optional_str(d, "drive", "shaft")
    if held is None:
        held = graph.meta.get("input")
        if held is None:
            raise ScenarioError("drive.shaft: no shaft given and the graph does not name an input")
    _require_shaft(graph, held, "drive.shaft")
    if "source" not in d:
        return Drive.velocity(0.0, shaft=held), held
    s = _mapping(d["source"], "drive.source")
    _known_fields(s, "drive.source", ("shaft", "kind", "value", "series"))
    if "shaft" not in s:
        raise ScenarioError("drive.source.shaft: required when a source is given")
    driven = s["shaft"]
    if not isinstance(driven, str):
        raise ScenarioError("drive.source.shaft: expected a shaft name string")
    if driven == held:
        raise ScenarioError("drive.source.shaft: coincides with the locked input shaft")
    _require_shaft(graph, driven, "drive.source.shaft")
    kind = s.get("kind", "velocity")
    if kind not in DRIVE_MODES:
        raise ScenarioError(f"drive.source.kind: expected 'velocity' or 'torque', got {kind!r}")
    return Drive(mode=kind, value=_time_value(s, "drive.source"), shaft=driven), held


def _parse_loads(spec: object) -> dict[str, Load]:
    loads_doc = _mapping(spec, "loads")
    loads: dict[str, Load] = {}
    for shaft, entry in loads_doc.items():
        path = f"loads.{shaft}"
        e = _mapping(entry, path)
        kind = e.get("kind")
        if kind not in _LOAD_KINDS:
            raise ScenarioError(
                f"{path}.kind: expected one of {', '.join(_LOAD_KINDS)}, got {kind!r}"
            )
        if kind == "free":
            _known_fields(e, path, ("kind",))
            loads[shaft] = Free()
        elif kind == "viscous":
            _known_fields(e, path, ("kind", "b"))
            loads[shaft] = Viscous(b=_number(e, path, "b"))
        elif kind == "resistive":
            _known_fields(e, path, ("kind", "tau"))
            loads[shaft] = ConstantResistive(tau=_number(e, path, "tau"))
        elif kind == "locked":
            _known_fields(e, path, ("kind",))
            loads[shaft] = Locked()
        else:  # applied_torque
            _known_fields(e, path, ("kind", "tau", "series"))
            if "series" in e:
                if "tau" in e:
                    raise ScenarioError(f"{path}: give 'tau' or 'series', not both")
                loads[shaft] = AppliedTorque(tau=_series(e["series"], f"{path}.series"))
            else:
                loads[shaft] = AppliedTorque(tau=_number(e, path, "tau"))
    return loads


def _parse_sim(spec: object) -> SimOptions:
    s = _mapping(spec, "sim")
    _known_fields(s, "sim", ("duration", "dt", "integrator", "record_torques", "initial"))
    if "duration" not in s:
        raise ScenarioError("sim.duration: required")
    defaults = SimOptions(duration=_number(s, "sim", "duration"))
    record = s.get("record_torques", defaults.record_torques)
    if not isinstance(record, bool):
        raise ScenarioError("sim.record_torques: expected true or false")
    return SimOptions(
        duration=defaults.duration,
        dt=_number(s, "sim", "dt") if "dt" in s else defaults.dt,
        integrator=s.get("integrator", defaults.integrator),
        record_torques=record,
        initial=s.get("initial", defaults.initial),
    )


def _parse_outputs(spec: object) -> tuple[str | None, str | None]:
    o = _mapping(spec, "outputs")
    _known_fields(o, "outputs", ("trajectory", "report"))
    return _optional_str(o, "outputs", "trajectory"), _optional_str(o, "outputs", "report")


# --------------------------------------------------------------------------
# field helpers
# --------------------------------------------------------------------------


def _mapping(obj: object, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _known_fields(mapping: dict, path: str, allowed: tuple[str, ...]) -> None:
    reject_unknown_fields(mapping, path, allowed, ScenarioError)


def _number(mapping: dict, path: str, key: str) -> float:
    return _finite(mapping.get(key), f"{path}.{key}")


def _finite(value: object, path: str) -> float:
    """A JSON number as float; Python's json accepts NaN and Infinity, we do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _optional_str(mapping: dict, path: str, key: str) -> str | None:
    value = mapping.get(key)
    if value is not None and not isinstance(value, str):
        raise ScenarioError(f"{path}.{key}: expected a string, got {type(value).__name__}")
    return value


def _time_value(mapping: dict, path: str) -> float | Series:
    """A constant 'value' or an interpolated 'series', exactly one of the two."""
    if ("value" in mapping) == ("series" in mapping):
        raise ScenarioError(f"{path}: give exactly one of 'value' or 'series'")
    if "value" in mapping:
        return _number(mapping, path, "value")
    return _series(mapping["series"], f"{path}.series")


def _series(pairs: object, path: str) -> Series:
    if not isinstance(pairs, list) or len(pairs) < 2:
        raise ScenarioError(f"{path}: expected a list of at least two [t, value] pairs")
    times = np.empty(len(pairs))
    values = np.empty(len(pairs))
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"{path}[{i}]: expected a [t, value] pair of numbers")
        times[i], values[i] = (_finite(x, f"{path}[{i}]") for x in pair)
    if not np.all(np.diff(times) > 0):
        raise ScenarioError(f"{path}: times must be strictly increasing")
    return Series(times, values)
