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
shaft of role ``input``) still and optionally drives another shaft
through ``source: {shaft, kind, value|series}``.  It reads as a
:class:`Locked` load on the held shaft plus a ``kind`` drive on
``source.shaft``; with no source, the held shaft gets a velocity drive
of zero.

Validation is strict.  Unknown fields anywhere in the document are
rejected, and every error message names the offending field by dotted
path so a long scenario file can be fixed without guesswork.  This
module checks the document's shape, the numbers of builder parameters
and series pairs, and a constant source ``value``, which becomes the
drive's and would otherwise be named ``drive.value``, a field the file
does not hold; every other value is checked once, by
:meth:`Scenario.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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
    require_number,
)

_TOP_FIELDS = ("name", "mechanism", "drive", "loads", "sim", "outputs")
_LOAD_KINDS: dict[str, type[Load]] = {
    "free": Free,
    "viscous": Viscous,
    "resistive": ConstantResistive,
    "locked": Locked,
    "applied_torque": AppliedTorque,
}
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
    kwargs = {k: require_number(v, f"mechanism.params.{k}", ScenarioError) for k, v in params.items()}
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
    held = Scenario(graph=graph, drive=Drive.velocity(0.0, shaft=held)).drive_shaft()
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
    value = _time_value(s, "drive.source")
    if not isinstance(value, Series):
        require_number(value, "drive.source.value", ScenarioError)
    return Drive(mode=kind, value=value, shaft=driven), held


def _parse_loads(spec: object) -> dict[str, Load]:
    """Each load from the class its ``kind`` names, one field per dataclass field."""
    loads: dict[str, Load] = {}
    for shaft, entry in _mapping(spec, "loads").items():
        path = f"loads.{shaft}"
        e = _mapping(entry, path)
        kind = e.get("kind")
        if not isinstance(kind, str) or kind not in _LOAD_KINDS:
            raise ScenarioError(
                f"{path}.kind: expected one of {', '.join(_LOAD_KINDS)}, got {kind!r}"
            )
        load = _LOAD_KINDS[kind]
        if load is AppliedTorque:  # its tau may be a series
            _known_fields(e, path, ("kind", "tau", "series"))
            loads[shaft] = AppliedTorque(_time_value(e, path, "tau"))
        else:
            names = [f.name for f in fields(load)]
            _known_fields(e, path, ("kind", *names))
            loads[shaft] = load(**{name: e.get(name) for name in names})
    return loads


def _parse_sim(spec: object) -> SimOptions:
    s = _mapping(spec, "sim")
    _known_fields(s, "sim", tuple(f.name for f in fields(SimOptions)))
    if "duration" not in s:
        raise ScenarioError("sim.duration: required")
    return SimOptions(**s)


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


def _optional_str(mapping: dict, path: str, key: str) -> str | None:
    value = mapping.get(key)
    if value is not None and not isinstance(value, str):
        raise ScenarioError(f"{path}.{key}: expected a string, got {type(value).__name__}")
    return value


def _time_value(mapping: dict, path: str, key: str = "value") -> object:
    """A constant ``key`` or an interpolated 'series', exactly one of the two."""
    if (key in mapping) == ("series" in mapping):
        raise ScenarioError(f"{path}: give exactly one of {key!r} or 'series'")
    if key in mapping:
        return mapping[key]
    return _series(mapping["series"], f"{path}.series")


def _series(pairs: object, path: str) -> Series:
    if not isinstance(pairs, list) or len(pairs) < 2:
        raise ScenarioError(f"{path}: expected a list of at least two [t, value] pairs")
    times = np.empty(len(pairs))
    values = np.empty(len(pairs))
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"{path}[{i}]: expected a [t, value] pair of numbers")
        times[i], values[i] = (require_number(x, f"{path}[{i}]", ScenarioError) for x in pair)
    try:
        return Series(times, values)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
