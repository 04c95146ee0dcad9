"""Mechanism graphs: rigid shafts joined by ideal lossless gear elements.

A mechanism is a set of shafts (one rotational state each) connected by
elements that impose linear relations on shaft speeds.  Every element is
lossless: its torque map is the transpose of its velocity-constraint row,
so instantaneous power sums to zero across its ports.

Typical construction::

    g = MechanismGraph()
    ring = g.add_shaft("ring", inertia=1e-3, role="input")
    a = g.add_shaft("side_a", inertia=1e-3, role="output")
    b = g.add_shaft("side_b", inertia=1e-3, role="output")
    g.add_element(Differential(ring=ring, side_a=a, side_b=b))
    g.set_external("ring", "side_a", "side_b")
    g.finalize()

Shaft ids are plain integers, assigned densely in insertion order, and
double as row indices into velocity/acceleration vectors.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Union, get_args

from .errors import GraphValidationError

SHAFT_ROLES = ("input", "output", "ring", "side", "intermediate")


@dataclass(frozen=True)
class Shaft:
    """A rigid rotating body with a single angular-velocity state.

    inertia is in kg*m^2; zero means "ideal massless".  The dynamics
    layer simulates massless shafts as declared, provided every feasible
    motion of the mechanism still moves some inertia.
    """

    id: int
    name: str
    inertia: float = 0.0
    role: str = "intermediate"


# --------------------------------------------------------------------------
# Elements.  Each one contributes a single row c to the constraint matrix,
# meaning c . omega = 0, and applies torque c_s * lambda to shaft s where
# lambda is the row's constraint multiplier.  An element declares that row
# once, in row(); its ports and parameters are read off the row and the
# dataclass fields.
# --------------------------------------------------------------------------


class _Element:
    """What every element derives from its ``row()``: one (port, shaft id,
    coefficient) triple per port, in port order."""

    def ports(self) -> list[tuple[str, int]]:
        return [(port, sid) for port, sid, _ in self.row()]

    def params(self) -> dict:
        """The fields that are neither a port nor ``name``, in field order."""
        ports = {port for port, _, _ in self.row()}
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ports and f.name != "name"
        }


@dataclass(frozen=True)
class Differential(_Element):
    """Open bevel differential: the ring turns at the average of its sides.

    Velocity law 2*w_ring - w_side_a - w_side_b = 0; the conjugate torque
    map splits ring torque equally between the two sides.
    """

    ring: int
    side_a: int
    side_b: int
    name: str = ""

    kind = "differential"

    def row(self) -> list[tuple[str, int, float]]:
        return [("ring", self.ring, 2.0), ("side_a", self.side_a, -1.0), ("side_b", self.side_b, -1.0)]


@dataclass(frozen=True)
class WormPair(_Element):
    """Worm driving a worm wheel with speed reduction ratio_k > 0.

    Velocity law w_wheel = w_worm / k.  The conjugate torque map scales
    wheel torque down by k on the worm side.  ``self_locking`` is a
    descriptive flag: nothing in the model reads it, and saved mechanism
    files carry it.
    """

    worm: int
    wheel: int
    ratio_k: float
    self_locking: bool = True
    name: str = ""

    kind = "worm_pair"

    def __post_init__(self):
        require_number(self.ratio_k, "ratio_k", bound="> 0")
        if not isinstance(self.self_locking, bool):
            raise GraphValidationError(
                f"self_locking: expected true or false, got {self.self_locking!r}"
            )

    def row(self) -> list[tuple[str, int, float]]:
        return [("worm", self.worm, -1.0 / self.ratio_k), ("wheel", self.wheel, 1.0)]


@dataclass(frozen=True)
class FixedRatio(_Element):
    """Ideal gear pair w_b = ratio * w_a with ratio != 0."""

    a: int
    b: int
    ratio: float
    name: str = ""

    kind = "fixed_ratio"

    def __post_init__(self):
        require_number(self.ratio, "ratio", bound="nonzero")

    def row(self) -> list[tuple[str, int, float]]:
        return [("a", self.a, -self.ratio), ("b", self.b, 1.0)]


@dataclass(frozen=True)
class RigidCoupling(_Element):
    """Two shafts locked together, w_b = sign * w_a with sign +1 or -1."""

    a: int
    b: int
    sign: int = 1
    name: str = ""

    kind = "rigid_coupling"

    def __post_init__(self):
        require_number(self.sign, "sign")
        if self.sign not in (1, -1):
            raise GraphValidationError(f"sign: must be +1 or -1, got {self.sign}")

    def row(self) -> list[tuple[str, int, float]]:
        return [("a", self.a, -float(self.sign)), ("b", self.b, 1.0)]


@dataclass(frozen=True)
class Planetary(_Element):
    """Epicyclic stage obeying w_sun + rho*w_ring = (1 + rho)*w_carrier.

    rho > 0 is the ring-to-sun tooth ratio.
    """

    sun: int
    ring: int
    carrier: int
    rho: float
    name: str = ""

    kind = "planetary"

    def __post_init__(self):
        require_number(self.rho, "rho", bound="> 0")

    def row(self) -> list[tuple[str, int, float]]:
        return [
            ("sun", self.sun, 1.0),
            ("ring", self.ring, self.rho),
            ("carrier", self.carrier, -(1.0 + self.rho)),
        ]


Element = Union[Differential, WormPair, FixedRatio, RigidCoupling, Planetary]

_ELEMENT_KINDS = {cls.kind: cls for cls in get_args(Element)}


# --------------------------------------------------------------------------
# Loads, attached per shaft by a scenario.  Time-varying values are plain
# callables t -> value; constant values are checked by Scenario.validate.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Free:
    """No load."""


@dataclass(frozen=True)
class Viscous:
    """Torque -b * omega with damping coefficient b >= 0."""

    b: float


OMEGA_EPS = 1e-4  # rad/s, width of the resistive-load tanh regularization


@dataclass(frozen=True)
class ConstantResistive:
    """Speed-opposing torque of fixed magnitude tau >= 0.

    Regularized near zero speed as -tau * tanh(omega / OMEGA_EPS) to keep
    the right-hand side smooth.
    """

    tau: float


@dataclass(frozen=True)
class Locked:
    """Shaft held at zero speed by an ideal brake."""


@dataclass(frozen=True)
class AppliedTorque:
    """External torque as a constant or a callable of time."""

    tau: float | Callable[[float], float]

    def value(self, t: float) -> float:
        return self.tau(t) if callable(self.tau) else self.tau


Load = Union[Free, Viscous, ConstantResistive, Locked, AppliedTorque]


class MechanismGraph:
    """Mutable-until-finalized collection of shafts and elements.

    After :meth:`finalize` the graph rejects further mutation, so a
    finalized graph cannot change under a frozen ``Scenario`` or a
    recorded ``Trajectory`` that holds it.  ``finalize`` also derives
    ``meta`` from the graph, so a graph saved and loaded back has the
    same: ``outputs`` are the shafts of role ``"output"``, ``input`` the
    one shaft of role ``"input"`` if there is exactly one, and a 3ood
    adds the keys its own checks read (see ``_three_output_meta``).
    """

    def __init__(self):
        self.shafts: list[Shaft] = []
        self.elements: list[Element] = []
        self.external: set[int] = set()
        self.meta: dict = {}
        self._by_name: dict[str, int] = {}
        self._finalized = False

    # -- construction -------------------------------------------------

    def add_shaft(self, name: str, inertia: float = 0.0, role: str = "intermediate") -> int:
        """Add a shaft and return its id (dense, insertion-ordered)."""
        self._check_mutable()
        if name in self._by_name:
            raise GraphValidationError(f"duplicate shaft name {name!r}")
        if role not in SHAFT_ROLES:
            raise GraphValidationError(f"unknown shaft role {role!r}; expected one of {SHAFT_ROLES}")
        require_number(inertia, f"shaft {name!r} inertia", bound=">= 0")
        sid = len(self.shafts)
        self.shafts.append(Shaft(id=sid, name=name, inertia=float(inertia), role=role))
        self._by_name[name] = sid
        return sid

    def add_element(self, element: Element) -> int:
        """Attach an element; all its ports must reference existing shafts."""
        self._check_mutable()
        seen: set[int] = set()
        for port, sid, _ in element.row():
            if not (isinstance(sid, int) and 0 <= sid < len(self.shafts)):
                raise GraphValidationError(
                    f"element {element.kind}: port {port!r} references unknown shaft {sid!r}"
                )
            if sid in seen:
                raise GraphValidationError(
                    f"element {element.kind}: shaft {self.shafts[sid].name!r} "
                    f"appears in more than one port"
                )
            seen.add(sid)
        if not element.name:
            element = replace(element, name=f"e{len(self.elements)}")
        elif any(e.name == element.name for e in self.elements):
            raise GraphValidationError(f"duplicate element name {element.name!r}")
        self.elements.append(element)
        return len(self.elements) - 1

    def set_external(self, *names: str) -> None:
        """Mark the named shafts as the mechanism's outside-world ports."""
        self._check_mutable()
        self.external = {self.shaft_id(n) for n in names}

    def finalize(self) -> "MechanismGraph":
        """Freeze the graph and derive ``meta``; returns self for chaining."""
        self._finalized = True
        inputs = [s for s in self.shafts if s.role == "input"]
        self.meta = {"outputs": [s.name for s in self.shafts if s.role == "output"]}
        if len(inputs) == 1:
            self.meta.update(input=inputs[0].name, **_three_output_meta(self, inputs[0].id))
        return self

    def _check_mutable(self):
        if self._finalized:
            raise GraphValidationError("graph is finalized; no further mutation allowed")

    # -- lookup --------------------------------------------------------

    @property
    def n_shafts(self) -> int:
        return len(self.shafts)

    def shaft_id(self, name: str) -> int:
        try:
            return self._by_name[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name from a document
            raise GraphValidationError(f"no shaft named {name!r}") from None

    def shaft_name(self, sid: int) -> str:
        return self.shafts[sid].name

    def shaft_names(self) -> list[str]:
        return [s.name for s in self.shafts]

    def element(self, name: str) -> Element:
        for e in self.elements:
            if e.name == name:
                return e
        raise GraphValidationError(f"no element named {name!r}")

    def inertias(self) -> list[float]:
        return [s.inertia for s in self.shafts]

    def external_names(self) -> list[str]:
        return sorted(self.shafts[i].name for i in self.external)

    # -- validation ----------------------------------------------------

    def require_valid(self) -> None:
        """Raise GraphValidationError if the graph is empty or disconnected.

        Reference and duplication errors cannot occur here because the
        mutators reject them up front.
        """
        if self.n_shafts == 0:
            raise GraphValidationError("graph has no shafts")
        comp = self._components()
        if len(comp) > 1:
            groups = ["{" + ", ".join(sorted(self.shafts[i].name for i in c)) + "}" for c in comp]
            raise GraphValidationError(
                f"graph splits into {len(comp)} disconnected groups: " + "; ".join(groups)
            )

    def _components(self) -> list[set[int]]:
        parent = list(range(self.n_shafts))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.elements:
            ids = [sid for _, sid, _ in e.row()]
            for other in ids[1:]:
                ra, rb = find(ids[0]), find(other)
                if ra != rb:
                    parent[rb] = ra
        groups: dict[int, set[int]] = {}
        for i in range(self.n_shafts):
            groups.setdefault(find(i), set()).add(i)
        return list(groups.values())

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data description: shafts, elements, external shaft names."""
        return {
            "shafts": [
                {"name": s.name, "inertia": s.inertia, "role": s.role} for s in self.shafts
            ],
            "elements": [
                {
                    "kind": e.kind,
                    "ports": {port: self.shafts[sid].name for port, sid, _ in e.row()},
                    "params": e.params(),
                    "name": e.name,
                }
                for e in self.elements
            ],
            "external": self.external_names(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MechanismGraph":
        """Inverse of :meth:`to_dict`, finalized; validates fields and references."""
        g = cls()
        try:
            shafts = doc["shafts"]
            elements = doc["elements"]
            external = doc.get("external", [])
        except (KeyError, TypeError) as exc:
            raise GraphValidationError(f"mechanism document missing section: {exc}") from None
        reject_unknown_fields(doc, "", ("elements", "external", "shafts"))
        if not isinstance(external, list):
            raise GraphValidationError(
                f"external: expected a list of shaft names, got {type(external).__name__}"
            )
        for i, s in enumerate(shafts):
            if not isinstance(s, dict) or not isinstance(s.get("name"), str):
                raise GraphValidationError(f"shafts[{i}].name: expected a shaft name string")
            reject_unknown_fields(s, f"shafts[{i}]", ("inertia", "name", "role"))
            inertia = require_number(s.get("inertia", 0.0), f"shafts[{i}].inertia", bound=">= 0")
            g.add_shaft(s["name"], inertia=inertia, role=s.get("role", "intermediate"))
        for i, e in enumerate(elements):
            if not isinstance(e, dict) or not all(
                isinstance(e.get(k, {}), dict) for k in ("ports", "params")
            ):
                raise GraphValidationError(
                    f"elements[{i}]: expected an object whose ports and params are objects"
                )
            reject_unknown_fields(e, f"elements[{i}]", ("kind", "name", "params", "ports"))
            kind = e.get("kind")
            if not isinstance(kind, str) or kind not in _ELEMENT_KINDS:
                raise GraphValidationError(f"elements[{i}]: unknown kind {kind!r}")
            ports = {p: g.shaft_id(n) for p, n in e.get("ports", {}).items()}
            try:
                element = _ELEMENT_KINDS[kind](**ports, **e.get("params", {}), name=e.get("name", ""))
            except TypeError as exc:
                raise GraphValidationError(f"elements[{i}] ({kind}): {exc}") from None
            except GraphValidationError as exc:  # the element names the parameter
                raise GraphValidationError(f"elements[{i}].params.{exc}") from None
            g.add_element(element)
        g.set_external(*external)
        return g.finalize()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MechanismGraph":
        return cls.from_dict(read_json(path))


def _three_output_meta(g: MechanismGraph, inp: int) -> dict:
    """The 3ood keys of ``meta`` if ``g`` is a ``build_3ood`` graph up to
    shaft names, element names and order; else an empty dict.

    Three worm pairs of one k drive the rings of three first-stage
    differentials from the input.  Six +1 couplings join each first-stage
    side to one second-stage side, and each second-stage differential
    bridges two different first-stage ones.  So in the graph of stages
    every differential has degree 2 and no two share two couplings: it is
    a union of even cycles of length >= 4 on 3 + 3 nodes, that is one
    6-cycle, the ring of ``build_3ood``.  Three fixed ratios of one j > 0
    lead from the second-stage rings to the outputs; 22 shafts and 18
    elements leave nothing else.  Only the input and the six second-stage
    sides carry inertia, the sides equally, as ``output_torque_sum`` (the
    only inertia it counts) and the equal-load checks (symmetry) assume.
    """
    kinds = {kind: [e for e in g.elements if e.kind == kind] for kind in _ELEMENT_KINDS}
    worms, diffs = kinds["worm_pair"], kinds["differential"]
    couplings, ratios = kinds["rigid_coupling"], kinds["fixed_ratio"]
    ring_of = {d.ring: d for d in diffs}
    first = [ring_of.get(w.wheel) for w in worms]
    second = [d for d in diffs if d not in first]
    counts = (len(worms), len(second), len(couplings), len(ratios), len(g.elements), g.n_shafts)
    if counts != (3, 3, 6, 3, 18, 22) or None in first:
        return {}
    stage_of = {s: n for n, d in enumerate(first) for s in (d.side_a, d.side_b)}
    # second-stage side -> the first-stage side coupled to it
    fed = dict((c.b, c.a) if c.a in stage_of else (c.a, c.b) for c in couplings)
    second_sides = [s for d in second for s in (d.side_a, d.side_b)]
    if not (
        len({inp, *(d.ring for d in diffs), *stage_of, *fed, *(r.b for r in ratios)}) == 22
        and all(w.worm == inp and w.ratio_k == worms[0].ratio_k for w in worms)
        and all(c.sign == 1 for c in couplings)
        and sorted(fed.values()) == sorted(stage_of) and set(fed) == set(second_sides)
        and all(stage_of[fed[d.side_a]] != stage_of[fed[d.side_b]] for d in second)
        and {r.a for r in ratios} == {d.ring for d in second}
        and {r.b for r in ratios} == {s.id for s in g.shafts if s.role == "output"}
        and all(r.ratio == ratios[0].ratio > 0 for r in ratios)
        and all(s.inertia == 0 or s.id in {inp, *second_sides} for s in g.shafts)
        and len({g.shafts[s].inertia for s in second_sides}) == 1
    ):
        return {}
    return {
        "family": "3ood",
        "ratio_k": worms[0].ratio_k,
        "ratio_j": ratios[0].ratio,
        "worms": [w.name for w in worms],
        "first_diffs": [d.name for d in first],
        "ratios": [r.name for r in ratios],
        "first_sides": [g.shaft_name(s) for s in stage_of],
        "second_sides": [g.shaft_name(s) for s in second_sides],
    }


def read_json(path, error=GraphValidationError):
    """The JSON document in the file at ``path``.

    Bytes that are not UTF-8, or text that is not JSON, raise ``error``
    naming the file, with the line and column of the fault.
    """
    raw = Path(path).read_bytes()
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        # in characters, as JSON errors count it; the line before the
        # fault is valid UTF-8
        column = len(raw[raw.rfind(b"\n", 0, exc.start) + 1 : exc.start].decode("utf-8")) + 1
        raise error(
            f"{path}: not UTF-8 text at line {line} column {column}: "
            f"byte 0x{raw[exc.start]:02x}"
        ) from None
    except json.JSONDecodeError as exc:
        raise error(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


_BOUNDS = {
    "": lambda v: True,
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    "nonzero": lambda v: v != 0,
}


def require_number(value: object, path: str, error=GraphValidationError, bound: str = "") -> float:
    """``value`` as a float when it is a real number, not a boolean, finite
    and within ``bound`` (a key of ``_BOUNDS``); else raise ``error``
    naming ``path``.  gearnet's one rule for a number, library or file.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{path}: expected a number, got {value!r}")
    if not (math.isfinite(value) and _BOUNDS[bound](value)):
        within = f" and {bound}" if bound else ""
        raise error(f"{path}: must be finite{within}, got {value}")
    return float(value)


def reject_unknown_fields(
    mapping: dict, path: str, allowed: tuple[str, ...], error=GraphValidationError
) -> None:
    """Raise ``error`` naming every key of ``mapping`` not in ``allowed``."""
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        where = f"{path}: " if path else ""
        raise error(f"{where}unknown field(s) {', '.join(unknown)}; allowed: {', '.join(allowed)}")
