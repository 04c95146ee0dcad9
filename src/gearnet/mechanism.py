"""Mechanism graphs: rigid shafts joined by ideal lossless gear elements.

A mechanism is a set of shafts (one rotational state each) connected by
elements that impose linear relations on shaft speeds.  Every element is
lossless: its torque map is the transpose of its velocity-constraint row,
so instantaneous power sums to zero across its ports.

Typical construction::

    g = MechanismGraph()
    ring = g.add_shaft("ring", inertia=1e-3, role="ring")
    a = g.add_shaft("side_a", inertia=1e-3, role="side")
    b = g.add_shaft("side_b", inertia=1e-3, role="side")
    g.add_element(Differential(ring=ring, side_a=a, side_b=b))
    g.set_external("ring", "side_a", "side_b")
    g.finalize()

Shaft ids are plain integers, assigned densely in insertion order, and
double as row indices into velocity/acceleration vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Union

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
# lambda is the row's constraint multiplier.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Differential:
    """Open bevel differential: the ring turns at the average of its sides.

    Velocity law 2*w_ring - w_side_a - w_side_b = 0; the conjugate torque
    map splits ring torque equally between the two sides.
    """

    ring: int
    side_a: int
    side_b: int
    name: str = ""

    kind = "differential"

    def ports(self) -> list[tuple[str, int]]:
        return [("ring", self.ring), ("side_a", self.side_a), ("side_b", self.side_b)]

    def row_entries(self) -> list[tuple[int, float]]:
        return [(self.ring, 2.0), (self.side_a, -1.0), (self.side_b, -1.0)]

    def params(self) -> dict:
        return {}


@dataclass(frozen=True)
class WormPair:
    """Worm driving a worm wheel with speed reduction ratio_k > 0.

    Velocity law w_wheel = w_worm / k.  The conjugate torque map scales
    wheel torque down by k on the worm side.  ``self_locking`` is a
    modeling flag only: motion never propagates wheel-to-worm when the
    worm side is velocity-pinned, which is how the locked-input drive
    regime represents it.
    """

    worm: int
    wheel: int
    ratio_k: float
    self_locking: bool = True
    name: str = ""

    kind = "worm_pair"

    def __post_init__(self):
        if not 0 < self.ratio_k < math.inf:
            raise GraphValidationError(
                f"worm pair ratio_k must be finite and > 0, got {self.ratio_k}"
            )

    def ports(self) -> list[tuple[str, int]]:
        return [("worm", self.worm), ("wheel", self.wheel)]

    def row_entries(self) -> list[tuple[int, float]]:
        return [(self.worm, -1.0 / self.ratio_k), (self.wheel, 1.0)]

    def params(self) -> dict:
        return {"ratio_k": self.ratio_k, "self_locking": self.self_locking}


@dataclass(frozen=True)
class FixedRatio:
    """Ideal gear pair w_b = ratio * w_a with ratio != 0."""

    a: int
    b: int
    ratio: float
    name: str = ""

    kind = "fixed_ratio"

    def __post_init__(self):
        if self.ratio == 0 or not math.isfinite(self.ratio):
            raise GraphValidationError(f"fixed ratio must be finite and nonzero, got {self.ratio}")

    def ports(self) -> list[tuple[str, int]]:
        return [("a", self.a), ("b", self.b)]

    def row_entries(self) -> list[tuple[int, float]]:
        return [(self.a, -self.ratio), (self.b, 1.0)]

    def params(self) -> dict:
        return {"ratio": self.ratio}


@dataclass(frozen=True)
class RigidCoupling:
    """Two shafts locked together, w_b = sign * w_a with sign +1 or -1."""

    a: int
    b: int
    sign: int = 1
    name: str = ""

    kind = "rigid_coupling"

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise GraphValidationError(f"coupling sign must be +1 or -1, got {self.sign}")

    def ports(self) -> list[tuple[str, int]]:
        return [("a", self.a), ("b", self.b)]

    def row_entries(self) -> list[tuple[int, float]]:
        return [(self.a, -float(self.sign)), (self.b, 1.0)]

    def params(self) -> dict:
        return {"sign": self.sign}


@dataclass(frozen=True)
class Planetary:
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
        if not 0 < self.rho < math.inf:
            raise GraphValidationError(f"planetary rho must be finite and > 0, got {self.rho}")

    def ports(self) -> list[tuple[str, int]]:
        return [("sun", self.sun), ("ring", self.ring), ("carrier", self.carrier)]

    def row_entries(self) -> list[tuple[int, float]]:
        return [(self.sun, 1.0), (self.ring, self.rho), (self.carrier, -(1.0 + self.rho))]

    def params(self) -> dict:
        return {"rho": self.rho}


Element = Union[Differential, WormPair, FixedRatio, RigidCoupling, Planetary]

_ELEMENT_KINDS = {
    "differential": Differential,
    "worm_pair": WormPair,
    "fixed_ratio": FixedRatio,
    "rigid_coupling": RigidCoupling,
    "planetary": Planetary,
}


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


@dataclass
class Diagnostic:
    """One validation finding; severity is 'error' or 'warning'."""

    severity: str
    code: str
    message: str


class MechanismGraph:
    """Mutable-until-finalized collection of shafts and elements.

    After :meth:`finalize` the graph rejects further mutation, so solver
    layers can cache assembled matrices safely.  ``meta`` carries builder
    annotations (named shafts, ratios, family tag) used by verification;
    it does not survive JSON serialization.
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
        if not 0 <= inertia < math.inf:
            raise GraphValidationError(
                f"shaft {name!r}: inertia must be finite and >= 0, got {inertia}"
            )
        sid = len(self.shafts)
        self.shafts.append(Shaft(id=sid, name=name, inertia=float(inertia), role=role))
        self._by_name[name] = sid
        return sid

    def add_element(self, element: Element) -> int:
        """Attach an element; all its ports must reference existing shafts."""
        self._check_mutable()
        seen: set[int] = set()
        for port, sid in element.ports():
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
            element = _with_name(element, f"e{len(self.elements)}")
        elif any(e.name == element.name for e in self.elements):
            raise GraphValidationError(f"duplicate element name {element.name!r}")
        self.elements.append(element)
        return len(self.elements) - 1

    def set_external(self, *names: str) -> None:
        """Mark the named shafts as the mechanism's outside-world ports."""
        self._check_mutable()
        self.external = {self.shaft_id(n) for n in names}

    def finalize(self) -> "MechanismGraph":
        """Freeze the graph; returns self for chaining."""
        self._finalized = True
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

    def validate(self) -> list[Diagnostic]:
        """Structural diagnostics; empty list means clean.

        Errors: disconnected shaft groups.  Warnings: every shaft massless
        (simulation raises SingularKKT unless velocity prescriptions or
        semi-implicit viscous damping determine every feasible motion).
        Reference and duplication errors cannot occur here because the
        mutators reject them up front.
        """
        out: list[Diagnostic] = []
        if self.n_shafts == 0:
            out.append(Diagnostic("error", "empty", "graph has no shafts"))
            return out
        comp = self._components()
        if len(comp) > 1:
            groups = ["{" + ", ".join(sorted(self.shafts[i].name for i in c)) + "}" for c in comp]
            out.append(
                Diagnostic(
                    "error",
                    "disconnected",
                    f"graph splits into {len(comp)} disconnected groups: " + "; ".join(groups),
                )
            )
        if all(s.inertia == 0.0 for s in self.shafts):
            out.append(
                Diagnostic(
                    "warning",
                    "zero-inertia",
                    "every shaft has zero inertia; simulation raises SingularKKT "
                    "for any feasible motion that no velocity prescription or "
                    "viscous load determines",
                )
            )
        return out

    def require_valid(self) -> None:
        """Raise GraphValidationError if any error-severity diagnostic exists."""
        bad = [d for d in self.validate() if d.severity == "error"]
        if bad:
            raise GraphValidationError(
                "; ".join(d.message for d in bad), diagnostics=bad
            )

    def _components(self) -> list[set[int]]:
        parent = list(range(self.n_shafts))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.elements:
            ids = [sid for _, sid in e.ports()]
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
                    "ports": {port: self.shafts[sid].name for port, sid in e.ports()},
                    "params": e.params(),
                    "name": e.name,
                }
                for e in self.elements
            ],
            "external": self.external_names(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MechanismGraph":
        """Inverse of :meth:`to_dict`; validates references while loading."""
        g = cls()
        try:
            shafts = doc["shafts"]
            elements = doc["elements"]
            external = doc.get("external", [])
        except (KeyError, TypeError) as exc:
            raise GraphValidationError(f"mechanism document missing section: {exc}") from None
        for i, s in enumerate(shafts):
            if not isinstance(s, dict) or not isinstance(s.get("name"), str):
                raise GraphValidationError(f"shafts[{i}].name: expected a shaft name string")
            inertia = s.get("inertia", 0.0)
            if isinstance(inertia, bool) or not isinstance(inertia, (int, float)):
                raise GraphValidationError(
                    f"shafts[{i}].inertia: expected a number, got {inertia!r}"
                )
            g.add_shaft(s["name"], inertia=float(inertia), role=s.get("role", "intermediate"))
        for i, e in enumerate(elements):
            if not isinstance(e, dict) or not all(
                isinstance(e.get(k, {}), dict) for k in ("ports", "params")
            ):
                raise GraphValidationError(
                    f"elements[{i}]: expected an object whose ports and params are objects"
                )
            kind = e.get("kind")
            if not isinstance(kind, str) or kind not in _ELEMENT_KINDS:
                raise GraphValidationError(f"elements[{i}]: unknown kind {kind!r}")
            try:
                ports = {p: g.shaft_id(n) for p, n in e.get("ports", {}).items()}
                params = e.get("params", {})
                element = _ELEMENT_KINDS[kind](**ports, **params, name=e.get("name", ""))
            except TypeError as exc:
                raise GraphValidationError(f"elements[{i}] ({kind}): {exc}") from None
            g.add_element(element)
        g.set_external(*external)
        return g

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MechanismGraph":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh)).finalize()


def _with_name(element: Element, name: str) -> Element:
    """Return a copy of a frozen element dataclass with its name set."""
    kwargs = {p: sid for p, sid in element.ports()}
    kwargs.update(element.params())
    kwargs["name"] = name
    return type(element)(**kwargs)
