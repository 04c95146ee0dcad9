"""Exception types shared across the package."""

from __future__ import annotations


class GearnetError(Exception):
    """Base class for all errors raised by this package."""


class GraphValidationError(GearnetError):
    """A mechanism graph violates a structural rule."""


class InfeasiblePrescription(GearnetError):
    """Prescribed shaft speeds contradict the constraint network."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class UnderdeterminedExternal(GearnetError):
    """Prescriptions leave one or more external shaft speeds free."""

    def __init__(self, message: str, shafts: list[str] | None = None):
        super().__init__(message)
        self.shafts = shafts or []


class SingularKKT(GearnetError):
    """The constrained dynamics have no unique solution.

    ``direction`` holds a unit vector showing why: either a combination
    of constraint rows that is redundant or conflicting (one entry per
    row), or a feasible motion that carries no inertia (one entry per
    shaft).
    """

    def __init__(self, message: str, direction=None):
        super().__init__(message)
        self.direction = direction


class ScenarioError(GearnetError):
    """A scenario description is malformed; message names the offending field."""


class NonFiniteState(GearnetError):
    """A simulation diverged: some speed or acceleration is not finite.

    ``step`` is the first trajectory row holding such a value and
    ``time`` its time in seconds.
    """

    def __init__(self, message: str, step: int, time: float):
        super().__init__(message)
        self.step = step
        self.time = time
