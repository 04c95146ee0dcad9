"""Constrained rigid-body dynamics of mechanism graphs.

The constraint matrix A stacks the element rows C (C @ v = 0) with one
pin row per velocity-prescribed or locked shaft (v_s = p_s(t)).  Every
feasible velocity is v = N @ q + B @ p(t), where N is an orthonormal
kernel basis of A and B the pin columns of A's pseudo-inverse, so each
step solves only the small reduced system in q:

    (N^T W N) q = N^T (rhs - W B p)

with W the diagonal of declared shaft inertias (plus dt times viscous
damping under semi-implicit Euler, which takes viscous load torque at
the end-of-step velocity).  Every state is rebuilt on the constraint
set, so constraint drift does not accumulate.  Massless shafts are
simulated as declared: the reduced matrix only has to be positive
definite, and when some feasible motion carries no inertia at all the
run stops with :class:`SingularKKT` naming that motion.  Constraint
multipliers are recovered after the loop from A^T lambda = W alpha - tau
and kept on the trajectory; every element port torque is its row's
multiplier times the port's coefficient in that row.

A classical fourth-order Runge-Kutta variant is available for
convergence studies.  Apart from the resistive loads' tanh the system
is linear, so one RK4 step is affine in the state, the step's sampled
inputs and the friction torques of its four stages:
v' = Phi v + f + Psi rho, where
Phi = N N^T (I + Z + Z^2/2 + Z^3/6 + Z^4/24) with Z = -dt G diag(damping),
f is linear in the sampled inputs, and rho holds the friction torque of
each stage on each of the r resistive shafts.
The same map gives each stage's speeds at those shafts, linear in v, f
and the torques of the stages before it, so a step takes one
matrix-vector product, then the 4r friction torques in turn as Python
floats, then Psi rho.  Every RK4 run builds the map once; its rates and
stage torques are then evaluated over all states at once.  This is the
textbook step in another order of operations: near zero speed the
friction chatters and amplifies that round-off, as it amplifies any.

Inputs that depend on time only (source and applied torques, pin
targets and their rates) are sampled once, before the loop, on every
time the integrator visits; inside the loop only the resistive torque
depends on the state.  A run that diverges stops with
:class:`NonFiniteState` instead of returning non-finite rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, get_args

import numpy as np

from .errors import (
    GraphValidationError,
    NonFiniteState,
    ScenarioError,
    SingularKKT,
)
from .kinematics import RANK_RTOL, _kernel, constraint_matrix
from .mechanism import (
    OMEGA_EPS,
    AppliedTorque,
    ConstantResistive,
    Load,
    Locked,
    MechanismGraph,
    Viscous,
    require_number,
)

INTEGRATORS = ("semi_implicit_euler", "rk4")
DRIVE_MODES = ("torque", "velocity")


@dataclass(frozen=True, eq=False)
class Series:
    """A tabulated function of time: ``values`` at strictly increasing
    ``times``, linear in between and held constant outside.  Both hold
    numbers, one value per time (else :class:`ScenarioError`).

    Called on a float it returns a float; called on an array of times it
    returns an array, from one interpolation.  Two series are equal only
    when they are the same object, as two functions are.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("times", "values"):
            dtype = np.asarray(getattr(self, name)).dtype
            if dtype.kind not in "iuf":
                raise ScenarioError(f"{name} must be numbers, got an array of {dtype}")
        if np.shape(self.values) != np.shape(self.times):
            raise ScenarioError(
                f"values must be one per time: {np.size(self.values)} values "
                f"for {np.size(self.times)} times"
            )
        if not (np.isfinite(self.times).all() and (np.diff(self.times) > 0).all()):
            raise ScenarioError("times must be finite and strictly increasing")

    def __call__(self, t):
        if np.ndim(t):
            return np.interp(t, self.times, self.values)
        return float(np.interp(t, self.times, self.values))

    def slope(self, t: np.ndarray) -> np.ndarray:
        """The derivative from the right at each of ``t``: the slope of the
        segment that starts there, and 0 where the series is held."""
        slopes = np.append(np.diff(self.values) / np.diff(self.times), 0.0)
        # before the first knot the index is -1, from the last knot on it
        # is len - 1: both pick the appended 0
        return slopes[np.searchsorted(self.times, t, side="right") - 1]


def _sample(value: float | Callable[[float], float], times: np.ndarray, path: str) -> np.ndarray:
    """A constant or a function of time, at each of ``times``.

    A :class:`Series` is interpolated over the whole array at once; any
    other callable is called once per time.  A value that is not finite
    is a :class:`ScenarioError` naming ``path``, the scenario field the
    value came from.
    """
    if isinstance(value, Series):
        samples = value(times)
    elif callable(value):
        samples = np.array([value(t) for t in times], dtype=float)
    else:
        samples = np.full(len(times), value, dtype=float)
    _require_finite_input(samples, times, path)
    return samples


def _require_finite_input(samples: np.ndarray, times: np.ndarray, path: str) -> None:
    finite = np.isfinite(samples)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ScenarioError(f"{path}: not finite at t={times[i]:.6g} s, got {samples[i]}")


@dataclass(frozen=True)
class Drive:
    """How the mechanism is driven.

    mode "torque" applies an effort source tau(t) to the drive shaft;
    "velocity" prescribes the drive shaft's speed omega(t) exactly.  The
    drive shaft is ``shaft``, or the shaft of role ``input`` when that is
    None.  To hold the input still (the worm cannot be back-driven) and
    drive some other shaft, give that shaft here and put a
    :class:`Locked` load on the input.
    """

    mode: str
    value: float | Callable[[float], float] = 0.0
    shaft: str | None = None

    @staticmethod
    def torque(value, shaft: str | None = None) -> "Drive":
        return Drive(mode="torque", value=value, shaft=shaft)

    @staticmethod
    def velocity(value, shaft: str | None = None) -> "Drive":
        return Drive(mode="velocity", value=value, shaft=shaft)

    def value_at(self, t: float) -> float:
        return self.value(t) if callable(self.value) else self.value


@dataclass(frozen=True)
class SimOptions:
    """Integration settings.

    ``record_torques`` picks whether the trajectory CSV carries the element
    port torque columns; the run and its verification are the same either
    way.  initial "consistent" seeds the run with the minimum-norm feasible
    state matching the t=0 prescriptions; "rest" starts every shaft at
    zero, letting the first Euler step absorb any prescribed jump as an
    impulsive (but constraint-consistent) spin-up.
    """

    duration: float = 0.5
    dt: float = 1e-4
    integrator: str = "semi_implicit_euler"
    record_torques: bool = True
    initial: str = "consistent"


@dataclass(frozen=True)
class Scenario:
    """A mechanism plus drive, per-shaft loads, and integration options."""

    graph: MechanismGraph
    drive: Drive
    loads: dict[str, Load] = field(default_factory=dict)
    options: SimOptions = field(default_factory=SimOptions)
    name: str = ""

    def drive_shaft(self) -> str:
        """``drive.shaft``, or else the graph's one shaft of role ``input``."""
        shaft = self.drive.shaft if self.drive.shaft is not None else self.graph.meta.get("input")
        if shaft is None:
            raise ScenarioError("drive.shaft: no shaft given and no single shaft has role 'input'")
        return shaft

    def validate(self) -> None:
        """Raise ScenarioError, naming the field, on any bad value or contradiction.

        It checks the type of every value it reads: each number by
        ``require_number``, and ``sim.record_torques`` is a boolean.  Graph
        errors pass through.  This is the one validator of a scenario,
        library or file; the file reader checks only the document's shape.
        """
        self.graph.require_valid()
        opts = self.options
        require_number(opts.duration, "sim.duration", ScenarioError, "> 0")
        require_number(opts.dt, "sim.dt", ScenarioError, "> 0")
        if not math.isfinite(opts.duration / opts.dt):
            raise ScenarioError(
                f"sim.dt: {opts.dt} is too small for sim.duration {opts.duration}: "
                "the number of steps is not finite"
            )
        if opts.integrator not in INTEGRATORS:
            raise ScenarioError(
                f"sim.integrator: unknown integrator {opts.integrator!r}; "
                f"expected one of {INTEGRATORS}"
            )
        if opts.initial not in ("consistent", "rest"):
            raise ScenarioError(f"sim.initial: expected 'consistent' or 'rest', got {opts.initial!r}")
        if not isinstance(opts.record_torques, bool):
            raise ScenarioError(
                f"sim.record_torques: expected true or false, got {opts.record_torques!r}"
            )
        if self.drive.mode not in DRIVE_MODES:
            raise ScenarioError(
                f"drive.mode: unknown mode {self.drive.mode!r}; expected one of {DRIVE_MODES}"
            )
        if not callable(self.drive.value):
            require_number(self.drive.value, "drive.value", ScenarioError)
        drive_shaft = self.drive_shaft()
        _require_shaft(self.graph, drive_shaft, "drive.shaft")
        if (
            opts.initial == "rest"
            and opts.integrator == "rk4"
            and self.drive.mode == "velocity"
            and _sample(self.drive.value, np.zeros(1), "drive.value")[0] != 0.0
        ):
            raise ScenarioError(
                "sim.initial: 'rest' conflicts with a nonzero prescribed "
                "speed under rk4; use initial='consistent'"
            )
        for name, load in self.loads.items():
            _require_shaft(self.graph, name, f"loads.{name}")
            if not isinstance(load, get_args(Load)):
                raise ScenarioError(f"loads.{name}: unsupported load {load!r}")
            if isinstance(load, Viscous):
                require_number(load.b, f"loads.{name}.b", ScenarioError, ">= 0")
            elif isinstance(load, ConstantResistive):
                require_number(load.tau, f"loads.{name}.tau", ScenarioError, ">= 0")
            elif isinstance(load, AppliedTorque) and not callable(load.tau):
                require_number(load.tau, f"loads.{name}.tau", ScenarioError)
        if isinstance(self.loads.get(drive_shaft), Locked):
            raise ScenarioError(f"loads.{drive_shaft}: cannot lock the driven shaft")


def _require_shaft(graph: MechanismGraph, name: str, path: str) -> None:
    try:
        graph.shaft_id(name)
    except GraphValidationError:
        raise ScenarioError(f"{path}: no such shaft {name!r} in the mechanism") from None


@dataclass
class Trajectory:
    """Recorded simulation output, together with the scenario it came from.

    ``scenario`` is the simulated :class:`Scenario` itself, not a copy:
    its graph names the shafts and element ports, and verification reads
    its drive, loads and options.  Scenarios are frozen, so it still
    describes the run.

    All series but ``step_torque`` have one row per time point: row i
    holds the state at t[i] with the acceleration and torques of the step
    launched from it (the final row gets an extra instantaneous solve).
    ``omega`` and ``alpha`` have one column per shaft, in graph order.
    ``multipliers`` has one column per row of the constraint matrix A: the
    element rows in graph order, then the pin rows (locked shafts, then a
    velocity drive).  Every port torque is derived from them on demand
    (:meth:`port_torque`), as is the drive torque.

    ``step_torque`` has ``len(t) - 1`` rows, one per step, of shaft torques:
    what the step applied as the integrator weighted it (Euler: viscous at
    the end speed; RK4: the stage torques) plus the pinned shafts' reactions,
    whose power at the mid-step speed is the step's change of kinetic energy.
    """

    scenario: Scenario
    t: np.ndarray
    omega: np.ndarray
    alpha: np.ndarray
    multipliers: np.ndarray
    step_torque: np.ndarray

    @property
    def shaft_names(self) -> list[str]:
        return self.scenario.graph.shaft_names()

    def omega_of(self, name: str) -> np.ndarray:
        return self.omega[:, self.scenario.graph.shaft_id(name)]

    def alpha_of(self, name: str) -> np.ndarray:
        return self.alpha[:, self.scenario.graph.shaft_id(name)]

    @property
    def drive_torque(self) -> np.ndarray:
        """The commanded value of an effort source; a prescribed speed's
        torque is the multiplier of its pin row, the last row of A."""
        drive = self.scenario.drive
        if drive.mode == "torque":
            return _sample(drive.value, self.t, "drive.value")
        return self.multipliers[:, -1]

    def port_torque(self, element: str, port: str) -> np.ndarray:
        """Torque on one port of an element: the multiplier of the element's
        row times the port's coefficient in it."""
        graph = self.scenario.graph
        for row, e in enumerate(graph.elements):
            if e.name == element:
                for p, _, coeff in e.row():
                    if p == port:
                        return self.multipliers[:, row] * coeff
                raise GraphValidationError(f"element {element!r} has no port {port!r}")
        graph.element(element)  # raises, naming an unknown element

    def final_state(self) -> dict[str, float]:
        return {n: float(self.omega[-1, i]) for i, n in enumerate(self.shaft_names)}

    def to_csv(self, path) -> None:
        write_trajectory_csv(self, path)


def _port_rows(graph: MechanismGraph) -> list[tuple[str, str, int, float]]:
    """(element, port, element row, coefficient) of every port, in graph order."""
    return [
        (e.name, port, row, coeff)
        for row, e in enumerate(graph.elements)
        for port, _, coeff in e.row()
    ]


# cells per chunk of a CSV write (at least one row per chunk): the span
# over which repeated values are found, and the cells _format_cells
# formats per call.  Larger chunks raise the peak RSS; smaller ones pay
# the formatter's per-call overhead more often.
_CSV_CELLS = 8192


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write `t,<shaft>.omega,<shaft>.alpha[,<element>.tau_<port>]` rows.

    Shafts, elements and ports appear in graph order.  The port torque
    columns are written when the scenario's ``record_torques`` is set; each
    is the product :meth:`Trajectory.port_torque` takes.  Numbers carry 17
    significant digits, the text of ``"%.17g"``, so the file round-trips
    floats exactly and reruns produce bit-identical output.

    The rows go out in chunks of about ``_CSV_CELLS`` cells (at least one
    row), so memory is bounded by one chunk.  A steady run repeats most
    of its values (the canonical equal-load run has 3.7 % distinct
    cells), so a chunk in which at most half the cells are distinct
    formats each distinct value once with ``%`` and looks every cell up
    by its bit pattern; a value it shares with the last such chunk keeps
    the text formatted there.  Keys are bit patterns, never floats: float
    equality would merge -0.0 with 0.0 and write "0" for "-0".  Other
    chunks format every cell with :func:`_format_cells`, which builds the
    same text in numpy, without a Python object per cell.  The rule is a
    cost model, not a setting; either path writes the same bytes.
    """
    headers = ["t"]
    for name in traj.shaft_names:
        headers += [f"{name}.omega", f"{name}.alpha"]
    ports = _port_rows(traj.scenario.graph) if traj.scenario.options.record_torques else []
    headers += [f"{element}.tau_{port}" for element, port, _, _ in ports]
    rows_of_a = [row for _, _, row, _ in ports]
    coeffs = np.array([coeff for _, _, _, coeff in ports])
    chunk = max(1, _CSV_CELLS // len(headers))
    # the distinct keys of the last chunk that shared its values, and their text
    last_keys, last_text = np.empty(0, np.int64), np.empty(0, dtype=object)
    with open(path, "wb") as fh:
        fh.write((",".join(headers) + "\n").encode("utf-8"))
        for a in range(0, len(traj.t), chunk):
            rows = slice(a, a + chunk)
            t = traj.t[rows]
            # one line of the block per CSV column, in header order: t, the
            # omega and alpha of each shaft in turn, then the port torques
            shafts = np.stack((traj.omega[rows].T, traj.alpha[rows].T), axis=1)
            torques = traj.multipliers[rows][:, rows_of_a] * coeffs
            block = np.concatenate([t[None], shafts.reshape(-1, len(t)), torques.T])
            bits = block.view(np.int64)
            keys = np.sort(bits, axis=None)
            distinct = keys[np.append(True, keys[1:] != keys[:-1])]
            if 2 * distinct.size > keys.size:
                fh.write(_format_cells(block.T))
                continue
            known = np.isin(distinct, last_keys, assume_unique=True)
            fresh = distinct[~known]
            text = np.empty(distinct.size, dtype=object)
            text[known] = last_text[np.searchsorted(last_keys, distinct[known])]
            formatted = "%.17g," * fresh.size % tuple(fresh.view(np.float64).tolist())
            text[~known] = formatted.split(",")[:-1]
            last_keys, last_text = distinct, text
            cells = text[np.searchsorted(distinct, bits)]
            fh.write(("\n".join(map(",".join, zip(*cells.tolist()))) + "\n").encode("ascii"))


# _format_cells formats |x| in [1e-200, 1e200] itself: beyond, 10**(16 - E)
# or its product with _SPLITTER would overflow.  Its tables hold the
# exponents E in [-_E_BIAS, _E_BIAS], at index E + _E_BIAS.
_FAST_MIN, _FAST_MAX = 1e-200, 1e200
_E_BIAS = 256
_SPLITTER = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
# byte offsets in the _ROW-byte source row of a cell: digit 0, then the
# sign ("-" or NUL), "." and "0"; digits 1-16; the exponent's sign and
# two or three digits (NUL-padded); "e", the cell's delimiter, and NUL
_ROW = 28
_DIGITS = [0] + list(range(4, 20))
_SIGN, _POINT, _ZERO, _EXP, _E, _DELIM, _NUL = 1, 2, 3, 20, 24, 25, 26
_WIDTH = 25  # the longest cell: "-d.dddddddddddddddde-ddd,"
_EXP_CLASS = 21  # notation classes 0-20 are fixed with E = class - 4
_ASSEMBLE = 1024  # cells per flat take: its index is 200 bytes a cell


def _template(key: int) -> list[int]:
    """The source byte offsets of one cell's text, NUL-padded to _WIDTH.

    ``key`` is 17 * notation class + significant digits - 1.  As "%.17g"
    does, a cell is written fixed when -4 <= E < 17 and in exponent form
    otherwise, without trailing zeros after the point, and without the
    point when no digit follows it.
    """
    notation, digits = divmod(key, 17)
    digits += 1
    e = notation - 4
    if notation == _EXP_CLASS:
        fraction = _DIGITS[1:digits]
        exponent = [_E, _EXP, _EXP + 1, _EXP + 2, _EXP + 3]
        pos = [_SIGN, 0] + ([_POINT] + fraction if fraction else []) + exponent
    elif e >= 0:
        fraction = _DIGITS[e + 1 : digits]
        pos = [_SIGN] + _DIGITS[: e + 1] + ([_POINT] + fraction if fraction else [])
    else:
        pos = [_SIGN, _ZERO, _POINT] + [_ZERO] * (-e - 1) + _DIGITS[:digits]
    pos.append(_DELIM)
    return pos + [_NUL] * (_WIDTH - len(pos))


def _pow10(key: int) -> tuple[float, float, float, float]:
    """10**(16 - E), E = key - _E_BIAS, as a double-double hi + lo, and the
    two 26-bit halves of hi.  Exact rational arithmetic on ints:
    ``int / int`` and ``float(int)`` round correctly."""
    k = 16 - (key - _E_BIAS)
    if k >= 0:
        hi = float(10**k)
        lo = float(10**k - int(hi))
    else:
        den = 10**-k
        hi = 1 / den
        num, two = hi.as_integer_ratio()  # hi = num / two, two a power of 2
        lo = (two - num * den) / (two * den)
    c = hi * _SPLITTER
    big = c - (c - hi)
    return hi, lo, big, hi - big


class _CellTables:
    """Lookup tables of _format_cells, built on its first call.  Powers of
    ten, exponent texts and templates are filled in as a block first needs
    them, so a process pays only for the exponents and cell shapes it
    writes."""

    def __init__(self):
        # text as the integer its bytes read little-endian, as _source
        # stores it; int32 and int8, the types _source computes in
        p = np.arange(100, dtype=np.int32)
        tens = p // 10
        units = p - tens * 10
        pair = tens + units * 2**8 + 48 * 257  # "00" to "99"
        self.group = (pair[:, None] + pair * 2**16).ravel()  # "0000" to "9999"
        # trailing zeros of the four-digit text; "0000" counts 4
        zeros = (units == 0).astype(np.int8) + (p == 0)
        self.trailing = (zeros + (p == 0) * zeros[:, None]).ravel()
        # by E + _E_BIAS: 10**(16 - E) as four doubles (see _pow10), and the
        # exponent's text, "+05" or "-123"
        self.pow10 = np.zeros((4, 2 * _E_BIAS + 1))
        self.exponent = np.zeros(2 * _E_BIAS + 1, np.int64)
        self.exponents_built = np.zeros(2 * _E_BIAS + 1, bool)
        self.templates = np.zeros((22 * 17, _WIDTH), np.intp)
        self.templates_built = np.zeros(22 * 17, bool)

    def scaled(self, a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """floor(a * 10**(16 - e)) as int64, and the fraction above it.

        The product is Dekker's exact two-product of a and hi, plus a * lo:
        its error is below 1e-14, against a tie margin of 1e-7.
        """
        key = e + _E_BIAS
        self._build_exponents(key)
        hi, lo, hi_big, hi_small = self.pow10
        p = a * hi.take(key)
        big = a * _SPLITTER
        big -= big - a
        small = a - big
        # r = ((big * hi_big - p) + big * hi_small + small * hi_big)
        #     + small * hi_small + a * lo, summed in this order, in place
        hi_big = hi_big.take(key)
        r = big * hi_big
        r -= p
        hi_small = hi_small.take(key)
        r += big * hi_small
        r += small * hi_big
        r += small * hi_small
        r += a * lo.take(key)
        y = p.astype(np.int64)
        f = np.floor(r, out=p)
        y += f.astype(np.int64)
        r -= f
        return y, r

    def _build_exponents(self, key: np.ndarray) -> None:
        """The power of ten of each new exponent, and its text and that of
        the next exponent, which a cell whose digits round up to 1e17 takes."""
        for k in _missing(self.exponents_built, key):
            self.pow10[:, k] = _pow10(k)
            for j in (k, k + 1):
                self.exponent[j] = int.from_bytes(b"%+03d" % (j - _E_BIAS), "little")

    def build_templates(self, key: np.ndarray) -> None:
        new = _missing(self.templates_built, key)
        if new:
            self.templates[new] = [_template(k) for k in new]


def _missing(built: np.ndarray, keys: np.ndarray) -> list[int]:
    """The entries of ``keys`` not ``built`` yet, each once; marks them built."""
    new = np.zeros(built.size, bool)
    new[keys] = True
    new &= ~built
    built |= new
    return np.flatnonzero(new).tolist()


# built on the first call of _format_cells, so that importing gearnet
# builds nothing; what the tables hold never depends on what was formatted
_cell_tables: _CellTables | None = None


def _format_cells(block: np.ndarray) -> bytes:
    """The text of each cell of a (rows, columns) float block, as
    ``"%.17g"`` gives it, cells joined by "," and each row ended by a newline.

    Each cell's 17 significant digits D and exponent E, |x| = D * 10**(E - 16)
    rounded to nearest, come from E = floor(log10 |x|) corrected once and
    an exact scaling by a double-double power of ten (Dekker 1971).  The
    digits, sign, point and exponent of a cell are laid out in a source
    row of bytes, and a template per notation and digit count picks the
    cell's text from it in one flat ``take`` into NUL-padded rows; the
    NULs are then dropped.  Zeros are written directly.  A cell that is
    not finite, has |x| outside [1e-200, 1e200], or lies within 1e-7 of a
    rounding tie takes ``"%.17g" %`` itself.
    """
    global _cell_tables
    if _cell_tables is None:
        _cell_tables = _CellTables()
    tables = _cell_tables
    cols = block.shape[1]
    x = block.ravel()
    d, e, special = _digits(x, tables)
    src, key = _source(x, d, e, cols, tables)
    del d, e  # freed before the assembly allocates
    # the flat take, a slice of cells at a time
    n = x.size
    out = np.empty((n, _WIDTH), np.uint8)
    flat = src.view(np.uint8).ravel()
    tables.build_templates(key)
    for a in range(0, n, _ASSEMBLE):
        index = tables.templates.take(key[a : a + _ASSEMBLE], axis=0)
        index += np.arange(_ROW * a, _ROW * min(a + _ASSEMBLE, n), _ROW)[:, None]
        flat.take(index, out=out[a : a + _ASSEMBLE])
    if special.any():
        # NUL-padded before the delimiter, in the last byte of the row
        i = np.flatnonzero(special)
        text = b"".join((b"%.17g" % v).ljust(_WIDTH - 1, b"\0") for v in x[i].tolist())
        out[i, :-1] = np.frombuffer(text, np.uint8).reshape(len(i), _WIDTH - 1)
        out[i, -1] = np.where(i % cols == cols - 1, ord("\n"), ord(","))
    return out.tobytes().translate(None, b"\0")


def _digits(x: np.ndarray, tables: _CellTables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, E, special) of each cell: its 17 significant digits D as an
    integer, |x| = D * 10**(E - 16) rounded to nearest, and whether the cell
    must take ``%`` instead.  Zeros get D = 0 and E = 0."""
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    zero = a == 0
    a[~fast] = 1.0
    log = np.log10(a)
    e = np.floor(log, out=log).astype(np.int64)
    y, frac = tables.scaled(a, e)
    off = (y < 10**16) | (y >= 10**17)  # log10 rounded across a power of ten
    if off.any():
        i = np.flatnonzero(off)
        e[i] += np.where(y[i] < 10**16, -1, 1)
        y[i], frac[i] = tables.scaled(a[i], e[i])
        fast[i[(y[i] < 10**16) | (y[i] >= 10**17)]] = False
    fast &= np.abs(frac - 0.5) >= 1e-7
    y += frac > 0.5
    up = y == 10**17  # 99999999999999999.5 rounds to 1e17: one digit more
    y[up] = 10**16
    e += up
    y[zero] = 0
    e[zero] = 0
    return y, e, ~fast & ~zero


def _source(
    x: np.ndarray, d: np.ndarray, e: np.ndarray, cols: int, tables: _CellTables
) -> tuple[np.ndarray, np.ndarray]:
    """The source row of each cell and the key of its template."""
    n = x.size
    src = np.empty((n, _ROW // 4), "<u4")
    # the 17 digits: digit 0, then four groups of four, in int32 past the
    # first split
    top = d // 10**8
    bottom = (d - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    d0 = top // 10**8
    mid = top - d0 * 10**8
    g1 = mid // 10**4
    g2 = mid - g1 * 10**4
    g3 = bottom // 10**4
    g4 = bottom - g3 * 10**4
    zeros_of = tables.trailing.take
    t = zeros_of(g4)
    t += (g4 == 0) * (zeros_of(g3) + (g3 == 0) * (zeros_of(g2) + (g2 == 0) * zeros_of(g1)))
    src[:, 0] = (d0 + 0x302E0030) | (np.signbit(x) * 0x2D00)  # digit 0, sign, ".", "0"
    for word, g in enumerate((g1, g2, g3, g4), start=1):
        src[:, word] = tables.group.take(g)
    src[:, 5] = tables.exponent.take(e + _E_BIAS)
    src[:, 6] = 0x2C65  # "e", ","
    src[cols - 1 :: cols, 6] = 0x0A65  # "e", newline
    notation = np.where((e >= -4) & (e < 17), e + 4, _EXP_CLASS)
    return src, notation * 17 + (16 - t)


# --------------------------------------------------------------------------
# Assembly
# --------------------------------------------------------------------------


class _Assembled:
    """Constraint rows, loads, pins, and the reduced-system operators.

    ``dt`` folds the semi-implicit viscous term into the weights,
    W = M + dt * D; None gives W = M, for RK4 rates and impulse probes.
    """

    def __init__(self, scenario: Scenario, dt: float | None):
        g = scenario.graph
        opts = scenario.options
        self.graph = g
        self.opts = opts
        self.n = g.n_shafts
        self.dt = dt
        self.inertia = np.asarray(g.inertias(), dtype=float)

        drive = scenario.drive
        drive_sid = g.shaft_id(scenario.drive_shaft())
        # (shaft, constant or function of time, scenario field), summed in
        # this order: a torque drive, then the applied loads
        self.explicit: list[tuple[int, float | Callable[[float], float], str]] = []
        # (shaft, target, scenario field): the locked shafts, then a
        # velocity drive last
        pins: list[tuple[int, float | Callable[[float], float], str]] = []
        if drive.mode == "torque":
            self.explicit.append((drive_sid, drive.value, "drive.value"))
        self.damping = np.zeros(self.n)
        self.resistive: list[tuple[int, float]] = []
        for name, load in scenario.loads.items():
            sid = g.shaft_id(name)
            if isinstance(load, Viscous):
                self.damping[sid] += load.b
            elif isinstance(load, ConstantResistive):
                self.resistive.append((sid, load.tau))
            elif isinstance(load, AppliedTorque):
                self.explicit.append((sid, load.tau, f"loads.{name}.tau"))
            elif isinstance(load, Locked):
                pins.append((sid, 0.0, f"loads.{name}"))
        if drive.mode == "velocity":
            pins.append((drive_sid, drive.value, "drive.value"))

        C = constraint_matrix(g)

        self.n_element_rows = C.shape[0]
        self.pins = pins
        P = np.zeros((len(pins), self.n))
        for r, (sid, _, _) in enumerate(pins):
            P[r, sid] = 1.0
        self.A = np.vstack([C, P])
        self.w = self.inertia + dt * self.damping if dt is not None else self.inertia
        self._reduce()

    def _reduce(self) -> None:
        """Kernel basis N, pin map B, and the operators every step applies.

        G = N (N^T W N)^-1 N^T maps a torque to the feasible acceleration
        (or, scaled by dt, velocity change) it produces; H carries the pin
        targets into the state, H = B - G W B.
        """
        A = self.A
        N = _kernel(A)
        if self.n - N.shape[1] < A.shape[0]:
            u, _, _ = np.linalg.svd(A)
            raise SingularKKT(
                "constraint system is singular (redundant or conflicting rows)",
                direction=u[:, -1],
            )
        self.A_pinv = np.linalg.pinv(A)
        self.N = N
        self.B = self.A_pinv[:, self.n_element_rows :]
        evals, evecs = np.linalg.eigh(N.T @ (self.w[:, None] * N))
        if evals.size and not evals[0] > RANK_RTOL * evals[-1]:
            mode = N @ evecs[:, 0]
            moving = [self.graph.shaft_name(int(i)) for i in np.flatnonzero(np.abs(mode) > 1e-9)]
            raise SingularKKT(
                "a feasible motion carries no inertia, so its acceleration is "
                f"undetermined; it moves only massless shafts: {', '.join(moving)}",
                direction=mode,
            )
        root = N @ (evecs / np.sqrt(evals))
        self.G = root @ root.T
        self.H = self.B - self.G @ (self.w[:, None] * self.B)

    def explicit_torques(self, times: np.ndarray) -> np.ndarray:
        """Source and applied-load torque at each time, one row per time.

        The resistive torque depends on the state, so the loop adds it
        (:func:`_friction`).
        """
        tau = np.zeros((len(times), self.n))
        for sid, value, path in self.explicit:
            tau[:, sid] += _sample(value, times, path)
        return tau

    def pin_targets(self, times: np.ndarray) -> np.ndarray:
        """Pin targets at each time, one row per time and one column per pin."""
        targets = np.empty((len(times), len(self.pins)))
        for c, (_, value, path) in enumerate(self.pins):
            targets[:, c] = _sample(value, times, path)
        return targets

    def pin_rates(self, times: np.ndarray) -> np.ndarray:
        """Pin target derivatives (for RK4), one row per time: a
        :class:`Series` gives the slope of the segment each time starts,
        any other function a central difference of half-width h."""
        h = 1e-7  # s
        rates = np.zeros((len(times), len(self.pins)))
        for c, (_, value, path) in enumerate(self.pins):
            if isinstance(value, Series):
                rates[:, c] = value.slope(times)
            elif callable(value):
                ahead, behind = _sample(value, times + h, path), _sample(value, times - h, path)
                rates[:, c] = (ahead - behind) / (2.0 * h)
            _require_finite_input(rates[:, c], times, f"{path} (its rate)")
        return rates

    def rates(self, v: np.ndarray, tau: np.ndarray, pin_rate: np.ndarray):
        """Acceleration at each state (row) of v, and the torque it answers
        to.

        ``tau`` and ``pin_rate`` are the sampled rows for the same times,
        ``tau`` with any resistive torque already added; it is left
        unchanged.
        """
        tau = tau - self.damping * v
        return tau @ self.G + pin_rate @ self.H.T, tau

    def rk4_map(self, dt: float) -> "_StepMap":
        """One RK4 step of ``dt`` as an affine map.

        It applies the stage formulas (:func:`_rk4_stages`) once, to one
        unit row per state entry, per sampled input and per resistive
        shaft and stage (the friction torque that stage adds there), and
        keeps the next state and the resistive shafts' speeds at stages
        2 to 4.
        """
        n, m = self.n, len(self.pins)
        res = [sid for sid, _ in self.resistive]
        r = len(res)
        shafts = sorted({sid for sid, _, _ in self.explicit})
        width = len(shafts) + m  # the inputs sampled at one stage time
        first_torque = n + 3 * width  # the first friction unit row
        units = np.eye(first_torque + 4 * r)
        stages = []
        # start, middle (twice) and end of the step
        for k, at in enumerate((0, 1, 1, 2)):
            block = units[:, n + at * width : n + (at + 1) * width]
            tau = np.zeros((len(units), n))
            tau[:, shafts] = block[:, : len(shafts)]
            tau[:, res] += units[:, first_torque + k * r : first_torque + (k + 1) * r]
            stages.append((tau, block[:, len(shafts) :]))
        v = units[:, :n]
        k1, tau1 = self.rates(v, *stages[0])
        _, end, speeds = _rk4_stages(self, dt, v, k1, tau1, stages[1:])
        step = np.hstack([(end @ self.N) @ self.N.T] + [u[:, res] for u in speeds])
        inputs = np.vstack([step[n:first_torque], np.hstack([self.B.T, np.zeros((m, 3 * r))])])
        friction = step[first_torque:]
        return _StepMap(
            phi=step[:n].T.copy(),
            inputs=inputs,
            shafts=shafts,
            torques=friction[:, :n].T.copy(),
            coupling=friction[:, n:],
        )

    def multipliers(self, alpha: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Multipliers solving A^T lambda = W alpha - tau, one row per row of alpha.

        Every step leaves W alpha - tau in the row space of A, so this
        least-squares solve is exact.
        """
        return (alpha * self.w - tau) @ self.A_pinv

    def initial_state(self) -> np.ndarray:
        if self.opts.initial == "rest":
            return np.zeros(self.n)
        return self.B @ self.pin_targets(np.zeros(1))[0]


@dataclass(frozen=True)
class _StepMap:
    """An RK4 step: the next state is ``phi @ v`` plus its forcing, plus
    ``torques`` times the friction torques of its four stages.

    With r resistive shafts, ``phi`` has 3r more rows than the state: the
    resistive shafts' speeds at stages 2, 3 and 4, before the friction
    torques of the stages before them.  ``coupling`` (4r rows, 3r columns)
    adds those: row ``k * r + j`` is what a unit torque on resistive shaft
    j at stage k + 1 adds to each stage speed.  It is zero from each
    stage's own torques on, since an explicit stage sees only the stages
    before it.

    The forcing is linear in the step's sampled inputs: the explicit
    torques on ``shafts`` and the pin rates at the start, middle and end of
    the step, then the end pin targets.  ``inputs`` has one row per input,
    in that order, holding what one unit of it adds to each row of ``phi``.
    """

    phi: np.ndarray
    inputs: np.ndarray
    shafts: list[int]
    torques: np.ndarray
    coupling: np.ndarray

    def forcing(self, taus, rates, pins: np.ndarray) -> np.ndarray:
        """Each step's forcing, one row per row of ``pins``.

        ``taus`` and ``rates`` are the explicit torque and pin rate rows at
        the start, middle and end of the steps.  Each input adds its column
        times its row of ``inputs`` in turn, so a step's forcing has the
        same bits whether it is formed alone or with others.
        """
        columns = []
        for tau, rate in zip(taus, rates):
            columns += [tau[:, self.shafts], rate]
        u = np.hstack(columns + [pins])
        f = np.zeros((len(pins), self.phi.shape[0]))
        for c, row in enumerate(self.inputs):
            f += u[:, c, None] * row
        return f


def _rk4_stages(sys_: _Assembled, dt: float, v, k1, tau1, stages):
    """Stages 2-4 of RK4 steps launched from each row of v.

    ``k1`` and ``tau1`` are the first stage's rate and torque; ``stages``
    the (torque, pin rate) rows of stages 2, 3 and 4, each torque the
    explicit one plus any friction the stage adds.  Returns the torque
    each step applied, (tau1 + 2 tau2 + 2 tau3 + tau4) / 6, the end states
    before they are put back on the constraint set, and the states of
    stages 2-4.
    """
    u2 = v + 0.5 * dt * k1
    k2, tau2 = sys_.rates(u2, *stages[0])
    u3 = v + 0.5 * dt * k2
    k3, tau3 = sys_.rates(u3, *stages[1])
    u4 = v + dt * k3
    k4, tau4 = sys_.rates(u4, *stages[2])
    step_tau = (tau1 + 2.0 * tau2 + 2.0 * tau3 + tau4) / 6.0
    return step_tau, v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (u2, u3, u4)


# --------------------------------------------------------------------------
# Stepping and simulation
# --------------------------------------------------------------------------


def _pin_terms(M: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``M @ p`` for each row p of pin targets, with the bits of one
    matrix-vector product per row."""
    if rows.shape[1] == 0:
        return np.zeros((len(rows), M.shape[0]))
    if rows.shape[1] == 1:
        # M @ p rounds each entry once, M[j, 0] * p, into a sum that starts
        # at +0.0; the added +0.0 turns a -0.0 product into +0.0 as that does
        return rows * M[:, 0] + 0.0
    return np.array([M @ r for r in rows])


def _friction(resistive: list[tuple[int, float]], v: np.ndarray) -> list[float]:
    """The resistive loads' torques at state v, one Python float per load."""
    return [-mag * math.tanh(v.item(sid) / OMEGA_EPS) for sid, mag in resistive]


def _euler(sys_: _Assembled, v: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Semi-implicit Euler steps launched from v at each of ``times``.

    Returns the states, one more row than ``times`` (row 0 is v), and
    the explicit torque each step used, resistive included, without the
    viscous part.
    """
    dt = sys_.dt
    tau = sys_.explicit_torques(times)
    pin_terms = _pin_terms(sys_.H, sys_.pin_targets(times + dt))
    G, inertia, resistive = sys_.G, sys_.inertia, sys_.resistive
    states = np.empty((len(times) + 1, sys_.n))
    states[0] = v
    # the pin term is added even when it is zero, as H @ p always was:
    # -0.0 + 0.0 is +0.0
    dt_tau = dt * tau
    for i, pin_term in enumerate(pin_terms):
        dt_row = dt_tau[i]
        # each entry rounds as the whole-row sum and product would
        for sid, mag in resistive:
            tau[i, sid] = total = tau.item(i, sid) - mag * math.tanh(v.item(sid) / OMEGA_EPS)
            dt_row[sid] = dt * total
        states[i + 1] = v = G @ (inertia * v + dt_row) + pin_term
    return states, tau


# rows of states whose RK4 stages are evaluated at once after the loop
_STAGE_ROWS = 4096


def _rk4(sys_: _Assembled, v: np.ndarray, times: np.ndarray, dt: float):
    """Classical RK4 from v at times[0]; the last row takes no step.

    Returns omega, alpha, the torque each row's rate answers to, and the
    torque each step applied, (tau1 + 2 tau2 + 2 tau3 + tau4) / 6.

    Every run steps by :meth:`_Assembled.rk4_map`, its forcing formed
    before the loop.  With no resistive load a step is one matrix-vector
    product; with one, :func:`_rk4_friction_loop` also takes each stage's
    friction torques.  The rates and stage torques are then taken over
    all states at once, with the recorded friction torques added.
    """
    starts = times[:-1]
    half, end = starts + 0.5 * dt, starts + dt
    tau0, rate0 = sys_.explicit_torques(times), sys_.pin_rates(times)
    tau_half = sys_.explicit_torques(half)
    tau_end, rate_end = sys_.explicit_torques(end), sys_.pin_rates(end)
    # the pin targets each step starts from and ends on, and the mid-stage
    # pin rate whose Simpson sum lands exactly on the end target
    targets = sys_.pin_targets(np.concatenate((times[:1], end)))
    pins = targets[1:]
    rate_half = (6.0 * (pins - targets[:-1]) / dt - rate0[:-1] - rate_end) / 4.0
    step_map = sys_.rk4_map(dt)
    forcing = step_map.forcing(
        (tau0[:-1], tau_half, tau_end), (rate0[:-1], rate_half, rate_end), pins
    )
    omega = np.empty((len(times), sys_.n))
    omega[0] = v
    resistive = sys_.resistive
    if resistive:
        friction = _rk4_friction_loop(step_map, resistive, omega, forcing)
    else:
        friction = np.empty((len(starts), 0))
        phi = step_map.phi
        for i, f in enumerate(forcing, 1):
            omega[i] = v = phi @ v + f
    del forcing
    # each stage's friction torques join its explicit ones; the last row
    # takes no step, so only its start torques are taken here
    res, r = [sid for sid, _ in resistive], len(resistive)
    tau0[:-1, res] += friction[:, :r]
    tau0[-1, res] += _friction(resistive, omega[-1])
    alpha, tau = sys_.rates(omega, tau0, rate0)
    step_tau = np.empty((len(starts), sys_.n))
    # in blocks of rows, so the stage temporaries stay small on long runs
    for a in range(0, len(starts), _STAGE_ROWS):
        rows = slice(a, min(a + _STAGE_ROWS, len(starts)))
        stages = []
        for k, (tau_k, rate_k) in enumerate(
            ((tau_half, rate_half), (tau_half, rate_half), (tau_end, rate_end)), 1
        ):
            tau_k = tau_k[rows].copy()
            tau_k[:, res] += friction[rows, k * r : (k + 1) * r]
            stages.append((tau_k, rate_k[rows]))
        step_tau[rows], _, _ = _rk4_stages(sys_, dt, omega[rows], alpha[rows], tau[rows], stages)
    return omega, alpha, tau, step_tau


def _rk4_friction_loop(step_map: _StepMap, resistive, omega: np.ndarray, forcing) -> np.ndarray:
    """Step omega[0] by the map once per row of ``forcing``, filling omega,
    with the friction torques of each stage taken in Python floats.

    A step forms the map's linear part, w = phi @ v + f, whose first rows
    are the next state and whose last 3r the stage 2-4 speeds of the r
    resistive shafts.  A stage's torques follow from its speeds and the
    torques of the stages before it, so the four stages are taken in
    turn; the next state then adds ``torques`` times all 4r.  Returns
    them, one row per step: stage 1 on every resistive shaft, then stages
    2, 3 and 4.
    """
    n, r = omega.shape[1], len(resistive)
    phi, torques, tanh, mul = step_map.phi, step_map.torques, math.tanh, operator.mul
    # per stage 2-4 speed, in order: its row of w, its coupling to the
    # torques of the stages before it (the sum stops at its end, so no
    # stage reads its own torques), and its load's magnitude
    speed_rows = [
        (j, step_map.coupling[: (j // r + 1) * r, j].tolist(), resistive[j % r][1])
        for j in range(3 * r)
    ]
    friction = np.empty((len(forcing), 4 * r))
    v = omega[0]
    for i, f in enumerate(forcing):
        w = phi @ v + f
        speeds = w[n:].tolist()
        rho = _friction(resistive, v)
        for j, coupling, mag in speed_rows:
            rho.append(-mag * tanh((speeds[j] + sum(map(mul, coupling, rho))) / OMEGA_EPS))
        friction[i] = rho
        omega[i + 1] = v = w[:n] + torques @ friction[i]
    return friction


def step(scenario: Scenario, v: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance one semi-implicit Euler step of ``scenario.options.dt`` from (v, t).

    Returns (v_next, alpha, multipliers).  A convenience wrapper over the
    machinery :func:`simulate` uses; it re-assembles per call, so prefer
    :func:`simulate` for long runs.
    """
    scenario.validate()
    dt = scenario.options.dt
    sys_ = _Assembled(scenario, dt)
    v = np.asarray(v, dtype=float)
    states, tau = _euler(sys_, v, np.array([t], dtype=float))
    v_next = states[1]
    alpha = (v_next - v) / dt
    return v_next, alpha, sys_.multipliers(alpha, tau[0] - sys_.damping * v)


def simulate(scenario: Scenario) -> Trajectory:
    """Integrate a scenario over its full duration and record everything.

    Raises:
        NonFiniteState: a speed or acceleration stopped being finite.
    """
    scenario.validate()
    opts = scenario.options
    dt = opts.dt
    euler = opts.integrator == "semi_implicit_euler"
    sys_ = _Assembled(scenario, dt if euler else None)

    n_steps = max(1, int(round(opts.duration / dt)))
    try:
        times = np.arange(n_steps + 1) * dt
        v = sys_.initial_state()
        with np.errstate(all="ignore"):  # a diverging run is reported below
            if euler:
                states, tau = _euler(sys_, v, times)
                omega = states[:-1]
                alpha = (states[1:] - omega) / dt
                step_tau = tau[:-1] - sys_.damping * states[1:-1]
                tau -= sys_.damping * omega
            else:
                omega, alpha, tau, step_tau = _rk4(sys_, v, times, dt)
            # each step's pin reactions, from A^T lambda = M (v1 - v0) / dt - step torque
            secant = (omega[1:] - omega[:-1]) / dt
            step_tau[:, [sid for sid, _, _ in sys_.pins]] += (
                secant * sys_.inertia - step_tau
            ) @ sys_.B
        _require_finite(times, omega, alpha)
        multipliers = sys_.multipliers(alpha, tau)
    except MemoryError:
        # what the trajectory holds per time: t, omega, alpha, the
        # multipliers and the step torques
        row_bytes = 8 * (1 + 3 * sys_.n + sys_.A.shape[0])
        raise ScenarioError(
            f"sim.dt: {dt} over sim.duration {opts.duration} is {n_steps} steps, whose "
            f"trajectory needs about {row_bytes * (n_steps + 1):.3g} bytes; there is not "
            "enough memory for it"
        ) from None
    return Trajectory(
        scenario=scenario,
        t=times,
        omega=omega,
        alpha=alpha,
        multipliers=multipliers,
        step_torque=step_tau,
    )


def _require_finite(times: np.ndarray, omega: np.ndarray, alpha: np.ndarray) -> None:
    finite = np.isfinite(omega).all(axis=1) & np.isfinite(alpha).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteState(
            f"the run diverged: speed or acceleration is not finite from step {i} "
            f"(t={times[i]:.6g} s); a smaller sim.dt may help",
            step=i,
            time=float(times[i]),
        )


def impulse_response(
    graph: MechanismGraph,
    shaft: str,
    held: tuple[str, ...] | list[str] = (),
) -> np.ndarray:
    """Instantaneous accelerations from rest under a unit of applied torque.

    Args:
        graph: validated mechanism graph.
        shaft: name of the shaft receiving the 1 N*m torque.
        held: shafts whose acceleration is pinned to zero (e.g. a locked
            input) during the probe.

    Returns:
        Array of angular accelerations indexed by shaft id.

    Raises:
        ScenarioError: a shaft is not in the graph, or ``shaft`` is held.
        SingularKKT: the constraint rows are redundant, or some feasible
            motion carries no inertia.
    """
    probe = Scenario(
        graph=graph,
        drive=Drive.torque(1.0, shaft=shaft),
        loads={name: Locked() for name in held},
    )
    probe.validate()
    sys_ = _Assembled(probe, None)
    at_zero = np.zeros(1)
    alpha, _ = sys_.rates(
        np.zeros(graph.n_shafts), sys_.explicit_torques(at_zero)[0], sys_.pin_rates(at_zero)[0]
    )
    return alpha
