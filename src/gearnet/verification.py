"""Residual checks of the drivetrain's governing relations.

Every registered check recomputes one velocity or torque identity directly
from a recorded trajectory and reports its worst residual.  The registered
set is a spanning one: relations it does not list (per-branch speed maps,
per-output torque formulas, and similar) follow from chained substitution
of the listed ones, so a clean report covers them too.

Checks are conditional on the operating regime, which is read from the
trajectory's own :class:`~gearnet.dynamics.Scenario`.  Speed/torque
equality across branches holds only under equal output loading: the
scenario's loads sit on exactly the graph's outputs, they compare equal
as load dataclasses (constants by value, time series by the identity of
their callable, so two different series never count as equal), and the
input is not held.  The zero-speed-sum and its torque companion hold
only with the input held: by a :class:`~gearnet.mechanism.Locked` load,
or by a velocity drive of constant zero.  The report marks inapplicable
checks instead of failing them.

Torque identities are stated for ideal massless intermediate bodies,
which is how the integrator simulates them, so every check compares its
raw residual against tolerance.  They read port torques derived from the
trajectory's constraint multipliers, which every run keeps, so a run
recorded with ``record_torques=False`` is checked the same way.

``power_balance``, which every family gets, is an energy ledger over the
torque each step applied as the integrator recorded it: it certifies the
step's discrete energy consistency, not the load models, which are
cross-checked against the independent penalty reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mechanism import Locked
from .dynamics import Scenario, Trajectory

KINEMATIC_RTOL = 1e-8
TORQUE_RTOL = 1e-6
POWER_RTOL = 1e-6


@dataclass
class CheckResult:
    check: str
    anchor: str
    applicable: bool
    max_abs_residual: float
    max_rel_residual: float
    tolerance: float
    passed: bool

    def to_json_entry(self) -> dict:
        return {
            "check": self.check,
            "anchor_quote": self.anchor,
            "max_rel_residual": self.max_rel_residual,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    results: list[CheckResult]
    note: str = ""

    def all_passed(self) -> bool:
        return all(r.passed for r in self.results if r.applicable)

    def applicable(self) -> list[CheckResult]:
        return [r for r in self.results if r.applicable]

    def failed(self) -> list[CheckResult]:
        return [r for r in self.results if r.applicable and not r.passed]

    def to_json(self) -> str:
        return json.dumps([r.to_json_entry() for r in self.applicable()], indent=2)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def summary_lines(self) -> list[str]:
        out = []
        for r in self.results:
            if not r.applicable:
                out.append(f"  -    {r.check}: not applicable in this regime")
            else:
                mark = "PASS" if r.passed else "FAIL"
                out.append(
                    f"  {mark} {r.check}: max rel residual {r.max_rel_residual:.3e} "
                    f"(tol {r.tolerance:.0e})"
                )
        return out


class _Ctx:
    """Column access helpers bound to one trajectory and its scenario."""

    def __init__(self, traj: Trajectory):
        self.traj = traj
        scn = traj.scenario
        self.graph = scn.graph
        self.g = scn.graph.meta
        self.k = float(self.g.get("ratio_k", 0.0) or 0.0)
        self.j = float(self.g.get("ratio_j", 0.0) or 0.0)
        self.input_held = _input_held(scn)
        self.equal_loads = not self.input_held and _equal_output_loads(scn)

    def w(self, name: str) -> np.ndarray:
        return self.traj.omega_of(name)

    def a(self, name: str) -> np.ndarray:
        return self.traj.alpha_of(name)

    def tau(self, element: str, port: str) -> np.ndarray:
        return self.traj.port_torque(element, port)

    def shaft_of(self, element: str, port: str) -> str:
        return self.graph.shaft_name(dict(self.graph.element(element).ports())[port])

    def inertia(self, name: str) -> float:
        return self.graph.shafts[self.graph.shaft_id(name)].inertia

    def input_torque(self) -> np.ndarray:
        """Torque the input shaft feeds into the worm set (recovered)."""
        total = 0.0
        for wname in self.g["worms"]:
            total = total - self.tau(wname, "worm")
        return total

    def outputs(self) -> list[str]:
        return list(self.g["outputs"])


def _input_held(scenario: Scenario) -> bool:
    """The input carries a Locked load, or a velocity drive of constant zero."""
    inp = scenario.graph.meta.get("input")
    drive = scenario.drive
    return isinstance(scenario.loads.get(inp), Locked) or (
        drive.mode == "velocity" and drive.value == 0.0 and scenario.drive_shaft() == inp
    )


def _equal_output_loads(scenario: Scenario) -> bool:
    """Loads sit on exactly the graph's outputs and all compare equal."""
    outputs = scenario.graph.meta.get("outputs", [])
    if not outputs or set(scenario.loads) != set(outputs):
        return False
    first = scenario.loads[outputs[0]]
    return all(scenario.loads[o] == first for o in outputs)


def _rel(abs_res: float, scale: float) -> float:
    return abs_res / max(1.0, scale)


# --- kinematic checks -------------------------------------------------------


def _chk_worm_speed_ratio(c: _Ctx):
    w_in = c.w(c.g["input"])
    target = w_in / c.k
    res = max(float(np.max(np.abs(c.w(r) - target))) for r in c.g["first_rings"])
    return res, _rel(res, float(np.max(np.abs(target))))


def _chk_ring_speed_average(c: _Ctx):
    res = 0.0
    scale = 0.0
    for dname in c.g["first_diffs"] + c.g["second_diffs"]:
        ring = c.w(c.shaft_of(dname, "ring"))
        sa = c.w(c.shaft_of(dname, "side_a"))
        sb = c.w(c.shaft_of(dname, "side_b"))
        res = max(res, float(np.max(np.abs(2.0 * ring - sa - sb))))
        scale = max(scale, float(np.max(np.abs(ring))))
    return res, _rel(res, 2.0 * scale)


def _chk_coupling_match(c: _Ctx):
    res = 0.0
    scale = 0.0
    for cname in c.g["couplings"]:
        wa, wb = c.w(c.shaft_of(cname, "a")), c.w(c.shaft_of(cname, "b"))
        aa, ab = c.a(c.shaft_of(cname, "a")), c.a(c.shaft_of(cname, "b"))
        res = max(res, float(np.max(np.abs(wa - wb))), float(np.max(np.abs(aa - ab))))
        scale = max(scale, float(np.max(np.abs(wa))), float(np.max(np.abs(aa))))
    return res, _rel(res, scale)


def _chk_output_ratio_speed(c: _Ctx):
    res = 0.0
    scale = 0.0
    for out, ring in zip(c.outputs(), c.g["second_rings"]):
        r = float(np.max(np.abs(c.w(out) - c.j * c.w(ring))))
        res = max(res, r)
        scale = max(scale, float(np.max(np.abs(c.w(out)))))
    return res, _rel(res, scale)


def _chk_output_speed_sum(c: _Ctx):
    w_in = c.w(c.g["input"])
    total = sum(c.w(o) for o in c.outputs())
    res_t = np.abs(total - 3.0 * c.j * w_in / c.k)
    den_t = np.maximum(1.0, np.abs(w_in))
    return float(np.max(res_t)), float(np.max(res_t / den_t))


def _chk_equal_load_side_speeds(c: _Ctx):
    target = c.w(c.g["input"]) / c.k
    sides = c.g["first_sides"] + c.g["second_sides"]
    res = max(float(np.max(np.abs(c.w(s) - target))) for s in sides)
    return res, _rel(res, float(np.max(np.abs(target))))


def _chk_equal_load_output_speeds(c: _Ctx):
    target = c.j * c.w(c.g["input"]) / c.k
    res = max(float(np.max(np.abs(c.w(o) - target))) for o in c.outputs())
    return res, _rel(res, float(np.max(np.abs(target))))


def _chk_locked_speed_sum(c: _Ctx):
    total = sum(c.w(o) for o in c.outputs())
    scale = max(float(np.max(np.abs(c.w(o)))) for o in c.outputs())
    res = float(np.max(np.abs(total)))
    return res, _rel(res, scale)


# --- torque checks ----------------------------------------------------------


def _chk_ring_torque_split(c: _Ctx):
    tau_in = c.input_torque()
    target = c.k * tau_in / 3.0
    res = max(float(np.max(np.abs(c.tau(w, "wheel") - target))) for w in c.g["worms"])
    return res, _rel(res, float(np.max(np.abs(target))))


def _chk_side_torque_half_ring(c: _Ctx):
    sides = []
    res = 0.0
    scale = 0.0
    for dname, wname in zip(c.g["first_diffs"], c.g["worms"]):
        half_ring = 0.5 * c.tau(wname, "wheel")
        scale = max(scale, float(np.max(np.abs(half_ring))))
        for port in ("side_a", "side_b"):
            s = c.tau(dname, port)
            sides.append(s)
            res = max(res, float(np.max(np.abs(s - half_ring))))
    for s in sides[1:]:
        res = max(res, float(np.max(np.abs(s - sides[0]))))
    return res, _rel(res, scale)


def _chk_input_torque_from_sides(c: _Ctx):
    tau_in = c.input_torque()
    tau_side = c.tau(c.g["first_diffs"][0], "side_a")
    res = float(np.max(np.abs(tau_in - 6.0 * tau_side / c.k)))
    return res, _rel(res, float(np.max(np.abs(tau_in))))


def _chk_output_ratio_torque(c: _Ctx):
    res = 0.0
    scale = 0.0
    for rname, dname in zip(c.g["ratios"], c.g["second_diffs"]):
        res = max(res, float(np.max(np.abs(c.tau(rname, "b") - c.tau(dname, "ring") / c.j))))
        scale = max(scale, float(np.max(np.abs(c.tau(rname, "b")))))
    return res, _rel(res, scale)


def _feeding_coupling(c: _Ctx, side: str) -> tuple[str, str]:
    """Coupling element and port attached to a second-stage side gear."""
    for cname in c.g["couplings"]:
        for port in ("a", "b"):
            if c.shaft_of(cname, port) == side:
                return cname, port
    raise KeyError(f"no coupling feeds side gear {side!r}")


def _side_feed_torque(c: _Ctx, side: str) -> np.ndarray:
    """Torque passed onward by a side gear: coupling input minus inertia."""
    cname, port = _feeding_coupling(c, side)
    return c.tau(cname, port) - c.inertia(side) * c.a(side)


def _chk_ring_torque_sum_sides(c: _Ctx):
    res = 0.0
    scale = 0.0
    for dname in c.g["second_diffs"]:
        ring = c.tau(dname, "ring")
        feed = sum(
            _side_feed_torque(c, c.shaft_of(dname, port)) for port in ("side_a", "side_b")
        )
        res = max(res, float(np.max(np.abs(ring - feed))))
        scale = max(scale, float(np.max(np.abs(ring))))
    return res, _rel(res, scale)


def _output_torque_sum_residual(c: _Ctx):
    tau_in = c.input_torque()
    total_out = sum(c.tau(r, "b") for r in c.g["ratios"])
    inertial = sum(c.inertia(s) * c.a(s) for s in c.g["second_sides"])
    rhs = (c.k * tau_in - inertial) / c.j
    res = float(np.max(np.abs(total_out - rhs)))
    scale = max(float(np.max(np.abs(total_out))), float(np.max(np.abs(rhs))))
    return res, _rel(res, scale)


def _chk_equal_load_output_torques(c: _Ctx):
    taus = [c.tau(r, "b") for r in c.g["ratios"]]
    scale = max(float(np.max(np.abs(t))) for t in taus)
    res = max(float(np.max(np.abs(t - taus[0]))) for t in taus[1:])
    return res, _rel(res, scale)


# --- power balance ----------------------------------------------------------


def _energy_ledger(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-step d(KE)/dt minus the power of the step torque at the
    mid-step speed, and the gross power flow sum |tau * v| of that step."""
    v0, v1 = traj.omega[:-1], traj.omega[1:]
    v_mid = 0.5 * (v0 + v1)
    inertias = np.asarray(traj.scenario.graph.inertias(), dtype=float)
    d_ke = ((v1 - v0) * v_mid) @ inertias / traj.scenario.options.dt
    flow = traj.step_torque * v_mid
    return d_ke - flow.sum(axis=1), np.abs(flow).sum(axis=1)


def power_balance(traj: Trajectory) -> np.ndarray:
    """Per-step residual d(KE)/dt - sum(step_torque * v_mid), in watts.

    Ideal elements do no work at feasible speeds, so this is round-off
    when the step operators, projection, multipliers and pin tracking
    agree.  The load models are checked against the penalty reference
    (acceptance 09 and its dt-convergence test), not here.  Length is
    one less than the number of recorded rows.
    """
    return _energy_ledger(traj)[0]


def _chk_power_balance(c: _Ctx):
    residual, gross = _energy_ledger(c.traj)
    res = float(np.max(np.abs(residual)))
    return res, _rel(res, float(np.max(gross)))


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    regime: str  # "always" | "equal_loads" | "input_held"
    tolerance: float
    fn: Callable[[_Ctx], tuple[float, float]]


_POWER_BALANCE = Check(
    "power_balance",
    "d(KE)/dt = power of each step's applied and pin torque at mid-step speed (step "
    "operators, projection, multipliers, pin tracking; loads: penalty reference)",
    "always", POWER_RTOL, _chk_power_balance,
)

_THREE_OUTPUT_CHECKS = [
    Check(
        "worm_speed_ratio",
        "w_R[n] = w_in / k for each of the three first-stage rings",
        "always", KINEMATIC_RTOL, _chk_worm_speed_ratio,
    ),
    Check(
        "ring_speed_average",
        "2*w_ring = w_side_a + w_side_b at all six differentials",
        "always", KINEMATIC_RTOL, _chk_ring_speed_average,
    ),
    Check(
        "coupling_speed_match",
        "coupled side gears share speed and acceleration",
        "always", KINEMATIC_RTOL, _chk_coupling_match,
    ),
    Check(
        "output_ratio_speed",
        "w_O[n] = j * w_R[3+n] at each output gear pair",
        "always", KINEMATIC_RTOL, _chk_output_ratio_speed,
    ),
    Check(
        "output_speed_sum",
        "w_O1 + w_O2 + w_O3 = 3*j*w_in/k at every step",
        "always", KINEMATIC_RTOL, _chk_output_speed_sum,
    ),
    Check(
        "equal_load_side_speeds",
        "equal loads: all twelve side gears turn at w_in/k",
        "equal_loads", KINEMATIC_RTOL, _chk_equal_load_side_speeds,
    ),
    Check(
        "equal_load_output_speeds",
        "equal loads: w_O1 = w_O2 = w_O3 = j*w_in/k",
        "equal_loads", KINEMATIC_RTOL, _chk_equal_load_output_speeds,
    ),
    Check(
        "locked_input_speed_sum",
        "input pinned: w_O1 + w_O2 + w_O3 = 0, one output opposing the rest",
        "input_held", KINEMATIC_RTOL, _chk_locked_speed_sum,
    ),
    Check(
        "ring_torque_split",
        "equal loads: each first-stage ring carries k*tau_in/3",
        "equal_loads", TORQUE_RTOL, _chk_ring_torque_split,
    ),
    Check(
        "side_torque_half_ring",
        "equal loads: all six first-stage side torques equal half their ring torque",
        "equal_loads", TORQUE_RTOL, _chk_side_torque_half_ring,
    ),
    Check(
        "input_torque_from_sides",
        "equal loads: tau_in = 6*tau_side/k",
        "equal_loads", TORQUE_RTOL, _chk_input_torque_from_sides,
    ),
    Check(
        "output_ratio_torque",
        "tau_O[n] = tau_R[3+n] / j at each output gear pair",
        "always", TORQUE_RTOL, _chk_output_ratio_torque,
    ),
    Check(
        "ring_torque_sum_sides",
        "each second-stage ring torque equals the sum fed through its side gears",
        "always", TORQUE_RTOL, _chk_ring_torque_sum_sides,
    ),
    Check(
        "output_torque_sum",
        "tau_O1 + tau_O2 + tau_O3 = (k*tau_in - sum_p I_p*alpha_p) / j",
        "always", TORQUE_RTOL, _output_torque_sum_residual,
    ),
    Check(
        "locked_input_torque_sum",
        "input pinned: the torque-sum identity with the worm reaction retained "
        "(ideal bilateral mesh; a dry self-locking mesh would absorb tau_in as friction)",
        "input_held", TORQUE_RTOL, _output_torque_sum_residual,
    ),
    Check(
        "equal_load_output_torques",
        "equal loads: tau_O1 = tau_O2 = tau_O3",
        "equal_loads", TORQUE_RTOL, _chk_equal_load_output_torques,
    ),
    _POWER_BALANCE,
]

_GENERIC_CHECKS = [_POWER_BALANCE]


def registered_checks(family: str | None) -> list[Check]:
    """Checks registered for a mechanism family ('3ood' has the full set)."""
    return list(_THREE_OUTPUT_CHECKS) if family == "3ood" else list(_GENERIC_CHECKS)


def check_invariants(traj: Trajectory) -> VerificationReport:
    """Run every registered check applicable to the trajectory's regime."""
    if len(traj.t) < 2:
        return VerificationReport(results=[], note="trajectory too short to check")
    ctx = _Ctx(traj)
    family = ctx.g.get("family")
    results: list[CheckResult] = []
    for check in registered_checks(family):
        applicable = (
            check.regime == "always"
            or (check.regime == "equal_loads" and ctx.equal_loads)
            or (check.regime == "input_held" and ctx.input_held)
        )
        if not applicable:
            results.append(
                CheckResult(check.name, check.anchor, False, math.nan, math.nan,
                            check.tolerance, True)
            )
            continue
        abs_res, rel_res = check.fn(ctx)
        results.append(
            CheckResult(
                check.name,
                check.anchor,
                True,
                abs_res,
                rel_res,
                check.tolerance,
                rel_res <= check.tolerance,
            )
        )
    return VerificationReport(results=results)
