"""Residual checks of the drivetrain's governing relations.

Every registered check recomputes one velocity or torque identity directly
from a recorded trajectory and reports its worst residual.  Every family
gets three.  ``constraint_residual`` checks the element rows whole: each
element's junction law is one row of C, and the check holds C*omega = 0
and C*alpha = 0 at every step.  For 3ood those rows are its worm ratios,
ring averages, couplings and output ratios.  ``torque_balance`` checks
each shaft's 1-junction: on every shaft that no drive, pin or load acts
on (a Free load counts as none), the port torques sum to I*alpha at every
step.  For 3ood those shafts are R1-R6 and S1-S12.  ``power_balance`` is
described below.  The 3ood checks add the paper's own relations: the
output speed sum, the equal-load speeds and torques, and the torque
splits.

The output speed sum holds in every regime, the output-driven one with
the input held included; the output torque sum holds whenever no drive,
pin or load acts on a shaft that is neither the input nor an output,
whose torque its law leaves out.  The equal-load
checks are conditional on the operating regime, which is read from the
trajectory's own :class:`~gearnet.dynamics.Scenario`: speed/torque
equality across branches holds only when the outputs are unconstrained
or equally loaded.  A run is in that regime when the drive acts on the
input and is not a velocity of constant zero (which holds the input),
every load that is not :class:`~gearnet.mechanism.Free` sits on an
output, and the outputs' loads, Free where none is given, all compare
equal as load dataclasses (constants by value, time series by the
identity of their callable, so two different series never count as
equal).  The report marks inapplicable checks instead of failing them.

Torque identities are stated for ideal massless intermediate bodies,
which is how the integrator simulates them, so every check compares its
raw residual against tolerance.  They read port torques derived from the
trajectory's constraint multipliers, which every run keeps, so a run
recorded with ``record_torques=False`` is checked the same way.

``power_balance``, which every family gets, is an energy ledger over the
torque each step applied as the integrator recorded it: it certifies the
step's discrete energy consistency, not the load models, which are
cross-checked against ``tests/penalty_reference.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mechanism import Free
from .dynamics import Scenario, Trajectory
from .kinematics import constraint_matrix

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
        """The report's entry; a residual that is not finite is written as
        null, which strict JSON parsers accept and NaN is not."""
        rel = self.max_rel_residual
        return {
            "check": self.check,
            "anchor_quote": self.anchor,
            "max_rel_residual": rel if math.isfinite(rel) else None,
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


def _equal_output_loads(scenario: Scenario) -> bool:
    """The drive acts on the input and is not a velocity of constant zero,
    every load that is not Free sits on an output, and the outputs' loads,
    Free where none is given, all compare equal."""
    meta, drive = scenario.graph.meta, scenario.drive
    outputs = meta.get("outputs", [])
    if not outputs or scenario.drive_shaft() != meta.get("input"):
        return False
    if drive.mode == "velocity" and drive.value == 0.0:
        return False
    loads = scenario.loads
    if any(name not in outputs and not isinstance(load, Free) for name, load in loads.items()):
        return False
    first = loads.get(outputs[0], Free())
    return all(loads.get(o, Free()) == first for o in outputs)


def _three_ood(traj: Trajectory) -> tuple[dict, float, float]:
    """The graph's ``meta``, its worm ratio k and its output ratio j."""
    meta = traj.scenario.graph.meta
    return meta, float(meta["ratio_k"]), float(meta["ratio_j"])


def _input_torque(traj: Trajectory) -> np.ndarray:
    """Torque the input shaft feeds into the worm set (recovered)."""
    return sum(-traj.port_torque(worm, "worm") for worm in traj.scenario.graph.meta["worms"])


def _rel(abs_res: float, scale: float) -> float:
    return abs_res / max(1.0, scale)


def _worst_sum(groups) -> tuple[float, float]:
    """Worst |sum| of one group's terms over the run, and that worst
    relative to the largest sum of |term| of one group at one step.

    Each group holds one row per step and one column per term.  It is
    summed from its own few terms: one BLAS product over the whole run is
    split among threads, which wait for each other when another process
    holds a CPU.  With no groups it reads 0.
    """
    res = scale = 0.0
    for terms in groups:
        res = max(res, float(np.max(np.abs(terms.sum(axis=1)))))
        scale = max(scale, float(np.max(np.abs(terms).sum(axis=1))))
    return res, _rel(res, scale)


# --- kinematic checks -------------------------------------------------------


def _chk_constraint_residual(traj: Trajectory):
    """Worst |C*x| over the run for x = omega and x = alpha, each relative
    to the largest sum |c_s * x_s| of one row; the worse of the two."""
    rows = [(np.flatnonzero(row), row) for row in constraint_matrix(traj.scenario.graph)]
    worst = [
        _worst_sum(x[:, cols] * row[cols] for cols, row in rows)
        for x in (traj.omega, traj.alpha)
    ]
    return max(worst, key=lambda w: (w[1], w[0]))


def _chk_output_speed_sum(traj: Trajectory):
    meta, k, j = _three_ood(traj)
    w_in = traj.omega_of(meta["input"])
    total = sum(traj.omega_of(o) for o in meta["outputs"])
    res_t = np.abs(total - 3.0 * j * w_in / k)
    den_t = np.maximum(1.0, np.abs(w_in))
    return float(np.max(res_t)), float(np.max(res_t / den_t))


def _chk_equal_load_side_speeds(traj: Trajectory):
    meta, k, _ = _three_ood(traj)
    target = traj.omega_of(meta["input"]) / k
    sides = meta["first_sides"] + meta["second_sides"]
    res = max(float(np.max(np.abs(traj.omega_of(s) - target))) for s in sides)
    return res, _rel(res, float(np.max(np.abs(target))))


def _chk_equal_load_output_speeds(traj: Trajectory):
    meta, k, j = _three_ood(traj)
    target = j * traj.omega_of(meta["input"]) / k
    res = max(float(np.max(np.abs(traj.omega_of(o) - target))) for o in meta["outputs"])
    return res, _rel(res, float(np.max(np.abs(target))))


# --- torque checks ----------------------------------------------------------


def _unloaded_shafts(scenario: Scenario) -> list[int]:
    """Shafts that no drive, pin or load acts on; a Free load is none."""
    acted = {scenario.drive_shaft()}
    acted.update(name for name, load in scenario.loads.items() if not isinstance(load, Free))
    return [sid for sid, name in enumerate(scenario.graph.shaft_names()) if name not in acted]


def _unloaded_internals(scenario: Scenario) -> bool:
    """No drive, pin or load acts on a shaft that is neither the input nor an output."""
    meta, names = scenario.graph.meta, scenario.graph.shaft_names()
    acted = set(range(len(names))) - set(_unloaded_shafts(scenario))
    return {names[s] for s in acted} <= {meta.get("input"), *meta.get("outputs", [])}


def _chk_torque_balance(traj: Trajectory):
    """Worst |sum of port torques - I*alpha| over the unloaded shafts,
    relative to the largest sum of those terms' magnitudes on one shaft.

    Each such shaft is one row of A^T lambda = W alpha - tau whose
    applied torque is zero under either integrator, so the identity
    holds with the recorded multipliers and alpha alone.
    """
    graph = traj.scenario.graph
    C = constraint_matrix(graph)
    lam, alpha, inertia = traj.multipliers, traj.alpha, graph.inertias()
    groups = []
    for s in _unloaded_shafts(traj.scenario):
        rows = np.flatnonzero(C[:, s])
        groups.append(np.hstack([lam[:, rows] * C[rows, s], -inertia[s] * alpha[:, s, None]]))
    return _worst_sum(groups)


def _chk_ring_torque_split(traj: Trajectory):
    meta, k, _ = _three_ood(traj)
    target = k * _input_torque(traj) / 3.0
    res = max(float(np.max(np.abs(traj.port_torque(w, "wheel") - target))) for w in meta["worms"])
    return res, _rel(res, float(np.max(np.abs(target))))


def _chk_input_torque_from_sides(traj: Trajectory):
    meta, k, _ = _three_ood(traj)
    tau_in = _input_torque(traj)
    tau_side = traj.port_torque(meta["first_diffs"][0], "side_a")
    res = float(np.max(np.abs(tau_in - 6.0 * tau_side / k)))
    return res, _rel(res, float(np.max(np.abs(tau_in))))


def _chk_output_torque_sum(traj: Trajectory):
    graph = traj.scenario.graph
    meta, k, j = _three_ood(traj)
    tau_in = _input_torque(traj)
    total_out = sum(traj.port_torque(r, "b") for r in meta["ratios"])
    inertial = sum(
        graph.shafts[graph.shaft_id(s)].inertia * traj.alpha_of(s) for s in meta["second_sides"]
    )
    rhs = (k * tau_in - inertial) / j
    res = float(np.max(np.abs(total_out - rhs)))
    scale = max(float(np.max(np.abs(total_out))), float(np.max(np.abs(rhs))))
    return res, _rel(res, scale)


def _chk_equal_load_output_torques(traj: Trajectory):
    taus = [traj.port_torque(r, "b") for r in traj.scenario.graph.meta["ratios"]]
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
    agree.  ``tests/penalty_reference.py`` checks the load models
    (acceptance 09 and its dt-convergence test).  Length is one less
    than the number of recorded rows.
    """
    return _energy_ledger(traj)[0]


def _chk_power_balance(traj: Trajectory):
    residual, gross = _energy_ledger(traj)
    res = float(np.max(np.abs(residual)))
    return res, _rel(res, float(np.max(gross)))


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    regime: str  # "always" | "equal_loads" | "unloaded_internals"
    tolerance: float
    fn: Callable[[Trajectory], tuple[float, float]]


_POWER_BALANCE = Check(
    "power_balance",
    "d(KE)/dt = power of each step's applied and pin torque at mid-step speed (step "
    "operators, projection, multipliers, pin tracking; loads: penalty reference)",
    "always", POWER_RTOL, _chk_power_balance,
)

_CONSTRAINT_RESIDUAL = Check(
    "constraint_residual",
    "C*omega = 0 and C*alpha = 0: every element's junction law, one row each",
    "always", KINEMATIC_RTOL, _chk_constraint_residual,
)

_TORQUE_BALANCE = Check(
    "torque_balance",
    "sum of port torques = I*alpha on every shaft no drive, pin or load acts on: "
    "each shaft's 1-junction",
    "always", TORQUE_RTOL, _chk_torque_balance,
)

_THREE_OUTPUT_CHECKS = [
    _CONSTRAINT_RESIDUAL,
    Check(
        "output_speed_sum",
        "w_O1 + w_O2 + w_O3 = 3*j*w_in/k at every step; with the input held, one "
        "output opposes the rest",
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
    _TORQUE_BALANCE,
    Check(
        "ring_torque_split",
        "equal loads: each first-stage ring carries k*tau_in/3",
        "equal_loads", TORQUE_RTOL, _chk_ring_torque_split,
    ),
    Check(
        "input_torque_from_sides",
        "equal loads: tau_in = 6*tau_side/k",
        "equal_loads", TORQUE_RTOL, _chk_input_torque_from_sides,
    ),
    Check(
        "output_torque_sum",
        "tau_O1 + tau_O2 + tau_O3 = (k*tau_in - sum_p I_p*alpha_p) / j, the worm "
        "reaction retained when the input is held (ideal bilateral mesh; a dry "
        "self-locking mesh would absorb tau_in as friction)",
        "unloaded_internals", TORQUE_RTOL, _chk_output_torque_sum,
    ),
    Check(
        "equal_load_output_torques",
        "equal loads: tau_O1 = tau_O2 = tau_O3",
        "equal_loads", TORQUE_RTOL, _chk_equal_load_output_torques,
    ),
    _POWER_BALANCE,
]

_GENERIC_CHECKS = [_CONSTRAINT_RESIDUAL, _TORQUE_BALANCE, _POWER_BALANCE]


def registered_checks(family: str | None) -> list[Check]:
    """Checks registered for a mechanism family ('3ood' has the full set)."""
    return list(_THREE_OUTPUT_CHECKS) if family == "3ood" else list(_GENERIC_CHECKS)


def check_invariants(traj: Trajectory) -> VerificationReport:
    """Run every registered check applicable to the trajectory's regime."""
    if len(traj.t) < 2:
        return VerificationReport(results=[], note="trajectory too short to check")
    applies = {
        "always": True,
        "equal_loads": _equal_output_loads(traj.scenario),
        "unloaded_internals": _unloaded_internals(traj.scenario),
    }
    results: list[CheckResult] = []
    for check in registered_checks(traj.scenario.graph.meta.get("family")):
        if not applies[check.regime]:
            results.append(
                CheckResult(check.name, check.anchor, False, math.nan, math.nan,
                            check.tolerance, True)
            )
            continue
        # a run that overflows but stays finite gives inf or NaN residuals,
        # which fail the comparison below, instead of warnings
        with np.errstate(all="ignore"):
            abs_res, rel_res = check.fn(traj)
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
