"""Exact final speeds of a linear run, on the kernel of its constraints.

A scenario whose drive is a constant, or a velocity ramp, and whose
loads are all viscous is linear with constant coefficients.  Every
feasible speed is v = N q + B p, where N is an orthonormal kernel basis
of A, the constraint rows C over a velocity drive's pin row, and B the
pin column of A's pseudo-inverse.  The drive's speed p = p0 + s t fixes
B p, and the kernel coordinates q obey

    K dq/dt = g0 + g1 t - L q,   K = N^T M N,   L = N^T D N,
    g0 = N^T (tau - D B p0 - M B s),   g1 = -N^T D B s,

where the moving pin adds -N^T M B s and the ramp the term linear in t.
K is positive definite (gearnet refuses a run whose K is not) and L is
symmetric, so with y = K^(1/2) q and K^(-1/2) L K^(-1/2) = Q diag(lam) Q^T
each mode z = Q^T y relaxes on its own.  Both starts gearnet offers
have q(0) = 0, so

    z(T) = phi1(lam) h0 + phi2(lam) h1,   hi = Q^T K^(-1/2) gi,

with phi1(lam) = -expm1(-lam T) / lam, phi2(lam) = (expm1(-lam T) + lam T)
/ lam^2, and phi1 = T, phi2 = T^2 / 2 at lam = 0.  No matrix exponential
is needed.  The kernel is this module's own SVD of ``constraint_matrix``
and the pin row, so no operator is shared with the integrators it
checks.
"""

from __future__ import annotations

import numpy as np

from gearnet.dynamics import Scenario, Series
from gearnet.kinematics import constraint_matrix
from gearnet.mechanism import Viscous


def exact_final_speeds(scenario: Scenario) -> np.ndarray:
    """omega at ``scenario.options.duration``, exactly, of a linear run.

    Raises ValueError for a drive that is a function of time other than
    a velocity ramp (a two-knot :class:`Series` from t = 0 that does not
    end before the run), a load that is not viscous, or a run from rest
    against a prescribed speed that is not zero.
    """
    scenario.validate()
    g = scenario.graph
    n = g.n_shafts
    drive = scenario.drive
    drive_sid = g.shaft_id(scenario.drive_shaft())
    damping = np.zeros(n)
    for name, load in scenario.loads.items():
        if not isinstance(load, Viscous):
            raise ValueError(f"loads.{name}: the exact reference handles viscous loads only")
        damping[g.shaft_id(name)] += load.b
    T = scenario.options.duration
    # a velocity drive is the one pin row, v_s = p0 + s t
    tau, P, p, s = np.zeros(n), np.zeros((0, n)), np.zeros(0), np.zeros(0)
    if drive.mode == "velocity":
        P = np.eye(n)[[drive_sid]]
        p, s = _ramp(drive.value, T)
    elif callable(drive.value):
        raise ValueError("drive.value: the exact reference handles a constant torque only")
    else:
        tau[drive_sid] = drive.value

    C = constraint_matrix(g)
    A = np.vstack([C, P])
    _, sv, vt = np.linalg.svd(A)
    rank = int(np.sum(sv > max(A.shape) * np.finfo(float).eps * sv.max()))
    N = vt[rank:].T
    B = np.linalg.pinv(A)[:, len(C) :]
    Bp, Bs = B @ p, B @ s
    # both starts are q = 0: from rest (with p = 0 or no pin) and the
    # consistent minimum-norm start B p
    if scenario.options.initial == "rest" and np.any(Bp):
        raise ValueError("sim.initial: a run from rest must start at its prescribed speed")

    inertia = np.asarray(g.inertias(), dtype=float)
    kv, U = np.linalg.eigh(N.T @ (inertia[:, None] * N))
    inv_root = (U / np.sqrt(kv)) @ U.T
    L = N.T @ (damping[:, None] * N)
    lam, Q = np.linalg.eigh(inv_root @ L @ inv_root)
    phi1 = np.full_like(lam, T)
    moving = np.abs(lam) > len(lam) * np.finfo(float).eps * np.abs(lam).max(initial=0.0)
    phi1[moving] = -np.expm1(-lam[moving] * T) / lam[moving]
    h0 = Q.T @ (inv_root @ (N.T @ (tau - damping * Bp - inertia * Bs)))
    h1 = Q.T @ (inv_root @ (N.T @ (-damping * Bs)))
    z = phi1 * h0 + _phi2(lam, T) * h1
    return N @ (inv_root @ (Q @ z)) + Bp + Bs * T


def _ramp(value, T: float) -> tuple[np.ndarray, np.ndarray]:
    """A velocity drive's p0 and slope s over [0, T]: a constant, or a
    two-knot :class:`Series` from t = 0 whose last knot is not before T."""
    if not callable(value):
        return np.array([value]), np.zeros(1)
    if not isinstance(value, Series) or len(value.times) != 2 or value.times[0] != 0.0 or value.times[1] < T:
        raise ValueError("drive.value: the exact reference handles one ramp from t = 0 over the run")
    (t0, t1), (p0, p1) = value.times, value.values
    return np.array([p0]), np.array([(p1 - p0) / (t1 - t0)])


def _phi2(lam: np.ndarray, T: float) -> np.ndarray:
    """(expm1(-lam T) + lam T) / lam^2 for each lam, the weight of a
    forcing that grows linearly from 0, without its cancellation near
    lam = 0: there, below |lam T| = 1, T^2 times the series
    sum_k (-lam T)^k / (k + 2)!, whose 24 terms reach round-off."""
    x = lam * T
    small = np.abs(x) < 1.0
    out = np.empty_like(lam)
    out[~small] = (np.expm1(-x[~small]) + x[~small]) / lam[~small] ** 2
    term, total = np.full(small.sum(), 0.5), np.zeros(small.sum())
    for k in range(24):
        total += term
        term *= -x[small] / (k + 3)
    out[small] = T * T * total
    return out
