"""Exact final speeds of a linear run, on the kernel of its constraints.

A scenario whose drive is a constant and whose loads are all viscous is
linear with constant coefficients.  Every feasible speed is
v = N q + B p, where N is an orthonormal kernel basis of A, the
constraint rows C over a velocity drive's pin row, and B the pin column
of A's pseudo-inverse; the drive's constant speed p fixes B p, and the
kernel coordinates q obey

    K dq/dt = g - L q,   K = N^T M N,   L = N^T D N,   g = N^T (tau - D B p).

K is positive definite (gearnet refuses a run whose K is not) and L is
symmetric, so with y = K^(1/2) q and K^(-1/2) L K^(-1/2) = Q diag(lam) Q^T
each mode z = Q^T y relaxes on its own.  Both starts gearnet offers
have q(0) = 0, so

    z(T) = phi1(lam) h,   h = Q^T K^(-1/2) g,

with phi1(lam) = -expm1(-lam T) / lam, and phi1 = T at lam = 0.  No
matrix exponential is needed.  The kernel is this module's own SVD of
``constraint_matrix`` and the pin row, so no operator is shared with
the integrators it checks.
"""

from __future__ import annotations

import numpy as np

from gearnet.dynamics import Scenario
from gearnet.kinematics import constraint_matrix
from gearnet.mechanism import Viscous


def exact_final_speeds(scenario: Scenario) -> np.ndarray:
    """omega at ``scenario.options.duration``, exactly, of a linear run.

    Raises ValueError for a drive that is a function of time, a load that
    is not viscous, or a run from rest against a prescribed speed that is
    not zero.
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
    if callable(drive.value):
        raise ValueError("drive.value: the exact reference handles constant inputs only")
    # a velocity drive is the one pin row, v_s = p
    tau, P, p = np.zeros(n), np.zeros((0, n)), np.zeros(0)
    if drive.mode == "torque":
        tau[drive_sid] = drive.value
    else:
        P, p = np.eye(n)[[drive_sid]], np.array([drive.value])

    C = constraint_matrix(g)
    A = np.vstack([C, P])
    _, sv, vt = np.linalg.svd(A)
    rank = int(np.sum(sv > max(A.shape) * np.finfo(float).eps * sv.max()))
    N = vt[rank:].T
    Bp = np.linalg.pinv(A)[:, len(C) :] @ p
    # both starts are q = 0: from rest (with p = 0 or no pin) and the
    # consistent minimum-norm start B p
    if scenario.options.initial == "rest" and np.any(Bp):
        raise ValueError("sim.initial: a run from rest must start at its prescribed speed")

    inertia = np.asarray(g.inertias(), dtype=float)
    kv, U = np.linalg.eigh(N.T @ (inertia[:, None] * N))
    inv_root = (U / np.sqrt(kv)) @ U.T
    L = N.T @ (damping[:, None] * N)
    lam, Q = np.linalg.eigh(inv_root @ L @ inv_root)
    T = scenario.options.duration
    phi1 = np.full_like(lam, T)
    moving = np.abs(lam) > len(lam) * np.finfo(float).eps * np.abs(lam).max(initial=0.0)
    phi1[moving] = -np.expm1(-lam[moving] * T) / lam[moving]
    h = Q.T @ (inv_root @ (N.T @ (tau - damping * Bp)))
    return N @ (inv_root @ (Q @ (phi1 * h))) + Bp
