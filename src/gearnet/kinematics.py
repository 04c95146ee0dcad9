"""Velocity-level analysis of mechanism graphs.

The feasible motions of an ideal gear network are exactly the kernel of
its constraint matrix C, where each element contributes one row with
C @ omega = 0.  Everything here is dense linear algebra on that matrix:
rank/mobility counts, an orthonormal kernel basis, and minimum-norm
completion of partially prescribed speed patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePrescription, UnderdeterminedExternal
from .mechanism import MechanismGraph

# Relative cutoff under the largest singular value below which a singular
# value counts as zero when ranking constraint matrices.
RANK_RTOL = 1e-10

# Prescriptions are declared infeasible when the best constraint-consistent
# completion misses them by more than this, relative to their magnitude.
FEASIBILITY_RTOL = 1e-9


def constraint_matrix(graph: MechanismGraph) -> np.ndarray:
    """Assemble the (n_elements x n_shafts) velocity-constraint matrix."""
    C = np.zeros((len(graph.elements), graph.n_shafts))
    for r, element in enumerate(graph.elements):
        for _, sid, coeff in element.row():
            C[r, sid] = coeff
    return C


@dataclass(frozen=True)
class MobilityReport:
    """Counting summary of a mechanism's velocity freedoms.

    nullity is the dimension of all feasible motions including internal
    circulations; external_dof counts only the freedoms visible at the
    external shafts.
    """

    n_shafts: int
    n_constraints: int
    rank: int
    nullity: int
    external_dof: int


def nullspace_basis(graph: MechanismGraph) -> np.ndarray:
    """Orthonormal basis of feasible velocities, shape (n_shafts, nullity)."""
    return _kernel(constraint_matrix(graph))


def mobility(graph: MechanismGraph) -> MobilityReport:
    """Rank, nullity, and external degree-of-freedom count for a graph.

    All three counts come from one kernel basis: rank = n - nullity, and
    the external freedoms are the basis's rank on the external rows.
    """
    C = constraint_matrix(graph)
    basis = _kernel(C)
    nullity = basis.shape[1]
    ext = sorted(graph.external)
    external_dof = nullity - _kernel(basis[ext, :]).shape[1] if ext and basis.size else 0
    return MobilityReport(
        n_shafts=graph.n_shafts,
        n_constraints=C.shape[0],
        rank=graph.n_shafts - nullity,
        nullity=nullity,
        external_dof=external_dof,
    )


def solve_velocities(
    graph: MechanismGraph,
    prescribed: dict[str, float],
    *,
    require_external_determined: bool = True,
) -> dict[str, float]:
    """Complete a partial speed pattern to a full feasible one.

    Args:
        graph: validated mechanism graph.
        prescribed: shaft name -> angular velocity (rad/s).
        require_external_determined: when True (the default), demand that
            the prescription pins every external shaft; turn it off to
            accept a partial prescription, whose leftover freedom is then
            resolved to zero.

    Returns:
        Speeds for every shaft.  Prescribed entries are returned exactly;
        the free remainder is the minimum-norm feasible completion.

    Raises:
        InfeasiblePrescription: the prescribed speeds contradict the
            constraint network.
        UnderdeterminedExternal: the prescription leaves some external
            shaft's speed free (internal free modes are fine; they are
            resolved to zero by minimum-norm).
    """
    if not prescribed:
        return {s.name: 0.0 for s in graph.shafts}
    idx = np.array([graph.shaft_id(name) for name in prescribed], dtype=int)
    vals = np.array([float(v) for v in prescribed.values()])
    basis = nullspace_basis(graph)  # (n, d), orthonormal columns

    scale = max(1.0, float(np.max(np.abs(vals))))
    if basis.shape[1] == 0:
        if np.max(np.abs(vals)) > FEASIBILITY_RTOL * scale:
            raise InfeasiblePrescription(
                "graph is fully locked; only zero speeds are feasible",
                residual=float(np.max(np.abs(vals))),
            )
        return {s.name: 0.0 for s in graph.shafts}

    P = basis[idx, :]  # (p, d)
    coeffs, *_ = np.linalg.lstsq(P, vals, rcond=None)
    residual = float(np.max(np.abs(P @ coeffs - vals))) if vals.size else 0.0
    if residual > FEASIBILITY_RTOL * scale:
        raise InfeasiblePrescription(
            f"prescribed speeds are inconsistent with the gear constraints "
            f"(best completion misses them by {residual:.3e} rad/s)",
            residual=residual,
        )

    # Any kernel of P left over is motion the prescription does not pin
    # down.  That is acceptable only if it is invisible at the external
    # shafts; minimum-norm then zeroes it deterministically.
    free = _kernel(P) if require_external_determined else np.zeros((P.shape[1], 0))
    if free.shape[1]:
        ext = sorted(graph.external)
        ext_motion = basis[ext, :] @ free if ext else np.zeros((0, free.shape[1]))
        if ext_motion.size and np.max(np.abs(ext_motion)) > 1e-9:
            loose = [
                graph.shaft_name(ext[i])
                for i in range(len(ext))
                if np.max(np.abs(ext_motion[i])) > 1e-9
            ]
            raise UnderdeterminedExternal(
                "prescription leaves external shaft speed(s) free: " + ", ".join(loose),
                shafts=loose,
            )

    v = basis @ coeffs
    v[idx] = vals  # exact at the prescribed shafts
    return {s.name: float(v[s.id]) for s in graph.shafts}


def _kernel(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis of an arbitrary dense matrix (d columns)."""
    if matrix.shape[0] == 0:
        return np.eye(matrix.shape[1])
    _, sv, vt = np.linalg.svd(matrix, full_matrices=True)
    cutoff = RANK_RTOL * (sv[0] if sv.size and sv[0] > 0 else 1.0)
    rank = int(np.sum(sv > cutoff))
    return vt[rank:].T.copy()
