"""Velocity-level analysis of mechanism graphs.

The feasible motions of an ideal gear network are exactly the kernel of
its constraint matrix C, where each element contributes one row with
C @ omega = 0.  Everything here is dense linear algebra on that matrix:
rank/mobility counts, an orthonormal kernel basis, and minimum-norm
completion of partially prescribed speed patterns.  A prescription pins
shafts: C stacked over one pin row per pinned shaft is the pinned
system, built once here for both the completion and the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePrescription, UnderdeterminedExternal
from .mechanism import MechanismGraph

# Relative cutoff under the largest singular value below which a singular
# value counts as zero when ranking constraint matrices.
RANK_RTOL = 1e-10

# Prescriptions are declared infeasible when the least-squares completion
# misses a row of the pinned system by more than this, relative to their
# magnitude.
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

    The speeds are pinv(A) @ [0; values] for the pinned system A
    (:func:`_pinned_system`), as the dynamics' consistent initial state.

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
            constraint network; ``residual`` is the largest miss of the
            completion on a row of A, a constraint or a prescribed speed.
        UnderdeterminedExternal: the prescription leaves some external
            shaft's speed free (internal free modes are fine; they are
            resolved to zero by minimum-norm).
    """
    if not prescribed:
        return {s.name: 0.0 for s in graph.shafts}
    idx = [graph.shaft_id(name) for name in prescribed]
    vals = np.array([float(v) for v in prescribed.values()])
    C = constraint_matrix(graph)
    A, N, A_pinv = _pinned_system(C, idx)
    rhs = np.concatenate((np.zeros(C.shape[0]), vals))
    v = A_pinv @ rhs

    scale = max(1.0, float(np.max(np.abs(vals))))
    residual = float(np.max(np.abs(A @ v - rhs)))
    if residual > FEASIBILITY_RTOL * scale:
        raise InfeasiblePrescription(
            f"prescribed speeds are inconsistent with the gear constraints "
            f"(the least-squares completion misses a row by {residual:.3e} rad/s)",
            residual=residual,
        )

    # the kernel of A is motion the prescription does not pin down.  That
    # is acceptable only if it is invisible at the external shafts;
    # minimum-norm then zeroes it deterministically.
    if require_external_determined:
        ext = sorted(graph.external)
        loose = [graph.shaft_name(s) for s in ext if np.max(np.abs(N[s]), initial=0.0) > 1e-9]
        if loose:
            raise UnderdeterminedExternal(
                "prescription leaves external shaft speed(s) free: " + ", ".join(loose),
                shafts=loose,
            )

    v[idx] = vals  # exact at the prescribed shafts
    return {s.name: float(v[s.id]) for s in graph.shafts}


def _pinned_system(C: np.ndarray, pinned: list[int]):
    """A, C stacked over one pin row v_s = p_s per shaft of ``pinned``; its
    orthonormal kernel basis N; and pinv(A), which solves A v = [0; p]."""
    P = np.zeros((len(pinned), C.shape[1]))
    for r, sid in enumerate(pinned):
        P[r, sid] = 1.0
    A = np.vstack([C, P])
    return A, _kernel(A), np.linalg.pinv(A)


def _kernel(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis of an arbitrary dense matrix (d columns)."""
    if matrix.shape[0] == 0:
        return np.eye(matrix.shape[1])
    _, sv, vt = np.linalg.svd(matrix, full_matrices=True)
    cutoff = RANK_RTOL * (sv[0] if sv.size and sv[0] > 0 else 1.0)
    rank = int(np.sum(sv > cutoff))
    return vt[rank:].T.copy()
