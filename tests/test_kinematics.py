"""Mobility counting, nullspace bases, and velocity completion."""

import numpy as np
import pytest
from conftest import THREE_OOD_CYCLIC_MAP

from gearnet.builders import build_3ood, build_two_output_diff
from gearnet.errors import InfeasiblePrescription, UnderdeterminedExternal
from gearnet.kinematics import (
    constraint_matrix,
    mobility,
    nullspace_basis,
    solve_velocities,
)
from gearnet.mechanism import Differential, MechanismGraph, RigidCoupling, WormPair


def test_constraint_matrix_shape_and_rows():
    g = build_two_output_diff()
    C = constraint_matrix(g)
    assert C.shape == (1, 3)
    ring = g.shaft_id("ring")
    a = g.shaft_id("side_a")
    b = g.shaft_id("side_b")
    assert C[0, ring] == 2.0
    assert C[0, a] == -1.0
    assert C[0, b] == -1.0


def test_mobility_of_single_differential():
    rep = mobility(build_two_output_diff())
    assert rep.n_shafts == 3
    assert rep.n_constraints == 1
    assert rep.rank == 1
    assert rep.nullity == 2
    assert rep.external_dof == 2


def test_mobility_counts_redundant_rows_once():
    g = MechanismGraph()
    g.add_shaft("x", inertia=1.0)
    g.add_shaft("y", inertia=1.0)
    g.add_element(RigidCoupling(a=0, b=1, name="c1"))
    g.add_element(RigidCoupling(a=0, b=1, name="c2"))
    g.set_external("x", "y")
    rep = mobility(g.finalize())
    assert rep.n_constraints == 2
    assert rep.rank == 1
    assert rep.nullity == 1


def test_nullspace_basis_is_orthonormal_and_feasible():
    g = build_3ood()
    basis = nullspace_basis(g)
    C = constraint_matrix(g)
    assert basis.shape == (22, 4)
    assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-12)
    assert np.max(np.abs(C @ basis)) < 1e-12


def test_nullspace_of_unconstrained_graph_is_identity():
    g = MechanismGraph()
    g.add_shaft("lone", inertia=1.0)
    g.set_external("lone")
    assert np.array_equal(nullspace_basis(g.finalize()), np.eye(1))


def test_solve_velocities_completes_a_differential():
    g = build_two_output_diff()
    v = solve_velocities(g, {"ring": 2.0, "side_a": 1.0})
    assert v["side_b"] == pytest.approx(3.0, abs=1e-12)
    assert v["ring"] == pytest.approx(2.0, abs=1e-12)


def test_solve_velocities_returns_prescriptions_exactly():
    g = build_3ood()
    v = solve_velocities(g, {"input": 20.0, "O1": 1.5, "O2": 2.5})
    assert v["input"] == 20.0
    assert v["O1"] == 1.5
    # remaining output obeys the output-sum law: sum = 3*j*w_in/k
    k = g.meta["ratio_k"]
    j = g.meta["ratio_j"]
    assert v["O3"] == pytest.approx(3.0 * j * 20.0 / k - 1.5 - 2.5, abs=1e-9)


def test_solve_velocities_infeasible_prescription():
    g = build_two_output_diff()
    with pytest.raises(InfeasiblePrescription) as err:
        solve_velocities(g, {"ring": 1.0, "side_a": 0.0, "side_b": 0.0})
    assert err.value.residual > 0


def test_solve_velocities_underdetermined_external():
    g = build_3ood()
    with pytest.raises(UnderdeterminedExternal) as err:
        solve_velocities(g, {"input": 20.0})
    assert set(err.value.shafts) <= {"O1", "O2", "O3"}
    # with the check off, the minimum-norm completion resolves the free
    # motion, and the output sum is still pinned
    v = solve_velocities(g, {"input": 20.0}, require_external_determined=False)
    total = v["O1"] + v["O2"] + v["O3"]
    assert total == pytest.approx(3.0 * 2.0 * 20.0 / 20.0, abs=1e-9)


def test_empty_prescription_is_all_zero():
    v = solve_velocities(build_3ood(), {})
    assert set(v.values()) == {0.0}


def test_fully_locked_graph_rejects_motion():
    g = MechanismGraph()
    g.add_shaft("x", inertia=1.0)
    g.add_shaft("y", inertia=1.0)
    g.add_element(RigidCoupling(a=0, b=1, name="c1"))
    g.add_element(RigidCoupling(a=0, b=1, sign=-1, name="c2"))
    g.set_external("x")
    g.finalize()
    assert mobility(g).nullity == 0
    with pytest.raises(InfeasiblePrescription):
        solve_velocities(g, {"x": 1.0})
    assert solve_velocities(g, {"x": 0.0}) == {"x": 0.0, "y": 0.0}


def test_worm_chain_speed_reduction():
    g = MechanismGraph()
    g.add_shaft("in", inertia=0.1, role="input")
    g.add_shaft("out", inertia=1.0, role="output")
    g.add_element(WormPair(worm=0, wheel=1, ratio_k=20.0))
    g.set_external("in", "out")
    v = solve_velocities(g.finalize(), {"in": 20.0})
    assert v["out"] == pytest.approx(1.0, abs=1e-12)


def test_three_output_nullspace_invariant_under_cyclic_relabel():
    g = build_3ood()
    sigma = THREE_OOD_CYCLIC_MAP
    names = g.shaft_names()
    perm = np.array([g.shaft_id(sigma.get(n, n)) for n in names])
    basis = nullspace_basis(g)
    # permuting shafts maps feasible motions to feasible motions, so the
    # permuted basis must lie in the span of the original one
    permuted = basis[perm, :]
    projected = basis @ (basis.T @ permuted)
    assert np.max(np.abs(projected - permuted)) < 1e-10
