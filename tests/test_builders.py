"""Builder topologies, checked against exact rational-arithmetic counting."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import THREE_OOD_CYCLIC_MAP

from gearnet.builders import (
    BUILDERS,
    build_3ood,
    build_by_name,
    build_initial_design,
)
from gearnet.errors import GraphValidationError
from gearnet.kinematics import constraint_matrix, mobility, nullspace_basis


def exact_rational_rank(graph) -> int:
    """Gauss elimination over the rationals, rebuilt from element parameters.

    The builder defaults (k=20, j=2, rho=2) are exactly representable, so
    this count involves no floating-point tolerance at all and checks the
    SVD-based rank from the outside.
    """
    n = graph.n_shafts
    rows = []
    for e in graph.elements:
        row = [Fraction(0)] * n
        if e.kind == "differential":
            row[e.ring], row[e.side_a], row[e.side_b] = Fraction(2), Fraction(-1), Fraction(-1)
        elif e.kind == "worm_pair":
            row[e.worm] = Fraction(-1) / Fraction(e.ratio_k)
            row[e.wheel] = Fraction(1)
        elif e.kind == "fixed_ratio":
            row[e.a], row[e.b] = -Fraction(e.ratio), Fraction(1)
        elif e.kind == "rigid_coupling":
            row[e.a], row[e.b] = Fraction(-e.sign), Fraction(1)
        elif e.kind == "planetary":
            rho = Fraction(e.rho)
            row[e.sun], row[e.ring], row[e.carrier] = Fraction(1), rho, -(1 + rho)
        else:
            raise AssertionError(f"unhandled element kind {e.kind}")
        rows.append(row)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / lead
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# family -> (shafts, constraint rows, nullity, external dof)
EXPECTED_MOBILITY = {
    "2od": (3, 1, 2, 2),
    "3ood": (22, 18, 4, 3),
    "initial": (13, 12, 1, 1),
    "2-2d": (7, 3, 4, 4),
    "multi-axle": (7, 3, 4, 4),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_mobility_matches_exact_arithmetic(name):
    g = build_by_name(name)
    shafts, rows, nullity, ext = EXPECTED_MOBILITY[name]
    rep = mobility(g)
    assert rep.n_shafts == shafts
    assert rep.n_constraints == rows
    assert rep.nullity == nullity
    assert rep.external_dof == ext
    assert exact_rational_rank(g) == rep.rank


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_produce_valid_graphs(name):
    g = build_by_name(name)
    g.require_valid()
    assert g.meta["input"] in g.shaft_names()
    assert set(g.meta["outputs"]) <= set(g.shaft_names())


def test_unknown_builder_name():
    with pytest.raises(GraphValidationError, match="unknown mechanism builder"):
        build_by_name("perpetual-motion")


def test_builder_kwargs_forwarded():
    g = build_by_name("3ood", ratio_k=10.0, ratio_j=4.0)
    assert g.meta["ratio_k"] == 10.0
    assert g.meta["ratio_j"] == 4.0
    with pytest.raises(GraphValidationError, match="bad parameters"):
        build_by_name("2od", no_such_argument=1.0)
    # the inertias each builder fixes are not parameters
    removed = {
        "3ood": ["input_inertia", "side_gear_inertia"],
        "initial": ["input_inertia", "output_inertia"],
        "2-2d": ["root_inertia", "intermediate_inertia", "output_inertia"],
        "multi-axle": ["input_inertia", "carrier_inertia", "output_inertia"],
    }
    for name, params in removed.items():
        for param in params:
            with pytest.raises(GraphValidationError, match=f"bad parameters for builder '{name}'"):
                build_by_name(name, **{param: 1.0})


def test_3ood_ratio_validation():
    with pytest.raises(GraphValidationError, match="ratio_k"):
        build_3ood(ratio_k=0.0)
    with pytest.raises(GraphValidationError, match="ratio_j"):
        build_3ood(ratio_j=-2.0)
    with pytest.raises(GraphValidationError, match="ratio_k"):
        build_by_name("3ood", ratio_k=math.inf)


def test_3ood_refuses_a_ratio_k_whose_reciprocal_overflows():
    # the worm row's coefficient -1/k would be -inf, on which the kernel's
    # SVD never returns
    with pytest.raises(GraphValidationError, match=r"^ratio_k: must have a finite reciprocal"):
        build_3ood(ratio_k=1e-310)


def test_three_output_sum_law_across_random_ratios():
    # Every feasible motion satisfies w_O1 + w_O2 + w_O3 = 3*j*w_in/k,
    # whatever the ratios: the row combination eliminating the internals
    # exists for all k, j.
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = float(rng.uniform(2.0, 50.0))
        j = float(rng.uniform(0.5, 5.0))
        g = build_3ood(ratio_k=k, ratio_j=j)
        basis = nullspace_basis(g)
        ids = [g.shaft_id(n) for n in ("O1", "O2", "O3")]
        inp = g.shaft_id("input")
        combo = basis[ids[0]] + basis[ids[1]] + basis[ids[2]] - 3.0 * j / k * basis[inp]
        assert np.max(np.abs(combo)) < 1e-10


def test_three_output_internal_circulation_mode():
    # Nullity 4 with only 3 external freedoms leaves one pure circulation:
    # the first-stage side gears swirl in alternation while the input and
    # every output stand still.
    g = build_3ood()
    basis = nullspace_basis(g)
    ext = sorted(g.external)
    # restrict the nullspace to motions invisible from outside
    sub = basis @ _kernel_of(basis[ext, :])
    assert sub.shape[1] == 1
    mode = sub[:, 0]
    s1 = mode[g.shaft_id("S1")]
    assert abs(s1) > 1e-3
    pattern = {"S1": 1, "S2": -1, "S3": -1, "S4": 1, "S5": 1, "S6": -1}
    for name, rel in pattern.items():
        assert mode[g.shaft_id(name)] == pytest.approx(rel * s1, abs=1e-10)
    for name in ("input", "O1", "O2", "O3", "R1", "R2", "R3"):
        assert mode[g.shaft_id(name)] == pytest.approx(0.0, abs=1e-10)


def _kernel_of(P):
    _, sv, vt = np.linalg.svd(P, full_matrices=True)
    rank = int(np.sum(sv > 1e-10 * (sv[0] if sv.size else 0.0)))
    return vt[rank:].T


def test_initial_design_outputs_locked_together():
    # nullity 1: the naive splitter admits exactly one motion, in which
    # all three outputs turn at the same speed.
    g = build_initial_design()
    basis = nullspace_basis(g)
    assert basis.shape[1] == 1
    mode = basis[:, 0]
    x1, x2, x3 = (mode[g.shaft_id(n)] for n in ("X1", "X2", "X3"))
    assert x1 == pytest.approx(x2, abs=1e-12)
    assert x2 == pytest.approx(x3, abs=1e-12)


def test_cyclic_map_is_a_graph_automorphism():
    # Relabeling by the output cycle maps the constraint set onto itself:
    # the permuted matrix has the same row space.
    g = build_3ood()
    sigma = THREE_OOD_CYCLIC_MAP
    names = g.shaft_names()
    perm = np.array([g.shaft_id(sigma.get(n, n)) for n in names])
    C = constraint_matrix(g)
    stacked = np.vstack([C, C[:, perm]])
    assert np.linalg.matrix_rank(stacked, tol=1e-10) == np.linalg.matrix_rank(C, tol=1e-10)

    def relabel(n):
        return sigma.get(n, n)

    for n in names:
        assert relabel(relabel(relabel(n))) == n
