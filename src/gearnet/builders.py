"""Ready-made mechanism topologies.

Each builder returns a finalized :class:`MechanismGraph`.  Its shaft
roles name the input and the outputs, and ``finalize`` derives ``meta``
from them and from the elements, so a builder writes no metadata: a
saved and reloaded graph, or the same document given inline, gets the
same ``meta`` and the same checks.  All rigid couplings use sign +1:
shaft orientation is chosen so that coupled shafts co-rotate, and
gear-mesh direction reversals are absorbed into the element ratio
conventions.  Only the 2od builder takes shaft inertias; the others
fix theirs, and another inertia layout is a mechanism document of its
own (``MechanismGraph.load``, or a scenario's ``mechanism.inline``).
"""

from __future__ import annotations

from .errors import GraphValidationError
from .mechanism import (
    Differential,
    FixedRatio,
    MechanismGraph,
    Planetary,
    RigidCoupling,
    WormPair,
    require_number,
)


def build_two_output_diff(
    ring_inertia: float = 1e-3,
    side_inertia: float = 1e-3,
) -> MechanismGraph:
    """Single open differential: one ring splitting to two side shafts."""
    g = MechanismGraph()
    ring = g.add_shaft("ring", inertia=ring_inertia, role="input")
    a = g.add_shaft("side_a", inertia=side_inertia, role="output")
    b = g.add_shaft("side_b", inertia=side_inertia, role="output")
    g.add_element(Differential(ring=ring, side_a=a, side_b=b, name="diff"))
    g.set_external("ring", "side_a", "side_b")
    return g.finalize()


def build_3ood(ratio_k: float = 20.0, ratio_j: float = 2.0) -> MechanismGraph:
    """Three-output open differential drivetrain.

    One worm input drives three first-stage differentials through
    identical worm pairs (reduction ratio_k).  Each first-stage side
    gear is rigidly coupled to a side gear of one of three second-stage
    differentials, arranged in a ring so that stage-two unit n bridges
    stage-one units n and n+1.  Each second-stage ring gear drives an
    output shaft through a fixed step-up ratio_j > 0.

    Only the input and the coupled second-stage side gears carry inertia,
    1e-3 each, the layout ``finalize`` recognises as a 3ood; the rest are
    massless.

    22 shafts, 18 constraint rows, three external freedoms plus one
    internal circulation mode.
    """
    require_number(ratio_j, "ratio_j", bound="> 0")
    g = MechanismGraph()
    inp = g.add_shaft("input", inertia=1e-3, role="input")
    r1 = [g.add_shaft(f"R{n}", role="ring") for n in (1, 2, 3)]
    s_first = [g.add_shaft(f"S{n}", role="side") for n in range(1, 7)]
    s_second = [g.add_shaft(f"S{n}", inertia=1e-3, role="side") for n in range(7, 13)]
    r2 = [g.add_shaft(f"R{n}", role="ring") for n in (4, 5, 6)]
    outs = [g.add_shaft(f"O{n}", role="output") for n in (1, 2, 3)]

    for n in range(3):
        g.add_element(WormPair(worm=inp, wheel=r1[n], ratio_k=ratio_k, name=f"worm{n + 1}"))
    # First stage: diff n splits ring Rn into side gears S(2n-1), S(2n).
    for n in range(3):
        g.add_element(
            Differential(
                ring=r1[n], side_a=s_first[2 * n], side_b=s_first[2 * n + 1], name=f"diff{n + 1}"
            )
        )
    # Cross-couplings.  Stage-two unit n has side gears fed by stage-one
    # units n and n+1 (indices mod 3), which is what lets any one output
    # borrow speed from the other two.
    couplings = [("S1", "S7"), ("S2", "S12"), ("S3", "S8"), ("S4", "S9"), ("S5", "S11"), ("S6", "S10")]
    for a, b in couplings:
        g.add_element(
            RigidCoupling(a=g.shaft_id(a), b=g.shaft_id(b), name=f"couple_{a}_{b}".lower())
        )
    # Second stage: diff 3+n collects side gears into ring R(3+n).
    second_sides = [("S7", "S8"), ("S9", "S10"), ("S11", "S12")]
    for n, (sa, sb) in enumerate(second_sides):
        g.add_element(
            Differential(
                ring=r2[n], side_a=g.shaft_id(sa), side_b=g.shaft_id(sb), name=f"diff{4 + n}"
            )
        )
    for n in range(3):
        g.add_element(FixedRatio(a=r2[n], b=outs[n], ratio=ratio_j, name=f"ratio{n + 1}"))

    g.set_external("input", "O1", "O2", "O3")
    return g.finalize()


def build_initial_design() -> MechanismGraph:
    """Naive three-way splitter: three differentials with co-driven rings.

    A single input turns all three ring gears together; each output shaft
    is formed by rigidly joining one side gear from each of two adjacent
    differentials.  The shared-speed couplings make the arrangement far
    stiffer than intended: its feasible motions collapse to everything
    turning together, so the three outputs can never differentiate.
    Kept as a comparison baseline for the cross-coupled drivetrain.
    The input and the outputs carry inertia 1e-3; the rest are massless.
    """
    g = MechanismGraph()
    inp = g.add_shaft("input", inertia=1e-3, role="input")
    rings = [g.add_shaft(f"R{c}", role="ring") for c in "ABC"]
    sides = [g.add_shaft(f"SG{n}", role="side") for n in range(1, 7)]
    outs = [g.add_shaft(f"X{n}", inertia=1e-3, role="output") for n in (1, 2, 3)]

    for n, r in enumerate(rings):
        g.add_element(RigidCoupling(a=inp, b=r, name=f"drive{n + 1}"))
        g.add_element(
            Differential(ring=r, side_a=sides[2 * n], side_b=sides[2 * n + 1], name=f"diff{n + 1}")
        )
    # Output Xn joins the facing side gears of neighbouring differentials.
    joins = [("SG2", "X1"), ("SG3", "X1"), ("SG4", "X2"), ("SG5", "X2"), ("SG6", "X3"), ("SG1", "X3")]
    for a, b in joins:
        g.add_element(RigidCoupling(a=g.shaft_id(a), b=g.shaft_id(b), name=f"join_{a}_{b}".lower()))

    g.set_external("input", "X1", "X2", "X3")
    return g.finalize()


def build_2_2d() -> MechanismGraph:
    """Two-stage differential tree with four outputs.

    A root differential splits drive between two intermediate shafts,
    each of which is the ring of a child differential with two output
    shafts (A, B under the left child; C, D under the right).  Because
    the stages cascade instead of cross-coupling, a disturbance on one
    output loads its sibling harder than the two cousins.  The root is
    massless; the other shafts carry inertia 1.0 each.
    """
    g = MechanismGraph()
    root = g.add_shaft("root", role="input")
    left = g.add_shaft("L", inertia=1.0, role="intermediate")
    right = g.add_shaft("R", inertia=1.0, role="intermediate")
    outs = [g.add_shaft(c, inertia=1.0, role="output") for c in "ABCD"]

    g.add_element(Differential(ring=root, side_a=left, side_b=right, name="root_diff"))
    g.add_element(Differential(ring=left, side_a=outs[0], side_b=outs[1], name="left_diff"))
    g.add_element(Differential(ring=right, side_a=outs[2], side_b=outs[3], name="right_diff"))

    g.set_external("root", "A", "B", "C", "D")
    return g.finalize()


def build_multi_axle(rho: float = 2.0) -> MechanismGraph:
    """Chain of three planetary stages with ring-gear outputs X, Y, Z.

    The input turns the first sun gear; each stage's carrier becomes the
    next stage's sun.  The chain ends in a free tail carrier, so the
    three outputs sit at different depths and respond asymmetrically,
    unlike the cross-coupled three-output drivetrain.  Every shaft
    carries inertia 1.0.
    """
    g = MechanismGraph()
    inp = g.add_shaft("input", inertia=1.0, role="input")
    c1 = g.add_shaft("carrier1", inertia=1.0, role="intermediate")
    c2 = g.add_shaft("carrier2", inertia=1.0, role="intermediate")
    c3 = g.add_shaft("carrier3", inertia=1.0, role="intermediate")
    x = g.add_shaft("X", inertia=1.0, role="output")
    y = g.add_shaft("Y", inertia=1.0, role="output")
    z = g.add_shaft("Z", inertia=1.0, role="output")

    g.add_element(Planetary(sun=inp, ring=x, carrier=c1, rho=rho, name="stage1"))
    g.add_element(Planetary(sun=c1, ring=y, carrier=c2, rho=rho, name="stage2"))
    g.add_element(Planetary(sun=c2, ring=z, carrier=c3, rho=rho, name="stage3"))

    g.set_external("input", "X", "Y", "Z")
    return g.finalize()


BUILDERS = {
    "2od": build_two_output_diff,
    "3ood": build_3ood,
    "initial": build_initial_design,
    "2-2d": build_2_2d,
    "multi-axle": build_multi_axle,
}


def build_by_name(name: str, **kwargs) -> MechanismGraph:
    """Look up a builder by its registry name and invoke it."""
    if name not in BUILDERS:
        raise GraphValidationError(
            f"unknown mechanism builder {name!r}; available: {', '.join(sorted(BUILDERS))}"
        )
    try:
        return BUILDERS[name](**kwargs)
    except (TypeError, ValueError) as exc:
        raise GraphValidationError(f"bad parameters for builder {name!r}: {exc}") from None
