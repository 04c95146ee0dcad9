"""Construction, validation, and serialization of mechanism graphs."""

import numpy as np
import pytest

from gearnet.builders import BUILDERS, build_3ood
from gearnet.errors import GraphValidationError
from gearnet.kinematics import constraint_matrix
from gearnet.mechanism import (
    Differential,
    FixedRatio,
    MechanismGraph,
    Planetary,
    RigidCoupling,
    WormPair,
)


def open_diff_graph():
    g = MechanismGraph()
    ring = g.add_shaft("ring", inertia=0.1, role="input")
    a = g.add_shaft("a", inertia=1.0, role="output")
    b = g.add_shaft("b", inertia=1.0, role="output")
    g.add_element(Differential(ring=ring, side_a=a, side_b=b, name="diff"))
    g.set_external("ring", "a", "b")
    return g.finalize()


def test_shaft_ids_are_dense_and_ordered():
    g = MechanismGraph()
    ids = [g.add_shaft(f"s{i}") for i in range(4)]
    assert ids == [0, 1, 2, 3]
    assert g.shaft_names() == ["s0", "s1", "s2", "s3"]
    assert g.shaft_id("s2") == 2


def test_duplicate_shaft_name_rejected():
    g = MechanismGraph()
    g.add_shaft("x")
    with pytest.raises(GraphValidationError, match="duplicate shaft name"):
        g.add_shaft("x")


def test_a_name_that_would_split_the_csv_header_is_rejected():
    # a "," or a line break in a name would shift or break the CSV header
    g = MechanismGraph()
    for name in ("in,put", "b\nc", "b\r", "b\u2028c"):
        with pytest.raises(GraphValidationError, match=r"^shaft name .*: a trajectory CSV header"):
            g.add_shaft(name)
    assert g.shafts == []
    g.add_shaft("x")
    g.add_shaft("y")
    with pytest.raises(GraphValidationError, match=r"^element name 'd,1': a trajectory CSV header"):
        g.add_element(RigidCoupling(a=0, b=1, name="d,1"))
    assert g.elements == []


def test_negative_inertia_rejected():
    g = MechanismGraph()
    with pytest.raises(GraphValidationError, match="inertia"):
        g.add_shaft("x", inertia=-1.0)
    with pytest.raises(GraphValidationError, match=r"^shaft 'x' inertia: expected a number, got True$"):
        g.add_shaft("x", inertia=True)


def test_unknown_role_rejected():
    g = MechanismGraph()
    with pytest.raises(GraphValidationError, match="role"):
        g.add_shaft("x", role="flywheel")


def test_element_ports_must_reference_existing_shafts():
    g = MechanismGraph()
    g.add_shaft("only")
    with pytest.raises(GraphValidationError, match="unknown shaft"):
        g.add_element(Differential(ring=0, side_a=1, side_b=2))


def test_element_ports_must_be_distinct():
    g = MechanismGraph()
    g.add_shaft("x")
    g.add_shaft("y")
    with pytest.raises(GraphValidationError, match="more than one port"):
        g.add_element(Differential(ring=0, side_a=1, side_b=1))


def test_elements_autonamed_and_duplicates_rejected():
    g = MechanismGraph()
    g.add_shaft("x")
    g.add_shaft("y")
    g.add_element(RigidCoupling(a=0, b=1))
    assert g.elements[0].name == "e0"
    g.add_shaft("z")
    with pytest.raises(GraphValidationError, match="duplicate element name"):
        g.add_element(RigidCoupling(a=1, b=2, name="e0"))


def test_element_lookup_names_an_unknown_element():
    g = open_diff_graph()
    assert g.element("diff").kind == "differential"
    with pytest.raises(GraphValidationError, match="no element named 'nope'"):
        g.element("nope")


def test_finalize_freezes_graph():
    g = open_diff_graph()
    with pytest.raises(GraphValidationError, match="finalized"):
        g.add_shaft("late")


def test_element_parameter_validation():
    with pytest.raises(GraphValidationError, match="ratio_k"):
        WormPair(worm=0, wheel=1, ratio_k=0.0)
    with pytest.raises(GraphValidationError, match="nonzero"):
        FixedRatio(a=0, b=1, ratio=0.0)
    with pytest.raises(GraphValidationError, match="sign"):
        RigidCoupling(a=0, b=1, sign=2)
    with pytest.raises(GraphValidationError, match="rho"):
        Planetary(sun=0, ring=1, carrier=2, rho=-1.0)
    # booleans and strings are not numbers; each error names its field
    with pytest.raises(GraphValidationError, match=r"^ratio: expected a number, got True$"):
        FixedRatio(a=0, b=1, ratio=True)
    with pytest.raises(GraphValidationError, match=r"^ratio_k: expected a number, got '20'$"):
        WormPair(worm=0, wheel=1, ratio_k="20")
    with pytest.raises(GraphValidationError, match=r"^self_locking: expected true or false, got 'no'$"):
        WormPair(worm=0, wheel=1, ratio_k=20.0, self_locking="no")
    with pytest.raises(GraphValidationError, match=r"^sign: expected a number, got True$"):
        RigidCoupling(a=0, b=1, sign=True)
    with pytest.raises(GraphValidationError, match=r"^rho: expected a number, got '2'$"):
        Planetary(sun=0, ring=1, carrier=2, rho="2")
    with pytest.raises(GraphValidationError, match=r"^ratio_j: expected a number, got True$"):
        build_3ood(ratio_j=True)


def test_row_encodes_velocity_laws():
    # Each row must annihilate exactly the motions the element permits.
    diff = Differential(ring=0, side_a=1, side_b=2)
    assert diff.row() == [("ring", 0, 2.0), ("side_a", 1, -1.0), ("side_b", 2, -1.0)]

    worm = WormPair(worm=0, wheel=1, ratio_k=20.0)
    row = {sid: coeff for _, sid, coeff in worm.row()}
    # w_wheel = w_worm / k: the row zeroes (k, 1) scaled speeds
    assert row[0] * 20.0 + row[1] * 1.0 == pytest.approx(0.0)

    fr = FixedRatio(a=0, b=1, ratio=-2.0)
    row = {sid: coeff for _, sid, coeff in fr.row()}
    assert row[0] * 1.0 + row[1] * -2.0 == pytest.approx(0.0)

    pl = Planetary(sun=0, ring=1, carrier=2, rho=2.0)
    row = {sid: coeff for _, sid, coeff in pl.row()}
    # w_sun + rho*w_ring = (1 + rho)*w_carrier with w = (1, 1, 1)
    assert row[0] + row[1] + row[2] == pytest.approx(0.0)

    # ports are the row's, in its order; params the other fields but name
    assert worm.ports() == [("worm", 0), ("wheel", 1)]
    assert list(worm.params().items()) == [("ratio_k", 20.0), ("self_locking", True)]
    assert diff.params() == {}


def test_every_element_kind_round_trips():
    g = MechanismGraph()
    for name in "abcdefgh":
        g.add_shaft(name, inertia=1.0)
    g.add_element(Differential(ring=0, side_a=1, side_b=2))
    g.add_element(WormPair(worm=2, wheel=3, ratio_k=8.0, self_locking=False))
    g.add_element(FixedRatio(a=3, b=4, ratio=-1.5))
    g.add_element(RigidCoupling(a=4, b=5, sign=-1))
    g.add_element(Planetary(sun=5, ring=6, carrier=7, rho=2.5))
    g2 = MechanismGraph.from_dict(g.to_dict())
    assert g2.elements == g.elements  # same classes, fields and order


def test_disconnected_graph_is_an_error():
    g = MechanismGraph()
    g.add_shaft("x", inertia=1.0)
    g.add_shaft("y", inertia=1.0)
    g.add_shaft("z", inertia=1.0)
    g.add_element(RigidCoupling(a=0, b=1))
    message = r"^graph splits into 2 disconnected groups: \{x, y\}; \{z\}$"
    with pytest.raises(GraphValidationError, match=message):
        g.require_valid()
    with pytest.raises(GraphValidationError, match="^graph has no shafts$"):
        MechanismGraph().require_valid()


def test_all_massless_graph_passes():
    g = MechanismGraph()
    g.add_shaft("x")
    g.add_shaft("y")
    g.add_element(RigidCoupling(a=0, b=1))
    g.require_valid()


def test_external_names_sorted_and_validated():
    g = open_diff_graph()
    assert g.external_names() == ["a", "b", "ring"]
    g2 = MechanismGraph()
    g2.add_shaft("x")
    with pytest.raises(GraphValidationError, match="no shaft named"):
        g2.set_external("nope")


def test_serialization_round_trip_preserves_structure():
    g = build_3ood()
    doc = g.to_dict()
    g2 = MechanismGraph.from_dict(doc).finalize()
    assert g2.shaft_names() == g.shaft_names()
    assert g2.external_names() == g.external_names()
    assert [e.name for e in g2.elements] == [e.name for e in g.elements]
    assert np.array_equal(constraint_matrix(g2), constraint_matrix(g))
    assert g2.inertias() == g.inertias()


def test_save_load_round_trip(tmp_path):
    g = open_diff_graph()
    path = tmp_path / "diff.json"
    g.save(path)
    g2 = MechanismGraph.load(path)
    assert np.array_equal(constraint_matrix(g2), constraint_matrix(g))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_saved_builder_graph_loads_with_the_same_meta(tmp_path, name):
    # meta is derived at finalize from shaft roles and elements, so the
    # file needs to carry none
    g = BUILDERS[name]()
    g.save(tmp_path / "g.json")
    assert MechanismGraph.load(tmp_path / "g.json").meta == g.meta
    assert g.meta["input"] in g.shaft_names()
    assert ("family" in g.meta) == (name == "3ood")


def test_from_dict_rejects_bad_documents():
    with pytest.raises(GraphValidationError, match="missing section"):
        MechanismGraph.from_dict({"shafts": []})
    doc = {
        "shafts": [{"name": "x"}, {"name": "y"}],
        "elements": [{"kind": "antigravity", "ports": {}}],
        "external": [],
    }
    with pytest.raises(GraphValidationError, match="unknown kind"):
        MechanismGraph.from_dict(doc)
