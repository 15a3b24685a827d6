"""The package's value classes: immutable, equal by fields, hashed and
printed by their fields in order, and built only from their own fields."""

import pytest

from monograph.cohomology import CohomologyReport, invariant_cycles_report
from monograph.graph import DualGraph
from monograph.linalg import Mat, Subspace
from monograph.localsystem import EdgeCochain, LocalSystem
from monograph.problem import ProblemSpec, SystemSpec
from monograph.tate import TateReport, tate_report


def triangle():
    return DualGraph(3, ((0, 1), (1, 2), (0, 2)), labels=("a", "b", "c"))


def unipotent():
    return LocalSystem.unipotent_rank2(triangle(), [1, "1/2", -4])


# each class, a builder of one value and its fields in order
VALUES = [
    (Mat, lambda: Mat.from_rows([[1, "1/2"], [0, 3]]), ("rows", "cols", "nums", "dens")),
    (Subspace, lambda: Subspace.from_vectors(3, [[1, 2, 0], [2, 4, "1/3"]]), ("basis",)),
    (DualGraph, triangle, ("n", "edges", "labels")),
    (LocalSystem, unipotent, ("graph", "rank", "transitions")),
    (EdgeCochain, lambda: EdgeCochain(unipotent(), [[1, 0], [0, "1/2"], [2, -3]]),
     ("system", "values")),
    (SystemSpec, lambda: SystemSpec("unipotent2", 2, (1, 2, 4), ((1, 0, 2, 0, 3, "1/5"),)),
     ("kind", "rank", "params", "layers")),
    (ProblemSpec, lambda: ProblemSpec(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")),
                                      SystemSpec("unipotent2", 2, (1, 2, 4))),
     ("vertices", "edges", "system")),
    (CohomologyReport, lambda: invariant_cycles_report(unipotent()),
     ("h0_dim", "h1_dim", "h0_basis", "obstruction", "coboundary", "residue", "system",
      "system_rank", "coboundary_image_dim", "residue_kernel_dim", "defect", "exact")),
    (TateReport, lambda: tate_report(3, [1, 1, 1]),
     ("m", "gvals", "system", "det", "rank", "kernel", "edge_images", "holonomy", "defect",
      "quotient_dim")),
]


@pytest.mark.parametrize("cls, build, fields", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_semantics(cls, build, fields):
    value = build()
    assert type(value) is cls
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)

    again = build()
    assert again is not value and again == value and hash(again) == hash(value)
    assert value.__eq__(object()) is NotImplemented

    assert repr(value) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % (name, getattr(value, name)) for name in fields))

    kwargs = {name: getattr(value, name) for name in fields}
    assert cls(**kwargs) == value
    assert cls(*kwargs.values()) == value
    with pytest.raises(TypeError):
        cls(**{name: v for name, v in kwargs.items() if name != fields[0]})
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=1)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), **kwargs)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), None, None)


def test_repr_names_each_field():
    assert (repr(Mat.from_rows([[1, "1/2"]]))
            == "Mat(rows=1, cols=2, nums=(((0, 2), (1, 1)),), dens=(2,))")
    assert repr(Subspace.zero(2)) == "Subspace(basis=Mat(rows=0, cols=2, nums=(), dens=()))"



@pytest.mark.parametrize("fields", [
    (1, (), None),
    (3, ((0, 1), (1, 2), (0, 2)), ("a", "b", "c")),
    (4, ((1, 0), (2, 1), (1, 2), (3, 1)), None),
])
def test_graphs_with_the_same_fields_stay_equal(fields):
    # each graph keeps its walk's ends and tree, which are not fields: two
    # graphs built apart from the same fields are equal, hash alike and
    # print alike, by their fields only
    g, h = DualGraph(*fields), DualGraph(*fields)
    assert g is not h and g == h and hash(g) == hash(h)
    assert (g.ends, g.tree) == (h.ends, h.tree)
    assert repr(g) == repr(h) == "DualGraph(n=%r, edges=%r, labels=%r)" % fields
    assert hash(g) == hash(fields)
