"""Problem files: the text format, the JSON format, and round-trips."""

import random
from fractions import Fraction

import pytest

from monograph.graph import DisconnectedError, LoopEdgeError
from monograph.linalg import Mat
from monograph.problem import (ParseError, ProblemSpec, SystemSpec,
                               load_problem, parse_spec, render)

TRIANGLE_TEXT = """\
# the 3-cycle
VERTICES
I
II
III
EDGES
I II
II III
I III
SYSTEM
unipotent2 1 1 1
"""


class TestParse:
    def test_triangle_unipotent(self):
        spec = parse_spec(TRIANGLE_TEXT)
        assert spec.vertices == ("I", "II", "III")
        assert spec.edges == (("I", "II"), ("II", "III"), ("I", "III"))
        assert spec.system.kind == "unipotent2"
        assert spec.system.params == (Fraction(1),) * 3

    def test_vertices_share_a_line(self):
        spec = parse_spec("VERTICES\na b\nEDGES\na b\n")
        assert spec.vertices == ("a", "b")

    def test_exact_third(self):
        spec = parse_spec("VERTICES\na b\nEDGES\na b\nSYSTEM\nunipotent2 1/3\n")
        assert spec.system.params == (Fraction(1, 3),)
        assert isinstance(spec.system.params[0], Fraction)

    def test_default_system_is_trivial_rank1(self):
        spec = parse_spec("VERTICES\na b\nEDGES\na b\n")
        assert spec.system == SystemSpec("trivial", 1)

    def test_extension_layers(self):
        text = ("VERTICES\na b\nEDGES\na b\na b\nSYSTEM\n"
                "trivial 1\nextend 1 2\nextend 0 1 1/2 0\n")
        spec = parse_spec(text)
        assert spec.system == SystemSpec(
            "trivial", 1, (), ((1, 2), (0, 1, Fraction(1, 2), 0)))
        sys = spec.local_system()
        assert sys.transitions == (
            Mat.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
            Mat.from_rows([[1, 2, "1/2"], [0, 1, 0], [0, 0, 1]]))

    def test_undeclared_vertex(self):
        with pytest.raises(ParseError) as info:
            parse_spec("VERTICES\na b\nEDGES\na c\n")
        assert "unknown vertex" in str(info.value)

    def test_graph_is_validated_when_built(self):
        # parsing accepts any edge list; building the graph rejects it
        loop = parse_spec("VERTICES\na b\nEDGES\na b\nb b\n")
        with pytest.raises(LoopEdgeError, match="edge 1 is a loop at vertex b$"):
            loop.graph()
        apart = parse_spec("VERTICES\na b c\nEDGES\na b\n")
        with pytest.raises(DisconnectedError, match="unreachable vertices: c$"):
            apart.graph()

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError) as info:
            parse_spec("VERTICES\na\na\nEDGES\n")
        assert "duplicate" in str(info.value)

    def test_decimal_rejected_with_line(self):
        with pytest.raises(ParseError) as info:
            parse_spec("VERTICES\na b\nEDGES\na b\nSYSTEM\nunipotent2 0.5\n")
        assert info.value.line == 6
        assert "decimal" in str(info.value)

    def test_wrong_param_count(self):
        with pytest.raises(ParseError) as info:
            parse_spec("VERTICES\na b\nEDGES\na b\nSYSTEM\nunipotent2 1 2\n")
        assert "one value per edge" in str(info.value)

    def test_line_outside_section(self):
        with pytest.raises(ParseError) as info:
            parse_spec("a b\nVERTICES\na\n")
        assert info.value.line == 1

    def test_three_token_edge(self):
        with pytest.raises(ParseError) as info:
            parse_spec("VERTICES\na b c\nEDGES\na b c\n")
        assert info.value.line == 4

    def test_extend_without_base(self):
        with pytest.raises(ParseError):
            parse_spec("VERTICES\na b\nEDGES\na b\nSYSTEM\nextend 1\n")

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_spec("VERTICES\na b\nEDGES\na b\nSYSTEM\nfancy 1\n")


def random_spec(rng: random.Random) -> ProblemSpec:
    n = rng.randint(2, 5)
    names = tuple("v%d" % i for i in range(n))
    edges = [(names[rng.randrange(v)], names[v]) for v in range(1, n)]
    edges += [tuple(rng.sample(names, 2))
              for _ in range(rng.randint(0, 3))]
    m = len(edges)
    q = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    style = rng.randrange(3)
    if style == 0:
        system = SystemSpec("trivial", rng.randint(1, 3))
    elif style == 1:
        system = SystemSpec("unipotent2", 2, tuple(q() for _ in range(m)))
    else:
        layers = tuple(tuple(q() for _ in range(m * r))
                       for r in range(1, rng.randint(1, 2) + 1))
        system = SystemSpec("trivial", 1, (), layers)
    return ProblemSpec(names, tuple(edges), system)


class TestRoundTrip:
    def test_text_round_trip(self):
        rng = random.Random(103)
        for _ in range(25):
            spec = random_spec(rng)
            assert parse_spec(render(spec)) == spec

    def test_json_round_trip(self):
        rng = random.Random(107)
        for _ in range(25):
            spec = random_spec(rng)
            assert ProblemSpec.from_json_dict(spec.to_json_dict()) == spec

    @pytest.mark.parametrize("name", ["a b", "a#x", "", "EDGES"])
    def test_names_without_text_form(self, name):
        spec = ProblemSpec(("c", name), (("c", name),))
        assert ProblemSpec.from_json_dict(spec.to_json_dict()) == spec
        with pytest.raises(ValueError, match="vertex name %r" % name):
            render(spec)

    def test_rationals_rendered_in_lowest_terms(self):
        spec = ProblemSpec(("a", "b"), (("a", "b"),),
                           SystemSpec("unipotent2", 2, (Fraction(4, 6),)))
        assert "2/3" in render(spec)
        assert spec.to_json_dict()["system"]["params"] == ["2/3"]


class TestLoadProblem:
    def test_sniffs_json(self):
        doc = ('{"vertices": ["a", "b"], '
               '"edges": [{"from": "a", "to": "b"}], '
               '"system": {"kind": "unipotent2", "params": ["1/2"]}}')
        spec = load_problem(doc)
        assert spec.system.params == (Fraction(1, 2),)

    def test_sniffs_text(self):
        assert load_problem(TRIANGLE_TEXT).vertices == ("I", "II", "III")

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            load_problem("{not json")

    def test_json_integer_params_accepted(self):
        doc = ('{"vertices": ["a", "b"], '
               '"edges": [{"from": "a", "to": "b"}], '
               '"system": {"kind": "unipotent2", "params": [3]}}')
        assert load_problem(doc).system.params == (Fraction(3),)

    def test_json_float_params_rejected(self):
        doc = ('{"vertices": ["a", "b"], '
               '"edges": [{"from": "a", "to": "b"}], '
               '"system": {"kind": "unipotent2", "params": [0.5]}}')
        with pytest.raises(ParseError):
            load_problem(doc)

    def test_json_missing_edge_keys(self):
        with pytest.raises(ParseError):
            load_problem('{"vertices": ["a"], "edges": [{"from": "a"}]}')
