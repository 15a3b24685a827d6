"""Report documents built directly, without going through the CLI."""

import json

import pytest

from monograph.cli import main
from monograph.graph import DisconnectedError, LoopEdgeError
from monograph.linalg import Mat, Subspace, colspace, nullspace
from monograph.problem import ProblemSpec, SystemSpec, load_problem, parse_spec
from monograph.report import (Grid, matrix_grid, render_pretty, run, tate_document,
                              to_json)

from test_linalg_oracle import dense, matrices, oracle_colspace, oracle_nullspace
from test_pinned_documents import CYCLE_64_G, PINNED

TRIANGLE = parse_spec("VERTICES\nI II III\nEDGES\nI II\nII III\nI III\n")


class TestRun:
    def test_full_document_shape(self):
        doc = run(TRIANGLE, "defect")
        assert doc["command"] == "defect"
        assert set(doc["matrices"]) == {"incidence", "laplacian", "coboundary",
                                        "residue", "system"}
        assert doc["dims"]["h0"] == 1 and doc["dims"]["h1"] == 1
        assert doc["dims"]["defect"] == 0
        assert doc["verdict"] == "exact"
        assert doc["problem"]["vertices"] == ["I", "II", "III"]

    def test_trivial_system_matrices_coincide(self):
        doc = run(TRIANGLE, "laplacian")
        assert doc["matrices"]["system"] == doc["matrices"]["laplacian"]

    def test_rank2_verdict(self):
        spec = ProblemSpec(TRIANGLE.vertices, TRIANGLE.edges,
                           SystemSpec("unipotent2", 2, tuple(map(str, (1, 2, 4)))))
        doc = run(spec, "defect")
        assert doc["verdict"] == "defect 1"

    def test_unknown_command(self):
        with pytest.raises(ValueError):
            run(TRIANGLE, "spectralize")

    @pytest.mark.parametrize("text, error", [
        ("VERTICES\na b\nEDGES\na b\nb b\nSYSTEM\nunipotent2 1 2\n", LoopEdgeError),
        ("VERTICES\na b c\nEDGES\na b\nSYSTEM\ntrivial 1\nextend 3\n",
         DisconnectedError),
    ])
    def test_invalid_graph(self, text, error):
        with pytest.raises(error):
            run(parse_spec(text), "defect")

    def test_document_is_json_clean(self):
        doc = run(TRIANGLE, "cohomology")
        assert json.loads(to_json(doc)) == doc
        assert to_json(doc).endswith("\n")


def dumps(value) -> str:
    """The reference serializer that to_json reproduces."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def assert_same_text(got: str, want: str) -> None:
    """Fail at the first differing offset: pytest's own diff of two
    megabyte documents would take minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        lo = max(at - 20, 0)
        pytest.fail("to_json differs from json.dumps at offset %d: %r != %r"
                    % (at, got[lo:at + 20], want[lo:at + 20]))


class TestToJson:
    """to_json writes the bytes of json.dumps(sort_keys=True, indent=2)."""

    @pytest.mark.parametrize("command, text", [(c, t) for c, t, _ in PINNED])
    def test_pinned_documents(self, command, text):
        doc = run(load_problem(text), command)
        assert_same_text(to_json(doc), dumps(doc))

    def test_tate_64_cycle(self):
        doc = tate_document(64, tuple(CYCLE_64_G))
        assert_same_text(to_json(doc), dumps(doc))

    def test_check_json(self, capsys):
        assert main(["check", "--seed", "0", "--json"]) == 0
        out = capsys.readouterr().out
        assert_same_text(out, dumps(json.loads(out)))

    @pytest.mark.parametrize("value", [
        {}, [], [[]], {"a": {}}, "", 0, -7, 10 ** 40, True, None,
        ["", "0", "-1/2"], ["a", 1], [1, "a"], [["a"], "b"],
    ])
    def test_edge_values(self, value):
        assert to_json(value) == dumps(value)

    # each character alone must take a string row off the unescaped path
    @pytest.mark.parametrize("c", list('"\\\x00\n\x1f\x7f\u00e9\u2603\U0001f600'))
    def test_escaped_character(self, c):
        for value in (["a", c + "1"], {c: [c]}, [[c, "b"], {"k": "x" + c}]):
            assert to_json(value) == dumps(value)

    @pytest.mark.parametrize("value", [1.5, (1, 2), {"a": [0.0]}, [[(1,)]]])
    def test_float_and_tuple_raise(self, value):
        with pytest.raises(TypeError):
            to_json(value)

    # grids on and off the one-pass path, which takes a grid only when every
    # row is a non-empty list of strings that need no escaping
    @pytest.mark.parametrize("value", [
        [["a", "b"], ["c"]], [["a"], []], [[], ["a"]], [["a"], "b"], [["a"], {"k": "v"}],
        [["a", 1]], [["a"], [None]], [["\u00e9"]], [["a", '"']], [["\\"]], [["\n"]],
        [["\x7f"]], [[["a"]]], [["a"], [["b"]]], [[""], ["", "0"]],
        {"g": [["1", "-1/2"], ["0", "3"]]}, [[["1", "2"], ["3"]], "x", [["4"]]],
    ])
    def test_grid_values(self, value):
        assert to_json(value) == dumps(value)

    # lists of flat str-valued dicts, the echo's edges, take one join; any
    # other list of dicts takes the generic path
    @pytest.mark.parametrize("value", [
        [{"from": "a", "to": "b"}, {"from": "b", "to": "c"}],
        [{"to": "b", "from": "a", "via": "c"}, {"k": "v"}],
        [{"from": 'a"', "to": "\\"}, {"from": "\u00e9", "to": "\n"}],
        [{"a": 1}], [{"a": None}], [{"a": ["b"]}], [{"a": {"b": "c"}}], [{}, {"a": "b"}],
        [{"a": "b"}, {}], [{"a": "b"}, "c"], ["c", {"a": "b"}], {"k": [{"a": "b"}]},
    ])
    def test_dict_lists(self, value):
        assert to_json(value) == dumps(value)

    def test_echo_with_escaped_labels(self):
        # JSON-form vertex names may hold what json escapes
        names = ['q"uote', "back\\slash", "\u00e9t\u00e9", "plain"]
        text = json.dumps({"vertices": names, "edges": [
            {"from": a, "to": b} for a, b in zip(names, names[1:] + names[:1])]})
        for command in ("laplacian", "defect"):
            doc = run(load_problem(text), command)
            assert doc["problem"]["edges"][0] == {"from": 'q"uote', "to": "back\\slash"}
            assert_same_text(to_json(doc), dumps(doc))

    def test_drawn_grids(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        plain = st.text("a0 /-", max_size=3)
        odd = st.sampled_from('"\\\n\x7f\u00e9\u2603')
        cells = (plain | st.builds("{}{}{}".format, plain, odd, plain)
                 | st.integers(-3, 3) | st.none())
        # mostly rows of plain strings; now and then an empty row, a row
        # with an odd cell, a str or a dict in place of a row
        rows = (st.lists(plain, min_size=1, max_size=4) | st.lists(cells, max_size=3)
                | plain | st.dictionaries(plain, plain, max_size=1))
        grids = st.lists(rows, min_size=1, max_size=5)
        values = st.recursive(grids | cells,
                              lambda inner: st.lists(inner, max_size=3)
                              | st.dictionaries(plain, inner, max_size=3),
                              max_leaves=8)

        @settings(deadline=None, max_examples=300)
        @given(values)
        def check(value):
            assert to_json(value) == dumps(value)

        check()

    def test_drawn_values(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        # plain ASCII, or plain ASCII around one character that may need
        # escaping: ASCII that does, non-ASCII, or any character at all
        plain = st.text("a0 /-", max_size=3)
        odd = st.sampled_from('"\\\x00\n\x1f\x7f\u00e9\u2603\U0001f600')
        text = plain | st.builds("{}{}{}".format, plain, odd | st.characters(), plain)
        values = st.recursive(
            text | st.integers() | st.booleans() | st.none(),
            lambda inner: st.lists(inner) | st.dictionaries(text, inner),
            max_leaves=20)
        # a row of strings, drawn on its own too: the one-join path
        rows = st.lists(plain | st.builds("{}{}{}".format, plain, odd, plain),
                        max_size=3)

        @settings(deadline=None)
        @given(values, rows)
        def check(value, row):
            assert to_json(value) == dumps(value)
            assert to_json(row) == dumps(row)

        check()


class TestGrids:
    """Grids render from the stored nonzeros; on every shape they must read
    as the dense rows would."""

    @pytest.mark.parametrize("seed", range(2))
    def test_matrix_grid_matches_dense_rows(self, seed):
        sample = list(matrices(seed, 150))
        assert {(m.rows, m.cols) for m in sample} >= {(0, 0), (0, 4), (4, 0)}
        for m in sample:
            assert matrix_grid(m) == [[str(x) for x in row] for row in dense(m)]

    def test_basis_renders_one_row_per_basis_vector(self):
        for m in matrices(2, 100):
            for space, oracle in ((nullspace(m), oracle_nullspace(m)),
                                  (colspace(m), oracle_colspace(m))):
                grid = matrix_grid(space.basis)
                assert len(grid) == space.dim
                assert grid == [[str(x) for x in row] for row in dense(oracle)]

    def test_marked_grids_serialize_as_lists(self):
        # matrix_grid marks its result, so to_json skips the escape scan
        for m in [Mat.from_rows([[1, "-1/2"], [0, "7/3"]]), Mat.zeros(2, 0),
                  Mat.zeros(0, 3), *matrices(3, 40)]:
            grid = matrix_grid(m)
            assert type(grid) is Grid
            assert grid == [[str(x) for x in row] for row in dense(m)]
            for value in (grid, {"g": grid}, [grid, grid]):
                assert to_json(value) == dumps(value)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_zero_subspace_has_no_rows(self, n):
        assert matrix_grid(Subspace.zero(n).basis) == []


class TestTateDocument:
    def test_golden(self):
        doc = tate_document(3, tuple(map(int, (1, 1, 1))))
        assert doc["tate"]["rank"] == 4
        assert doc["tate"]["holonomy"] == "1"
        assert doc["verdict"] == "defect 1"

    def test_constant_section_image_renders_as_zeros(self):
        # the first kernel generator is the constant section, whose edge
        # image has no stored entry at all
        t = tate_document(3, (1, 2, 4))["tate"]
        assert t["kernel"][0] == ["1", "0", "1", "0", "1", "0"]
        assert t["edge_images"][0] == ["0"] * 6
        assert t["edge_images"][1] != ["0"] * 6


class TestRenderPretty:
    def test_cohomology_focus(self):
        text = render_pretty(run(TRIANGLE, "cohomology"))
        assert "h0 = 1   h1 = 1" in text
        assert "h0 basis" in text

    def test_defect_focus(self):
        text = render_pretty(run(TRIANGLE, "defect"))
        assert "verdict: exact" in text
        assert "obstruction basis: (none)" in text

    def test_tate_focus(self):
        text = render_pretty(tate_document(2, (1, 1)))
        assert "cycle length: 2" in text
        assert "verdict: exact" in text
