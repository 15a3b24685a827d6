"""Report documents built directly, without going through the CLI."""

import json

import pytest

from monograph.graph import DisconnectedError, LoopEdgeError
from monograph.linalg import Subspace, colspace, nullspace
from monograph.problem import ProblemSpec, SystemSpec, parse_spec
from monograph.report import matrix_grid, render_pretty, run, tate_document, to_json

from test_linalg_oracle import dense, matrices, oracle_colspace, oracle_nullspace

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
