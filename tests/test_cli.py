"""The monograph command line: outputs, determinism, exit codes."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import monograph
from monograph import checks, cohomology, report, tate
from monograph.cli import _build_parser, main
from monograph.cohomology import InternalCheckError
from monograph.linalg import MAX_DIGITS, DimensionMismatch, Mat, Subspace
from monograph.problem import MAX_CELLS, MAX_LAYERS, parse_spec

from test_linalg_oracle import dense, path_with_chords

TRIANGLE_TRIVIAL = "VERTICES\nI II III\nEDGES\nI II\nII III\nI III\n"
TRIANGLE_124 = TRIANGLE_TRIVIAL + "SYSTEM\nunipotent2 1 2 4\n"
TRIANGLE_124_JSON = json.dumps({
    "vertices": ["I", "II", "III"],
    "edges": [{"from": "I", "to": "II"}, {"from": "II", "to": "III"},
              {"from": "I", "to": "III"}],
    "system": {"kind": "unipotent2", "params": ["1", "2", "4"]}})


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestDefect:
    def test_trivial_triangle_exact(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", TRIANGLE_TRIVIAL)
        code, out, err = run_cli(capsys, ["defect", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "exact"
        assert doc["dims"]["defect"] == 0
        assert doc["matrices"]["laplacian"] == [["2", "-1", "-1"],
                                                ["-1", "2", "-1"],
                                                ["-1", "-1", "2"]]
        assert "verdict: exact" in err

    def test_rank2_cycle_defect(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", TRIANGLE_124)
        code, out, _ = run_cli(capsys, ["defect", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "defect 1"
        assert doc["bases"]["obstruction"] == [["1", "0", "1", "0", "-1", "0"]]

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("text", [TRIANGLE_124, TRIANGLE_124_JSON], ids=["text", "json"])
    def test_byte_order_mark(self, capsys, tmp_path, monkeypatch, source, text):
        # a problem saved as UTF-8 with a BOM prints the bytes of the plain one
        plain = run_cli(capsys, ["defect", "--input", write(tmp_path, "plain", text)])
        assert plain[0] == 0
        if source == "file":
            path = write(tmp_path, "bom", "\ufeff" + text)
            assert Path(path).read_bytes().startswith(b"\xef\xbb\xbf")
            argv = ["defect", "--input", path]
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + text))
            argv = ["defect"]
        assert run_cli(capsys, argv) == plain


class TestCohomology:
    def test_dims(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", TRIANGLE_124)
        code, out, _ = run_cli(capsys, ["cohomology", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["dims"]["h0"] == 1 and doc["dims"]["h1"] == 1

    def test_json_input_file(self, capsys, tmp_path):
        doc = {"vertices": ["I", "II", "III"],
               "edges": [{"from": "I", "to": "II"},
                         {"from": "II", "to": "III"},
                         {"from": "I", "to": "III"}],
               "system": {"kind": "unipotent2", "params": ["1", "2", "4"]}}
        path = write(tmp_path, "t.json", json.dumps(doc))
        code, out, _ = run_cli(capsys, ["cohomology", "--input", path])
        assert code == 0
        assert json.loads(out)["dims"]["h0"] == 1


class TestLaplacian:
    def test_pretty_shows_rank(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", TRIANGLE_TRIVIAL)
        code, out, _ = run_cli(capsys, ["laplacian", "--input", path, "--pretty"])
        assert code == 0
        assert "laplacian rank = 2" in out

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TRIANGLE_TRIVIAL))
        code, out, _ = run_cli(capsys, ["laplacian"])
        assert code == 0
        assert json.loads(out)["dims"]["laplacian_rank"] == 2


class TestTate:
    def test_golden_values(self, capsys):
        code, out, _ = run_cli(capsys, ["tate", "--ord", "3", "--g", "1,1,1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["tate"]["rank"] == 4
        assert doc["tate"]["det"] == "0"
        assert doc["tate"]["defect"] == 1
        assert doc["verdict"] == "defect 1"

    def test_rational_values(self, capsys):
        code, out, _ = run_cli(capsys, ["tate", "--ord", "4",
                                        "--g", "1/2,1/3,1/6,1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["tate"]["holonomy"] == "0"
        assert doc["tate"]["defect"] == 0

    def test_one_build_one_holonomy_one_kernel(self, capsys, monkeypatch):
        # the holonomy bound before the kernel reuses the build and the
        # holonomy that the document prints
        calls = []
        for name in ("build_tate", "holonomy", "_kernel_route"):
            def spy(*args, real=getattr(tate, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(tate, name, spy)
        code, _, _ = run_cli(capsys, ["tate", "--ord", "4", "--g", "1/2,1/3,1/6,1"])
        assert code == 0
        assert calls == ["build_tate", "holonomy", "_kernel_route"]

    def test_short_cycle_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["tate", "--ord", "1", "--g", "1"])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("m", ["0", "-1", "1"])
    def test_short_cycle_refused_before_the_cocycle_count(self, capsys, m):
        # the cycle's own message, not "1 cocycle values for a 0-cycle"
        code, out, err = run_cli(capsys, ["tate", "--ord=" + m, "--g", "1,2"])
        assert (code, out) == (2, "")
        assert err == "error: cycle needs at least 2 vertices, got %s\n" % m

    def test_decimal_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["tate", "--ord", "3", "--g", "1,0.5,1"])
        assert code == 2
        assert "decimal" in err


class TestDeterminism:
    def test_byte_identical_output(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", TRIANGLE_124)
        _, first, _ = run_cli(capsys, ["defect", "--input", path])
        _, second, _ = run_cli(capsys, ["defect", "--input", path])
        assert first == second

    def test_keys_sorted(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", TRIANGLE_TRIVIAL)
        _, out, _ = run_cli(capsys, ["defect", "--input", path])
        doc = json.loads(out)
        assert list(doc) == sorted(doc)
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


class TestErrors:
    @pytest.mark.parametrize("values", ["1_2/3,1,1", "1,1_000,1", "1,\u0662,1"])
    def test_separated_or_non_ascii_cocycle_exit_2(self, capsys, values):
        code, out, err = run_cli(capsys, ["tate", "--ord", "3", "--g", values])
        assert code == 2
        assert out == ""
        assert "bad rational literal" in err

    def test_digit_separator_in_input_file_exit_2(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt",
                     TRIANGLE_TRIVIAL + "SYSTEM\nunipotent2 1 1_000 4\n")
        code, out, err = run_cli(capsys, ["defect", "--input", path])
        assert code == 2
        assert out == ""
        assert "line 8" in err and "1_000" in err

    @pytest.mark.parametrize("rank", ["1_0", "\u0662"])
    def test_separated_or_non_ascii_rank_exit_2(self, capsys, tmp_path, rank):
        path = write(tmp_path, "t.txt", TRIANGLE_TRIVIAL + "SYSTEM\ntrivial %s\n" % rank)
        code, out, err = run_cli(capsys, ["cohomology", "--input", path])
        assert code == 2
        assert out == ""
        assert "positive integer rank" in err

    def test_bool_rank_exit_2(self, capsys, tmp_path):
        doc = {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}],
               "system": {"kind": "trivial", "rank": True}}
        path = write(tmp_path, "t.json", json.dumps(doc))
        code, out, err = run_cli(capsys, ["cohomology", "--input", path])
        assert code == 2
        assert out == ""
        assert "rank must be an integer" in err

    @pytest.mark.parametrize("doc", [
        {"vertices": ["a"], "edges": 5},
        {"vertices": ["a"], "system": {"kind": "trivial", "params": 5}},
        {"vertices": ["a"], "edges": [{"from": ["x"], "to": "a"}]},
        {"vertices": ["a", "b", "c"],
         "edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "c"},
                   {"from": "a", "to": "c"}],
         "system": {"kind": "unipotent2", "params": "124"}},
    ])
    def test_json_value_of_wrong_type_exit_2(self, capsys, tmp_path, doc):
        path = write(tmp_path, "t.json", json.dumps(doc))
        code, out, err = run_cli(capsys, ["defect", "--input", path])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("system", [
        {"kind": "trivial", "params": ["5"]},
        {"kind": "extension", "params": ["1"],
         "base": {"kind": "trivial", "rank": 1, "params": [0]}},
    ], ids=["trivial", "trivial-base"])
    def test_json_trivial_params_exit_2(self, capsys, tmp_path, system):
        # the text form refuses `trivial 1 5`; the JSON form must not run
        # it as `trivial 1` and drop the values
        doc = {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}],
               "system": system}
        path = write(tmp_path, "t.json", json.dumps(doc))
        code, out, err = run_cli(capsys, ["defect", "--input", path])
        assert code == 2
        assert out == ""
        assert err.startswith("error: trivial system wants 0 values") \
            and err.count("\n") == 1

    @pytest.mark.parametrize("system, message", [
        ({"kind": "unipotent2", "rank": 7, "params": ["1"]},
         "unipotent2 system has rank 2"),
        ({"kind": "extension", "rank": 9, "params": ["1"], "base": {"kind": "trivial"}},
         "extension rank must be base rank + 1"),
        ({"kind": "trivial", "base": {"kind": "trivial"}},
         "trivial system takes no base"),
        ({"kind": "unipotent2", "params": ["1"], "base": {"kind": "trivial"}},
         "unipotent2 system takes no base"),
        ({"kind": "extension", "rank": 2, "params": ["1", "1"],
          "base": {"kind": "extension", "params": ["5"], "base": {"kind": "trivial"}}},
         "extension rank must be base rank + 1"),
        ({"kind": "extension", "rank": 4, "params": ["1", "1"],
          "base": {"kind": "extension", "params": ["5"], "base": {"kind": "trivial"}}},
         "extension rank must be base rank + 1"),
    ], ids=["unipotent2-rank", "extension-rank", "trivial-base", "unipotent2-base",
            "outer-extension-rank-low", "outer-extension-rank-high"])
    def test_json_field_contradicting_kind_exit_2(self, capsys, tmp_path, system,
                                                  message):
        # the text form cannot say these, and the problem echo would drop
        # them, so the JSON form must refuse them rather than ignore them
        doc = {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}],
               "system": system}
        path = write(tmp_path, "t.json", json.dumps(doc))
        code, out, err = run_cli(capsys, ["defect", "--input", path])
        assert (code, out, err) == (2, "", "error: %s\n" % message)

    @pytest.mark.parametrize("doc, message", [
        ({"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}],
          "system": {"kind": "trivial", "rnak": 3}},
         "unknown key 'rnak' in system"),
        ({"vertices": ["a", "b"], "edge": [{"from": "a", "to": "b"}]},
         "unknown key 'edge' in problem"),
        ({"vertices": ["a"], "edge": []}, "unknown key 'edge' in problem"),
        ({"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b", "weight": 2}]},
         "unknown key 'weight' in edge"),
        ({"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}],
          "system": {"kind": "extension", "params": ["1"],
                     "base": {"kind": "trivial", "rank": 1, "label": "x"}}},
         "unknown key 'label' in system"),
    ], ids=["system-rnak", "problem-edge", "problem-edge-one-vertex", "edge-weight",
            "base-label"])
    def test_json_unknown_key_exit_2(self, capsys, tmp_path, doc, message):
        # a misspelt or unsupported key must not run as if it were absent
        path = write(tmp_path, "t.json", json.dumps(doc))
        code, out, err = run_cli(capsys, ["defect", "--input", path])
        assert (code, out, err) == (2, "", "error: %s\n" % message)

    @pytest.mark.parametrize("system, text", [
        ({"kind": "unipotent2", "rank": 2, "params": ["3"]}, "unipotent2 3"),
        ({"kind": "extension", "rank": 2, "params": ["3"], "base": {"kind": "trivial"}},
         "trivial 1\nextend 3"),
        ({"kind": "extension", "rank": 4, "params": ["1", "2", "3"],
          "base": {"kind": "extension", "rank": 3, "params": ["4", "5"],
                   "base": {"kind": "unipotent2", "rank": 2, "params": ["6"]}}},
         "unipotent2 6\nextend 4 5\nextend 1 2 3"),
    ], ids=["unipotent2", "extension", "extension-chain"])
    def test_json_consistent_rank_matches_text(self, capsys, tmp_path, system, text):
        doc = {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}],
               "system": system}
        json_path = write(tmp_path, "t.json", json.dumps(doc))
        text_path = write(tmp_path, "t.txt",
                          "VERTICES\na\nb\nEDGES\na b\nSYSTEM\n%s\n" % text)
        from_json = run_cli(capsys, ["defect", "--input", json_path])
        assert from_json[0] == 0
        assert from_json == run_cli(capsys, ["defect", "--input", text_path])

    @pytest.mark.parametrize("text", ["[1, 2]", "  []\n"])
    def test_json_array_problem_exit_2(self, capsys, tmp_path, text):
        path = write(tmp_path, "t.json", text)
        code, out, err = run_cli(capsys, ["defect", "--input", path])
        assert code == 2
        assert out == ""
        assert err == "error: problem must be a JSON object\n"

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = write(tmp_path, "bad.txt", "VERTICES\na\nEDGES\na b\n")
        code, _, err = run_cli(capsys, ["defect", "--input", path])
        assert code == 2
        assert "unknown vertex" in err

    @pytest.mark.parametrize("name, text", [
        ("deep.json",
         '{"vertices": ["a"], "edges": [], "system": '
         + '{"kind": "extension", "params": [], "base": ' * 1200
         + '{"kind": "trivial"}' + "}" * 1201),
        ("deep.txt", "VERTICES\na\nSYSTEM\ntrivial 1\n" + "extend\n" * 1200),
    ])
    def test_system_nested_1200_deep_exit_2(self, capsys, tmp_path, name, text):
        # 1200 layers are over the cap; where the interpreter's JSON decoder
        # stops short of 1200 nesting levels, it refuses the file first
        expected = "error: system has 1200 extension layers; the limit is 512\n"
        if name == "deep.json":
            try:
                json.loads(text)
            except RecursionError:
                expected = "error: JSON is nested too deeply\n"
        path = write(tmp_path, name, text)
        code, out, err = run_cli(capsys, ["defect", "--input", path])
        assert (code, out, err) == (2, "", expected)

    @pytest.mark.parametrize("form", ["text", "json"])
    def test_layer_cap_boundary(self, capsys, monkeypatch, form):
        # MAX_LAYERS layers run even with 300 frames of caller above main at
        # the default recursion limit; one more layer is refused in both
        # forms with the same message
        def problem(k):
            if form == "text":
                return "VERTICES\na\nSYSTEM\ntrivial 1\n" + "extend\n" * k
            return ('{"vertices": ["a"], "edges": [], "system": '
                    + '{"kind": "extension", "params": [], "base": ' * k
                    + '{"kind": "trivial"}' + "}" * (k + 1))

        def deep_main(depth):
            return main(["defect"]) if depth == 0 else deep_main(depth - 1)

        assert sys.getrecursionlimit() == 1000
        monkeypatch.setattr("sys.stdin", io.StringIO(problem(MAX_LAYERS)))
        code = deep_main(300)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "verdict: exact\n")
        assert json.loads(out)["dims"]["rank"] == MAX_LAYERS + 1
        monkeypatch.setattr("sys.stdin", io.StringIO(problem(MAX_LAYERS + 1)))
        code = main(["defect"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: system has %d extension layers; the limit is %d\n" \
            % (MAX_LAYERS + 1, MAX_LAYERS)

    def test_512_layers_from_900_frames_deep(self, capsys, monkeypatch):
        # parsing, building and serializing keep no frame per layer, so the
        # longest chain runs from 900 frames of caller at the default
        # recursion limit; the JSON form is left out because json.loads
        # recurses once per nesting level of its input
        def deep_main(depth):
            return main(["cohomology"]) if depth == 0 else deep_main(depth - 1)

        assert sys.getrecursionlimit() == 1000
        text = "VERTICES\na\nSYSTEM\ntrivial 1\n" + "extend\n" * MAX_LAYERS
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = deep_main(900)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "verdict: exact\n")
        # the pinned stdout of cohomology-vertex-extend512
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            "7f5044ae05aa53ff960dcb7b1e78b75ba5941ca066f7c8e64140b1ea9ac87087"

    def test_disconnected_exit_2(self, capsys, tmp_path):
        path = write(tmp_path, "bad.txt", "VERTICES\na b c\nEDGES\na b\n")
        code, _, err = run_cli(capsys, ["defect", "--input", path])
        assert code == 2
        assert "unreachable" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["defect", "--input",
                                        str(tmp_path / "nope.txt")])
        assert code == 2

    def test_unknown_command_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_internal_violation_exit_3(self, capsys, tmp_path, monkeypatch):
        # the factorization self-check can only fail on a bug; the exit
        # status contract is still pinned here
        def explode(problem, command):
            raise InternalCheckError("forced for the exit-code contract")

        monkeypatch.setattr("monograph.cli.run", explode)
        path = write(tmp_path, "t.txt", TRIANGLE_TRIVIAL)
        code, _, err = run_cli(capsys, ["defect", "--input", path])
        assert code == 3
        assert "internal error" in err

    # each corruption of the system matrix: one cell changed, cleared, set
    # or moved by a half, or a whole row scaled
    MISMATCHES = pytest.mark.parametrize(
        "cell, value", [((0, 0), "plus one"), ((0, 0), 0), ((0, 1), 1),
                        ((2, 4), "plus half"), (3, "times three")],
        ids=["nonzero-changed", "nonzero-cleared", "zero-set", "off-by-half", "row-scaled"])

    @staticmethod
    def corrupter(cell, value):
        real = cohomology.system_matrix

        def corrupted(sys):
            rows = [list(row) for row in dense(real(sys))]
            if value == "times three":
                rows[cell] = [3 * x for x in rows[cell]]
            else:
                i, j = cell
                step = {"plus one": 1, "plus half": Fraction(1, 2)}.get(value)
                rows[i][j] = rows[i][j] + step if step is not None else Fraction(value)
            return Mat.from_rows(rows)
        return corrupted

    @MISMATCHES
    def test_factorization_mismatch_exit_3(self, capsys, tmp_path, monkeypatch,
                                           cell, value):
        # a system matrix wrong in one cell or one row must fail the
        # R.delta == A check, or the A K^T = 0 check before it
        self.assert_check_fails(capsys, tmp_path, monkeypatch, self.corrupter(cell, value))

    # a 4-cycle II III IV V that misses vertex I, with the pendant trees
    # I - II and IV - VI - VII, at rank 3 with p/q values
    UNICYCLIC = ("VERTICES\nI II III IV V VI VII\nEDGES\nII III\nIII IV\nIV V\nV II\n"
                 "I II\nIV VI\nVI VII\nSYSTEM\nunipotent2 1/2 -3 0 7/4 2 1 -1\n"
                 "extend 1 -1/3 0 2 5/6 1 -2 0 1/5 3 1 1 4 -2\n")

    @MISMATCHES
    def test_unicyclic_mismatch_exit_3(self, capsys, tmp_path, monkeypatch, cell, value):
        # the spanning-tree route reads A only off component i and never
        # its diagonal, so a corrupted A solves without a KeyError or a
        # ZeroDivisionError, and one of the two checks fails instead
        # each component's index from its one _coupling call, then "cycle"
        # for the one _cycle_kernel solve that takes its (D, beta)
        solves, coupling, cycle_kernel = [], cohomology._coupling, cohomology._cycle_kernel
        monkeypatch.setattr(cohomology, "_coupling",
                            lambda *args: solves.append(args[2]) or coupling(*args))
        monkeypatch.setattr(cohomology, "_cycle_kernel",
                            lambda *args: solves.append("cycle") or cycle_kernel(*args))
        self.assert_check_fails(capsys, tmp_path, monkeypatch, self.corrupter(cell, value),
                                self.UNICYCLIC)
        assert solves == [1, "cycle", 0, "cycle"] * 3

    def test_factorization_mismatch_in_a_denominator_exit_3(self, capsys, tmp_path,
                                                            monkeypatch):
        # the same numerators over twice the denominator: a row of A that
        # differs from R.delta only in its stored denominator
        real = cohomology.system_matrix

        def corrupted(sys):
            a = real(sys)
            assert a.dens[0] == 1 and a.nums[0][0] == (0, 2)
            return Mat(a.rows, a.cols, a.nums, (2,) + a.dens[1:])

        self.assert_check_fails(capsys, tmp_path, monkeypatch, corrupted)

    @pytest.mark.parametrize("command", ["defect", "tate"])
    def test_wrong_kernel_vector_exit_3(self, capsys, tmp_path, monkeypatch, command):
        # a layered route that returns a vector outside ker A must fail the
        # A K^T = 0 check before anything is printed, in the library call
        # as well as in the document
        real = cohomology._layered_kernel

        def wrong(a, graph, r):
            rows = [list(row) for row in dense(real(a, graph, r).basis)]
            rows[0][-1] += 1
            return Subspace.from_vectors(a.cols, rows)

        monkeypatch.setattr(cohomology, "_layered_kernel", wrong)
        if command == "defect":
            with pytest.raises(InternalCheckError, match="kernel"):
                cohomology.invariant_cycles_report(parse_spec(TRIANGLE_124).local_system())
            with pytest.raises(InternalCheckError, match="kernel"):
                report.run(parse_spec(TRIANGLE_124), "defect")
            argv = ["defect", "--input", write(tmp_path, "t.txt", TRIANGLE_124)]
        else:
            with pytest.raises(InternalCheckError, match="kernel"):
                tate.tate_report(3, (1, 1, 1))
            with pytest.raises(InternalCheckError, match="kernel"):
                report.tate_document(3, (Fraction(1),) * 3)
            argv = ["tate", "--ord", "3", "--g", "1,1,1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1

    @staticmethod
    def assert_check_fails(capsys, tmp_path, monkeypatch, corrupted, problem=TRIANGLE_124):
        monkeypatch.setattr(cohomology, "system_matrix", corrupted)
        with pytest.raises(InternalCheckError) as info:
            cohomology.invariant_cycles_report(parse_spec(problem).local_system())
        with pytest.raises(InternalCheckError):
            report.run(parse_spec(problem), "defect")
        path = write(tmp_path, "t.txt", problem)
        code, out, err = run_cli(capsys, ["defect", "--input", path])
        assert code == 3
        assert out == ""
        assert err == "internal error: %s\n" % info.value

    def test_dimension_mismatch_exit_3(self, capsys, tmp_path, monkeypatch):
        # inputs are validated before any matrix is built, so a shape
        # mismatch is a bug, not bad input
        def explode(problem, command):
            raise DimensionMismatch("multiply 2x3 by 2x3")

        monkeypatch.setattr("monograph.cli.run", explode)
        path = write(tmp_path, "t.txt", TRIANGLE_TRIVIAL)
        code, out, err = run_cli(capsys, ["defect", "--input", path])
        assert code == 3
        assert out == ""
        assert err == "internal error: multiply 2x3 by 2x3\n"

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    @pytest.mark.parametrize("command", ["defect", "tate"])
    def test_unexpected_exception_exit_3(self, capsys, tmp_path, monkeypatch,
                                         error, command):
        # any other exception is a bug as well: one line, never a traceback
        def explode(doc):
            raise error("forced for the exit-code contract")

        monkeypatch.setattr("monograph.cli.to_json", explode)
        argv = (["defect", "--input", write(tmp_path, "t.txt", TRIANGLE_TRIVIAL)]
                if command == "defect" else ["tate", "--ord", "3", "--g", "1,1,1"])
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == "internal error: %s: forced for the exit-code contract\n" \
            % error.__name__


class TestLimits:
    """Inputs past the tool's own limits exit 2 with one line that names the
    limit and never the interpreter's setting."""

    @staticmethod
    def assert_refused(code, out, err, limit):
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert str(limit) in err and "sys." not in err

    def test_tate_holonomy_past_the_digit_limit(self, capsys):
        # every value has at most MAX_DIGITS digits, but the holonomy's
        # numerator has about 8000, so the document is refused before its
        # kernel is solved
        g = ",".join(("7" * 4000, "3" * 4000, "1/" + "9" * 4000))
        code, out, err = run_cli(capsys, ["tate", "--ord", "3", "--g", g])
        self.assert_refused(code, out, err, MAX_DIGITS)
        assert "numerator or denominator" in err

    def test_tate_holonomy_refused_before_the_kernel(self, capsys, monkeypatch):
        # six p/q values of about 800 digits each: every value and every cell
        # of the system matrix is within the limit, but the holonomy's
        # denominator, the lcm of the six denominators, has about 4800 digits
        rng = random.Random(5)
        g = ",".join("%d/%d" % (rng.randrange(10 ** 799, 10 ** 800),
                                rng.randrange(10 ** 799, 10 ** 800)) for _ in range(6))
        entered = []
        monkeypatch.setattr(tate, "_kernel_route", entered.append)
        code, out, err = run_cli(capsys, ["tate", "--ord", "6", "--g=" + g])
        assert (code, out, entered) == (2, "", [])
        assert err == ("error: a number in the document has a numerator or denominator "
                       "over the digit limit of %d\n" % MAX_DIGITS)

    def test_rational_many_cycle_graph_past_the_digit_limit(self, capsys, tmp_path):
        # unipotent2 on the path plus chords, 201 independent cycles on 100
        # vertices, each value p/q with 20-digit p and q: every input value
        # and matrix cell is within the limit, but the obstruction row has
        # about 5300 digits; ker A is solved first, one frame component at a
        # time, on the integer Laplacian
        n, m, digits = 100, 300, 20
        edges, _ = path_with_chords(n, m, 1000 * n + m)
        rng = random.Random(n + m + digits)
        low, high = 10 ** (digits - 1), 10 ** digits
        values = ["%d/%d" % (rng.choice((1, -1)) * rng.randrange(low, high),
                             rng.randrange(low, high)) for _ in edges]
        text = ("VERTICES\n" + "".join("v%d\n" % v for v in range(n)) + "EDGES\n"
                + "".join("v%d v%d\n" % e for e in edges)
                + "SYSTEM\nunipotent2 " + " ".join(values) + "\n")
        code, out, err = run_cli(capsys, ["defect", "--input",
                                          write(tmp_path, "chords.txt", text)])
        assert (code, out) == (2, "")
        assert err == ("error: a number in the document has a numerator or denominator "
                       "over the digit limit of %d\n" % MAX_DIGITS)

    def test_long_literal_in_g(self, capsys):
        code, out, err = run_cli(capsys, ["tate", "--ord", "3", "--g", "1,2," + "5" * 5000])
        self.assert_refused(code, out, err, MAX_DIGITS)
        assert "5000 digits" in err

    @pytest.mark.parametrize("name, text", [
        ("long.txt", TRIANGLE_TRIVIAL + "SYSTEM\nunipotent2 1 2 %s\n" % ("5" * 5000)),
        ("long-rank.txt", TRIANGLE_TRIVIAL + "SYSTEM\ntrivial %s\n" % ("5" * 5000)),
        ("long.json", '{"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}], '
                      '"system": {"kind": "unipotent2", "params": ["1/%s"]}}' % ("5" * 5000)),
        ("long-int.json", '{"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}], '
                          '"system": {"kind": "unipotent2", "params": [%s]}}' % ("5" * 5000)),
    ])
    def test_long_literal_in_problem_file(self, capsys, tmp_path, name, text):
        path = write(tmp_path, name, text)
        code, out, err = run_cli(capsys, ["defect", "--input", path])
        self.assert_refused(code, out, err, MAX_DIGITS)
        assert "5000 digits" in err

    def test_huge_rank_refused_before_it_is_built(self):
        # a cap that fails would build 10^8 identity rows: the address-space
        # limit turns that into a quick MemoryError (exit 3), and the timeout
        # stops anything slower, so the test fails instead of hanging
        pytest.importorskip("resource")
        doc = ('{"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}], '
               '"system": {"kind": "trivial", "rank": 100000000}}')
        env = dict(os.environ,
                   PYTHONPATH=str(Path(monograph.__file__).resolve().parents[1]))
        limited = ("import resource, runpy; "
                   "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                   "runpy.run_module('monograph.cli', run_name='__main__')")
        proc = subprocess.run([sys.executable, "-c", limited, "defect"], input=doc,
                              capture_output=True, text=True, env=env, timeout=60)
        self.assert_refused(proc.returncode, proc.stdout, proc.stderr, MAX_CELLS)
        assert "rank 100000000" in proc.stderr

    def test_cell_cap_boundary(self):
        # on one edge the five matrices have 6 + 8 r^2 cells: rank 724 is the
        # largest under the cap; specs are checked before any matrix is built
        edge = "VERTICES\na b\nEDGES\na b\nSYSTEM\ntrivial %d\n"
        assert parse_spec(edge % 724).system.rank == 724
        assert 6 + 8 * 724 ** 2 <= MAX_CELLS < 6 + 8 * 725 ** 2
        with pytest.raises(ValueError, match="the limit is %d" % MAX_CELLS):
            parse_spec(edge % 725)
        # tate is capped like defect on its cycle: 14 m^2 cells, m = 547 at most
        with pytest.raises(ValueError, match="the limit is %d" % MAX_CELLS):
            tate.build_tate(548, [0] * 548)


class TestPackage:
    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from monograph import *", namespace)
        assert [name for name in monograph.__all__ if name not in namespace] == []


class TestCheck:
    """Each output format once, over the whole registry at two instances
    per check; the acceptance tests run the full counts."""

    @pytest.fixture(autouse=True)
    def small_registry(self, monkeypatch):
        monkeypatch.setattr(checks, "CHECKS", tuple(
            checks.Check(**dict(vars(c), instances=min(c.instances, 2)))
            for c in checks.CHECKS))

    def test_table_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--seed", "3"])
        assert code == 0
        assert "FAIL" not in out
        assert "all passed" in out
        assert out.count("PASS") == 6
        assert "2 random connected multigraphs" in out

    def test_json_results(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--seed", "5", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"command", "seed", "passed", "results"}
        assert (doc["command"], doc["seed"], doc["passed"]) == ("check", 5, True)
        assert len(doc["results"]) == 6
        assert [r["name"] for r in doc["results"]] == [c.name for c in checks.CHECKS]
        assert all(set(r) == {"name", "passed", "detail"} and r["passed"]
                   for r in doc["results"])


def test_cli_import_leaves_the_check_suite_unloaded():
    """Only ``check`` needs the check suite; the other commands do not pay
    for compiling it on every fresh run."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(monograph.__file__).resolve().parents[1]))
    probe = "import sys, monograph.cli; print('monograph.checks' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_cli_import_leaves_typing_unloaded():
    """The package's annotations take their names from ``collections.abc``,
    so importing the command line does not load ``typing``.  ``-S`` keeps
    ``site`` from loading it first through a ``.pth`` file."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(monograph.__file__).resolve().parents[1]))
    probe = "import monograph.cli, sys; print('typing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_fresh_run_loads_no_introspection_modules():
    """A fresh ``python -m monograph.cli`` run loads none of the modules
    that ``dataclasses`` pulls in, unless the stdlib modules the package
    imports load one already: no command needs them, and importing them
    is start-up time."""
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    report = "print('loaded:', *sorted(set(%r) & set(sys.modules)))" % (heavy,)
    stdlib = ("import argparse, bisect, fractions, functools, itertools, json, math, "
              "random, re, sys, typing\n" + report)
    cli = ("import runpy, sys\nimport monograph\n"
           "sys.argv = ['monograph', 'tate', '--ord', '3', '--g', '1,1,1']\n"
           "try:\n    runpy.run_module('monograph.cli', run_name='__main__', alter_sys=True)\n"
           "finally:\n    " + report)
    env = dict(os.environ,
               PYTHONPATH=str(Path(monograph.__file__).resolve().parents[1]))
    loaded = []
    for probe in (stdlib, cli):
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        label, *names = proc.stdout.splitlines()[-1].split()
        assert label == "loaded:"
        loaded.append(set(names))
    assert '"verdict": "defect 1"' in proc.stdout
    assert loaded[1] <= loaded[0]


class TestInProcessReuse:
    """One parser serves every call of the process: consecutive calls give
    what fresh processes give, and no flag carries over."""

    def fresh_runs(self, calls):
        """(exit code, stdout) of each call in its own interpreter, all
        started before any is collected."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(monograph.__file__).resolve().parents[1]))
        procs = [subprocess.Popen([sys.executable, "-m", "monograph.cli", *argv],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, env=env)
                 for argv in calls]
        results = []
        for proc in procs:
            out, _ = proc.communicate(timeout=60)
            results.append((proc.returncode, out))
        return results

    def test_consecutive_calls_match_fresh_runs(self, capsys, tmp_path):
        cycle = write(tmp_path, "cycle.txt", TRIANGLE_124)
        trivial = write(tmp_path, "trivial.txt", TRIANGLE_TRIVIAL)
        calls = [
            ["defect", "--input", cycle, "--pretty"],
            ["defect", "--input", cycle],
            ["tate", "--ord", "3", "--g", "1,1,1", "--pretty"],
            ["tate", "--ord", "3", "--g", "1,1,1"],
            ["laplacian", "--input", trivial, "--pretty"],
            ["cohomology", "--input", trivial],
            ["tate", "--ord", "1", "--g", "1"],
            ["cohomology", "--input", cycle, "--json"],
            ["laplacian", "--input", trivial],
        ]
        in_process = [run_cli(capsys, argv)[:2] for argv in calls]
        assert in_process == self.fresh_runs(calls)
        assert _build_parser() is _build_parser()

    def test_usage_error_does_not_leak(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", TRIANGLE_124)
        with pytest.raises(SystemExit):
            main(["defect", "--input", path, "--json", "--pretty"])
        capsys.readouterr()
        code, out, _ = run_cli(capsys, ["defect", "--input", path])
        assert code == 0
        assert json.loads(out)["verdict"] == "defect 1"
