"""Local systems: constructors, transport, reversal, extensions."""

import random

import pytest

from monograph import localsystem
from monograph.checks import (random_connected_multigraph, random_rational,
                              random_unipotent_system, random_unipotent_systems)
from monograph.cli import main
from monograph.cohomology import residue_constraint_matrix
from monograph.graph import DualGraph, cycle_graph
from monograph.linalg import DimensionMismatch, Mat
from monograph.localsystem import EdgeCochain, LocalSystem, _inverse

from test_graph import reorient_edge
from test_linalg_oracle import dense, oracle_inverse


def reorient_system(sys: LocalSystem, e: int) -> LocalSystem:
    """The equivalent system with edge e's canonical orientation swapped:
    the stored transition becomes its inverse."""
    transitions = (sys.transitions[:e] + (sys.transition_inverse(e),)
                   + sys.transitions[e + 1:])
    return LocalSystem(reorient_edge(sys.graph, e), sys.rank, transitions)


def triangle():
    return cycle_graph(3)


def column(values):
    return Mat.from_rows([[x] for x in values], cols=1)


def unipotent_upper_triangular(sys):
    return all(dense(u)[i][j] == (1 if i == j else 0)
               for u in sys.transitions
               for i in range(sys.rank) for j in range(i + 1))


class TestTrivial:
    def test_rank1(self):
        sys = LocalSystem.trivial(triangle(), 1)
        assert sys.transitions == (Mat.identity(1),) * 3

    def test_rank2(self):
        sys = LocalSystem.trivial(triangle(), 2)
        assert all(u == Mat.identity(2) for u in sys.transitions)

    def test_five_cycle(self):
        sys = LocalSystem.trivial(cycle_graph(5), 1)
        assert len(sys.transitions) == 5

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            LocalSystem.trivial(triangle(), 0)


class TestUnipotentRank2:
    def test_transition_shape(self):
        sys = LocalSystem.unipotent_rank2(triangle(), (5, 7, 11))
        assert sys.transitions[0] == Mat.from_rows([[1, 5], [0, 1]])
        assert sys.transitions[2] == Mat.from_rows([[1, 11], [0, 1]])

    def test_zero_values_give_trivial(self):
        g = triangle()
        assert LocalSystem.unipotent_rank2(g, (0, 0, 0)) == LocalSystem.trivial(g, 2)

    def test_reversed_transport_is_inverse(self):
        g = DualGraph(2, ((0, 1),))
        sys = LocalSystem.unipotent_rank2(g, (5,))
        assert sys.transition_inverse(0) == Mat.from_rows([[1, -5], [0, 1]])

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            LocalSystem.unipotent_rank2(triangle(), (1, 2))


class TestTransport:
    """A vector moves across edge e by the transition, back by its inverse."""

    def test_trivial_is_identity(self):
        sys = LocalSystem.trivial(triangle(), 2)
        v = column([3, "1/2"])
        assert sys.transitions[0] @ v == v

    def test_unipotent_shear(self):
        sys = LocalSystem.unipotent_rank2(triangle(), (3, 0, 0))
        assert sys.transitions[0] @ column([1, 2]) == column([7, 2])

    def test_forward_backward_roundtrip(self):
        rng = random.Random(31)
        for _ in range(10):
            g = random_connected_multigraph(rng, max_vertices=5)
            sys = random_unipotent_system(rng, g, 3)
            e = rng.randrange(g.m)
            assert sys.transition_inverse(e) @ sys.transitions[e] == Mat.identity(3)
            assert sys.transitions[e] @ sys.transition_inverse(e) == Mat.identity(3)

    def test_length_mismatch(self):
        sys = LocalSystem.trivial(triangle(), 2)
        with pytest.raises(DimensionMismatch):
            sys.transitions[0] @ column([1, 2, 3])


class TestSingularTransition:
    def test_rejected(self):
        with pytest.raises(ValueError):
            LocalSystem(triangle(), 1,
                        (Mat.zeros(1, 1), Mat.identity(1), Mat.identity(1)))


class TestExtendByTrivial:
    def test_extension_of_trivial_is_unipotent(self):
        g = triangle()
        base = LocalSystem.trivial(g, 1)
        c = EdgeCochain(base, [[1], [2], [4]])
        assert base.extend_by_trivial(c) == LocalSystem.unipotent_rank2(g, (1, 2, 4))

    def test_zero_cochain_splits(self):
        g = triangle()
        base = LocalSystem.unipotent_rank2(g, (1, 2, 4))
        c = EdgeCochain(base, [[0, 0]] * 3)
        extended = base.extend_by_trivial(c)
        for e in range(3):
            u = extended.transitions[e]
            cells = dense(u)
            assert cells[0][2] == 0 and cells[1][2] == 0 and cells[2][2] == 1

    def test_iterated_extension_rank3(self):
        # block-multiplication oracle: layering (5,7,11) then the 2-vectors
        # below must give exactly these 3x3 transitions
        g = triangle()
        base = LocalSystem.trivial(g, 1)
        level1 = base.extend_by_trivial(
            EdgeCochain(base, [[5], [7], [11]]))
        level2 = level1.extend_by_trivial(
            EdgeCochain(level1, [[1, 2], [3, 4], ["1/2", 0]]))
        assert level2.rank == 3
        assert level2.transitions[0] == Mat.from_rows([[1, 5, 1], [0, 1, 2], [0, 0, 1]])
        assert level2.transitions[1] == Mat.from_rows([[1, 7, 3], [0, 1, 4], [0, 0, 1]])
        assert level2.transitions[2] == Mat.from_rows(
            [[1, 11, "1/2"], [0, 1, 0], [0, 0, 1]])

    def test_iterated_extensions_stay_unipotent(self):
        rng = random.Random(37)
        for _ in range(10):
            g = random_connected_multigraph(rng, max_vertices=5)
            sys = random_unipotent_system(rng, g, rng.randint(1, 4))
            assert unipotent_upper_triangular(sys)

    def test_cochain_on_other_system_rejected(self):
        g = triangle()
        base = LocalSystem.trivial(g, 1)
        other = LocalSystem.unipotent_rank2(g, (1, 1, 1))
        c = EdgeCochain(other, [[0, 0]] * 3)
        with pytest.raises(ValueError):
            base.extend_by_trivial(c)


class TestEdgeCochain:
    """The value seen from the target end, -(U_e^-1 value), is what the
    residue constraints pick up at the target vertex."""

    def test_reversed_value(self):
        g = DualGraph(2, ((0, 1),))
        sys = LocalSystem.unipotent_rank2(g, (3,))
        c = EdgeCochain(sys, [[1, 2]])
        # -(U^-1 (1,2)) = -((1-6, 2)) = (5, -2)
        assert residue_constraint_matrix(sys) @ column(c.values[0]) == \
            column([1, 2, 5, -2])

    def test_trivial_reversal_is_negation(self):
        sys = LocalSystem.trivial(triangle(), 1)
        c = EdgeCochain(sys, [[2], [-3], ["1/5"]])
        # only edge 1 = (1, 2): its source sees -3, its target 3
        only_edge_1 = (0, c.values[1][0], 0)
        assert residue_constraint_matrix(sys) @ column(only_edge_1) == column([0, -3, 3])

    def test_wrong_shape(self):
        sys = LocalSystem.trivial(triangle(), 2)
        with pytest.raises(DimensionMismatch):
            EdgeCochain(sys, [[1], [1], [1]])


class TestReorientEdge:
    def test_transition_becomes_inverse(self):
        g = triangle()
        sys = LocalSystem.unipotent_rank2(g, (1, 2, 4))
        flipped = reorient_system(sys, 1)
        assert flipped.graph.edges[1] == (2, 1)
        assert flipped.transitions[1] == Mat.from_rows([[1, -2], [0, 1]])
        assert reorient_system(flipped, 1) == sys


class TestInverses:
    """Every cached inverse, and every inverse _inverse returns, against
    the two-sided product and the Gauss-Jordan inverse of the oracle
    tests.  _inverse takes the RREF of [u | I] through one _reduced call
    per matrix."""

    def assert_inverse(self, u, inv):
        n = u.rows
        assert u @ inv == Mat.identity(n)
        assert inv @ u == Mat.identity(n)
        assert inv == oracle_inverse(u)

    def assert_cached_inverses_exact(self, sys):
        for e, u in enumerate(sys.transitions):
            self.assert_inverse(u, sys.transition_inverse(e))

    def reduced_calls(self, monkeypatch):
        calls, reduced = [], localsystem._reduced

        def counted(rows, cols):
            calls.append(rows)
            return reduced(rows, cols)
        monkeypatch.setattr(localsystem, "_reduced", counted)
        return calls

    def test_sampled_systems_and_reorientations(self):
        rng = random.Random(7)
        for sys in random_unipotent_systems(rng, 80):
            self.assert_cached_inverses_exact(sys)
            flipped = reorient_system(sys, rng.randrange(sys.graph.m))
            self.assert_cached_inverses_exact(flipped)

    def test_constructors(self):
        g = triangle()
        self.assert_cached_inverses_exact(LocalSystem.trivial(g, 3))
        self.assert_cached_inverses_exact(LocalSystem.trivial(g, 40))
        self.assert_cached_inverses_exact(
            LocalSystem.unipotent_rank2(g, (5, "-2/3", 0)))

    @pytest.mark.parametrize("rows", [
        [["-3/4"]],
        [[-2, 3, "1/2"], [0, "-3/5", 4], [0, 0, -7]],
        [[5, 0, 0, 1], [0, "1/3", -2, 0], [0, 0, -1, "7/2"], [0, 0, 0, "-9/4"]],
    ])
    def test_upper_triangular_back_substituted(self, rows):
        u = Mat.from_rows(rows)
        self.assert_inverse(u, _inverse(u))
        sys = LocalSystem(DualGraph(2, ((0, 1),)), u.rows, (u,))
        self.assert_cached_inverses_exact(sys)

    @pytest.mark.parametrize("rows", [
        [[1, 0], [5, 1]],
        [[1, 0, 0], [0, 2, 0], [0, "1/2", -1]],
        [[0, 1], [1, 0]],
        [[2, 1, 0], [1, 1, 3], [4, 0, "-1/3"]],
    ])
    def test_other_matrices_take_rref(self, rows, monkeypatch):
        u = Mat.from_rows(rows)
        calls = self.reduced_calls(monkeypatch)
        self.assert_inverse(u, _inverse(u))
        assert len(calls) == 1

    @pytest.mark.parametrize("rows", [
        [[0]],
        [[1, 2], [0, 0]],
        [[0, 1], [0, 1]],
        [[3, 1, 4], [0, 0, 5], [0, 0, 9]],
    ])
    def test_zero_on_diagonal_is_singular(self, rows):
        u = Mat.from_rows(rows)
        with pytest.raises(ValueError, match="singular"):
            _inverse(u)
        with pytest.raises(ValueError, match="singular"):
            LocalSystem(DualGraph(2, ((0, 1),)), u.rows, (u,))

    def test_direct_construction_inverts(self):
        u = Mat.from_rows([[2, 1], [1, 1]])
        sys = LocalSystem(DualGraph(2, ((0, 1),)), 2, (u,))
        assert sys.transition_inverse(0) == Mat.from_rows([[1, -1], [-1, 2]])


class TestHandedInverses:
    """The trivial, unipotent2 and extension constructors hand the system
    their inverses in closed form; _inverse, which every other system
    uses, is the oracle."""

    @staticmethod
    def chains(rng, count):
        """unipotent2 or trivial bases with up to two extension layers, on
        random multigraphs, with rational values and zeros."""
        for _ in range(count):
            g = random_connected_multigraph(rng, max_vertices=6)
            if rng.random() < 0.7:
                sys = LocalSystem.unipotent_rank2(g, [random_rational(rng) for _ in range(g.m)])
            else:
                sys = LocalSystem.trivial(g, rng.randint(1, 2))
            for _ in range(rng.randint(0, 2)):
                sys = sys.extend_by_trivial(EdgeCochain(sys, tuple(
                    [random_rational(rng) for _ in range(sys.rank)] for _ in range(g.m))))
            yield sys

    def test_match_the_general_inverse(self):
        for sys in self.chains(random.Random(211), 60):
            for e, u in enumerate(sys.transitions):
                assert sys.transition_inverse(e) == _inverse(u)

    def test_extension_of_a_general_system(self):
        # the closed form [[W, -W c], [0, 1]] holds for any inverse W
        u = Mat.from_rows([[2, 1], [1, "1/3"]])
        base = LocalSystem(DualGraph(2, ((0, 1),)), 2, (u,))
        extended = base.extend_by_trivial(EdgeCochain(base, [["1/2", -3]]))
        assert extended.transition_inverse(0) == _inverse(extended.transitions[0])

    def test_take_no_part_in_equality_hash_or_repr(self):
        for sys in self.chains(random.Random(223), 20):
            derived = LocalSystem(sys.graph, sys.rank, sys.transitions)
            assert derived == sys and hash(derived) == hash(sys)
            assert repr(derived) == repr(sys)
            assert all(derived.transition_inverse(e) == sys.transition_inverse(e)
                       for e in range(sys.graph.m))

    @pytest.mark.parametrize("name, system", [
        ("unipotent_rank2", "unipotent2 1 2 4"),
        ("extend_by_trivial", "trivial 1\nextend 1 0 -1/2"),
    ])
    def test_wrong_one_fails_the_factorization_check(self, name, system, monkeypatch,
                                                     capsys, tmp_path):
        # the constructor hands the transitions as their own inverses: R.delta
        # then holds U U in a diagonal block where A holds the identity.  A
        # document builds each extension layer by _extended, the writer
        # extend_by_trivial calls after its checks
        name = "_extended" if name == "extend_by_trivial" else name
        real = getattr(LocalSystem, name)

        def wrong(*args):
            sys = real(*args)
            return LocalSystem(sys.graph, sys.rank, sys.transitions, sys.transitions)
        monkeypatch.setattr(LocalSystem, name,
                            staticmethod(wrong) if name == "unipotent_rank2" else wrong)
        path = tmp_path / "t.txt"
        path.write_text("VERTICES\nI II III\nEDGES\nI II\nII III\nI III\nSYSTEM\n"
                        + system + "\n")
        assert main(["defect", "--input", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("internal error: system matrix does not factor through the "
                       "residue and coboundary matrices\n")
