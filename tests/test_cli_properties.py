"""Drawn inputs to the graph commands: every one exits 0 or 2, never 3,
and one that exits 2 writes nothing to stdout.

Random bytes, and random lines built from the text grammar's keywords, are
given to ``laplacian``, ``cohomology`` and ``defect`` through ``--input``.
``main`` turns any exception into one line, so a bug shows as exit 3; the
cell cap keeps every drawn problem small enough to run.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from monograph.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

# no per-example deadline: timing on a loaded host says nothing about exit codes
relaxed = settings(deadline=None, max_examples=150)

commands = st.sampled_from(["laplacian", "cohomology", "defect"])
tokens = st.sampled_from([
    "VERTICES", "EDGES", "SYSTEM", "trivial", "unipotent2", "extend", "#",
    "a", "b", "c", "0", "1", "2", "-1", "1/2", "2/0", "1.5", "1_0", "+2",
    "99999999", "9" * 5000, "{", "[",
])
# one value in eight is no valid rational
values = st.sampled_from(["0", "1", "2", "-1", "3", "1/2", "-3/4", "5/7", "-2",
                          "7/3", "4", "-1/6", "0", "1", "-1", "2", "3/2", "-5",
                          "6", "1/3", "-2/9", "2/0", "1.5", "1_0", "9" * 5000])


@st.composite
def keyword_lines(draw):
    """A problem in the text grammar, its values drawn, with up to three
    lines of random keywords and tokens put in anywhere."""
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    # a path through the names, so most drawn graphs are connected, and
    # extra edges, some of them loops
    edges = list(zip(names, names[1:])) + draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=3))
    m = len(edges)
    out = ["VERTICES", " ".join(names), "EDGES", *("%s %s" % e for e in edges), "SYSTEM"]
    if draw(st.booleans()):
        rank = draw(st.sampled_from(["1", "2", "3", "0", "99999999", "9" * 5000]))
        out.append("trivial " + rank)
        r = {"0": 0, "1": 1, "2": 2}.get(rank, 3)
    else:
        out.append("unipotent2 " + " ".join(draw(st.lists(values, min_size=m, max_size=m))))
        r = 2
    for r in range(r, r + draw(st.integers(0, 3))):
        out.append("extend " + " ".join(draw(st.lists(values, min_size=m * r,
                                                      max_size=m * r))))
    for _ in range(draw(st.integers(0, 3))):
        out.insert(draw(st.integers(0, len(out))),
                   " ".join(draw(st.lists(tokens, min_size=1, max_size=4))))
    return "\n".join(out) + "\n"


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "problem"


def run(path, data, command):
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--input", str(path)])
    assert code in (0, 2), err.getvalue()
    # the exit contract: a nonzero exit writes nothing to stdout
    assert not code or out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") == 1
    return code


@relaxed
@given(st.binary(max_size=200), commands)
def test_random_bytes_exit_0_or_2(problem_path, data, command):
    run(problem_path, data, command)


@relaxed
@given(keyword_lines(), commands)
def test_keyword_lines_exit_0_or_2(problem_path, text, command):
    run(problem_path, text.encode("utf-8"), command)
