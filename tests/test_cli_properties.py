"""Drawn inputs to the graph commands: every one exits 0 or 2, never 3,
and one that exits 2 writes nothing to stdout.

Random bytes, random lines built from the text grammar's keywords, and
JSON problems, well-formed and not, are given to ``laplacian``,
``cohomology`` and ``defect`` through ``--input``.  ``main`` turns any
exception into one line, so a bug shows as exit 3; the cell cap keeps every
drawn problem small enough to run.
"""

import io
import json
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


# JSON vertex names json escapes, writes past ASCII, or the text grammar
# cannot hold
json_names = st.sampled_from(["a", "b", "c", '"', "\\", "\u00e9", "a b", "#", "", "EDGES"])
json_values = st.sampled_from([0, 1, -1, 2, 3, -5, "1/2", "-3/4", "5/7", "7", "-2/9"])
# the JSON stand-in for a 5000-digit number, replaced in the written text
BIG = "<5000 digits>"
bad_values = st.sampled_from([1.5, 0.0, True, None, "1/0", BIG, "9" * 5000])
FAULTS = ("loop", "unknown vertex", "unreachable", "value", "count", "rank",
          "layer rank", "unknown key", "truncated")


@st.composite
def json_problems(draw):
    """A problem in the JSON form, its names and values drawn, with 0-3
    extension layers: well-formed in about half the draws, the rest with one
    fault of FAULTS planted where the problem has room for it."""
    fault = draw(st.sampled_from((None,) * len(FAULTS) + FAULTS))
    names = draw(st.lists(json_names, min_size=1, max_size=4, unique=True))
    # a path through the names and up to two chords
    edges = list(zip(names, names[1:]))
    if len(names) > 1:
        edges += draw(st.lists(st.permutations(names).map(lambda p: tuple(p[:2])),
                               max_size=2))
    m = len(edges)
    if fault == "rank" or draw(st.booleans()):
        rank = draw(st.sampled_from([0, -1, True, "2", 99999999]) if fault == "rank"
                    else st.integers(1, 3))
        base = {"kind": "trivial", "rank": rank}
        value_lists = []
    else:
        rank = 2
        base = {"kind": "unipotent2",
                "params": draw(st.lists(json_values, min_size=m, max_size=m))}
        value_lists = [base["params"]]
    system, layers = base, []
    r0 = rank if type(rank) is int and 1 <= rank <= 3 else 1
    for r in range(r0, r0 + draw(st.integers(0, 3))):
        system = {"kind": "extension", "base": system,
                  "params": draw(st.lists(json_values, min_size=m * r, max_size=m * r))}
        if draw(st.booleans()):
            system["rank"] = r + 1
        value_lists.append(system["params"])
        layers.append((system, r + 1))
    doc = {"vertices": names, "edges": [{"from": a, "to": b} for a, b in edges],
           "system": system}

    if fault == "loop":
        v = draw(st.sampled_from(names))
        doc["edges"].insert(draw(st.integers(0, m)), {"from": v, "to": v})
    elif fault == "unknown vertex":
        doc["edges"].insert(draw(st.integers(0, m)),
                            {"from": draw(st.sampled_from(names)), "to": "z"})
    elif fault == "unreachable":
        names.insert(draw(st.integers(0, len(names))), "z")
    elif fault == "value" and any(value_lists):
        values = draw(st.sampled_from([v for v in value_lists if v]))
        values[draw(st.integers(0, len(values) - 1))] = draw(bad_values)
    elif fault == "count" and value_lists:  # one value too few or too many
        values = draw(st.sampled_from(value_lists))
        if values and draw(st.booleans()):
            values.pop()
        else:
            values.append(draw(json_values))
    elif fault == "count":  # a trivial base takes no values
        base["params"] = [draw(json_values)]
    elif fault == "layer rank" and layers:
        layer, want = draw(st.sampled_from(layers))
        layer["rank"] = want + draw(st.sampled_from([-1, 1]))
    elif fault == "unknown key":
        objects = [doc, base, *(layer for layer, _ in layers), *doc["edges"]]
        draw(st.sampled_from(objects))["rnak"] = 1
    text = json.dumps(doc, ensure_ascii=draw(st.booleans())).replace(
        json.dumps(BIG), "9" * 5000)
    if fault == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


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
    return code, out.getvalue()


@relaxed
@given(st.binary(max_size=200), commands)
def test_random_bytes_exit_0_or_2(problem_path, data, command):
    run(problem_path, data, command)


@relaxed
@given(keyword_lines(), commands)
def test_keyword_lines_exit_0_or_2(problem_path, text, command):
    run(problem_path, text.encode("utf-8"), command)


@relaxed
@given(json_problems(), commands)
def test_json_problems_exit_0_or_2(problem_path, text, command):
    code, out = run(problem_path, text.encode("utf-8"), command)
    if code == 0:  # the echo's escaped names come out as json.dumps writes them
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
