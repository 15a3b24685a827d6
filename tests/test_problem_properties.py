"""Drawn problem specs: the text and JSON forms round-trip and agree."""

import json

import pytest

from monograph.problem import (ProblemSpec, SystemSpec, load_problem, parse_spec,
                               render)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

# no per-example deadline: timing on a loaded host says nothing about the forms
relaxed = settings(deadline=None)
values = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def specs(draw) -> ProblemSpec:
    names = draw(st.lists(st.text("abxyz", min_size=1, max_size=3),
                          min_size=1, max_size=4, unique=True))
    edges = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          max_size=5))
    m = len(edges)
    if draw(st.booleans()):
        kind, rank, params = "trivial", draw(st.integers(1, 3)), ()
    else:
        kind, rank = "unipotent2", 2
        params = tuple(draw(st.lists(values, min_size=m, max_size=m)))
    layers = tuple(tuple(draw(st.lists(values, min_size=m * r, max_size=m * r)))
                   for r in range(rank, rank + draw(st.integers(0, 4))))
    return ProblemSpec(tuple(names), tuple(edges), SystemSpec(kind, rank, params, layers))


@relaxed
@given(specs())
def test_text_round_trip(spec):
    assert parse_spec(render(spec)) == spec


@relaxed
@given(specs())
def test_json_round_trip(spec):
    assert ProblemSpec.from_json_dict(spec.to_json_dict()) == spec


@relaxed
@given(specs())
def test_text_and_json_forms_agree(spec):
    assert load_problem(json.dumps(spec.to_json_dict())) == load_problem(render(spec))
