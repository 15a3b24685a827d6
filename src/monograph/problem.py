"""Problem descriptions: named graphs plus a coefficient-system recipe.

Two equivalent on-disk forms are supported and produce identical specs:

* a line-oriented text format with VERTICES / EDGES / SYSTEM sections::

      # the 3-cycle with a rank-2 unipotent system
      VERTICES
      I
      II
      III
      EDGES
      I II
      II III
      I III
      SYSTEM
      unipotent2 1 2 4

  The SYSTEM section starts with ``trivial R`` or ``unipotent2 g...`` (one
  cocycle value per edge, in edge order) and may be followed by ``extend``
  lines, each adding a rank-1 extension layer; an ``extend`` line carries
  one value per edge per current rank, edge-major.  Omitting SYSTEM means
  ``trivial 1``.

* a JSON object with the same content (see ``ProblemSpec.to_json_dict``).

Rationals are written as integers or ``p/q``; decimal literals are rejected
so no inexact value can enter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import DualGraph
from .linalg import parse_rational, vec
from .localsystem import EdgeCochain, LocalSystem

SYSTEM_KINDS = ("trivial", "unipotent2", "extension")


class ParseError(ValueError):
    """Input rejected; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = "line %d: " % line if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class SystemSpec:
    """Recipe for a coefficient system on a yet-unbuilt graph."""

    kind: str
    rank: int
    params: tuple[Fraction, ...] = ()
    base: SystemSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in SYSTEM_KINDS:
            raise ParseError("unknown system kind %r" % (self.kind,))
        object.__setattr__(self, "params", vec(self.params))
        if self.rank < 1:
            raise ParseError("system rank must be >= 1")
        if self.kind == "extension":
            if self.base is None:
                raise ParseError("extension needs a base system")
            if self.rank != self.base.rank + 1:
                raise ParseError("extension rank must be base rank + 1")
        elif self.base is not None:
            raise ParseError("%s system takes no base" % self.kind)
        if self.kind == "unipotent2" and self.rank != 2:
            raise ParseError("unipotent2 system has rank 2")

    def expected_params(self, n_edges: int) -> int:
        if self.kind == "trivial":
            return 0
        if self.kind == "unipotent2":
            return n_edges
        return n_edges * self.base.rank

    def check_params(self, n_edges: int) -> None:
        want = self.expected_params(n_edges)
        if len(self.params) != want:
            raise ParseError("%s system wants %d values for %d edges, got %d"
                             % (self.kind, want, n_edges, len(self.params)))
        if self.base is not None:
            self.base.check_params(n_edges)

    def build(self, g: DualGraph) -> LocalSystem:
        self.check_params(g.m)
        if self.kind == "trivial":
            return LocalSystem.trivial(g, self.rank)
        if self.kind == "unipotent2":
            return LocalSystem.unipotent_rank2(g, self.params)
        base_sys = self.base.build(g)
        r = self.base.rank
        values = [self.params[e * r:(e + 1) * r] for e in range(g.m)]
        return base_sys.extend_by_trivial(EdgeCochain(base_sys, tuple(values)))

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == "trivial":
            doc["rank"] = self.rank
        else:
            doc["params"] = list(map(str, self.params))
        if self.base is not None:
            doc["base"] = self.base.to_json_dict()
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> SystemSpec:
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ParseError("system must be an object with a 'kind'")
        kind = doc["kind"]
        params = doc.get("params", [])
        if not isinstance(params, list):
            raise ParseError("system 'params' must be a list of rationals")
        params = tuple(_json_rational(x) for x in params)
        if kind not in SYSTEM_KINDS:
            raise ParseError("unknown system kind %r" % (kind,))
        # a given rank or base goes to the constructor, which refuses one
        # that contradicts the kind
        base = None
        if kind == "extension" or "base" in doc:
            base = cls.from_json_dict(doc.get("base", {}))
        rank = doc.get("rank", base.rank + 1 if kind == "extension"
                       else 2 if kind == "unipotent2" else 1)
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise ParseError("%s system rank must be an integer" % kind)
        return cls(kind, rank, params, base)


def _json_rational(x: object) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise ParseError("bad rational literal %r: use an integer or 'p/q' string"
                         % (x,))
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return parse_rational(x)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError("bad rational literal %r" % (x,))


@dataclass(frozen=True)
class ProblemSpec:
    """Named vertices, named edges, and a system recipe."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    system: SystemSpec = field(default_factory=lambda: SystemSpec("trivial", 1))

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple((a, b) for a, b in self.edges))
        if not self.vertices:
            raise ParseError("no vertices declared")
        seen = set()
        for name in self.vertices:
            if name in seen:
                raise ParseError("duplicate vertex name %r" % name)
            seen.add(name)
        for a, b in self.edges:
            for name in (a, b):
                if name not in seen:
                    raise ParseError("unknown vertex %r in edge" % name)
        self.system.check_params(len(self.edges))

    def graph(self) -> DualGraph:
        index = {name: i for i, name in enumerate(self.vertices)}
        return DualGraph(len(self.vertices),
                         tuple((index[a], index[b]) for a, b in self.edges),
                         labels=self.vertices)

    def local_system(self) -> LocalSystem:
        return self.system.build(self.graph())

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"from": a, "to": b} for a, b in self.edges],
            "system": self.system.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> ProblemSpec:
        if not isinstance(doc, dict):
            raise ParseError("problem must be a JSON object")
        vertices = doc.get("vertices")
        if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
            raise ParseError("'vertices' must be a list of names")
        items = doc.get("edges", [])
        if not isinstance(items, list):
            raise ParseError("'edges' must be a list of edges")
        edges = []
        for item in items:
            if not (isinstance(item, dict) and "from" in item and "to" in item):
                raise ParseError("each edge needs 'from' and 'to'")
            edge = (item["from"], item["to"])
            if not all(isinstance(name, str) for name in edge):
                raise ParseError("edge endpoints must be vertex names")
            edges.append(edge)
        system = doc.get("system")
        spec_system = (SystemSpec("trivial", 1) if system is None
                       else SystemSpec.from_json_dict(system))
        return cls(tuple(vertices), tuple(edges), spec_system)


def _system_lines(system: SystemSpec) -> list[str]:
    layers = []
    node = system
    while node.kind == "extension":
        layers.append("extend " + " ".join(map(str, node.params)))
        node = node.base
    if node.kind == "trivial":
        layers.append("trivial %d" % node.rank)
    else:
        layers.append("unipotent2 " + " ".join(map(str, node.params)))
    return list(reversed(layers))


def render(spec: ProblemSpec) -> str:
    """Text form; parse_spec(render(spec)) == spec."""
    lines = ["VERTICES"]
    lines.extend(spec.vertices)
    lines.append("EDGES")
    lines.extend("%s %s" % (a, b) for a, b in spec.edges)
    lines.append("SYSTEM")
    lines.extend(_system_lines(spec.system))
    return "\n".join(lines) + "\n"


def parse_spec(text: str) -> ProblemSpec:
    """Parse the text format; raise ParseError with a line number."""
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    system_lines: list[tuple[int, list[str]]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("VERTICES", "EDGES", "SYSTEM"):
            section = line
            continue
        tokens = line.split()
        if section == "VERTICES":
            vertices.extend(tokens)
        elif section == "EDGES":
            if len(tokens) != 2:
                raise ParseError("an edge line is two vertex names", lineno)
            edges.append((tokens[0], tokens[1]))
        elif section == "SYSTEM":
            system_lines.append((lineno, tokens))
        else:
            raise ParseError("expected a VERTICES, EDGES or SYSTEM header", lineno)

    system = _parse_system_lines(system_lines, n_edges=len(edges))
    return ProblemSpec(tuple(vertices), tuple(edges), system)


def _parse_system_lines(system_lines: list[tuple[int, list[str]]],
                        n_edges: int) -> SystemSpec:
    if not system_lines:
        return SystemSpec("trivial", 1)
    lineno, tokens = system_lines[0]
    head, args = tokens[0], tokens[1:]
    if head == "trivial":
        if len(args) != 1 or not (args[0].isascii() and args[0].isdigit()) \
                or int(args[0]) < 1:
            raise ParseError("trivial takes one positive integer rank", lineno)
        system = SystemSpec("trivial", int(args[0]))
    elif head == "unipotent2":
        values = _parse_values(args, lineno)
        if len(values) != n_edges:
            raise ParseError("unipotent2 takes one value per edge (%d), got %d"
                             % (n_edges, len(values)), lineno)
        system = SystemSpec("unipotent2", 2, values)
    elif head == "extend":
        raise ParseError("extend needs a trivial or unipotent2 line first", lineno)
    else:
        raise ParseError("unknown system kind %r" % head, lineno)
    for lineno, tokens in system_lines[1:]:
        if tokens[0] != "extend":
            raise ParseError("only extend lines may follow the first system line",
                             lineno)
        values = _parse_values(tokens[1:], lineno)
        if len(values) != n_edges * system.rank:
            raise ParseError("extend takes %d values here (%d per edge), got %d"
                             % (n_edges * system.rank, system.rank, len(values)),
                             lineno)
        system = SystemSpec("extension", system.rank + 1, values, base=system)
    return system


def _parse_values(tokens: list[str], lineno: int) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_rational(t) for t in tokens)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def load_problem(text: str) -> ProblemSpec:
    """Accept either format: JSON if the first character is '{' or '['.

    A system chain is walked recursively here and later, so one too deep
    raises RecursionError; the command line reports it as bad input.
    """
    try:
        if text.lstrip()[:1] in ("{", "["):
            return ProblemSpec.from_json_dict(json.loads(text))
        return parse_spec(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from None
