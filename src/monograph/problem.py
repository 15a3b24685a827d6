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

* a JSON object with the same content (see ``ProblemSpec.to_json_dict``),
  each extension layer an ``"extension"`` object around its ``"base"``.

Both become one flat ``SystemSpec``: the base line, then the extension
layers innermost first, at most ``MAX_LAYERS`` of them.

Rationals are written as integers or ``p/q``; decimal literals are rejected
so no inexact value can enter.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from fractions import Fraction

from .graph import DualGraph
from .linalg import Value, parse_rational, rat, vec
from .localsystem import LocalSystem

BASE_KINDS = ("trivial", "unipotent2")
SECTIONS = ("VERTICES", "EDGES", "SYSTEM")
MAX_LAYERS = 512
# the most cells the matrices of one document may have, see ``check_cells``
MAX_CELLS = 1 << 22


class ParseError(ValueError):
    """Input rejected; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = "line %d: " % line if line is not None else ""
        super().__init__(prefix + message)


def check_cells(n: int, m: int, r: int) -> None:
    """Refuse a rank-r system on n vertices and m edges, before anything is
    built, when its document's five matrices have more than MAX_CELLS cells:
    incidence n x m, Laplacian n x n, coboundary mr x nr, residue nr x mr and
    system nr x nr."""
    cells = n * m + n * n + (2 * m + n) * n * r * r
    if cells > MAX_CELLS:
        raise ParseError("%d vertices, %d edges and rank %d make %d matrix cells; "
                         "the limit is %d" % (n, m, r, cells, MAX_CELLS))


class SystemSpec(Value):
    """Recipe for a coefficient system on a yet-unbuilt graph: a base of
    rank ``rank``, then one trivial extension per entry of ``layers``; the
    layer over rank r holds r values per edge, edge-major."""

    _fields = ("kind", "rank", "params", "layers")

    def __init__(self, kind: str, rank: int, params: Iterable[int | str | Fraction] = (),
                 layers: Iterable[Iterable[int | str | Fraction]] = ()) -> None:
        super().__init__(kind, rank, params, layers)
        if self.kind not in BASE_KINDS:
            raise ParseError("unknown system kind %r" % (self.kind,))
        object.__setattr__(self, "params", vec(self.params))
        object.__setattr__(self, "layers", tuple(map(vec, self.layers)))
        if self.rank < 1:
            raise ParseError("system rank must be >= 1")
        if self.kind == "unipotent2" and self.rank != 2:
            raise ParseError("unipotent2 system has rank 2")
        if len(self.layers) > MAX_LAYERS:
            raise ParseError("system has %d extension layers; the limit is %d"
                             % (len(self.layers), MAX_LAYERS))

    def check_params(self, n_edges: int) -> None:
        counts = [(self.kind, n_edges if self.kind == "unipotent2" else 0,
                   self.params)]
        counts += [("extension", n_edges * r, values)
                   for r, values in enumerate(self.layers, self.rank)]
        for kind, want, values in reversed(counts):
            if len(values) != want:
                raise ParseError("%s system wants %d values for %d edges, got %d"
                                 % (kind, want, n_edges, len(values)))

    def build(self, g: DualGraph) -> LocalSystem:
        self.check_params(g.m)
        if self.kind == "trivial":
            system = LocalSystem.trivial(g, self.rank)
        else:
            system = LocalSystem.unipotent_rank2(g, self.params)
        # check_params has counted the values and vec has read them, so
        # each layer goes in without an EdgeCochain
        for r, values in enumerate(self.layers, self.rank):
            system = system._extended([values[e * r:(e + 1) * r] for e in range(g.m)])
        return system

    def to_json_dict(self) -> dict:
        if self.kind == "trivial":
            doc = {"kind": "trivial", "rank": self.rank}
        else:
            doc = {"kind": "unipotent2", "params": list(map(str, self.params))}
        for values in self.layers:
            doc = {"kind": "extension", "params": list(map(str, values)),
                   "base": doc}
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> SystemSpec:
        chain = []  # (given rank or None, params) per layer, outermost first
        while True:
            if not isinstance(doc, dict) or "kind" not in doc:
                raise ParseError("system must be an object with a 'kind'")
            _check_keys(doc, ("kind", "rank", "params", "base"), "system")
            kind, rank, params = doc["kind"], doc.get("rank"), doc.get("params", [])
            if not isinstance(params, list):
                raise ParseError("system 'params' must be a list of rationals")
            params = tuple(_json_rational(x) for x in params)
            if kind not in BASE_KINDS + ("extension",):
                raise ParseError("unknown system kind %r" % (kind,))
            if "rank" in doc and (isinstance(rank, bool) or not isinstance(rank, int)):
                raise ParseError("%s system rank must be an integer" % kind)
            if kind != "extension":
                break
            chain.append((rank, params))
            doc = doc.get("base", {})
        if "base" in doc:
            raise ParseError("%s system takes no base" % kind)
        if rank is None:
            rank = 2 if kind == "unipotent2" else 1
        spec = cls(kind, rank, params, tuple(p for _, p in reversed(chain)))
        if any(r not in (None, rank + i) for i, (r, _) in enumerate(reversed(chain), 1)):
            raise ParseError("extension rank must be base rank + 1")
        return spec


def _check_keys(doc: dict, known: tuple[str, ...], what: str) -> None:
    for key in doc:
        if key not in known:
            raise ParseError("unknown key %r in %s" % (key, what))


def _json_rational(x: object) -> Fraction:
    try:
        return rat(x)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from None


class ProblemSpec(Value):
    """Named vertices, named edges, and a system recipe."""

    _fields = ("vertices", "edges", "system")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]],
                 system: SystemSpec = SystemSpec("trivial", 1)) -> None:
        super().__init__(vertices, edges, system)
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
        check_cells(len(self.vertices), len(self.edges),
                    self.system.rank + len(self.system.layers))

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
        _check_keys(doc, ("vertices", "edges", "system"), "problem")
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
            _check_keys(item, ("from", "to"), "edge")
            edge = (item["from"], item["to"])
            if not all(isinstance(name, str) for name in edge):
                raise ParseError("edge endpoints must be vertex names")
            edges.append(edge)
        system = doc.get("system")
        spec_system = (SystemSpec("trivial", 1) if system is None
                       else SystemSpec.from_json_dict(system))
        return cls(tuple(vertices), tuple(edges), spec_system)


def render(spec: ProblemSpec) -> str:
    """Text form; parse_spec(render(spec)) == spec.

    The JSON form admits vertex names the text form cannot hold: empty
    names, names with whitespace or '#', and the section headers.  Such a
    spec is refused with ValueError.
    """
    for name in spec.vertices:
        if not name or name in SECTIONS or "#" in name or \
                any(ch.isspace() for ch in name):
            raise ValueError("vertex name %r has no text form" % name)
    lines = ["VERTICES"]
    lines.extend(spec.vertices)
    lines.append("EDGES")
    lines.extend("%s %s" % (a, b) for a, b in spec.edges)
    lines.append("SYSTEM")
    system = spec.system
    if system.kind == "trivial":
        lines.append("trivial %d" % system.rank)
    else:
        lines.append("unipotent2 " + " ".join(map(str, system.params)))
    lines.extend("extend " + " ".join(map(str, values)) for values in system.layers)
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
        if line in SECTIONS:
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
        digits = args[0] if len(args) == 1 and args[0].isascii() and args[0].isdigit() \
            else "0"
        rank, params = _parse_values([digits], lineno)[0].numerator, ()
        if rank < 1:
            raise ParseError("trivial takes one positive integer rank", lineno)
    elif head == "unipotent2":
        params = _parse_values(args, lineno)
        if len(params) != n_edges:
            raise ParseError("unipotent2 takes one value per edge (%d), got %d"
                             % (n_edges, len(params)), lineno)
        rank = 2
    elif head == "extend":
        raise ParseError("extend needs a trivial or unipotent2 line first", lineno)
    else:
        raise ParseError("unknown system kind %r" % head, lineno)
    layers = []
    for r, (lineno, tokens) in enumerate(system_lines[1:], rank):
        if tokens[0] != "extend":
            raise ParseError("only extend lines may follow the first system line",
                             lineno)
        values = _parse_values(tokens[1:], lineno)
        if len(values) != n_edges * r:
            raise ParseError("extend takes %d values here (%d per edge), got %d"
                             % (n_edges * r, r, len(values)), lineno)
        layers.append(values)
    return SystemSpec(head, rank, params, tuple(layers))


def _parse_values(tokens: list[str], lineno: int) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_rational(t) for t in tokens)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def load_problem(text: str) -> ProblemSpec:
    """Accept either format: JSON if the first character is '{' or '['.
    One leading byte order mark (U+FEFF), which some editors write at the
    start of a UTF-8 file, is dropped first; any other U+FEFF is read as
    text."""
    text = text.removeprefix("\ufeff")
    if text.lstrip()[:1] not in ("{", "["):
        return parse_spec(text)
    try:
        # integers keep the digit limit of the rational literals
        doc = json.loads(text, parse_int=lambda digits: parse_rational(digits).numerator)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from None
    except RecursionError:
        # the decoder recurses once per nesting level of the input
        raise ParseError("JSON is nested too deeply") from None
    return ProblemSpec.from_json_dict(doc)
