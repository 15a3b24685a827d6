"""In-memory span recorder for the traced run.

``Tracer.patch`` swaps a function for a timing wrapper in every module that
bound it by name, and ``restore`` puts the originals back.  Each call becomes
one span ``[name, start, end, parent, doc, cells]``: ``parent`` is the index
of the enclosing span (-1 for a root), ``doc`` the document id set by the
caller, and ``cells`` the rows x cols of a matrix first argument, or None.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, DOC, CELLS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.doc: int | None = None
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            first = args[0] if args else None
            rows = getattr(first, "rows", None)
            cells = rows * first.cols if isinstance(rows, int) else None
            span = [name, 0.0, 0.0, stack[-1], self.doc, cells]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
        return traced

    def patch(self, name: str, functions, modules) -> None:
        """Replace each function wherever one of `modules` binds it."""
        for fn in functions:
            traced = self.wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, traced)

    def patch_method(self, name: str, cls: type, attr: str) -> None:
        self._set(cls, attr, self.wrap(name, vars(cls)[attr]))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans: list[list], docs: set | None = None, by: int = NAME) -> dict:
    """Per name (or per value of field `by`): span time not covered by its
    child spans, over the spans of `docs` (default all)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    totals: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        if docs is None or span[DOC] in docs:
            totals[span[by]] += span[END] - span[START] - child[i]
    return dict(totals)


def inclusive_times(spans: list[list], docs: set | None = None) -> dict[str, float]:
    """Per name: time of its outermost spans, children included, over the
    spans of `docs` (default all)."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if docs is not None and span[DOC] not in docs:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            totals[span[NAME]] += span[END] - span[START]
    return dict(totals)


def nesting_errors(spans: list[list]) -> int:
    """Spans that are unclosed or stick out of their parent."""
    bad = 0
    for span in spans:
        if span[END] < span[START]:
            bad += 1
        elif span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            if span[START] < parent[START] or span[END] > parent[END] \
                    or span[DOC] != parent[DOC]:
                bad += 1
    return bad
