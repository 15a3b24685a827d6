"""The Library example in README.md runs, and states true values.

Every line of the example whose comment is a Python literal is evaluated
after the whole block has run, and must equal that literal.
"""

import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_values():
    block = library_block()
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    stated = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            value = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(code, namespace) == value, line
        stated += 1
    assert stated == 9
    # "a 1x6 Mat over Q": its integer rows are ints, its view Fractions
    assert all(type(n) is int for row in namespace["basis"].nums for _, n in row)
    assert all(isinstance(x, Fraction)
               for row in namespace["basis"].entries for _, x in row)
