"""Pinned stdout of high-rank, long-cycle and many-cycle documents.

The benchmark workloads reach rank 3, the 32-cycle and two extension
layers at most.  These documents have rank up to 40, where the kernel and
H0 maps of the report work on many basis vectors at once, or live on the
64-cycle, where the banded system matrix is 128 x 128, or on a path with
chords that has 41 independent cycles on 40 vertices, or carry a long
extension chain: six layers over the triangle, in the text and the JSON
form, and the 512 layers the chain cap allows.  Their stdout is pinned by
sha256 so any change to the elimination, the products, those maps or the
chain walk that alters a single output byte fails here.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from monograph.cli import main

from test_linalg_oracle import path_with_chords

ONE_EDGE = "VERTICES\nA B\nEDGES\nA B\n"
TRIANGLE = "VERTICES\nI II III\nEDGES\nI II\nII III\nI III\n"
FOUR_CYCLE_EXTENDED = (
    "VERTICES\na b c d\nEDGES\na b\nb c\nc d\na d\n"
    "SYSTEM\nunipotent2 3 -1 2 0\n"
    "extend 1 0 -2 1/2 0 3 5 -1\n"
    "extend 0 1 1 2 -3 0 1/3 0 4 -1 0 2\n"
)

# the 64-cycle: edges v_i -> v_{i+1} and the closing edge v0 -> v63, with
# the unipotent2 cocycle g_i = (7i mod 11) - 5, whose holonomy is 6
CYCLE_64_G = [(7 * i) % 11 - 5 for i in range(64)]
CYCLE_64 = ("VERTICES\n" + "".join("v%d\n" % i for i in range(64))
            + "EDGES\n" + "".join("v%d v%d\n" % (i, i + 1) for i in range(63))
            + "v0 v63\nSYSTEM\nunipotent2 " + " ".join(map(str, CYCLE_64_G)) + "\n")

# 80 edges on 40 vertices: 41 independent cycles, where the pinned cycles
# and the benchmark graphs have at most one per four vertices
MANY_EDGES, MANY_G = path_with_chords(40, 80, 40080)
MANY_CYCLES = ("VERTICES\n" + "".join("v%d\n" % i for i in range(40))
               + "EDGES\n" + "".join("v%d v%d\n" % e for e in MANY_EDGES)
               + "SYSTEM\nunipotent2 " + " ".join(map(str, MANY_G)) + "\n")

# the triangle's unipotent2 system extended six times: the layer k over
# rank r = k + 2 carries the 3r values ((5i + 3k) mod 7 - 3) / (k + 1)
CHAIN_LAYERS = [[Fraction((5 * i + 3 * k) % 7 - 3, k + 1) for i in range(3 * (k + 2))]
                for k in range(6)]
TRIANGLE_CHAIN = (TRIANGLE + "SYSTEM\nunipotent2 1 2 4\n"
                  + "".join("extend %s\n" % " ".join(map(str, layer))
                            for layer in CHAIN_LAYERS))


def _triangle_chain_json() -> str:
    system = {"kind": "unipotent2", "params": ["1", "2", "4"]}
    for layer in CHAIN_LAYERS:
        system = {"kind": "extension", "params": list(map(str, layer)),
                  "base": system}
    return json.dumps({"vertices": ["I", "II", "III"],
                       "edges": [{"from": "I", "to": "II"},
                                 {"from": "II", "to": "III"},
                                 {"from": "I", "to": "III"}],
                       "system": system})


TRIANGLE_CHAIN_DIGEST = "530cbc6ec91680025e75ce84093fbc54057aa26ecf2734d068e14d40b05bb5eb"

PINNED = [
    ("defect", ONE_EDGE + "SYSTEM\ntrivial 40\n",
     "d2cb8f5339e6491cc6b4bb844b9099f87707c15e4898b058fe07f58f30c1acf6"),
    ("cohomology", ONE_EDGE + "SYSTEM\ntrivial 40\n",
     "640823902ae81314c780922accc8f7fa2285fea32df237bfc48bf1eeb64bf238"),
    ("defect", TRIANGLE + "SYSTEM\ntrivial 12\n",
     "0fa4881ac49cc3003dc6ca657f1bf011cf717506a3c9f71ba60441a5874476d5"),
    ("cohomology", TRIANGLE + "SYSTEM\ntrivial 12\n",
     "cab0d6da4b96d3348fd6b7ead87cca19706ec3523f38328ea196f1d2d9e09f34"),
    ("defect", FOUR_CYCLE_EXTENDED,
     "22f90adaa03e9909c018952e417e9509c8d92a0404d0dcc15167d0b89f599e00"),
    ("defect", CYCLE_64,
     "dd4edf0ae3fcffdf77cc920fa8d7e50564492f630b44429bfd6986638c9af860"),
    ("defect", MANY_CYCLES,
     "3e9391e7ff7f9c9c13f38bbfdcbf6b58639b2514fd46193ed2b3682f72ec0764"),
    # the longest chain the cap allows: 512 layers over one vertex, rank 513
    ("cohomology", "VERTICES\na\nSYSTEM\ntrivial 1\n" + "extend\n" * 512,
     "7f5044ae05aa53ff960dcb7b1e78b75ba5941ca066f7c8e64140b1ea9ac87087"),
    ("defect", TRIANGLE_CHAIN, TRIANGLE_CHAIN_DIGEST),
    ("defect", _triangle_chain_json(), TRIANGLE_CHAIN_DIGEST),
]


@pytest.mark.parametrize("command, text, digest", PINNED,
                         ids=["defect-edge-trivial40", "cohomology-edge-trivial40",
                              "defect-triangle-trivial12",
                              "cohomology-triangle-trivial12",
                              "defect-4cycle-unipotent2-extend2",
                              "defect-64cycle-unipotent2",
                              "defect-path40-chords80-unipotent2",
                              "cohomology-vertex-extend512",
                              "defect-triangle-chain6-text",
                              "defect-triangle-chain6-json"])
def test_stdout_digest(command, text, digest, capsys, tmp_path):
    path = tmp_path / "problem.txt"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_tate_64_cycle_digest(capsys):
    argv = ["tate", "--ord", "64", "--g=" + ",".join(map(str, CYCLE_64_G))]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.encode("utf-8")) == 223578
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "0bc949ce412cd0934451dd18c61a16838a34fdf738f97be195ec48880981597d"


# signed, zero-padded and unreduced literals on the 9-cycle: the system,
# kernel and image grids hold rows over denominators up to 108, with
# integer-valued cells among their fractions; the last value 22/3 makes the
# holonomy 0, and 11/4 makes it 55/12
RATIONAL_TATE_G = "+3,-0,007,5/10,-7/3,+4/6,-12/8,0/5,"


@pytest.mark.parametrize("last, digest", [
    ("22/3", "8cf91be1b97ac75f14e32febadefd7bc5395e7fbc5400253d1f0b09ef5df4d44"),
    ("11/4", "c5ac48c9ee198f3a9898a2bc09057a83b047a93da708e3eee5bf123194266c8c"),
], ids=["holonomy-0", "holonomy-nonzero"])
def test_tate_rational_digest(last, digest, capsys):
    assert main(["tate", "--ord", "9", "--g=" + RATIONAL_TATE_G + last]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
