"""Symmetry breaking on against symmetry breaking off, on every small cell.

`symmetry=True` lets the search engine cut branches that only permute a
host (degree order, and anything derived from it); `symmetry=False` walks
the full tree.  Both must report the same extremal value on every cell
below, and a degree-floor witness must reach its floor either way.

Every `symmetry=True` solve must also return the value and the witness
pinned in tests/data/symmetry_witnesses.json, so a sharper symmetry cut may
only shrink the search, never change what it reports.  The last test pins
the search size of a few `symmetry=False` solves, so a change to the
symmetry prunes cannot quietly alter the unreduced search.

To re-record the witness fixture after an intended change to the reported
witnesses (say so in CHANGES.md), run from the repository root:

    PYTHONPATH=src python tests/test_symmetry_differential.py
"""

import json
from functools import partial
from pathlib import Path

import pytest

from turanlab.hypergraph import content_hash, degree_stats
from turanlab.patterns import parse_pattern
from turanlab.solvers import ex_exact, z_exact, z_expansion_exact

FIXTURE = Path(__file__).resolve().parent / "data" / "symmetry_witnesses.json"

Z_PATTERNS = ("K{1,2}", "K{2,2}", "K{2,3} ordered", "C6")
Z_CELLS = [(m, n) for m in range(1, 17) for n in range(1, 17) if m * n <= 16]

ZEXP_CELLS = [(m, n) for m in range(1, 4) for n in range(1, 4)]
ZEXP_ORDERED = ("K{2,2}+ ordered", "K{1,1}+ ordered")
ZEXP_CORE = "K{2,2}+ core-in-V1"

FLOOR_GRAPH_CELLS = [
    (text, n, floor)
    for text in ("K{1,2}", "C4", "C6", "K{2,3}")
    for n in range(2, 8)
    for floor in range(1, n)
]
FLOOR_3GRAPH_CELLS = [
    (text, n, floor)
    for text in ("K{1,2}+", "K{2,2}+")
    for n in range(3, 7)
    for floor in range(1, (n - 1) * (n - 2) // 2 + 1)
]


def _z_cell(m, n, text):
    return f"z {m}x{n} {text}", partial(z_exact, m, n, parse_pattern(text))


def _zexp_cell(m, n, ordered):
    return f"zexp {m}x{n} {ordered} / {ZEXP_CORE}", partial(
        z_expansion_exact, m, n, parse_pattern(ordered), parse_pattern(ZEXP_CORE)
    )


def _floor_cell(text, n, floor):
    spec = parse_pattern(text)
    kind = "3graph" if spec.expansion else "graph"
    return f"ex n={n} {text} floor={floor}", partial(
        ex_exact, n, spec, host_kind=kind, degree_floor=floor
    )


def _cells():
    yield from (_z_cell(m, n, text) for text in Z_PATTERNS for m, n in Z_CELLS)
    yield from (_zexp_cell(m, n, ordered) for ordered in ZEXP_ORDERED for m, n in ZEXP_CELLS)
    yield from (_floor_cell(*cell) for cell in FLOOR_GRAPH_CELLS + FLOOR_3GRAPH_CELLS)


def _pin(result):
    witness = None if result.witness is None else content_hash(result.witness)
    return [result.value, witness]


def _fixture():
    with FIXTURE.open() as fh:
        return json.load(fh)


def _on_off(cell):
    """Solve one cell both ways; the reduced result must match the fixture."""
    name, solve = cell
    on, off = solve(), solve(symmetry=False)
    assert _pin(on) == _fixture()[name]
    assert on.value == off.value
    return on, off


def _meets_floor(result, floor):
    if result.witness is None:
        return result.value == 0
    return degree_stats(result.witness).maximum >= floor


def test_witness_fixture_covers_every_cell():
    assert set(_fixture()) == {name for name, _ in _cells()}


@pytest.mark.parametrize("text", Z_PATTERNS)
@pytest.mark.parametrize("m,n", Z_CELLS)
def test_z_symmetry_keeps_value(m, n, text):
    _on_off(_z_cell(m, n, text))


@pytest.mark.parametrize("ordered", ZEXP_ORDERED)
@pytest.mark.parametrize("m,n", ZEXP_CELLS)
def test_zexp_symmetry_keeps_value(m, n, ordered):
    _on_off(_zexp_cell(m, n, ordered))


@pytest.mark.parametrize("text,n,floor", FLOOR_GRAPH_CELLS + FLOOR_3GRAPH_CELLS)
def test_floor_symmetry_keeps_value(text, n, floor):
    on, off = _on_off(_floor_cell(text, n, floor))
    assert _meets_floor(on, floor)
    assert _meets_floor(off, floor)


# nodes_explored with symmetry off, recorded before the symmetry prunes
# gained the vertex-0 floor test and the column-lex check
PINNED_UNREDUCED = {
    "ex n=6 C4 floor=3": (7725, partial(ex_exact, 6, parse_pattern("C4"), degree_floor=3)),
    "ex n=6 C4 floor=4": (7243, partial(ex_exact, 6, parse_pattern("C4"), degree_floor=4)),
    "ex n=6 K{1,2}+ floor=6": (
        1003,
        partial(ex_exact, 6, parse_pattern("K{1,2}+"), host_kind="3graph", degree_floor=6),
    ),
    "z 4x4 C6": (8180, partial(z_exact, 4, 4, parse_pattern("C6"))),
    "z 3x4 K{2,2}": (929, partial(z_exact, 3, 4, parse_pattern("K{2,2}"))),
    "z 4x4 K{2,3} ordered": (2066, partial(z_exact, 4, 4, parse_pattern("K{2,3} ordered"))),
    "zexp 4x3 K{2,2}+ / K{1,2}+": (
        850,
        partial(
            z_expansion_exact,
            4, 3, parse_pattern("K{2,2}+ ordered"), parse_pattern("K{1,2}+ core-in-V1"),
        ),
    ),
    "zexp 3x4 K{1,2}+ / K{2,2}+": (
        212,
        partial(
            z_expansion_exact,
            3, 4, parse_pattern("K{1,2}+ ordered"), parse_pattern("K{2,2}+ core-in-V1"),
        ),
    ),
}


@pytest.mark.parametrize("name", list(PINNED_UNREDUCED))
def test_unreduced_search_is_pinned(name):
    nodes, solve = PINNED_UNREDUCED[name]
    assert solve(symmetry=False).nodes_explored == nodes


if __name__ == "__main__":
    old = _fixture() if FIXTURE.exists() else {}
    pins = {name: _pin(solve()) for name, solve in _cells()}
    for name, pin in pins.items():
        if old.get(name, pin) != pin:
            print(f"{name}: {old[name]} -> {pin}")
    lines = [f" {json.dumps(name)}: {json.dumps(pin)}" for name, pin in pins.items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(pins)} cells to {FIXTURE}")
