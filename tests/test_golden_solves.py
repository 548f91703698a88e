"""Every row of data/exact_values.csv re-solved against a recorded fixture.

The fixture tests/data/golden_solves.json holds, per row, the value, the
`nodes_explored` count and the content hash of the canonical witness JSON.
A faster search path must reproduce all three exactly: the same search
tree and the same lexicographically smallest witness.

To re-record the fixture after an intended change to the search (say so in
CHANGES.md), run from the repository root:

    PYTHONPATH=src python tests/test_golden_solves.py
"""

import csv
import inspect
import json
import sys
from pathlib import Path

import pytest

from turanlab.hypergraph import content_hash
from turanlab.patterns import parse_pattern
from turanlab.solvers import ex_exact, z_exact, z_expansion_exact

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "data" / "exact_values.csv"
FIXTURE = Path(__file__).resolve().parent / "data" / "golden_solves.json"


def _rows():
    with TABLE.open() as fh:
        return [(row["quantity"], row["params"]) for row in csv.DictReader(fh)]


def _solve(quantity, params_text):
    params = dict(item.split("=", 1) for item in params_text.split(";"))
    if quantity == "ex":
        floor = params.get("degree_floor")
        return ex_exact(
            int(params["n"]),
            parse_pattern(params["pattern"]),
            host_kind=params.get("host", "graph"),
            degree_floor=None if floor is None else int(floor),
        )
    if quantity == "z":
        return z_exact(int(params["m"]), int(params["n"]), parse_pattern(params["pattern"]))
    return z_expansion_exact(
        int(params["m"]),
        int(params["n"]),
        parse_pattern(params["p1"]),
        parse_pattern(params["p2"]),
    )


def _record(quantity, params_text):
    result = _solve(quantity, params_text)
    return {
        "quantity": quantity,
        "params": params_text,
        "value": result.value,
        "nodes_explored": result.nodes_explored,
        "content_hash": content_hash(result.witness),
    }


def _fixture():
    with FIXTURE.open() as fh:
        return {(r["quantity"], r["params"]): r for r in json.load(fh)}


def test_fixture_covers_every_table_row():
    rows = _rows()
    assert len(rows) == 25
    assert set(_fixture()) == set(rows)


@pytest.mark.parametrize("quantity,params_text", _rows(), ids=lambda x: x)
def test_solve_matches_golden(quantity, params_text):
    want = _fixture()[(quantity, params_text)]
    assert _record(quantity, params_text) == want


@pytest.mark.parametrize(
    "quantity,params_text",
    [("ex", "n=8;pattern=C4"), ("zexp", "m=4;n=4;p1=K{2,2}+ ordered;p2=K{2,2}+ core-in-V1")],
    ids=lambda x: x,
)
def test_engine_does_not_recurse_per_edge(quantity, params_text):
    # 40 frames past the caller's hold a solve's call chain (entry point,
    # engine, pattern check, apex matching, witness re-check) but not one
    # frame per universe edge: 28 for ex(8, C4), 24 for the 4x4 zexp row
    want = _fixture()[(quantity, params_text)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        got = _record(quantity, params_text)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


if __name__ == "__main__":
    old = _fixture() if FIXTURE.exists() else {}
    records = [_record(q, p) for q, p in _rows()]
    for rec in records:
        key = (rec["quantity"], rec["params"])
        if key not in old:
            print(f"{rec['quantity']} {rec['params']}: new row")
            continue
        for field, value in rec.items():
            if old[key][field] != value:
                print(f"{rec['quantity']} {rec['params']}: {field} {old[key][field]} -> {value}")
    for key in old.keys() - {(r["quantity"], r["params"]) for r in records}:
        print(f"{key[0]} {key[1]}: row dropped")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} rows to {FIXTURE}")

