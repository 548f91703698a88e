"""Every row of data/exact_values.csv re-solved against a recorded fixture.

The rows come from `ROWS` in scripts/regen_exact_values.py and are solved by
its `compute`, the code that wrote the table.  The fixture
tests/data/golden_solves.json holds, per row, the value, the
`nodes_explored` count and the content hash of the canonical witness JSON.
A faster search path must reproduce all three exactly: the same search
tree and the same lexicographically smallest witness.  The script's rows
must equal the table's, and each fixture value the table's value, so every
table value is tied to a solve.

To re-record the fixture after an intended change to the search (say so in
CHANGES.md), run from the repository root:

    PYTHONPATH=src python tests/test_golden_solves.py

To add a row: add it to `ROWS` in the script, run the script, re-record
this fixture, then raise the row counts here and in acceptance criterion 6
(tests/test_acceptance.py).
"""

import csv
import importlib.util
import inspect
import json
import sys
import types
from pathlib import Path

import pytest

from turanlab.hypergraph import content_hash
from turanlab.solvers import eval_bound

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "data" / "exact_values.csv"
FIXTURE = Path(__file__).resolve().parent / "data" / "golden_solves.json"

_spec = importlib.util.spec_from_file_location(
    "regen_exact_values", ROOT / "scripts" / "regen_exact_values.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

# (quantity, encoded params) -> params, in the script's row order
CASES = {(quantity, regen.encode(params)): params for quantity, params, _, _ in regen.ROWS}


def _record(quantity, params_text):
    result = regen.compute(quantity, CASES[(quantity, params_text)])
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
    with TABLE.open(newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == len(CASES) == 25
    # the script writes these columns without solving, in file order
    assert [(r["quantity"], r["params"], r["bound_id"], r["bound_params"]) for r in table] == [
        (quantity, regen.encode(params), bound_id, regen.encode(bound_params))
        for quantity, params, bound_id, bound_params in regen.ROWS
    ]
    fixture = _fixture()
    assert set(fixture) == {(r["quantity"], r["params"]) for r in table}
    for r in table:
        assert fixture[(r["quantity"], r["params"])]["value"] == int(r["value"]), r


def _recorded_compute(quantity, params):
    # the fixture's value for the row, in place of a solve
    return types.SimpleNamespace(value=_fixture()[(quantity, regen.encode(params))]["value"])


def test_script_rewrites_the_table_byte_for_byte(monkeypatch, tmp_path):
    # the solves are pinned above; this pins what `main` writes from them
    monkeypatch.setattr(regen, "compute", _recorded_compute)
    monkeypatch.setattr(regen, "OUT", tmp_path / "exact_values.csv")
    regen.main()
    assert regen.OUT.read_bytes() == TABLE.read_bytes()


def test_script_refuses_a_value_above_its_certificate(monkeypatch, tmp_path):
    # ex(10, C4) = 16 against kst_ex's bound; one past the bound is refused
    # before anything is written
    bound = int(eval_bound("kst_ex", {"n": 10, "s": 2, "t": 2}).value)

    def compute(quantity, params):
        if (quantity, regen.encode(params)) == ("ex", "n=10;pattern=C4"):
            return types.SimpleNamespace(value=bound + 1)
        return _recorded_compute(quantity, params)

    monkeypatch.setattr(regen, "compute", compute)
    monkeypatch.setattr(regen, "OUT", tmp_path / "exact_values.csv")
    with pytest.raises(AssertionError, match="exceeds kst_ex"):
        regen.main()
    assert not regen.OUT.exists()


@pytest.mark.parametrize("quantity,params_text", list(CASES), ids=lambda x: x)
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
    records = [_record(q, p) for q, p in CASES]
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

