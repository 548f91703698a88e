#!/usr/bin/env python3
"""Recompute every exact value in data/exact_values.csv and rewrite the file.

Each row records one solver run: the quantity (ex / z / zexp), its
parameters, the exact value, and the closed-form certificate the value must
stay below (empty when none of the package's bound formulas applies).
Heavy rows take a few seconds each; the whole regeneration stays under a
minute.

`ROWS` is the table's one row list and `compute` its one row solver;
tests/test_golden_solves.py re-solves every row through them.  To add a
row: (1) add it to `ROWS`; (2) run this script from the repository root
(`PYTHONPATH=src python scripts/regen_exact_values.py`); (3) re-record the
golden fixture (`PYTHONPATH=src python tests/test_golden_solves.py`);
(4) raise the row counts in that test and in acceptance criterion 6
(tests/test_acceptance.py), and its certificate count there for a bounded row.
"""

from __future__ import annotations

import csv
from pathlib import Path

from turanlab.patterns import parse_pattern
from turanlab.solvers import SolveResult, eval_bound, ex_exact, z_exact, z_expansion_exact

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "data" / "exact_values.csv"

K22 = {"s": 2, "t": 2}
ZEXP22 = {"s1": 2, "t1": 2, "s2": 2, "t2": 2}

ROWS = [
    ("ex", {"n": 4, "pattern": "C4"}, "kst_ex", {"n": 4, **K22}),
    ("ex", {"n": 5, "pattern": "C4"}, "kst_ex", {"n": 5, **K22}),
    ("ex", {"n": 6, "pattern": "C4"}, "kst_ex", {"n": 6, **K22}),
    ("ex", {"n": 7, "pattern": "C4"}, "kst_ex", {"n": 7, **K22}),
    ("ex", {"n": 8, "pattern": "C4"}, "kst_ex", {"n": 8, **K22}),
    ("ex", {"n": 8, "pattern": "C4", "degree_floor": 7}, "kst_ex", {"n": 8, **K22}),
    ("ex", {"n": 9, "pattern": "C4"}, "kst_ex", {"n": 9, **K22}),
    ("ex", {"n": 10, "pattern": "C4"}, "kst_ex", {"n": 10, **K22}),
    ("ex", {"n": 5, "pattern": "K{2,2}+", "host": "3graph"}, "", {}),
    ("ex", {"n": 6, "pattern": "K{2,2}+", "host": "3graph"}, "", {}),
    ("ex", {"n": 7, "pattern": "K{2,2}+", "host": "3graph"}, "", {}),
    ("z", {"m": 2, "n": 2, "pattern": "K{2,2}"}, "kst_z", {"m": 2, "n": 2, **K22}),
    ("z", {"m": 3, "n": 3, "pattern": "K{2,2}"}, "kst_z", {"m": 3, "n": 3, **K22}),
    ("z", {"m": 1, "n": 6, "pattern": "K{2,2}"}, "kst_z", {"m": 1, "n": 6, **K22}),
    ("z", {"m": 4, "n": 5, "pattern": "K{2,2}"}, "kst_z", {"m": 4, "n": 5, **K22}),
    ("z", {"m": 6, "n": 6, "pattern": "K{2,2}"}, "kst_z", {"m": 6, "n": 6, **K22}),
    ("z", {"m": 7, "n": 7, "pattern": "K{2,2}"}, "kst_z", {"m": 7, "n": 7, **K22}),
    ("z", {"m": 8, "n": 8, "pattern": "K{2,2}"}, "kst_z", {"m": 8, "n": 8, **K22}),
    ("z", {"m": 3, "n": 3, "pattern": "C6"}, "nv_cycle", {"m": 3, "n": 3, "k": 3}),
    ("z", {"m": 4, "n": 4, "pattern": "C6"}, "nv_cycle", {"m": 4, "n": 4, "k": 3}),
    (
        "zexp",
        {"m": 2, "n": 2, "p1": "K{2,2}+ ordered", "p2": "K{2,2}+ core-in-V1"},
        "z_exp_i",
        {"m": 2, "n": 2, **ZEXP22},
    ),
    (
        "zexp",
        {"m": 3, "n": 3, "p1": "K{1,1}+ ordered", "p2": "K{2,2}+ core-in-V1"},
        "",
        {},
    ),
    (
        "zexp",
        {"m": 3, "n": 3, "p1": "K{2,2}+ ordered", "p2": "K{2,2}+ core-in-V1"},
        "z_exp_i",
        {"m": 3, "n": 3, **ZEXP22},
    ),
    (
        "zexp",
        {"m": 4, "n": 3, "p1": "K{2,2}+ ordered", "p2": "K{2,2}+ core-in-V1"},
        "z_exp_i",
        {"m": 4, "n": 3, **ZEXP22},
    ),
    (
        "zexp",
        {"m": 4, "n": 4, "p1": "K{2,2}+ ordered", "p2": "K{2,2}+ core-in-V1"},
        "z_exp_i",
        {"m": 4, "n": 4, **ZEXP22},
    ),
]


def compute(quantity: str, params: dict) -> SolveResult:
    if quantity == "ex":
        return ex_exact(
            params["n"],
            parse_pattern(params["pattern"]),
            host_kind=params.get("host", "graph"),
            degree_floor=params.get("degree_floor"),
        )
    if quantity == "z":
        return z_exact(params["m"], params["n"], parse_pattern(params["pattern"]))
    if quantity == "zexp":
        return z_expansion_exact(
            params["m"],
            params["n"],
            parse_pattern(params["p1"]),
            parse_pattern(params["p2"]),
        )
    raise ValueError(f"unknown quantity {quantity!r}")


def encode(params: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in params.items())


def main() -> None:
    records = []
    for quantity, params, bound_id, bound_params in ROWS:
        value = compute(quantity, params).value
        if bound_id:
            cert = eval_bound(bound_id, bound_params)
            if value > float(cert.value) + 1e-6:
                raise AssertionError(f"{quantity} {params}: {value} exceeds {bound_id}")
        records.append((quantity, encode(params), value, bound_id, encode(bound_params)))
        print(f"{quantity:4s} {encode(params):60s} -> {value}")
    with OUT.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "params", "value", "bound_id", "bound_params"])
        writer.writerows(records)
    print(f"wrote {len(records)} rows to {OUT}")


if __name__ == "__main__":
    main()
