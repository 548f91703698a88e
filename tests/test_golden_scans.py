"""Degree-floor scans through the CLI, byte for byte against a recorded CSV.

The fixture tests/data/golden_scans.csv holds the exact output of
`turanlab scan` (header once, `\\r\\n` line ends) for the grids below, in
order.  It includes cells with a gap between the constrained and the free
optimum and cells whose free witness misses the degree floor, so a scan
that reuses or skips a solve must still print the same rows.

To re-record the fixture after an intended change (say so in CHANGES.md),
run from the repository root:

    PYTHONPATH=src python tests/test_golden_scans.py
"""

import contextlib
import csv
import io
from pathlib import Path

import pytest

from turanlab.cli import JobSpec, dispatch

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_scans.csv"

GRAPH_ALPHAS = ("1", "3/4", "1/2", "1/4")
THREE_ALPHAS = ("1", "1/2", "1/4")

# (pattern, ns, alphas, host kind), one scan each
GRIDS = (
    ("C4", (4, 5, 6, 7, 8), GRAPH_ALPHAS, "graph"),
    ("C6", (6,), GRAPH_ALPHAS, "graph"),
    ("K{2,3}", (6, 7), GRAPH_ALPHAS, "graph"),
    ("K{1,2}+", (5, 6, 7), THREE_ALPHAS, "3graph"),
    ("K{2,2}+", (5, 6), THREE_ALPHAS, "3graph"),
)


def _scan_lines(grid) -> list[str]:
    """Lines of one scan's CSV output, line ends kept."""
    pattern, ns, alphas, host_kind = grid
    params = {"patterns": [pattern], "ns": list(ns), "alphas": list(alphas),
              "host_kind": host_kind}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert dispatch(JobSpec("scan", params)) == (0, {"cells": len(ns) * len(alphas)})
    return out.getvalue().splitlines(keepends=True)


def _blocks() -> list[tuple[int, int]]:
    """(first, end) line range of each grid's rows in the fixture."""
    ranges, start = [], 1
    for _, ns, alphas, _ in GRIDS:
        ranges.append((start, start + len(ns) * len(alphas)))
        start = ranges[-1][1]
    return ranges


def _fixture_lines() -> list[str]:
    return FIXTURE.read_bytes().decode().splitlines(keepends=True)


def test_fixture_holds_one_header_and_every_cell():
    lines = _fixture_lines()
    assert len(lines) == _blocks()[-1][1] == 1 + 20 + 4 + 8 + 9 + 6
    assert all(line.endswith("\r\n") for line in lines)
    assert lines[0].startswith("pattern,host_kind,n,alpha,")


@pytest.mark.parametrize("i", range(len(GRIDS)), ids=[g[0] for g in GRIDS])
def test_scan_matches_golden(i):
    lines = _fixture_lines()
    first, end = _blocks()[i]
    assert _scan_lines(GRIDS[i]) == [lines[0]] + lines[first:end]


def _rows(lines: list[str]) -> dict:
    reader = csv.DictReader(io.StringIO("".join(lines), newline=""))
    return {(r["pattern"], r["host_kind"], r["n"], r["alpha"]): r for r in reader}


if __name__ == "__main__":
    old = _rows(_fixture_lines()) if FIXTURE.exists() else {}
    scans = [_scan_lines(grid) for grid in GRIDS]
    lines = scans[0][:1] + [line for scan in scans for line in scan[1:]]
    new = _rows(lines)
    for key, row in new.items():
        if key not in old:
            print(f"{' '.join(key)}: new row")
            continue
        for field, value in row.items():
            if old[key].get(field) != value:
                print(f"{' '.join(key)}: {field} {old[key].get(field)} -> {value}")
    for key in old.keys() - new.keys():
        print(f"{' '.join(key)}: row dropped")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_bytes("".join(lines).encode())
    print(f"wrote {len(lines) - 1} rows to {FIXTURE}")
