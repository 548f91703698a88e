"""Norm-graph constructions pinned to recorded canonical-JSON hashes.

The fixture tests/data/golden_constructions.json holds, per case, the edge
count and the content hash of the canonical JSON that ``construct`` emits
for ``normgraph`` and ``bipartite`` at every (q, s) in CASES and for the
composed 3-graph at (p, s1, s2) = (2, 3, 3).  A faster field path must
reproduce them byte for byte.

To re-record the fixture after an intended change to a construction (say
so in CHANGES.md), run from the repository root:

    PYTHONPATH=src python tests/test_golden_constructions.py
"""

import json
from pathlib import Path

import pytest

from turanlab.constructions import bipartite_norm_graph, composed_construction, norm_graph
from turanlab.hypergraph import content_hash

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_constructions.json"

CASES = tuple(
    [(kind, {"q": q, "s": s}) for kind in ("normgraph", "bipartite")
     for q in (3, 4, 5, 7, 8, 9) for s in (2, 3)]
    + [("composed", {"p": 2, "s1": 3, "s2": 3})]
)


def _build(kind, params):
    if kind == "normgraph":
        return norm_graph(params["q"], params["s"])
    if kind == "bipartite":
        return bipartite_norm_graph(params["q"], params["s"])
    return composed_construction(params["p"], params["s1"], params["s2"]).hypergraph


def _record(kind, params):
    obj = _build(kind, params)
    return {"kind": kind, "params": params, "edges": obj.edge_count,
            "content_hash": content_hash(obj)}


def _fixture():
    with FIXTURE.open() as fh:
        return json.load(fh)


def test_fixture_covers_every_case():
    assert [(r["kind"], r["params"]) for r in _fixture()] == list(CASES)


@pytest.mark.parametrize(
    "kind,params", CASES, ids=[f"{k}-" + ",".join(map(str, p.values())) for k, p in CASES]
)
def test_construction_matches_golden(kind, params):
    want = next(r for r in _fixture() if r["kind"] == kind and r["params"] == params)
    assert _record(kind, params) == want


if __name__ == "__main__":
    records = [_record(kind, params) for kind, params in CASES]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {FIXTURE}")
