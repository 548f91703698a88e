"""The check suites: recorded details, the ratio-count bound and the
K{s,t} finder behind them.

The fixture tests/data/golden_checks.json holds the (exit code, details)
that `dispatch` returns for a fixed set of suite runs.  To re-record it
after an intended change to a suite (say so in CHANGES.md), run from the
repository root:

    PYTHONPATH=src python tests/test_check_suites.py

It prints each new case, each changed field as ``field old -> new`` and
each dropped case before it writes the fixture.
"""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from turanlab.cli import JobSpec, dispatch
from turanlab.constructions import bipartite_norm_graph, norm_graph
from turanlab.patterns import first_kst, iter_kst

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_checks.json"

GOLDEN_CASES = (
    ({"suite": "pg-properties", "q": 3, "s": 2}, 0),
    ({"suite": "pg-properties", "q": 3, "s": 3}, 0),
    ({"suite": "pg-properties", "q": 4, "s": 3}, 0),
    ({"suite": "pg-properties", "q": 5, "s": 3}, 0),
    ({"suite": "pg-properties", "q": 8, "s": 3}, 0),
    ({"suite": "pg-properties", "q": 9, "s": 3}, 0),
    ({"suite": "pg-properties", "q": 5, "s": 2}, 0),
    ({"suite": "norm-map", "q": 3, "s": 3}, 0),
    ({"suite": "composed", "p": 2, "s1": 3, "s2": 3}, 0),
    ({"suite": "ratio-count", "q": 3, "s": 3}, 0),
    ({"suite": "fullness", "n": 8, "count": 10}, 1),
    ({"suite": "greedy-extend", "n": 8, "count": 10}, 1),
    ({"suite": "decomposition", "n": 8, "count": 10}, 1),
    ({"suite": "greedy-extend", "n": 14, "count": 25}, 1),
    ({"suite": "decomposition", "n": 14, "count": 25}, 1),
)


def _record(params, seed):
    code, details = dispatch(JobSpec("check", dict(params), seed=seed))
    # through JSON, so tuples compare equal to the fixture's lists
    return {"params": params, "seed": seed, "exit": code,
            "details": json.loads(json.dumps(details))}


def _fixture():
    with FIXTURE.open() as fh:
        return json.load(fh)


def test_golden_fixture_covers_every_case():
    assert [(r["params"], r["seed"]) for r in _fixture()] == list(GOLDEN_CASES)


@pytest.mark.parametrize(
    "params,seed", GOLDEN_CASES, ids=[",".join(map(str, p.values())) for p, _ in GOLDEN_CASES]
)
def test_check_details_match_golden(params, seed):
    want = next(r for r in _fixture() if r["params"] == params and r["seed"] == seed)
    assert _record(params, seed) == want


def _reference_common_kst(masks, count, s, t):
    """Plain enumeration: the first s-subset in lexicographic order whose
    masks share at least t bits, with its lowest t shared bits."""
    for subset in combinations(range(count), s):
        common = -1
        for v in subset:
            common &= masks[v]
        if common.bit_count() >= t:
            bits = [b for b in range(common.bit_length()) if common >> b & 1]
            return subset, tuple(bits[:t])
    return None


@pytest.fixture(scope="module", params=[5, 7])
def ratio_count(request):
    q = request.param
    return q, dispatch(JobSpec("check", {"suite": "ratio-count", "q": q, "s": 3}))


def test_ratio_count_passes_on_valid_norm_graphs(ratio_count):
    q, (code, details) = ratio_count
    assert code == 0
    assert details["violations"] == 0
    assert details["below_floor_failures"] == 0
    assert details["ratio_floor"] == q


def test_ratio_count_below_floor_bound_is_tight(ratio_count):
    # each vertex has exactly q - 2 partners sharing its first coordinate,
    # and those are the only ones counted below the floor
    q, (_, details) = ratio_count
    assert details["max_below_floor"] == q - 2


def test_find_common_kst_matches_enumeration_on_random_masks():
    rng = random.Random(23)
    for _ in range(200):
        count = rng.randint(1, 9)
        width = rng.randint(1, 9)
        masks = [rng.getrandbits(width) for _ in range(count)]
        s = rng.randint(1, min(3, count))
        t = rng.randint(1, 4)
        got = next(iter_kst(masks, s, t, (1 << count) - 1, -1), None)
        assert got == _reference_common_kst(masks, count, s, t)


def test_find_common_kst_matches_enumeration_on_norm_graphs():
    found = []
    for q, s, t in ((3, 2, 2), (5, 2, 2), (3, 3, 2), (3, 3, 3), (4, 3, 2), (4, 3, 3)):
        # the norm graph and the rows of its bipartite variant (the cross
        # layer's shape: left_adj == right_adj, empty diagonal)
        for rows in (norm_graph(q, s).adj, bipartite_norm_graph(q, s).left_adj):
            want = _reference_common_kst(rows, len(rows), s, t)
            assert next(iter_kst(rows, s, t, (1 << len(rows)) - 1, -1), None) == want
            assert first_kst(rows, s, t, (1 << len(rows)) - 1, -1) == want
            found.append(want is not None)
    assert any(found) and not all(found)


if __name__ == "__main__":
    def _name(rec):
        return " ".join([*(f"{k}={v}" for k, v in rec["params"].items()), f"seed={rec['seed']}"])

    old = {_name(r): r for r in _fixture()} if FIXTURE.exists() else {}
    records = [_record(params, seed) for params, seed in GOLDEN_CASES]
    for rec in records:
        name = _name(rec)
        if name not in old:
            print(f"{name}: new case")
            continue
        was = {"exit": old[name]["exit"], **old[name]["details"]}
        now = {"exit": rec["exit"], **rec["details"]}
        for field in dict.fromkeys([*was, *now]):
            if was.get(field) != now.get(field):
                print(f"{name}: {field} {was.get(field)} -> {now.get(field)}")
    for name in old.keys() - {_name(r) for r in records}:
        print(f"{name}: case dropped")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {FIXTURE}")
