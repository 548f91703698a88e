"""The ratio-count bound and the K{s,t} finder behind the check suites."""

import random
from itertools import combinations

import pytest

from turanlab.cli import JobSpec, _find_common_kst, dispatch
from turanlab.constructions import norm_graph


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
        assert _find_common_kst(masks, count, s, t) == _reference_common_kst(masks, count, s, t)


def test_find_common_kst_matches_enumeration_on_norm_graphs():
    found = []
    for q, s, t in ((3, 2, 2), (5, 2, 2), (3, 3, 2), (3, 3, 3), (4, 3, 2), (4, 3, 3)):
        g = norm_graph(q, s)
        got = _find_common_kst(g.adj, g.n, s, t)
        assert got == _reference_common_kst(g.adj, g.n, s, t)
        found.append(got is not None)
    assert any(found) and not all(found)
