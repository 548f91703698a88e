"""`first_kst` with symmetries: the same answer as without, or a refusal.

Given automorphisms of the host, `first_kst` searches for a copy from one
row per orbit and, when one exists, returns the full search's first copy.
Circulant graphs and their bipartite double covers, with the rotation (and
sometimes the reflection) as symmetries, are compared against the plain
search for every s, t <= 3, copies or not.  The norm graphs and their
bipartite variants are compared with the maps of `norm_graph_symmetries`
at t = (s-1)! + 1, where they are free, and at t - 1, where they are not.
A map that is not an automorphism of the host it is given must raise
InvariantViolationError: checking the maps is what makes the answer sound.
"""

from math import factorial

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from turanlab.constructions import bipartite_norm_graph, norm_graph, norm_graph_symmetries
from turanlab.errors import InvariantViolationError
from turanlab.patterns import first_kst


def _circulant(n, steps, cover):
    """Rows of the circulant graph on Z_n joining v to v +- d for d in
    steps, or of its bipartite double cover (row v, column v +- d)."""
    adj = []
    for v in range(n):
        row = 0
        for d in steps:
            row |= 1 << (v + d) % n | 1 << (v - d) % n
        if not cover:
            row &= ~(1 << v)
        adj.append(row)
    return adj


def _orbits(n, maps):
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for sigma in maps:
        for v in range(n):
            a, b = root(v), root(sigma[v])
            parent[max(a, b)] = min(a, b)
    return len({root(v) for v in range(n)})


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(2, 13),
    data=st.data(),
    cover=st.booleans(),
    reflect=st.booleans(),
    full_columns=st.booleans(),
    s=st.integers(1, 3),
    t=st.integers(1, 3),
)
@example(n=8, data=None, cover=False, reflect=False, full_columns=False, s=2, t=2)
def test_circulant_symmetries_keep_the_first_copy(n, data, cover, reflect, full_columns, s, t):
    if data is None:
        steps = [1, 2, 3]  # dense: K{2,2} copies through every vertex
    else:
        steps = data.draw(st.lists(st.integers(0 if cover else 1, n // 2), max_size=4))
    adj = _circulant(n, steps, cover)
    full = (1 << n) - 1
    maps = [tuple((v + 1) % n for v in range(n))]
    if reflect:
        maps.append(tuple(-v % n for v in range(n)))
    right = full if full_columns else -1
    want = first_kst(adj, s, t, full, right)
    assert first_kst(adj, s, t, full, right, maps) == want
    if data is None:
        assert want is not None


CASES = [(q, s) for q in (3, 4, 5, 7, 8, 9) for s in (2, 3)]


@pytest.mark.parametrize("q,s", CASES, ids=[f"q{q}s{s}" for q, s in CASES])
def test_norm_graph_symmetries_keep_the_first_copy(q, s):
    maps = norm_graph_symmetries(q, s)
    free_t = factorial(s - 1) + 1
    for adj in (norm_graph(q, s).adj, bipartite_norm_graph(q, s).left_adj):
        full = (1 << len(adj)) - 1
        assert first_kst(adj, s, free_t, full, -1, maps) is None
        assert first_kst(adj, s, free_t, full, -1) is None
        copy = first_kst(adj, s, free_t - 1, full, -1, maps)
        assert copy is not None
        assert copy == first_kst(adj, s, free_t - 1, full, -1)


@pytest.mark.parametrize("q,s", CASES, ids=[f"q{q}s{s}" for q, s in CASES])
def test_norm_graph_symmetries_are_permutations_and_even_q_is_transitive(q, s):
    n = q ** (s - 1) * (q - 1)
    maps = norm_graph_symmetries(q, s)
    assert maps
    for sigma in maps:
        assert sorted(sigma) == list(range(n)) and sigma != tuple(range(n))
    orbits = _orbits(n, maps)
    assert orbits == 1 if q % 2 == 0 else 1 <= orbits < n


def test_a_map_that_is_not_a_bijection_raises():
    adj = _circulant(7, [1], False)
    with pytest.raises(InvariantViolationError, match="not a permutation"):
        first_kst(adj, 2, 2, (1 << 7) - 1, -1, [(1, 2, 3, 4, 5, 6, 6)])
    with pytest.raises(InvariantViolationError, match="not a permutation"):
        first_kst(adj, 2, 2, (1 << 7) - 1, -1, [(1, 2, 3, 4, 5, 6)])


def test_a_map_that_moves_the_row_mask_raises():
    adj = _circulant(7, [1, 2], False)
    rotation = tuple((v + 1) % 7 for v in range(7))
    assert first_kst(adj, 2, 2, 0b1111111, -1, [rotation]) is not None
    with pytest.raises(InvariantViolationError, match="masks"):
        first_kst(adj, 2, 2, 0b0111111, -1, [rotation])
    with pytest.raises(InvariantViolationError, match="masks"):
        first_kst(adj, 2, 2, 0b1111111, 0b0111111, [rotation])


@pytest.mark.parametrize("bipartite", [False, True])
def test_a_true_symmetry_raises_once_an_edge_is_planted(bipartite):
    q, s = 4, 3
    maps = norm_graph_symmetries(q, s)
    if bipartite:
        adj = list(bipartite_norm_graph(q, s).left_adj)
    else:
        adj = list(norm_graph(q, s).adj)
    full = (1 << len(adj)) - 1
    assert first_kst(adj, s, 3, full, -1, maps) is None
    # every map moves u off {u, v}, so row u, one edge heavier, cannot land
    # on the untouched row sigma(u) of the same degree
    u = next(x for x in range(len(adj)) if all(sigma[x] != x for sigma in maps))
    v = next(x for x in range(len(adj))
             if x != u and not adj[u] >> x & 1 and all(sigma[u] != x for sigma in maps))
    adj[u] |= 1 << v
    if not bipartite:
        adj[v] |= 1 << u
    for sigma in maps:
        with pytest.raises(InvariantViolationError, match="not an automorphism"):
            first_kst(adj, s, 3, full, -1, [sigma])


def test_columns_outside_the_maps_range_raise():
    # a row reaching a column the permutations do not cover
    adj = [0b101, 0b110, 0b1011]
    with pytest.raises(InvariantViolationError, match="outside"):
        first_kst(adj, 1, 1, 0b111, -1, [(1, 2, 0)])
