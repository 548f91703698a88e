"""`plan_take` against the per-call checks, on random small hosts.

The solvers grow a host with the step `plan_take(host, specs)` returns:
take(e) adds e unless e completes a copy of some spec.  Each example draws
a random host (it need not be pattern-free), one or two specs, and a
sequence of steps, each either the removal of a present edge (a solver
backtracking) or a take of an absent one.  The reference for a take is a
copy of the host, with e added, asked `pattern_through_edge` (rank 2) or
`expansion_through_triple` (rank 3) once per spec.  take(e) must be true
exactly when no spec answers yes, must leave the host as it was when it is
false, and must leave it equal to the copy with e added when it is true.
The planned take is built once per example and kept across the steps, as a
solve keeps it.  Complete cores, C6 and other cores, expansions, every
placement, and specs the host's parts cannot hold are all drawn.  The
complete cores cover every form of the complete-core take.  At rank 2:
K{1,1} (no search, every take refused), s = 2 with t - 1 up to 3 with
either anchor leading the s-side, and s up to 4.  At rank 3: K{1,3}+,
whose apex match has two other core edges to place, and K{2,3}+ and
K{3,2}+, which need 11 vertices and so are drawn on dense 3-graphs too.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_patterns_differential import _p3_k2, _path4, _two_k2
from turanlab.patterns import (
    GraphHost,
    ThreeGraphHost,
    complete_bipartite,
    even_cycle,
    expansion_through_triple,
    pattern_through_edge,
    plan_take,
    theta,
)


def _state(host):
    """What a take may change: adjacency, and pair links at rank 3."""
    links = dict(host.pair_link) if isinstance(host, ThreeGraphHost) else None
    return list(host.adj), links


def _copy(host, make):
    twin = make()
    twin.adj = list(host.adj)
    if isinstance(host, ThreeGraphHost):
        twin.pair_link = dict(host.pair_link)
    return twin


def _reference(host, make, specs, e):
    """(does e complete a copy of some spec, the host copy holding e)."""
    twin = _copy(host, make)
    twin.add(e)
    if isinstance(twin, ThreeGraphHost):
        hit = any(expansion_through_triple(twin, s, e) for s in specs)
    else:
        hit = any(pattern_through_edge(twin, s, e[0], e[1]) for s in specs)
    return hit, twin


def _run(data, make, universe, pool, dense=False):
    """Random host over the universe, one or two specs, then a step sequence.

    A host holds at most half the universe, or at least half if `dense`, so
    that large cores have copies to find."""
    specs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
    if dense:
        size = data.draw(st.integers(len(universe) // 2, len(universe) - 4))
        present = set(data.draw(st.permutations(universe))[:size])
    else:
        present = data.draw(st.sets(st.sampled_from(universe), max_size=len(universe) // 2))
    host = make()
    for e in present:
        host.add(e)
    take = plan_take(host, specs)
    for _ in range(data.draw(st.integers(4, 14))):
        if present and data.draw(st.integers(0, 3)) == 0:
            e = data.draw(st.sampled_from(sorted(present)))
            host.remove(e)
            present.discard(e)
            continue
        absent = [e for e in universe if e not in present]
        if not absent:
            break
        e = data.draw(st.sampled_from(absent))
        before = _state(host)
        want_hit, twin = _reference(host, make, specs, e)
        got = take(e)
        assert got == (not want_hit), (e, [s.display_name() for s in specs])
        if got:
            assert _state(host) == _state(twin)
            present.add(e)
        else:
            assert _state(host) == before


# -- rank 2 --


GRAPH_POOL = [
    complete_bipartite(1, 1),
    complete_bipartite(1, 2),
    complete_bipartite(2, 2),
    complete_bipartite(2, 3),
    complete_bipartite(3, 3),
    complete_bipartite(2, 4),
    even_cycle(4),
    even_cycle(6),
    theta(1, 3, 3),
    _path4(),
    _p3_k2(),
    _two_k2(),
]


@pytest.mark.parametrize("n", [4, 6, 8])
@settings(max_examples=60)
@given(data=st.data())
def test_take_matches_checks_on_graphs(n, data):
    _run(data, lambda: GraphHost(n), list(itertools.combinations(range(n), 2)), GRAPH_POOL)


BIPARTITE_POOL = [
    complete_bipartite(1, 2),
    complete_bipartite(2, 1, placement="ordered"),
    complete_bipartite(2, 2),
    complete_bipartite(2, 3, placement="ordered"),
    complete_bipartite(3, 2),
    complete_bipartite(3, 3, placement="ordered"),
    complete_bipartite(2, 4),
    complete_bipartite(4, 2),
    even_cycle(6),
    even_cycle(6, placement="ordered"),
    theta(1, 3, 3),
    _path4(placement="ordered"),
    _path4(),
    _p3_k2(),
    _two_k2(),
]


@pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (4, 5), (5, 3)])
@settings(max_examples=60)
@given(data=st.data())
def test_take_matches_checks_on_bipartite_hosts(m, n, data):
    universe = [(u, m + w) for u in range(m) for w in range(n)]
    _run(data, lambda: GraphHost(m, n), universe, BIPARTITE_POOL)


DENSE_POOL = [
    complete_bipartite(1, 3),
    complete_bipartite(2, 4),
    complete_bipartite(4, 2),
    complete_bipartite(3, 3),
]


@pytest.mark.parametrize("n", [7, 9])
@settings(max_examples=40)
@given(data=st.data())
def test_take_matches_checks_on_dense_graphs(n, data):
    _run(data, lambda: GraphHost(n), list(itertools.combinations(range(n), 2)), DENSE_POOL, dense=True)


@pytest.mark.parametrize("m,n", [(4, 5), (5, 4)])
@settings(max_examples=40)
@given(data=st.data())
def test_take_matches_checks_on_dense_bipartite_hosts(m, n, data):
    universe = [(u, m + w) for u in range(m) for w in range(n)]
    _run(data, lambda: GraphHost(m, n), universe, DENSE_POOL, dense=True)


# -- rank 3 --


THREE_GRAPH_POOL = [
    complete_bipartite(1, 1, expansion=True),
    complete_bipartite(1, 2, expansion=True),
    complete_bipartite(2, 1, expansion=True),
    complete_bipartite(2, 2, expansion=True),
    complete_bipartite(1, 3, expansion=True),
    complete_bipartite(2, 3, expansion=True),
    complete_bipartite(3, 2, expansion=True),
    even_cycle(4, expansion=True),
    _path4(expansion=True),
    even_cycle(6, expansion=True),
    theta(1, 3, 3, expansion=True),
]


@pytest.mark.parametrize("n", [5, 7, 9])
@settings(max_examples=40)
@given(data=st.data())
def test_take_matches_checks_on_3graphs(n, data):
    universe = list(itertools.combinations(range(n), 3))
    _run(data, lambda: ThreeGraphHost(n), universe, THREE_GRAPH_POOL)


SEMIBIPARTITE_POOL = [
    complete_bipartite(1, 1, expansion=True, placement="ordered"),
    complete_bipartite(1, 2, expansion=True, placement="ordered"),
    complete_bipartite(2, 2, expansion=True, placement="ordered"),
    complete_bipartite(1, 2, expansion=True, placement="core-in-V1"),
    complete_bipartite(2, 2, expansion=True, placement="core-in-V1"),
    complete_bipartite(1, 2, expansion=True),
    complete_bipartite(2, 2, expansion=True),
    complete_bipartite(1, 3, expansion=True),
    complete_bipartite(2, 3, expansion=True, placement="ordered"),
    complete_bipartite(3, 2, expansion=True, placement="core-in-V1"),
    complete_bipartite(3, 2, expansion=True),
    _path4(expansion=True, placement="ordered"),
    _path4(expansion=True, placement="core-in-V1"),
    _path4(expansion=True),
    even_cycle(6, expansion=True, placement="ordered"),
    even_cycle(6, expansion=True, placement="core-in-V1"),
    even_cycle(6, expansion=True),
]


@pytest.mark.parametrize("m,n", [(3, 3), (4, 4), (5, 3), (6, 6), (9, 3)])
@settings(max_examples=40)
@given(data=st.data())
def test_take_matches_checks_on_semibipartite_hosts(m, n, data):
    universe = [(u, v, m + w) for u, v in itertools.combinations(range(m), 2) for w in range(n)]
    _run(data, lambda: ThreeGraphHost(m, n), universe, SEMIBIPARTITE_POOL)


DENSE_3GRAPH_POOL = [
    complete_bipartite(1, 3, expansion=True),
    complete_bipartite(2, 2, expansion=True),
    complete_bipartite(2, 3, expansion=True),
    complete_bipartite(3, 2, expansion=True),
]


@pytest.mark.parametrize("n", [8, 11])
@settings(max_examples=30)
@given(data=st.data())
def test_take_matches_checks_on_dense_3graphs(n, data):
    universe = list(itertools.combinations(range(n), 3))
    _run(data, lambda: ThreeGraphHost(n), universe, DENSE_3GRAPH_POOL, dense=True)


def test_pools_cover_every_placement_and_core_kind():
    pools = GRAPH_POOL + BIPARTITE_POOL + THREE_GRAPH_POOL + SEMIBIPARTITE_POOL
    assert {s.placement for s in pools} == {"unordered", "ordered", "core-in-V1"}
    assert {(s.expansion, s.is_complete) for s in pools} == {
        (False, False), (False, True), (True, False), (True, True)}
    assert even_cycle(6) in GRAPH_POOL and even_cycle(6, expansion=True) in THREE_GRAPH_POOL
    # every form of the rank-2 complete-core take: s = 1, s = 2 with either
    # anchor leading the s-side, and s = 4
    assert complete_bipartite(1, 1) in GRAPH_POOL and complete_bipartite(2, 4) in GRAPH_POOL
    for pool in BIPARTITE_POOL, DENSE_POOL:
        assert complete_bipartite(2, 4) in pool and complete_bipartite(4, 2) in pool
    # and of the rank-3 one: s = 1 with a match over two or more other core
    # edges, s = 2, and s = 3, which recurses past the first pool member
    for pool in THREE_GRAPH_POOL, SEMIBIPARTITE_POOL, DENSE_3GRAPH_POOL:
        assert complete_bipartite(1, 3, expansion=True) in pool
        assert {(s.core.m, s.core.n) for s in pool if s.is_complete} >= {(2, 3), (3, 2)}
