"""Incremental copy checks against brute force, on hosts grown pattern-free.

Each example grows a host one edge (or triple) at a time, in an order drawn
by Hypothesis, often around a planted copy of the pattern so that both
answers occur.  At every step the incremental check (`pattern_through_edge`
or `expansion_through_triple`) must give the same answer as the brute-force
finder of test_patterns on the host plus the new edge.  A new edge that
completes a copy is dropped again, so the host stays pattern-free and any
copy the brute force finds must use the new edge.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_patterns import _brute_bipartite, _brute_expansion, _brute_graph
from turanlab.hypergraph import BipartiteGraph, Graph, SemibipartiteThreeGraph, ThreeGraph
from turanlab.patterns import (
    GraphHost,
    PatternSpec,
    ThreeGraphHost,
    complete_bipartite,
    even_cycle,
    expansion_through_triple,
    grid_2x2,
    pattern_through_edge,
    theta,
)


def _path4(expansion=False, placement="unordered"):
    """Path on four vertices: a core that is not complete bipartite."""
    core = BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
    return PatternSpec(core, expansion, placement, "P4")


def _p3_k2():
    """A path on three vertices plus a disjoint edge: a disconnected core
    whose components can swap their parts one at a time."""
    return PatternSpec(BipartiteGraph(3, 2, [(0, 0), (1, 0), (2, 1)]), name="P3+K2")


def _two_k2():
    """Two disjoint edges."""
    return PatternSpec(BipartiteGraph(2, 2, [(0, 0), (1, 1)]), name="2K2")


def _draw_order(data, planted, universe, extra):
    """Planted edges plus `extra` other edges of the universe, shuffled."""
    others = data.draw(st.permutations(universe))
    candidates = list(dict.fromkeys(list(planted) + list(others[:extra])))
    return data.draw(st.permutations(candidates))


def _grow(order, add, remove, incremental, brute):
    """Add edges in order, comparing the two answers; drop copy-completing edges."""
    for e in order:
        add(e)
        got = incremental(e)
        assert got == brute(e), (e, got)
        if got:
            remove(e)


def _case_id(value):
    return value.display_name() if isinstance(value, PatternSpec) else None


# -- rank 2: plain graph hosts --


GRAPH_CASES = [
    (complete_bipartite(1, 2), 6, 8),
    (complete_bipartite(2, 2), 7, 10),
    (complete_bipartite(2, 3), 7, 10),
    (complete_bipartite(3, 3), 7, 10),
    (even_cycle(4), 7, 10),
    (even_cycle(6), 7, 8),
    (theta(1, 3, 3), 7, 8),
    (_path4(), 6, 6),
    (_p3_k2(), 7, 8),
    (_two_k2(), 6, 6),
]


def _grow_graph(data, spec, n, extra):
    core = spec.core
    k = core.m + core.n
    image = data.draw(st.permutations(range(n)))[:k]
    planted = [tuple(sorted((image[a], image[core.m + b]))) for a, b in core.edges]
    universe = list(itertools.combinations(range(n), 2))
    order = _draw_order(data, planted, universe, extra)
    host = GraphHost(n)
    kept = []

    def add(e):
        host.add(e)
        kept.append(e)

    def remove(e):
        host.remove(e)
        kept.remove(e)

    _grow(
        order,
        add,
        remove,
        lambda e: pattern_through_edge(host, spec, e[0], e[1]),
        lambda e: _brute_graph(Graph(n, kept), spec) is not None,
    )


@pytest.mark.parametrize("spec,n,extra", GRAPH_CASES, ids=_case_id)
@settings(max_examples=10)
@given(data=st.data())
def test_through_edge_matches_brute_on_graphs(spec, n, extra, data):
    _grow_graph(data, spec, n, extra)


@settings(max_examples=1)
@given(data=st.data())
def test_through_edge_matches_brute_grid_on_graphs(data):
    _grow_graph(data, grid_2x2(), 9, 1)


# -- rank 2: bipartite hosts, unordered and ordered placement --


BIPARTITE_CASES = [
    (complete_bipartite(1, 2), 3, 3),
    (complete_bipartite(2, 1, placement="ordered"), 3, 3),
    (complete_bipartite(2, 2), 4, 4),
    (complete_bipartite(2, 3, placement="ordered"), 4, 4),
    (complete_bipartite(3, 2), 4, 4),
    (complete_bipartite(3, 3, placement="ordered"), 4, 4),
    (even_cycle(6), 4, 4),
    (even_cycle(6, placement="ordered"), 4, 4),
    (theta(1, 3, 3), 4, 4),
    (_path4(placement="ordered"), 3, 3),
    (_path4(), 3, 3),
    (_p3_k2(), 4, 4),
    (_two_k2(), 3, 3),
]


def _grow_bipartite(data, spec, m, n, extra):
    core = spec.core
    # an unordered copy may put the core's first part on either host side
    flip = spec.placement == "unordered" and data.draw(st.booleans())
    left = data.draw(st.permutations(range(m)))[: core.n if flip else core.m]
    right = data.draw(st.permutations(range(n)))[: core.m if flip else core.n]
    if flip:
        planted = [(left[b], m + right[a]) for a, b in core.edges]
    else:
        planted = [(left[a], m + right[b]) for a, b in core.edges]
    universe = [(u, m + w) for u in range(m) for w in range(n)]
    order = _draw_order(data, planted, universe, extra)
    host = GraphHost(m, n)
    kept = []

    def add(e):
        host.add(e)
        kept.append(e)

    def remove(e):
        host.remove(e)
        kept.remove(e)

    _grow(
        order,
        add,
        remove,
        lambda e: pattern_through_edge(host, spec, e[0], e[1]),
        lambda e: _brute_bipartite(BipartiteGraph(m, n, [(u, v - m) for u, v in kept]), spec)
        is not None,
    )


@pytest.mark.parametrize("spec,m,n", BIPARTITE_CASES, ids=_case_id)
@settings(max_examples=6)
@given(data=st.data())
def test_through_edge_matches_brute_on_bipartite_hosts(spec, m, n, data):
    _grow_bipartite(data, spec, m, n, 2 * m)


@settings(max_examples=30)
@given(data=st.data())
def test_through_edge_matches_brute_p3_k2_on_bipartite_hosts(data):
    # the anchored arcs may not treat a flip of the K2's parts alone as a
    # symmetry: a copy with the path's centre on the left must still be found
    _grow_bipartite(data, _p3_k2(), 4, 4, 8)


@settings(max_examples=1)
@given(data=st.data())
def test_through_edge_matches_brute_grid_on_bipartite_hosts(data):
    _grow_bipartite(data, grid_2x2(placement="ordered"), 5, 4, 0)


# -- rank 3: 3-graph hosts --


THREE_GRAPH_CASES = [
    (complete_bipartite(1, 1, expansion=True), 5),
    (complete_bipartite(1, 2, expansion=True), 6),
    (complete_bipartite(2, 1, expansion=True), 6),
    (complete_bipartite(1, 3, expansion=True), 7),
    (even_cycle(4, expansion=True), 8),
    (_path4(expansion=True), 7),
    (even_cycle(6, expansion=True), 12),
    (theta(1, 3, 3, expansion=True), 13),
]


@pytest.mark.parametrize("spec,n", THREE_GRAPH_CASES, ids=_case_id)
@settings(max_examples=10)
@given(data=st.data())
def test_through_triple_matches_brute_on_3graphs(spec, n, data):
    core = spec.core
    k = core.m + core.n
    image = data.draw(st.permutations(range(n)))
    edges = [(a, core.m + b) for a, b in core.edges]
    planted = []
    if k + len(edges) <= n:
        planted = [
            tuple(sorted((image[a], image[b], image[k + i]))) for i, (a, b) in enumerate(edges)
        ]
    universe = list(itertools.combinations(range(n), 3))
    order = _draw_order(data, planted, universe, 12)
    host = ThreeGraphHost(n)
    kept = []

    def add(t):
        host.add(t)
        kept.append(t)

    def remove(t):
        host.remove(t)
        kept.remove(t)

    _grow(
        order,
        add,
        remove,
        lambda t: expansion_through_triple(host, spec, t),
        lambda t: _brute_expansion(ThreeGraph(n, kept), spec) is not None,
    )


# -- rank 3: semibipartite hosts, all three placements --


SEMIBIPARTITE_CASES = [
    (complete_bipartite(1, 1, expansion=True, placement="ordered"), 6, 3),
    (complete_bipartite(1, 2, expansion=True, placement="ordered"), 6, 3),
    (complete_bipartite(2, 2, expansion=True, placement="ordered"), 6, 3),
    (complete_bipartite(1, 2, expansion=True, placement="core-in-V1"), 6, 3),
    (complete_bipartite(2, 2, expansion=True, placement="core-in-V1"), 4, 4),
    (complete_bipartite(1, 2, expansion=True), 6, 3),
    (complete_bipartite(2, 2, expansion=True), 6, 3),
    (_path4(expansion=True, placement="ordered"), 6, 3),
    (_path4(expansion=True, placement="core-in-V1"), 6, 3),
    (_path4(expansion=True), 6, 3),
    (even_cycle(6, expansion=True, placement="ordered"), 9, 3),
    (even_cycle(6, expansion=True, placement="core-in-V1"), 6, 6),
    (even_cycle(6, expansion=True), 9, 6),
    (theta(1, 3, 3, expansion=True, placement="ordered"), 10, 3),
    (theta(1, 3, 3, expansion=True, placement="core-in-V1"), 6, 7),
    (theta(1, 3, 3, expansion=True), 10, 7),
]


@pytest.mark.parametrize("spec,m,n", SEMIBIPARTITE_CASES, ids=_case_id)
@settings(max_examples=5)
@given(data=st.data())
def test_through_triple_matches_brute_on_semibipartite_hosts(spec, m, n, data):
    core = spec.core
    edges = [(a, core.m + b) for a, b in core.edges]
    left = data.draw(st.permutations(range(m)))
    right = data.draw(st.permutations(range(m, m + n)))
    # an ordered copy keeps its apexes in V1; a core-in-V1 copy puts them in V2
    in_v1 = spec.placement == "core-in-V1" or (
        spec.placement == "unordered" and data.draw(st.booleans())
    )
    if in_v1:
        image = left[: core.m + core.n]
        apexes = right
    else:
        image = left[: core.m] + right[: core.n]
        apexes = left[core.m :]
    planted = []
    if len(edges) <= len(apexes):
        planted = [
            tuple(sorted((image[a], image[b], apexes[i]))) for i, (a, b) in enumerate(edges)
        ]
    universe = [(u, v, w) for u, v in itertools.combinations(range(m), 2) for w in range(m, m + n)]
    order = _draw_order(data, planted, universe, 12)
    host = ThreeGraphHost(m, n)
    kept = []

    def add(t):
        host.add(t)
        kept.append(t)

    def remove(t):
        host.remove(t)
        kept.remove(t)

    def brute(_t):
        host = SemibipartiteThreeGraph(m, n, [(u, v, w - m) for u, v, w in kept])
        return _brute_expansion(host, spec) is not None

    _grow(
        order,
        add,
        remove,
        lambda t: expansion_through_triple(host, spec, t),
        brute,
    )
