"""Constructions checked against the defining equations by brute force."""

import pytest

from turanlab import constructions
from turanlab.constructions import (
    ComposedConstruction,
    bipartite_norm_graph,
    composed_construction,
    composed_sizes,
    norm_graph,
    norm_ratio_count,
    random_deletion_lower_bound,
    vertex_coords,
    vertex_id,
)
from turanlab.errors import CapExceededError
from turanlab.ff import make_field, norm, prime_power_decompose
from turanlab.hypergraph import degree_stats, iter_bits
from turanlab.patterns import complete_bipartite, even_cycle, find_in_graph, find_ordered_bipartite


def _fields(q, s):
    p, k = prime_power_decompose(q)
    return make_field(p, k * (s - 1)), make_field(p, k)


def _brute_edge_set(q, s):
    """All unordered adjacent pairs straight from N(X + Y) = x * y."""
    big, sub = _fields(q, s)
    els = list(big.elements())
    subs = list(sub.elements())
    nv = big.order * (q - 1)
    edges = []
    for u in range(nv):
        xi, a = vertex_coords(q, u)
        for v in range(u + 1, nv):
            yi, b = vertex_coords(q, v)
            if norm(els[xi] + els[yi], q, s) == subs[a] * subs[b]:
                edges.append((u, v))
    return tuple(edges)


def test_vertex_numbering_round_trip():
    for v in range(30):
        xi, a = vertex_coords(4, v)
        assert vertex_id(4, xi, a) == v
    with pytest.raises(ValueError):
        vertex_id(4, 0, 0)


@pytest.mark.parametrize("q,s", [(2, 3), (3, 3), (3, 2), (4, 3)])
def test_norm_graph_matches_definition(q, s):
    g = norm_graph(q, s)
    assert g.n == q ** (s - 1) * (q - 1)
    assert g.edges == _brute_edge_set(q, s)


def test_norm_graph_2_3_is_k4():
    g = norm_graph(2, 3)
    assert g.n == 4 and g.edge_count == 6


def test_norm_graph_degrees():
    for q, s in ((3, 3), (5, 2), (4, 3)):
        g = norm_graph(q, s)
        d = q ** (s - 1) - 1
        stats = degree_stats(g)
        assert set(stats.degrees) <= {d, d - 1}
        if q % 2 == 0:
            assert set(stats.degrees) == {d}


def test_norm_graph_forbidden_subgraphs():
    assert find_in_graph(norm_graph(3, 3), complete_bipartite(3, 3)) is None
    assert find_in_graph(norm_graph(4, 3), complete_bipartite(3, 3)) is None
    assert find_in_graph(norm_graph(4, 2), complete_bipartite(2, 2)) is None
    assert find_in_graph(norm_graph(5, 2), complete_bipartite(2, 2)) is None
    # sanity: they are not empty of everything
    assert find_in_graph(norm_graph(3, 3), complete_bipartite(2, 2)) is not None


def test_bipartite_norm_graph_symmetric_no_diagonal():
    q, s = 3, 3
    g = bipartite_norm_graph(q, s)
    d = q ** (s - 1) - 1
    assert g.m == g.n == q ** (s - 1) * (q - 1)
    assert all(g.left_adj[u].bit_count() in (d, d - 1) for u in range(g.m))
    for u in range(g.m):
        assert not g.has_edge(u, u)
        for w in range(g.n):
            assert g.has_edge(u, w) == g.has_edge(w, u)


def test_bipartite_edge_count_identity():
    """Diagonal hits N(2X) = x^2 are excluded, so |bipartite| = 2 |plain|."""
    for q, s in ((3, 3), (5, 2), (4, 3)):
        big, sub = _fields(q, s)
        subs = list(sub.elements())
        diagonal = 0
        for v in range(q ** (s - 1) * (q - 1)):
            xi, a = vertex_coords(q, v)
            x_el = big.from_index(xi)
            if norm(x_el + x_el, q, s) == subs[a] * subs[a]:
                diagonal += 1
        plain = norm_graph(q, s)
        bip = bipartite_norm_graph(q, s)
        assert bip.edge_count == 2 * plain.edge_count
        d = q ** (s - 1) - 1
        degs = [bip.left_adj[u].bit_count() for u in range(bip.m)]
        assert sum(1 for x in degs if x == d - 1) == diagonal
        if q % 2 == 0:
            assert diagonal == 0
            assert set(degs) == {d}


def test_bipartite_norm_graph_ordered_free():
    g = bipartite_norm_graph(3, 3)
    assert find_ordered_bipartite(g, complete_bipartite(3, 3, placement="ordered")) is None
    assert find_ordered_bipartite(g, complete_bipartite(2, 2, placement="ordered")) is not None


def test_norm_ratio_counts_floor_and_partition():
    q, s = 3, 3
    big, _ = _fields(q, s)
    floor = q ** (s - 2)
    for xi in range(big.order):
        for yi in range(big.order):
            if xi == yi:
                continue
            total = 0
            for lam in range(1, q):
                c = norm_ratio_count(q, s, xi, yi, lam)
                assert c >= floor
                total += c
            # each Z except -X and -Y lands in exactly one ratio class
            assert total == q ** (s - 1) - 2


def test_norm_ratio_count_q2():
    # only ratio 1 exists; count must be the whole field minus two points
    assert norm_ratio_count(2, 3, 0, 1, 1) == 2
    assert norm_ratio_count(2, 4, 0, 3, 1) == 6


def test_norm_ratio_count_rejects():
    with pytest.raises(ValueError):
        norm_ratio_count(3, 2, 0, 1, 1)
    with pytest.raises(ValueError):
        norm_ratio_count(3, 3, 2, 2, 1)
    with pytest.raises(ValueError):
        norm_ratio_count(3, 3, 0, 1, 0)
    for x_idx, y_idx in ((0, 9), (-1, 1)):
        with pytest.raises(ValueError, match="out of range"):
            norm_ratio_count(3, 3, x_idx, y_idx, 1)


def test_construction_caps_and_validation():
    with pytest.raises(ValueError):
        norm_graph(6, 3)
    with pytest.raises(ValueError):
        norm_graph(3, 1)
    with pytest.raises(CapExceededError):
        norm_graph(2, 23)
    with pytest.raises(CapExceededError):
        composed_construction(2, 5, 5)
    # q^s within its cap, but the edges are not: refused before any is built
    with pytest.raises(CapExceededError, match="norm graph \\(9, 4\\) would hold 2122848 edges"):
        norm_graph(9, 4)
    with pytest.raises(CapExceededError, match="bipartite norm graph \\(4, 6\\)"):
        bipartite_norm_graph(4, 6)
    with pytest.raises(ValueError):
        composed_construction(2, 2, 3)
    with pytest.raises(ValueError):
        composed_construction(4, 3, 3)


def test_composed_triples_are_bounded_before_either_layer_is_built(monkeypatch):
    # (2, 3, 3): 448 * 63 / 2 layer edges times cross degree 63 is 889,056,
    # of which 124,992 triples are built
    def no_build(q, s):
        raise AssertionError(f"norm_graph({q}, {s}) was built")

    monkeypatch.setattr(constructions, "norm_graph", no_build)
    monkeypatch.setattr(constructions, "MAX_CONSTRUCTION_EDGES", 889_055)
    with pytest.raises(CapExceededError, match="would hold up to 889056 triples"):
        composed_construction(2, 3, 3)
    monkeypatch.setattr(constructions, "norm_graph", norm_graph)
    monkeypatch.setattr(constructions, "MAX_CONSTRUCTION_EDGES", 889_056)
    assert composed_construction(2, 3, 3).hypergraph.edge_count == 124_992


def test_composed_sizes():
    assert composed_sizes(2, 3, 3) == (8, 8, 448, 448, 448)
    # s1 < s2: the cross side is larger and the layer gets padded
    q, qt, n, n_cross, n_layer = composed_sizes(2, 3, 4)
    assert (q, qt) == (16, 8)
    assert (n_cross, n_layer) == (16**3 - 16**2, 8**4 - 8**3)
    assert n == 3840 and n_layer == 3584
    # s1 > s2: mirrored
    q, qt, n, n_cross, n_layer = composed_sizes(2, 4, 3)
    assert (q, qt) == (8, 16)
    assert n == n_layer == 3840 and n_cross == 3584


def _check_composed(c: ComposedConstruction):
    layer, cross, hg = c.v1_layer, c.cross_layer, c.hypergraph
    assert layer.n == cross.m == cross.n == c.n
    assert hg.m == hg.n == c.n
    layer_edges = set(layer.edges)
    expected = 0
    for u, v in layer.edges:
        expected += (cross.left_adj[u] & cross.left_adj[v]).bit_count()
    assert len(hg.edges) == expected
    for u, v, w in hg.edges[:200]:
        assert (u, v) in layer_edges
        assert cross.has_edge(u, w) and cross.has_edge(v, w)


def test_composed_2_3_3():
    c = composed_construction(2, 3, 3)
    assert (c.q, c.q_tilde, c.n) == (8, 8, 448)
    assert c.v1_layer.edge_count == norm_graph(8, 3).edge_count
    _check_composed(c)
    ratio = len(c.hypergraph.edges) / c.n**2
    assert 0.1 <= ratio <= 1.0


def test_random_deletion_c4():
    res = random_deletion_lower_bound(24, even_cycle(4), seed=0)
    assert find_in_graph(res.graph, even_cycle(4)) is None
    assert res.graph.edge_count == res.initial_edges - res.edges_deleted
    assert res.edges_deleted <= res.copies_found
    assert res.graph.n == 24
    again = random_deletion_lower_bound(24, even_cycle(4), seed=0)
    assert again.graph.edges == res.graph.edges
    other = random_deletion_lower_bound(24, even_cycle(4), seed=1)
    assert other.probability == res.probability


def test_random_deletion_c6():
    res = random_deletion_lower_bound(20, even_cycle(6), seed=3)
    assert find_in_graph(res.graph, even_cycle(6)) is None
    assert res.probability == pytest.approx(0.5 * 20 ** (-4 / 5))


def test_random_deletion_rejects():
    star = complete_bipartite(1, 3)
    with pytest.raises(ValueError):
        random_deletion_lower_bound(10, star)
    with pytest.raises(ValueError):
        random_deletion_lower_bound(10, complete_bipartite(2, 2, expansion=True))
    with pytest.raises(ValueError):
        random_deletion_lower_bound(3, even_cycle(4))
    with pytest.raises(CapExceededError):
        random_deletion_lower_bound(5000, even_cycle(4))
