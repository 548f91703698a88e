import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from turanlab.errors import InvariantViolationError
from turanlab.hypergraph import (
    BipartiteGraph,
    Graph,
    SemibipartiteThreeGraph,
    ThreeGraph,
    content_hash,
    degree_stats,
    dumps_canonical,
    from_graph6,
    from_json_dict,
    loads,
    to_graph6,
)


def test_graph_basics():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    st = degree_stats(g)
    assert st.maximum == st.minimum == 3
    assert st.average == Fraction(3)
    assert g.has_edge(2, 0) and not Graph(3, [(0, 1)]).has_edge(0, 2)


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])  # duplicate under normalization
    with pytest.raises(ValueError):
        ThreeGraph(4, [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(ValueError):
        ThreeGraph(4, [(0, 1, 1)])
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        SemibipartiteThreeGraph(3, 2, [(0, 0, 1)])


@pytest.mark.parametrize(
    "n,edges,message",
    [
        (4, [(0, 1, 2), (3, 1)], "not a 3-set: (3, 1)"),
        (4, [[0, 1, 2, 3]], "not a 3-set: [0, 1, 2, 3]"),
        (4, [(2, 1, 2)], "not a 3-set: (2, 1, 2)"),
        (4, [(2, 1, 4)], "edge (2, 1, 4) out of range for n=4"),
        (4, [(0, -1, 2)], "edge (0, -1, 2) out of range for n=4"),
        # the first bad triple in input order names the error
        (4, [(0, 1, 7), (1, 1, 2)], "edge (0, 1, 7) out of range for n=4"),
        (4, [(1, 1, 2), (0, 1, 7)], "not a 3-set: (1, 1, 2)"),
        (4, [(0, 1, 2), (1, 2, 3), (1, 0, 2)], "duplicate edges in input"),
    ],
)
def test_three_graph_names_the_first_bad_triple(n, edges, message):
    with pytest.raises(ValueError) as info:
        ThreeGraph(n, edges)
    assert str(info.value) == message


def test_three_graph_accepts_a_generator_in_any_order():
    h = ThreeGraph(5, (t[::-1] for t in [(2, 3, 4), (0, 1, 2), (0, 1, 4)]))
    assert h.edges == ((0, 1, 2), (0, 1, 4), (2, 3, 4))


def test_three_graph_degree_stats():
    h = ThreeGraph(4, [(0, 1, 2), (0, 1, 3)])
    st = degree_stats(h)
    assert st.degrees == (2, 2, 1, 1)
    assert st.average == Fraction(6, 4)


def test_semibipartite_shape_and_conversion():
    h = SemibipartiteThreeGraph(3, 2, [(0, 1, 0), (1, 2, 1)])
    assert h.edges == ((0, 1, 0), (1, 2, 1))
    t = h.to_three_graph()
    assert t.n == 5 and t.edges == ((0, 1, 3), (1, 2, 4))
    st = degree_stats(h)
    assert st.degrees == (1, 2, 1, 1, 1)


def test_handshake_on_random_structures():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = [e for e in pairs if rng.random() < 0.4]
        g = Graph(n, chosen)
        assert sum(g.degree(v) for v in range(n)) == 2 * g.edge_count
        triples = [
            (a, b, c)
            for a in range(n)
            for b in range(a + 1, n)
            for c in range(b + 1, n)
        ]
        h = ThreeGraph(n, [t for t in triples if rng.random() < 0.3])
        assert sum(h.degree_sequence()) == 3 * h.edge_count


def test_induced_semibipartite():
    h = ThreeGraph(5, [(0, 1, 2), (0, 1, 4), (2, 3, 4), (0, 2, 3)])
    sb, lt, rt = h.induced_semibipartite([0, 1, 3], [2, 4])
    assert (lt, rt) == ((0, 1, 3), (2, 4))
    # edges with exactly two left vertices survive: (0,1,2), (0,1,4), (0,2,3)
    assert sb.edges == ((0, 1, 0), (0, 1, 1), (0, 2, 0))


def test_json_round_trip_byte_identical():
    shown = {
        Graph(4, [(0, 1), (2, 3)]): "Graph(n=4, edges=2)",
        BipartiteGraph(2, 3, [(0, 0), (1, 2)]): "BipartiteGraph(m=2, n=3, edges=2)",
        ThreeGraph(4, [(0, 1, 2)]): "ThreeGraph(n=4, edges=1)",
        SemibipartiteThreeGraph(3, 1, [(0, 2, 0)]): "SemibipartiteThreeGraph(m=3, n=1, edges=1)",
    }
    for obj, text_repr in shown.items():
        text = dumps_canonical(obj)
        back = loads(text)
        assert back == obj and hash(back) == hash(obj)
        assert dumps_canonical(back) == text
        assert repr(back) == text_repr
        assert degree_stats(obj).degrees == tuple(obj.degree_sequence())
        assert not hasattr(obj, "__dict__")
    # equal sizes and equal (empty) edges, four kinds
    empties = [Graph(2, []), BipartiteGraph(2, 2, []), ThreeGraph(2, []),
               SemibipartiteThreeGraph(2, 2, [])]
    for a, b in itertools.permutations([*shown, *empties], 2):
        assert a != b
    for a, b in itertools.permutations(empties, 2):
        assert a.edges == b.edges and a.n == b.n and a != b


def test_bipartite_degree_sequence_is_left_then_right():
    g = BipartiteGraph(2, 3, [(0, 0), (0, 2), (1, 2)])
    assert g.degree_sequence() == [2, 1, 1, 0, 2]
    assert Graph(3, [(0, 2)]).degree_sequence() == [1, 0, 1]


@pytest.mark.parametrize(
    "obj, field",
    [
        pytest.param([1, 2], "object", id="list"),
        pytest.param("graph", "object", id="string"),
        pytest.param(None, "object", id="null"),
        pytest.param({"n": 1, "edges": []}, "'kind'", id="kind-missing"),
        pytest.param({"kind": "multigraph", "n": 1, "edges": []}, "'kind'", id="kind-unknown"),
        pytest.param({"kind": ["graph"], "n": 1, "edges": []}, "'kind'", id="kind-list"),
        pytest.param({"kind": "graph", "edges": []}, "'n'", id="n-missing"),
        pytest.param({"kind": "bipartite", "n": 2, "edges": []}, "'m'", id="m-missing"),
        pytest.param({"kind": "semibipartite3", "m": 2, "edges": []}, "'n'", id="sb-n-missing"),
        pytest.param({"kind": "bipartite", "m": 2, "n": -1, "edges": []}, "'n'", id="n-negative"),
        pytest.param({"kind": "3graph", "n": 3.0, "edges": []}, "'n'", id="n-integral-float"),
        pytest.param({"kind": "graph", "n": 1.5, "edges": []}, "'n'", id="n-float"),
        pytest.param({"kind": "bipartite", "m": "3", "n": 1, "edges": []}, "'m'", id="m-string"),
        pytest.param({"kind": "semibipartite3", "m": True, "n": 1, "edges": []}, "'m'",
                     id="m-bool"),
        pytest.param({"kind": "graph", "n": False, "edges": []}, "'n'", id="n-bool"),
        pytest.param({"kind": "graph", "n": 3}, "'edges'", id="edges-missing"),
        pytest.param({"kind": "graph", "n": 3, "edges": {"0": 1}}, "'edges'", id="edges-object"),
        pytest.param({"kind": "graph", "n": 3, "edges": 5}, "'edges'", id="edges-int"),
        pytest.param({"kind": "graph", "n": 3, "edges": [[0, 1], 2]}, "'edges'",
                     id="edge-not-list"),
        pytest.param({"kind": "graph", "n": 3, "edges": [[0, 1, 2]]}, "'edges'",
                     id="graph-triple"),
        pytest.param({"kind": "bipartite", "m": 2, "n": 2, "edges": [[0]]}, "'edges'",
                     id="bipartite-single"),
        pytest.param({"kind": "3graph", "n": 3, "edges": [[0, 1]]}, "'edges'", id="3graph-pair"),
        pytest.param({"kind": "semibipartite3", "m": 2, "n": 1, "edges": [[0, 1, 0, 0]]},
                     "'edges'", id="sb-quadruple"),
        pytest.param({"kind": "graph", "n": 3, "edges": [[0, True]]}, "'edges'",
                     id="vertex-bool"),
        pytest.param({"kind": "graph", "n": 3, "edges": [[0, 1.5]]}, "'edges'",
                     id="vertex-float"),
        pytest.param({"kind": "bipartite", "m": 2, "n": 2, "edges": [[0, "a"]]}, "'edges'",
                     id="vertex-string"),
        pytest.param({"kind": "3graph", "n": 3, "edges": [[0, 1, None]]}, "'edges'",
                     id="vertex-null"),
        pytest.param({"kind": "semibipartite3", "m": 2, "n": 1, "edges": [[0, 1, 0.0]]},
                     "'edges'", id="vertex-integral-float"),
    ],
)
@pytest.mark.parametrize("reader", ["from_json_dict", "loads"])
def test_malformed_graph_json_names_the_field(obj, field, reader):
    with pytest.raises(ValueError, match=re.escape(field)):
        if reader == "loads":
            loads(json.dumps(obj))
        else:
            from_json_dict(obj)


def test_content_hash_is_git_blob_style():
    g = Graph(1, [])
    payload = dumps_canonical(g).encode()
    import hashlib

    expected = hashlib.sha1(b"blob %d\0%s" % (len(payload), payload)).hexdigest()
    assert content_hash(g) == expected


def test_graph6_known_values():
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert to_graph6(k4) == "C~"
    empty5 = Graph(5, [])
    assert to_graph6(empty5) == "D??"


def test_graph6_round_trip():
    rng = random.Random(1)
    for n in (0, 1, 2, 7, 13, 63, 70):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.3])
        assert from_graph6(to_graph6(g)) == g


def test_degree_stats_empty():
    st = degree_stats(Graph(0, []))
    assert st.degrees == () and st.maximum == 0


def test_graph6_missing_header_is_value_error():
    for text in ("", "~"):
        with pytest.raises(ValueError):
            from_graph6(text)


def test_bipartite_component_count():
    c4 = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    two_k2 = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    star = BipartiteGraph(1, 3, [(0, 0), (0, 1), (0, 2)])
    assert [g.component_count() for g in (c4, two_k2, star)] == [1, 2, 1]
    assert BipartiteGraph(0, 0, []).component_count() == 0


def test_bipartite_is_forest():
    c4_edges = [(0, 0), (0, 1), (1, 0), (1, 1)]
    c4 = BipartiteGraph(2, 2, c4_edges)
    two_k2 = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    star = BipartiteGraph(1, 3, [(0, 0), (0, 1), (0, 2)])
    c4_and_isolated = BipartiteGraph(3, 2, c4_edges)
    assert [g.is_forest() for g in (c4, two_k2, star, c4_and_isolated)] == [False, True, True, False]
    assert BipartiteGraph(0, 0, []).is_forest()


# -- edge order and canonical JSON, on drawn hosts of every kind --

_KINDS = [Graph, BipartiteGraph, ThreeGraph, SemibipartiteThreeGraph]

# every edge each kind can hold, in stored form, by part sizes
_EDGE_POOLS = {
    Graph: lambda n: itertools.combinations(range(n), 2),
    BipartiteGraph: lambda m, n: itertools.product(range(m), range(n)),
    ThreeGraph: lambda n: itertools.combinations(range(n), 3),
    SemibipartiteThreeGraph: lambda m, n: (
        (u, v, w) for u, v in itertools.combinations(range(m), 2) for w in range(n)
    ),
}

_drawn = settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])


def _draw_host(data, cls):
    """Part sizes and a strictly increasing list of stored-form edges."""
    sizes = [data.draw(st.integers(0, 6)) for _ in cls.size_fields]
    pool = list(_EDGE_POOLS[cls](*sizes))
    edges = data.draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return sizes, sorted(edges)


def _as_given(data, cls, edge):
    """The edge as a caller may hand it in: its vertices in any order the
    kind accepts, as a tuple or a list."""
    if cls is not BipartiteGraph:
        head = list(edge[:2]) if cls is SemibipartiteThreeGraph else list(edge)
        head = data.draw(st.permutations(head))
        edge = (*head, *edge[len(head):])
    return data.draw(st.sampled_from([tuple, list]))(edge)


@pytest.mark.parametrize("cls", _KINDS, ids=lambda cls: cls.kind)
@_drawn
@given(data=st.data())
def test_edge_order_does_not_change_the_host(cls, data):
    sizes, edges = _draw_host(data, cls)
    shuffled = [_as_given(data, cls, e) for e in data.draw(st.permutations(edges))]
    hosts = [cls(*sizes, edges), cls(*sizes, shuffled), cls(*sizes, edges[::-1]),
             cls(*sizes, iter(edges))]
    for h in hosts:
        assert h == hosts[0] and h.edges == tuple(edges)
        assert h.degree_sequence() == hosts[0].degree_sequence()


@pytest.mark.parametrize("cls", _KINDS, ids=lambda cls: cls.kind)
@_drawn
@given(data=st.data())
def test_sorted_edges_with_an_adjacent_duplicate_are_refused(cls, data):
    sizes, edges = _draw_host(data, cls)
    if not edges:
        sizes = [3] * len(sizes)
        edges = [next(iter(_EDGE_POOLS[cls](*sizes)))]
    i = data.draw(st.integers(0, len(edges) - 1))
    with pytest.raises(ValueError) as info:
        cls(*sizes, edges[: i + 1] + edges[i:])
    assert str(info.value) == "duplicate edges in input"


@pytest.mark.parametrize("cls", _KINDS, ids=lambda cls: cls.kind)
@_drawn
@given(data=st.data())
def test_canonical_json_is_the_json_dict_written_compactly(cls, data):
    sizes, edges = _draw_host(data, cls)
    for h in (cls(*sizes, edges), cls(*sizes, [])):
        d = h.to_json_dict()
        assert all(type(e) is list for e in d["edges"])
        text = dumps_canonical(h)
        assert text == json.dumps(d, sort_keys=True, separators=(",", ":"))
        assert loads(text) == h
