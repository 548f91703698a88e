"""Containment searches checked against brute-force injective-map oracles."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turanlab.constructions import norm_graph
from turanlab.errors import CapExceededError, InvariantViolationError
from turanlab.hypergraph import BipartiteGraph, Graph, SemibipartiteThreeGraph, ThreeGraph
from turanlab.patterns import (
    EmbeddingWitness,
    ExpansionWitness,
    GraphHost,
    PatternSpec,
    ThreeGraphHost,
    complete_bipartite,
    even_cycle,
    expansion_through_triple,
    find_expansion,
    find_in_graph,
    find_ordered_bipartite,
    greedy_extend,
    grid_2x2,
    heavy_shadow_graph,
    iter_graph_embeddings,
    iter_kst,
    MAX_PATTERN_VERTICES,
    parse_pattern,
    pattern_through_edge,
    remove_vertex,
    theta,
    verify_bipartite_witness,
    verify_expansion_witness,
    verify_graph_witness,
)


def _combined_labels(spec):
    core = spec.core
    return [(a, core.m + b) for a, b in core.edges]


def _brute_graph(g, spec):
    """Reference search: try every injective map."""
    edges = _combined_labels(spec)
    k = spec.core.m + spec.core.n
    for perm in itertools.permutations(range(g.n), k):
        if all(g.has_edge(perm[a], perm[b]) for a, b in edges):
            return perm
    return None


def _brute_bipartite(g, spec):
    edges = _combined_labels(spec)
    core = spec.core
    k = core.m + core.n
    nv = g.m + g.n

    def has(u, v):
        if u > v:
            u, v = v, u
        return u < g.m <= v and g.has_edge(u, v - g.m)

    for perm in itertools.permutations(range(nv), k):
        if spec.placement == "ordered":
            if any(perm[i] >= g.m for i in range(core.m)):
                continue
            if any(perm[core.m + j] < g.m for j in range(core.n)):
                continue
        if all(has(perm[a], perm[b]) for a, b in edges):
            return perm
    return None


def _brute_expansion(h, spec):
    """Reference search: injective maps of every vertex of the expansion
    such that each core edge with its apex lands on a host triple.  Core
    vertices are placed in breadth-first order, each core edge's apex right
    after the later of its two ends, and a map is abandoned as soon as a
    placed core edge misses the shadow or a placed apex misses its triple."""
    if isinstance(h, SemibipartiteThreeGraph):
        nv = h.m + h.n
        triples = {tuple(sorted((u, v, h.m + w))) for u, v, w in h.edges}
        left = set(range(h.m))
    else:
        nv = h.n
        triples = set(h.edges)
        left = set(range(nv))
    edges = _combined_labels(spec)
    core = spec.core
    k = core.m + core.n
    if spec.placement == "ordered":
        sides = [left] * core.m + [set(range(nv)) - left] * core.n
    elif spec.placement == "core-in-V1":
        sides = [left] * k
    else:
        sides = [set(range(nv))] * k
    link = {}  # shadow pair -> third vertices
    for t in triples:
        for i in range(3):
            link.setdefault(t[:i] + t[i + 1 :], set()).add(t[i])
    near = [set() for _ in range(nv)]
    for a, b in link:
        near[a].add(b)
        near[b].add(a)
    nbrs = [[b for a, b in edges if a == j] + [a for a, b in edges if b == j] for j in range(k)]
    order = []  # breadth first: `for` sees what `+=` appends while it runs
    for root in range(k):
        if root not in order:
            order.append(root)
            for j in order:
                order += [x for x in nbrs[j] if x not in order]
    steps = []  # (core vertex, its placed neighbors), then (None, edge) per apex
    for i, j in enumerate(order):
        back = [x for x in nbrs[j] if x in order[:i]]
        steps.append((j, back))
        steps += [(None, (x, j)) for x in back]
    core_map = [-1] * k
    used = set()

    def rec(i):
        if i == len(steps):
            return True
        j, e = steps[i]
        if j is None:
            cands = link.get(tuple(sorted(core_map[x] for x in e)), set())
        else:
            cands = sides[j].intersection(*(near[core_map[x]] for x in e))
        for v in sorted(cands - used):
            if j is not None:
                core_map[j] = v
            used.add(v)
            found = rec(i + 1)
            used.discard(v)
            if found:
                return True
        return False

    return tuple(core_map) if rec(0) else None


def _random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def _random_bipartite(rng, m, n, p):
    edges = [(u, w) for u in range(m) for w in range(n) if rng.random() < p]
    return BipartiteGraph(m, n, edges)


def _random_three_graph(rng, n, p):
    edges = [t for t in itertools.combinations(range(n), 3) if rng.random() < p]
    return ThreeGraph(n, edges)


def _random_semibipartite(rng, m, n, p):
    edges = [
        (u, v, w)
        for u in range(m)
        for v in range(u + 1, m)
        for w in range(n)
        if rng.random() < p
    ]
    return SemibipartiteThreeGraph(m, n, edges)


# -- library and parser --


def test_library_shapes():
    k23 = complete_bipartite(2, 3)
    assert (k23.core.m, k23.core.n, k23.core.edge_count) == (2, 3, 6)
    assert k23.is_complete
    c6 = even_cycle(6)
    assert (c6.core.m, c6.core.n, c6.core.edge_count) == (3, 3, 6)
    assert not c6.is_complete
    c4 = even_cycle(4)
    assert c4.is_complete and (c4.core.m, c4.core.n) == (2, 2)
    th = theta(2, 2, 2)
    assert th.is_complete and sorted((th.core.m, th.core.n)) == [2, 3]
    gr = grid_2x2()
    assert (gr.core.m + gr.core.n, gr.core.edge_count) == (9, 12)
    assert sorted((gr.core.m, gr.core.n)) == [4, 5]
    # one anchored directed core edge per orbit of the core's automorphisms
    arcs = {"C4": 1, "C6": 1, "K{2,3}": 2, "K{2,3} ordered": 2, "theta{1,3,3}": 4,
            "grid2x2": 4, "K{2,2}+ core-in-V1": 1, "K{2,2}+ ordered": 2}
    assert {text: len(parse_pattern(text).arcs) for text in arcs} == arcs
    # derived values stay out of equality, hash and repr
    assert k23 == complete_bipartite(2, 3) and k23 != k23.with_placement("ordered")
    assert hash(k23) == hash((k23.core, False, "unordered", "K{2,3}"))
    assert repr(k23) == (
        "PatternSpec(core=BipartiteGraph(m=2, n=3, edges=6), expansion=False, "
        "placement='unordered', name='K{2,3}')"
    )


@pytest.mark.parametrize("s", range(1, 7))
@pytest.mark.parametrize("t", range(1, 7))
def test_complete_core_arcs_follow_the_closed_form(s, t):
    # every directed edge of one direction lies in one orbit, and the two
    # directions share an orbit exactly when the parts may swap
    for expansion, placement in ((False, "unordered"), (False, "ordered"), (True, "unordered"),
                                 (True, "ordered"), (True, "core-in-V1")):
        spec = complete_bipartite(s, t, expansion, placement)
        swaps = s == t and placement != "ordered"
        assert spec.arcs == (((0, 0, s),) if swaps else ((0, 0, s), (0, s, 0)))


def test_incomplete_core_arcs_are_pinned():
    arcs = {
        "C6": ((0, 0, 3),),
        "C6 ordered": ((0, 0, 3), (0, 3, 0)),
        "C6+ core-in-V1": ((0, 0, 3),),
        "theta{1,3,3}": ((0, 0, 3), (1, 0, 4), (1, 4, 0), (4, 1, 4)),
        "grid2x2": ((0, 0, 5), (0, 5, 0), (4, 2, 5), (4, 5, 2)),
        "grid2x2 ordered": ((0, 0, 5), (0, 5, 0), (4, 2, 5), (4, 5, 2)),
    }
    assert {text: parse_pattern(text).arcs for text in arcs} == arcs


def test_library_rejects():
    with pytest.raises(ValueError):
        even_cycle(5)
    with pytest.raises(ValueError):
        even_cycle(2)
    with pytest.raises(ValueError):
        theta(1, 2, 2)  # mixed parity
    with pytest.raises(ValueError):
        theta(1, 1, 3)  # two single-edge paths
    with pytest.raises(ValueError):
        complete_bipartite(0, 2)
    with pytest.raises(ValueError):
        PatternSpec(complete_bipartite(1, 1).core, expansion=False, placement="core-in-V1")


def test_parse_pattern():
    assert parse_pattern("K{2,3}").name == "K{2,3}"
    assert parse_pattern("K{3,3}+").expansion
    spec = parse_pattern("C6 ordered")
    assert spec.name == "C6" and spec.placement == "ordered" and not spec.expansion
    spec = parse_pattern("K{2,2}+ core-in-V1")
    assert spec.expansion and spec.placement == "core-in-V1"
    assert parse_pattern("theta{3,3,3}").core.edge_count == 9
    assert parse_pattern("grid2x2").core.edge_count == 12
    for bad in ("C5", "K{0,2}", "theta{1,1,2}", "Q3", "C4 sideways", ""):
        with pytest.raises(ValueError):
            parse_pattern(bad)


def test_parse_pattern_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"kind":"bipartite","m":1,"n":2,"edges":[[0,0],[0,1]]}')
    spec = parse_pattern(f"@{path}")
    assert (spec.core.m, spec.core.n, spec.core.edge_count) == (1, 2, 2)
    spec = parse_pattern(f"@{path}+ ordered")
    assert spec.expansion and spec.placement == "ordered"


def test_parse_pattern_caps_core_vertices(tmp_path):
    # at the cap every form parses; one vertex more raises before a core is built
    assert MAX_PATTERN_VERTICES == 64
    for text in ("K{63,1}", "C64", "theta{21,21,23}"):
        assert parse_pattern(text).vertex_count == 64
    for text in ("K{64,1}", "K{1,64}+", "C66", "theta{21,21,25} ordered"):
        with pytest.raises(CapExceededError, match="capped at 64"):
            parse_pattern(text)
    path = tmp_path / "big.json"
    path.write_text('{"kind":"bipartite","m":60,"n":5,"edges":[]}')
    with pytest.raises(CapExceededError, match="65 core vertices"):
        parse_pattern(f"@{path}")
    # a malformed size is still the reader's error, not the cap's
    path.write_text('{"kind":"bipartite","m":-1,"n":500,"edges":[]}')
    with pytest.raises(ValueError, match="'m'"):
        parse_pattern(f"@{path}")


def test_display_name():
    assert complete_bipartite(2, 2, expansion=True).display_name() == "K{2,2}+"
    assert even_cycle(6, placement="ordered").display_name() == "C6 ordered"


def test_remove_vertex():
    k22 = complete_bipartite(2, 2)
    left_removed = remove_vertex(k22, 0)
    assert (left_removed.core.m, left_removed.core.n, left_removed.core.edge_count) == (1, 2, 2)
    right_removed = remove_vertex(k22, 2)
    assert (right_removed.core.m, right_removed.core.n, right_removed.core.edge_count) == (2, 1, 2)
    with pytest.raises(ValueError):
        remove_vertex(k22, 4)


# -- frozen containment facts --


def test_c6_host_frozen():
    host = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    w = find_in_graph(host, even_cycle(6))
    assert w is not None and verify_graph_witness(host, even_cycle(6), w)
    assert find_in_graph(host, complete_bipartite(2, 2)) is None
    # a core_map shorter than the core is rejected, not an IndexError
    assert not verify_graph_witness(host, complete_bipartite(2, 2), EmbeddingWitness((0, 1)))


def test_grid_host_frozen():
    spec = grid_2x2()
    full = Graph(9, [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)]
                 + [(3 * r + c, 3 * r + c + 3) for r in range(2) for c in range(3)])
    w = find_in_graph(full, spec)
    assert w is not None and verify_graph_witness(full, spec, w)
    short = Graph(9, full.edges[:-1])
    assert find_in_graph(short, spec) is None


def test_ordered_direction_matters():
    host = BipartiteGraph(2, 3, [(u, w) for u in range(2) for w in range(3)])
    assert find_ordered_bipartite(host, complete_bipartite(3, 2, placement="ordered")) is None
    w = find_ordered_bipartite(host, complete_bipartite(3, 2))
    assert w is not None and verify_bipartite_witness(host, complete_bipartite(3, 2), w)
    assert not verify_bipartite_witness(host, complete_bipartite(3, 2), EmbeddingWitness((0, 2)))
    w = find_ordered_bipartite(host, complete_bipartite(2, 3, placement="ordered"))
    assert w is not None


def test_expansion_shared_apex_rejected():
    spec = PatternSpec(BipartiteGraph(2, 2, [(0, 0), (1, 1)]), expansion=True, name="M2")
    host = ThreeGraph(5, [(0, 1, 4), (2, 3, 4)])
    assert find_expansion(host, spec) is None
    host2 = ThreeGraph(6, [(0, 1, 4), (2, 3, 4), (2, 3, 5)])
    w = find_expansion(host2, spec)
    assert w is not None and verify_expansion_witness(host2, spec, w)
    assert len(set(w.apexes)) == 2


def test_single_triple_patterns():
    spec = complete_bipartite(1, 1, expansion=True)
    assert find_expansion(ThreeGraph(4, []), spec) is None
    host = ThreeGraph(4, [(0, 2, 3)])
    w = find_expansion(host, spec)
    assert w is not None and verify_expansion_witness(host, spec, w)


def test_semibipartite_placements_frozen():
    host = SemibipartiteThreeGraph(2, 1, [(0, 1, 0)])
    assert find_expansion(host, complete_bipartite(1, 1, True, "core-in-V1")) is not None
    assert find_expansion(host, complete_bipartite(1, 1, True, "ordered")) is not None
    assert find_expansion(host, complete_bipartite(2, 1, True, "core-in-V1")) is None
    assert find_expansion(host, complete_bipartite(1, 2, True, "ordered")) is None


def test_bipartite_witness_rejects_an_edge_inside_one_part():
    host = BipartiteGraph(2, 2, [(u, w) for u in range(2) for w in range(2)])
    spec = complete_bipartite(1, 1)
    assert verify_bipartite_witness(host, spec, EmbeddingWitness((0, 2)))
    assert verify_bipartite_witness(host, spec, EmbeddingWitness((3, 1)))
    assert not verify_bipartite_witness(host, spec, EmbeddingWitness((0, 1)))
    assert not verify_bipartite_witness(host, spec, EmbeddingWitness((2, 3)))


def test_ordered_expansion_witness_rejects_the_wrong_side():
    host = SemibipartiteThreeGraph(2, 1, [(0, 1, 0)])  # the triple (0, 1, 2) combined
    spec = complete_bipartite(1, 1, True, "ordered")
    right_first = ExpansionWitness((2, 0), ((0, 1),), (1,))
    assert verify_expansion_witness(host, spec, ExpansionWitness((0, 2), ((0, 1),), (1,)))
    assert not verify_expansion_witness(host, spec, right_first)
    assert verify_expansion_witness(host, spec.with_placement("unordered"), right_first)


def test_host_kind_mismatches():
    g = Graph(4, [(0, 1)])
    with pytest.raises(ValueError):
        find_in_graph(g, complete_bipartite(1, 1, expansion=True))
    with pytest.raises(ValueError):
        find_in_graph(g, complete_bipartite(1, 1, placement="ordered"))
    with pytest.raises(ValueError):
        find_ordered_bipartite(BipartiteGraph(2, 2, []), complete_bipartite(1, 1, True))
    with pytest.raises(ValueError):
        find_expansion(ThreeGraph(3, []), complete_bipartite(1, 1))
    # hosts too small to hold a copy refuse the pattern all the same
    small = Graph(3, [(0, 1)])
    with pytest.raises(ValueError, match="needs a host with parts"):
        find_in_graph(small, even_cycle(4, placement="ordered"))
    with pytest.raises(ValueError, match="needs a host with parts"):
        list(iter_graph_embeddings(small, even_cycle(4, placement="ordered")))
    with pytest.raises(ValueError, match="expansion pattern"):
        find_ordered_bipartite(BipartiteGraph(1, 1, [(0, 0)]), complete_bipartite(2, 2, True))
    with pytest.raises(ValueError, match="graph pattern"):
        find_expansion(SemibipartiteThreeGraph(2, 1, [(0, 1, 0)]), complete_bipartite(2, 2))


@pytest.mark.parametrize("placement", ["ordered", "core-in-V1"])
def test_plain_3graph_hosts_refuse_placements_before_counting(placement):
    # a 3-vertex host cannot hold a K{2,2}+ copy, so a capacity count run
    # first would answer None (or drop the pattern) without a word
    spec = complete_bipartite(2, 2, True, placement)
    host = ThreeGraphHost(3)
    host.add((0, 1, 2))
    assert not host.can_hold(spec)
    with pytest.raises(ValueError, match="needs a host with parts"):
        find_expansion(ThreeGraph(3, [(0, 1, 2)]), spec)
    with pytest.raises(ValueError, match="needs a host with parts"):
        expansion_through_triple(host, spec, (0, 1, 2))


def test_sides_follow_placement():
    # both orientations even for a part-swapping core: an anchored check's
    # arc may lead from the second part to the first
    left, right = 0b000111, 0b111000
    bipartite = GraphHost(3, 3)
    assert bipartite.sides(even_cycle(6)) == ((left, right), (right, left))
    assert bipartite.sides(complete_bipartite(2, 3)) == ((left, right), (right, left))
    assert bipartite.sides(complete_bipartite(2, 3, placement="ordered")) == ((left, right),)
    semi = ThreeGraphHost(3, 3)
    assert semi.sides(complete_bipartite(2, 3, True)) == ((left | right, left | right),)
    assert semi.sides(complete_bipartite(2, 3, True, "ordered")) == ((left, right),)
    assert semi.sides(complete_bipartite(2, 3, True, "core-in-V1")) == ((left, left),)
    assert GraphHost(4).sides(complete_bipartite(2, 3)) == ((0xF, 0xF),)


def test_iter_graph_embeddings_count():
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    maps = list(iter_graph_embeddings(k4, even_cycle(4)))
    assert len(maps) == 24
    copies = set()
    for m in maps:
        spec = even_cycle(4)
        edges = frozenset(
            tuple(sorted((m[a], m[spec.core.m + b]))) for a, b in spec.core.edges
        )
        copies.add(edges)
    assert len(copies) == 3


# -- randomized sweeps against the brute oracle --


def test_graph_search_matches_oracle():
    rng = random.Random(11)
    specs = [
        complete_bipartite(2, 2),
        complete_bipartite(1, 3),
        even_cycle(6),
        theta(2, 2, 2),
    ]
    hits = 0
    for trial in range(30):
        g = _random_graph(rng, 8, 0.2 + 0.04 * (trial % 8))
        for spec in specs:
            got = find_in_graph(g, spec)
            want = _brute_graph(g, spec)
            assert (got is None) == (want is None), (trial, spec.name)
            if got is not None:
                hits += 1
                assert verify_graph_witness(g, spec, got)
    assert hits > 10


def test_bipartite_search_matches_oracle():
    rng = random.Random(12)
    specs = [
        complete_bipartite(2, 2, placement="ordered"),
        complete_bipartite(1, 3, placement="ordered"),
        complete_bipartite(2, 3),
        complete_bipartite(2, 2),
        complete_bipartite(3, 3),
        even_cycle(6),
        even_cycle(6, placement="ordered"),
    ]
    hits = 0
    for trial in range(30):
        g = _random_bipartite(rng, 4, 4, 0.3 + 0.05 * (trial % 7))
        for spec in specs:
            got = find_ordered_bipartite(g, spec)
            want = _brute_bipartite(g, spec)
            assert (got is None) == (want is None), (trial, spec.name)
            if got is not None:
                hits += 1
                assert verify_bipartite_witness(g, spec, got)
    assert hits > 10


def test_part_swapping_cores_match_oracle_on_lopsided_hosts():
    # a core with a part-exchanging automorphism is searched in one
    # orientation; on 3x5 and 5x3 hosts many copies fit only one way round
    rng = random.Random(29)
    path4 = PatternSpec(BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)]), name="P4")
    lone_star = PatternSpec(BipartiteGraph(2, 2, [(0, 0), (0, 1)]), name="star+K1")  # no swap
    specs = [path4, theta(1, 3, 3), even_cycle(6), lone_star]
    assert [spec.swaps for spec in specs] == [True, True, True, False]
    # the star's centre fits only on the right: a copy in the second orientation alone
    only_flipped = BipartiteGraph(3, 2, [(0, 0), (1, 0)])
    assert find_ordered_bipartite(only_flipped, lone_star) == EmbeddingWitness((3, 4, 0, 1))
    hits = 0
    for trial in range(16):
        m, n = (3, 5) if trial % 2 else (5, 3)
        g = _random_bipartite(rng, m, n, 0.35 + 0.05 * (trial % 5))
        for spec in specs:
            got = find_ordered_bipartite(g, spec)
            assert (got is None) == (_brute_bipartite(g, spec) is None), (trial, spec.name)
            if got is not None:
                hits += 1
                assert verify_bipartite_witness(g, spec, got)
    assert hits > 10


# -- the finders' witness for a complete core --


def _symmetric_bipartite(g):
    """g read as a bipartite graph with left_adj == right_adj and an empty
    diagonal, so every K{s,t} copy (A, B) comes with its swap (B, A)."""
    return BipartiteGraph(g.n, g.n, [e for a, b in g.edges for e in ((a, b), (b, a))])


@st.composite
def _swap_closed_graphs(draw):
    n = draw(st.integers(1, 11))
    density = draw(st.sampled_from((0.2, 0.5, 0.8, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])
    return _symmetric_bipartite(g) if draw(st.booleans()) else g


def _assert_finders_return_the_first_kst_copy(g, s, t):
    """The finders' witness for K{s,t}, in combined labels, is the first
    copy `iter_kst` yields with the core's first part on the left mask."""
    host = GraphHost.of(g)
    copy = next(iter_kst(host.adj, s, t, host.left_mask, host.right_mask), None)
    want = None if copy is None else copy[0] + copy[1]
    if isinstance(g, Graph):
        witnesses = [find_in_graph(g, complete_bipartite(s, t))]
    else:
        witnesses = [find_ordered_bipartite(g, complete_bipartite(s, t, placement=placement))
                     for placement in ("unordered", "ordered")]
    for got in witnesses:
        assert (None if got is None else got.core_map) == want
    return want


@pytest.mark.parametrize("bipartite", [False, True])
def test_finder_witness_on_a_norm_graph_is_the_first_kst_copy(bipartite):
    g = _symmetric_bipartite(norm_graph(3, 3)) if bipartite else norm_graph(3, 3)
    assert _assert_finders_return_the_first_kst_copy(g, 2, 2) is not None


@settings(max_examples=300)
@given(_swap_closed_graphs(), st.integers(1, 3), st.integers(1, 3))
def test_finder_witness_on_swap_closed_hosts_is_the_first_kst_copy(g, s, t):
    _assert_finders_return_the_first_kst_copy(g, s, t)


def test_expansion_search_matches_oracle():
    rng = random.Random(13)
    specs = [
        complete_bipartite(1, 2, expansion=True),
        complete_bipartite(2, 2, expansion=True),
        PatternSpec(BipartiteGraph(2, 2, [(0, 0), (1, 1)]), expansion=True, name="M2"),
    ]
    hits = 0
    for trial in range(20):
        h = _random_three_graph(rng, 8, 0.1 + 0.03 * (trial % 6))
        for spec in specs:
            got = find_expansion(h, spec)
            want = _brute_expansion(h, spec)
            assert (got is None) == (want is None), (trial, spec.name)
            if got is not None:
                hits += 1
                assert verify_expansion_witness(h, spec, got)
    assert hits > 8


def test_semibipartite_expansion_matches_oracle():
    rng = random.Random(14)
    specs = [
        complete_bipartite(1, 2, expansion=True),
        complete_bipartite(1, 2, expansion=True, placement="ordered"),
        complete_bipartite(1, 2, expansion=True, placement="core-in-V1"),
        complete_bipartite(2, 2, expansion=True, placement="core-in-V1"),
    ]
    hits = 0
    for trial in range(15):
        h = _random_semibipartite(rng, 4, 4, 0.25 + 0.05 * (trial % 5))
        for spec in specs:
            got = find_expansion(h, spec)
            want = _brute_expansion(h, spec)
            assert (got is None) == (want is None), (trial, spec.name)
            if got is not None:
                hits += 1
                assert verify_expansion_witness(h, spec, got)
    assert hits > 8


def _padded(host, extra):
    """The same host with `extra` more isolated vertices: the same copies,
    but enough vertices that a finder runs its full search."""
    if isinstance(host, Graph):
        return Graph(host.n + extra, host.edges)
    if isinstance(host, BipartiteGraph):
        return BipartiteGraph(host.m + extra, host.n, host.edges)
    if isinstance(host, ThreeGraph):
        return ThreeGraph(host.n + extra, host.edges)
    return SemibipartiteThreeGraph(host.m, host.n + extra, host.edges)


# (finder, pattern, random host builder (rng, vertex count, density), brute
# force); at density 1 a builder makes a complete host, which holds the
# pattern once it has the pattern's vertex count (v(F) + |F| for an
# expansion)
SIZE_CASES = [
    pytest.param(find_in_graph, even_cycle(6), _random_graph, _brute_graph, id="graph-C6"),
    pytest.param(
        find_in_graph, complete_bipartite(2, 3), _random_graph, _brute_graph, id="graph-K{2,3}"
    ),
    pytest.param(
        find_ordered_bipartite,
        complete_bipartite(2, 3, placement="ordered"),
        lambda rng, k, p: _random_bipartite(rng, 2, k - 2, p),
        _brute_bipartite,
        id="bipartite-K{2,3} ordered",
    ),
    pytest.param(
        find_ordered_bipartite,
        even_cycle(6),
        lambda rng, k, p: _random_bipartite(rng, 3, k - 3, p),
        _brute_bipartite,
        id="bipartite-C6",
    ),
    pytest.param(
        find_expansion,
        complete_bipartite(1, 2, expansion=True),
        _random_three_graph,
        _brute_expansion,
        id="3graph-K{1,2}+",
    ),
    pytest.param(
        find_expansion,
        complete_bipartite(2, 2, expansion=True),
        _random_three_graph,
        _brute_expansion,
        id="3graph-K{2,2}+",
    ),
    pytest.param(
        find_expansion,
        complete_bipartite(1, 2, expansion=True, placement="core-in-V1"),
        lambda rng, k, p: _random_semibipartite(rng, 3, k - 3, p),
        _brute_expansion,
        id="semibipartite-K{1,2}+ core-in-V1",
    ),
]


def _needed(spec):
    return spec.vertex_count + (spec.core.edge_count if spec.expansion else 0)


@pytest.mark.parametrize("find,spec,build,brute", SIZE_CASES)
def test_finders_answer_too_small_hosts_without_search(find, spec, build, brute):
    # one vertex short of the pattern, a finder answers None at once; the
    # host padded with one isolated vertex gets the full search, which must
    # agree.  At the pattern's own size the complete host holds a copy, so
    # the early exit does not fire there
    rng = random.Random(15)
    k = _needed(spec)
    assert find(build(rng, k, 1.0), spec) is not None
    for p in (1.0, 0.9, 0.7):
        small = build(rng, k - 1, p)
        assert find(small, spec) is None
        assert find(_padded(small, 1), spec) is None
        assert brute(small, spec) is None
        host = build(rng, k, p)
        assert (find(host, spec) is None) == (brute(host, spec) is None)


def test_find_expansion_skips_a_dense_host_too_small_for_c6_plus():
    # C6+ needs 6 + 6 = 12 vertices.  On this 11-vertex host of 137
    # triples, the full search enumerates every C6 of the shadow for about
    # 9 s before answering None
    h = _random_three_graph(random.Random(0), 11, 0.85)
    spec = even_cycle(6, expansion=True)
    t0 = time.perf_counter()
    assert find_expansion(h, spec) is None
    assert time.perf_counter() - t0 < 1.0
    assert find_expansion(h, complete_bipartite(2, 2, expansion=True)) is not None


# -- host state --


def _links_of(triples):
    """Pair links recomputed from a set of sorted triples."""
    pair_link = {}
    for a, b, c in triples:
        for pair, apex in (((a, b), c), ((a, c), b), ((b, c), a)):
            pair_link[pair] = pair_link.get(pair, 0) | 1 << apex
    return pair_link


def _shadow_of_links(nv, pair_link):
    """Shadow adjacency recomputed from pair links, the reference for the
    shadow a 3-graph host keeps."""
    adj = [0] * nv
    for (a, b), link in pair_link.items():
        if link:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


def _host_state(host):
    slots = [slot for cls in type(host).__mro__ for slot in getattr(cls, "__slots__", ())]
    return {slot: getattr(host, slot) for slot in slots}


@pytest.mark.parametrize("m,n", [(7, None), (4, 3)], ids=["plain", "semibipartite"])
def test_three_graph_host_keeps_its_shadow(m, n):
    rng = random.Random(19)
    if n is None:
        universe = list(itertools.combinations(range(m), 3))
    else:
        pairs = itertools.combinations(range(m), 2)
        universe = [(u, v, m + w) for u, v in pairs for w in range(n)]
    host = ThreeGraphHost(m, n)
    present = set()
    for _ in range(400):
        t = rng.choice(universe)
        if t in present:
            host.remove(t)
            present.remove(t)
        else:
            host.add(t)
            present.add(t)
        assert host.pair_link == _links_of(present)
        assert host.adj == _shadow_of_links(len(host.adj), host.pair_link)


def test_hosts_from_static_match_edge_by_edge():
    rng = random.Random(20)
    g = _random_graph(rng, 7, 0.5)
    bg = _random_bipartite(rng, 4, 5, 0.5)
    h = _random_three_graph(rng, 7, 0.4)
    sh = _random_semibipartite(rng, 4, 3, 0.5)
    cases = [
        (GraphHost.of(g), GraphHost(7), list(g.edges), (0x7F, 0x7F)),
        (GraphHost.of(bg), GraphHost(4, 5), [(u, 4 + w) for u, w in bg.edges], (0xF, 0x1F0)),
        (ThreeGraphHost.of(h), ThreeGraphHost(7), list(h.edges), (0x7F, 0x7F)),
        (
            ThreeGraphHost.of(sh),
            ThreeGraphHost(4, 3),
            [(u, v, 4 + w) for u, v, w in sh.edges],
            (0xF, 0x70),
        ),
    ]
    for static, grown, edges, masks in cases:
        assert edges
        rng.shuffle(edges)
        for e in edges:
            grown.add(e)
        assert _host_state(static) == _host_state(grown)
        assert (static.left_mask, static.right_mask) == masks
    assert not ThreeGraphHost.of(h).has_parts and ThreeGraphHost.of(sh).has_parts


# -- anchored incremental checks --


def test_pattern_through_edge_evolution():
    rng = random.Random(15)
    for spec in (complete_bipartite(2, 2), even_cycle(6)):
        n = 8
        host = GraphHost(n)
        kept = []
        rejected = []
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(candidates)
        for u, v in candidates:
            host.add((u, v))
            if pattern_through_edge(host, spec, u, v):
                host.remove((u, v))
                rejected.append((u, v))
            else:
                kept.append((u, v))
        g = Graph(n, kept)
        assert find_in_graph(g, spec) is None
        assert rejected, spec.name
        for u, v in rejected[:6]:
            g_plus = Graph(n, kept + [(u, v)])
            assert _brute_graph(g_plus, spec) is not None


def test_pattern_through_edge_ordered_masks():
    rng = random.Random(16)
    m = n = 4
    spec = complete_bipartite(1, 2, placement="ordered")
    host = GraphHost(m, n)
    kept = []
    rejected = []
    candidates = [(u, m + w) for u in range(m) for w in range(n)]
    rng.shuffle(candidates)
    for u, v in candidates:
        host.add((u, v))
        if pattern_through_edge(host, spec, u, v):
            host.remove((u, v))
            rejected.append((u, v))
        else:
            kept.append((u, v))
    g = BipartiteGraph(m, n, [(u, v - m) for u, v in kept])
    assert find_ordered_bipartite(g, spec) is None
    # left degree capped at 1 by K{1,2} ordered freeness
    assert all(g.left_adj[u].bit_count() <= 1 for u in range(m))
    for u, v in rejected[:6]:
        g_plus = BipartiteGraph(m, n, [(a, b - m) for a, b in kept] + [(u, v - m)])
        assert _brute_bipartite(g_plus, spec) is not None


def test_expansion_through_triple_evolution():
    rng = random.Random(17)
    n = 7
    spec = complete_bipartite(1, 2, expansion=True)
    host = ThreeGraphHost(n)
    kept = []
    rejected = []
    candidates = list(itertools.combinations(range(n), 3))
    rng.shuffle(candidates)

    for t in candidates:
        host.add(t)
        if expansion_through_triple(host, spec, t):
            host.remove(t)
            rejected.append(t)
        else:
            kept.append(t)
    h = ThreeGraph(n, kept)
    assert find_expansion(h, spec) is None
    assert rejected
    for t in rejected[:6]:
        h_plus = ThreeGraph(n, kept + [t])
        assert _brute_expansion(h_plus, spec) is not None


# -- greedy extension --


def test_greedy_extend_minimal():
    # s = t = 1 needs pair degree >= 3
    h = ThreeGraph(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    w = greedy_extend(h, (0,), (1,))
    assert w.apexes == (2,)
    assert verify_expansion_witness(h, complete_bipartite(1, 1, expansion=True), w)
    thin = ThreeGraph(4, [(0, 1, 2), (0, 1, 3)])
    with pytest.raises(ValueError):
        greedy_extend(thin, (0,), (1,))


def test_greedy_extend_random_hosts():
    rng = random.Random(18)
    spec = complete_bipartite(1, 2, expansion=True)
    need = 1 * 2 + 1 + 2
    found = 0
    for _ in range(40):
        h = _random_three_graph(rng, 9, 0.75)
        heavy = heavy_shadow_graph(h, need)
        w0 = find_in_graph(heavy, complete_bipartite(1, 2))
        if w0 is None:
            continue
        s_side = w0.core_map[:1]
        t_side = w0.core_map[1:]
        w = greedy_extend(h, s_side, t_side)
        assert verify_expansion_witness(h, spec, w)
        assert len(set(w.apexes)) == len(w.apexes)
        found += 1
    assert found > 5


def test_heavy_shadow_graph():
    h = ThreeGraph(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)])
    assert heavy_shadow_graph(h, 3).edges == ((0, 1),)
    assert heavy_shadow_graph(h, 2).edge_count == 1
    assert heavy_shadow_graph(h, 1).edge_count == 10  # every pair inside some triple


def test_expansion_witness_must_list_the_core_edges():
    # four apexes on one pair: no K{2,2}+ copy, yet every listed triple exists
    h = ThreeGraph(8, [(0, 2, 4), (0, 2, 5), (0, 2, 6), (0, 2, 7)])
    spec = complete_bipartite(2, 2, expansion=True)
    assert find_expansion(h, spec) is None
    fake = ExpansionWitness((0, 1, 2, 3), ((0, 2),) * 4, (4, 5, 6, 7))
    assert not verify_expansion_witness(h, spec, fake)
    short = ExpansionWitness((0, 1, 2, 3), ((0, 2), (0, 3), (1, 2), (1, 3)), (4,))
    assert not verify_expansion_witness(h, spec, short)
