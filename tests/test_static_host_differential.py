"""The read-only 3-graph searches against the per-call scans they replace.

`greedy_extend`, `heavy_shadow_graph` and `find_expansion` read their pair
links from one shared index of the last static host asked about, and
`decompose_3graph` tallies every triple by its count in a flat 0/1 list
of V1 and then takes the pivot's triples off again.  The
references below are the earlier bodies: `greedy_extend` scanning every host
triple for the links of its core pairs, a pair-degree count from the
triples, and the two-pass decomposition that tests membership in a V1 set.
`find_expansion` has no earlier body outside the module's private helpers,
so its witness must pass `verify_expansion_witness` and it must find a copy
exactly when some host triple completes one through the per-triple check
on a freshly built host.

Every example asks about hosts A, B, A and then an equal but distinct copy
of A, in that order.  B often has as many vertices as A, and two times in
three as many triples too, one of them moved: an index kept for the wrong
host, or keyed by anything short of the host itself, returns B's links for
A (or A's for B) and fails a comparison.  The copy of A must give A's
results.
"""

import itertools
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from turanlab.errors import InvariantViolationError
from turanlab.harness import Decomposition, decompose_3graph
from turanlab.hypergraph import BipartiteGraph, Graph, SemibipartiteThreeGraph, ThreeGraph
from turanlab.patterns import (
    ExpansionWitness,
    PatternSpec,
    ThreeGraphHost,
    complete_bipartite,
    expansion_through_triple,
    find_expansion,
    greedy_extend,
    heavy_shadow_graph,
    verify_expansion_witness,
)


def _reference_greedy_extend(h, s_side, t_side):
    s, t = len(s_side), len(t_side)
    if s < 1 or t < 1:
        raise ValueError("core sides must be nonempty")
    if len(set(s_side) | set(t_side)) != s + t:
        raise ValueError("core vertices must be distinct")
    core_pairs = [(a, b) if a < b else (b, a) for a in s_side for b in t_side]
    pair_link = dict.fromkeys(core_pairs, 0)
    for a, b, c in h.edges:
        if (a, b) in pair_link:
            pair_link[(a, b)] |= 1 << c
        if (a, c) in pair_link:
            pair_link[(a, c)] |= 1 << b
        if (b, c) in pair_link:
            pair_link[(b, c)] |= 1 << a
    need = s * t + s + t
    for key in core_pairs:
        deg = pair_link[key].bit_count()
        if deg < need:
            raise ValueError(f"pair {key} has degree {deg} < {need}; extension not guaranteed")
    core_mask = 0
    for v in (*s_side, *t_side):
        core_mask |= 1 << v
    used = 0
    apexes = []
    for key in core_pairs:
        avail = pair_link[key] & ~core_mask & ~used
        if not avail:
            raise InvariantViolationError("no apex available despite degree floor")
        w = (avail & -avail).bit_length() - 1
        apexes.append(w)
        used |= 1 << w
    core_map = tuple(s_side) + tuple(t_side)
    combined_edges = tuple((i, s + j) for i in range(s) for j in range(t))
    return ExpansionWitness(core_map, combined_edges, tuple(apexes))


def _reference_heavy_shadow(h, threshold):
    deg = Counter()
    for a, b, c in h.edges:
        deg[a, b] += 1
        deg[a, c] += 1
        deg[b, c] += 1
    return Graph(h.n, [pair for pair, d in deg.items() if d >= threshold])


def _reference_decompose(h, v, s, t):
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} not in host")
    if s < 1 or t < 1:
        raise ValueError("codegree threshold needs s, t >= 1")
    threshold = (s + 1) * (t + 1)
    co = [0] * h.n
    pivot_edges = 0
    for e in h.edges:
        if v in e:
            pivot_edges += 1
            for u in e:
                if u != v:
                    co[u] += 1
    v1 = tuple(u for u in range(h.n) if u != v and co[u] >= threshold)
    v2 = tuple(u for u in range(h.n) if u != v and co[u] < threshold)
    in1 = set(v1)
    counts = {
        "pivot": pivot_edges,
        "inside_v1": 0,
        "two_in_v1_one_in_v2": 0,
        "one_in_v1_two_in_v2": 0,
        "inside_v2": 0,
    }
    names = ("inside_v2", "one_in_v1_two_in_v2", "two_in_v1_one_in_v2", "inside_v1")
    for e in h.edges:
        if v in e:
            continue
        counts[names[sum(1 for u in e if u in in1)]] += 1
    return Decomposition(v, v1, v2, counts, h.edge_count)


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message it raised."""
    try:
        return "ok", fn(*args)
    except (ValueError, InvariantViolationError) as e:
        return type(e), str(e)


def _combined_triples(h):
    if isinstance(h, ThreeGraph):
        return h.edges
    return [(u, v, h.m + w) for u, v, w in h.edges]


def _has_copy(h, spec):
    """Does some host triple complete an expansion copy?  On a host built
    afresh, through the solver's per-triple check."""
    host = ThreeGraphHost.of(h)
    return any(expansion_through_triple(host, spec, t) for t in _combined_triples(h))


THRESHOLDS = (0, 1, 2, 3, 5, 8, 40)
SIDES = [sides for k in range(3) for sides in itertools.combinations(range(16), k)]
EXPANSIONS = (
    complete_bipartite(1, 1, expansion=True),
    complete_bipartite(1, 2, expansion=True),
    complete_bipartite(2, 2, expansion=True),
    PatternSpec(BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)]), True),  # path on four vertices
)
PARTED_EXPANSIONS = EXPANSIONS + (
    complete_bipartite(1, 2, expansion=True, placement="ordered"),
    complete_bipartite(2, 1, expansion=True, placement="core-in-V1"),
    complete_bipartite(2, 2, expansion=True, placement="ordered"),
)


def _greedy_cases(h, drawn):
    """Core sides with s, t <= 2: every heavy core the greedy rule is
    promised to extend (thinned to about 300 on dense hosts), and the drawn
    sides, taken mod n + 1, which may be empty, overlap, leave the host or
    fall short of the degree floor."""
    cases = []
    for s, t in itertools.product((1, 2), repeat=2):
        heavy = _reference_heavy_shadow(h, s * t + s + t)
        for s_side in itertools.combinations(range(h.n), s):
            common = -1
            for v in s_side:
                common &= heavy.adj[v]
            cands = [v for v in range(h.n) if common >> v & 1]
            cases.extend((s_side, t_side) for t_side in itertools.combinations(cands, t))
    cases = cases[:: len(cases) // 300 + 1]
    cases.extend(tuple(tuple(v % (h.n + 1) for v in side) for side in sides) for sides in drawn)
    return cases


def _three_graph(data, n):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    density = data.draw(st.sampled_from((0.15, 0.35, 0.6, 0.85)))
    return ThreeGraph(n, [e for e in itertools.combinations(range(n), 3) if rng.random() < density])


def _outcomes(h, drawn):
    out = {"heavy": [], "greedy": [], "find": [], "decompose": []}
    for threshold in THRESHOLDS:
        got = heavy_shadow_graph(h, threshold)
        want = _reference_heavy_shadow(h, threshold)
        assert (got.n, got.edges, got.adj) == (want.n, want.edges, want.adj)
        out["heavy"].append(got.edges)
    for s_side, t_side in _greedy_cases(h, drawn):
        got = _outcome(greedy_extend, h, s_side, t_side)
        assert got == _outcome(_reference_greedy_extend, h, s_side, t_side), (s_side, t_side)
        out["greedy"].append(got)
    for spec in EXPANSIONS:
        got = find_expansion(h, spec)
        assert verify_expansion_witness(h, spec, got) if got else not _has_copy(h, spec)
        out["find"].append(got)
    for v in range(-1, h.n + 1):
        for s, t in ((1, 1), (1, 2), (2, 2), (0, 1)):
            got = _outcome(decompose_3graph, h, v, s, t)
            want = _outcome(_reference_decompose, h, v, s, t)
            assert got == want
            if got[0] == "ok":
                assert list(got[1].counts) == list(want[1].counts)
            out["decompose"].append(got)
    return out


@settings(max_examples=60)
@given(data=st.data())
def test_static_host_reads_match_the_per_call_scans(data):
    n = data.draw(st.integers(4, 16))
    a = _three_graph(data, n)
    b = _three_graph(data, data.draw(st.sampled_from((n, n, 4, 16))))
    swap = data.draw(st.integers(0, 2))
    if swap and 0 < a.edge_count < n * (n - 1) * (n - 2) // 6:
        # as many vertices and triples as A, one triple moved
        gone = data.draw(st.sampled_from(a.edges))
        new = data.draw(st.sampled_from(sorted(set(itertools.combinations(range(n), 3)) - set(a.edges))))
        b = ThreeGraph(n, [e for e in a.edges if e != gone] + [new])
    sides = st.sampled_from(SIDES)
    drawn = data.draw(st.lists(st.tuples(sides, sides), max_size=40))
    first = _outcomes(a, drawn)
    _outcomes(b, drawn)
    again = ThreeGraph(a.n, list(reversed(a.edges)))
    assert again == a and again is not a
    assert _outcomes(a, drawn) == first
    assert _outcomes(again, drawn) == first


@settings(max_examples=60)
@given(data=st.data())
def test_find_expansion_on_a_semibipartite_host_and_its_plain_view(data):
    m = data.draw(st.integers(2, 9))
    n = data.draw(st.integers(1, 7))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    density = data.draw(st.sampled_from((0.2, 0.5, 0.8)))
    universe = [(u, v, w) for u, v in itertools.combinations(range(m), 2) for w in range(n)]
    semi = SemibipartiteThreeGraph(m, n, [e for e in universe if rng.random() < density])
    plain = semi.to_three_graph()
    copy = SemibipartiteThreeGraph(m, n, list(semi.edges))
    seen = {}
    # the two views share their combined labels but not their parts
    for host in (semi, plain, semi, copy, plain):
        specs = PARTED_EXPANSIONS if isinstance(host, SemibipartiteThreeGraph) else EXPANSIONS
        for spec in specs:
            got = _outcome(find_expansion, host, spec)
            if got[0] == "ok":
                w = got[1]
                assert verify_expansion_witness(host, spec, w) if w else not _has_copy(host, spec)
            key = (type(host), spec)
            assert seen.setdefault(key, got) == got
