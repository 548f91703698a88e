"""The K{s,t} searches against a brute-force enumeration of their copies.

The reference lists, for every s-subset of the left candidates in
lexicographic order, every t-subset of their common neighborhood in
lexicographic order, testing each adjacency bit on its own.  Every yield of
`iter_kst` is compared, in order, not only the first copy: on one-sided row
masks (rows and columns are different vertex sets, the contract of the
check suites' cross layers) and on symmetric graphs.  The anchored search
of the solver's per-edge checks, `kst_through`, is compared the same way
through an accept test that records each copy it is offered, for K{s,t},
K{1,t} and K{s,1}, on symmetric graphs and on bipartite hosts with one part
mask per side; a second test checks that it stops at the copy accept takes.
`first_kst` must return the reference's first copy: on symmetric graphs
with s == t and equal masks, and on symmetric bipartite rows (``left_adj ==
right_adj``, empty diagonal, the cross layer's shape); and on one-sided
rows, on graphs with masks and sides drawn independently, and on four small
hosts whose copies do not all come in swapped pairs and whose first copy
has a column below its first s-side vertex.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from turanlab.hypergraph import BipartiteGraph, Graph
from turanlab.patterns import first_kst, iter_kst, kst_through


def _bits(mask, width):
    return [b for b in range(width) if mask >> b & 1]


def _reference_kst(adj, s, t, left_mask, right_mask):
    width = max((row.bit_length() for row in adj), default=0)
    for s_side in itertools.combinations(_bits(left_mask, len(adj)), s):
        common = [b for b in _bits(right_mask, width) if all(adj[u] >> b & 1 for u in s_side)]
        for t_side in itertools.combinations(common, t):
            yield s_side, t_side


def _reference_kst_through(adj, s, t, left_mask, right_mask, ha, hb):
    """Copies with ha leading the s-side and hb leading the t-side."""
    n = len(adj)
    others = [v for v in _bits(left_mask, n) if v != ha]
    for rest in itertools.combinations(others, s - 1):
        if not all(adj[hb] >> v & 1 for v in rest):
            continue
        s_side = (ha,) + rest
        common = [
            b for b in _bits(right_mask, n)
            if b != hb and all(adj[u] >> b & 1 for u in s_side)
        ]
        for t_rest in itertools.combinations(common, t - 1):
            yield s_side, (hb,) + t_rest


def _mask(draw, width, allow_all_ones=False):
    """A random subset of range(width), the full set, or (optionally) -1."""
    choices = ["random", "full"] + (["all-ones"] if allow_all_ones else [])
    kind = draw(st.sampled_from(choices))
    if kind == "full":
        return (1 << width) - 1
    if kind == "all-ones":
        return -1
    return draw(st.integers(0, (1 << width) - 1))


def _rows(draw, count, width):
    density = draw(st.sampled_from((0.2, 0.5, 0.8, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    return [sum(1 << b for b in range(width) if rng.random() < density) for _ in range(count)]


def _graph(draw, min_n=1, plant=()):
    n = draw(st.integers(min_n, 11))
    density = draw(st.sampled_from((0.2, 0.5, 0.8, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < density}
    return Graph(n, sorted(edges | set(plant)))


@st.composite
def _one_sided_cases(draw):
    count = draw(st.integers(1, 10))
    width = draw(st.integers(1, 10))
    adj = _rows(draw, count, width)
    s = draw(st.integers(1, 3))
    t = draw(st.integers(1, 4))
    return adj, s, t, _mask(draw, count), _mask(draw, width, allow_all_ones=True)


@st.composite
def _graph_cases(draw):
    g = _graph(draw)
    s = draw(st.integers(1, 3))
    t = draw(st.integers(1, 4))
    return list(g.adj), s, t, _mask(draw, g.n), _mask(draw, g.n, allow_all_ones=True)


@st.composite
def _swap_closed_cases(draw):
    """s == t on a graph with equal masks, or on the rows of a bipartite
    graph whose left and right adjacency agree (a graph's adjacency read
    as a symmetric bipartite one)."""
    g = _graph(draw)
    s = draw(st.integers(1, 3))
    if draw(st.booleans()):
        mask = _mask(draw, g.n)
        return list(g.adj), s, s, mask, mask
    edges = [e for a, b in g.edges for e in ((a, b), (b, a))]
    b = BipartiteGraph(g.n, g.n, edges)
    assert b.left_adj == b.right_adj
    return list(b.left_adj), s, s, (1 << g.n) - 1, -1


@st.composite
def _anchored_cases(draw):
    ha, hb = draw(st.sampled_from(((0, 1), (1, 0))))
    g = _graph(draw, min_n=2, plant=[(0, 1)])
    # relabel so that the anchor is a random edge, not always the pair {0, 1}
    perm = draw(st.permutations(range(g.n)))
    edges = [tuple(sorted((perm[a], perm[b]))) for a, b in g.edges]
    ha, hb = perm[ha], perm[hb]
    shape = draw(st.sampled_from(("K{s,t}", "K{1,t}", "K{s,1}")))
    if shape == "K{1,t}":
        s, t = 1, draw(st.integers(1, 4))
    elif shape == "K{s,1}":
        s, t = draw(st.integers(1, 3)), 1
    else:
        s, t = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    masks = draw(st.sampled_from(("random", "anchor-inside", "parts")))
    if masks == "parts":
        # a bipartite host as the ordered placement sees it: ha's part is
        # the left mask, hb's part the right one, and no edge inside a part
        left_mask = draw(st.integers(0, (1 << g.n) - 1)) | 1 << ha
        left_mask &= ~(1 << hb)
        right_mask = ((1 << g.n) - 1) & ~left_mask
        edges = [(a, b) for a, b in edges if (left_mask >> a & 1) != (left_mask >> b & 1)]
    else:
        left_mask, right_mask = _mask(draw, g.n), _mask(draw, g.n)
        if masks == "anchor-inside":
            # as the solver calls it: the anchor lies inside its part masks
            left_mask |= 1 << ha
            right_mask |= 1 << hb
    return list(Graph(g.n, edges).adj), s, t, left_mask, right_mask, (ha, hb)


@settings(max_examples=400)
@given(_one_sided_cases())
def test_whole_host_kst_on_one_sided_rows_matches_reference(case):
    adj, s, t, left_mask, right_mask = case
    got = list(iter_kst(adj, s, t, left_mask, right_mask))
    assert got == list(_reference_kst(adj, s, t, left_mask, right_mask))


@settings(max_examples=300)
@given(_graph_cases())
def test_whole_host_kst_on_graphs_matches_reference(case):
    adj, s, t, left_mask, right_mask = case
    got = list(iter_kst(adj, s, t, left_mask, right_mask))
    assert got == list(_reference_kst(adj, s, t, left_mask, right_mask))


def _first_of_reference(adj, s, t, left_mask, right_mask):
    return next(_reference_kst(adj, s, t, left_mask, right_mask), None)


@settings(max_examples=400)
@given(_swap_closed_cases())
def test_first_kst_on_swap_closed_hosts_matches_reference(case):
    assert first_kst(*case) == _first_of_reference(*case)


@settings(max_examples=300)
@given(st.one_of(_one_sided_cases(), _graph_cases()))
# each breaks one part of the condition, and its first copy has a column
# below its first s-side vertex: a row that is its own column, a column
# that is not a row, a column whose row lacks the row that has it, s != t
@example(([0b11, 0b11], 1, 1, 0b11, -1))
@example(([0b10, 0b01], 1, 1, 0b10, -1))
@example(([0b00, 0b01], 1, 1, 0b11, -1))
@example(([0b100, 0b100, 0b011], 1, 2, 0b111, -1))
def test_first_kst_on_other_hosts_matches_reference(case):
    assert first_kst(*case) == _first_of_reference(*case)


def _offered(adj, s, t, left_mask, right_mask, anchor, take_at=None):
    """kst_through's result and every copy it offers to accept, in order;
    accept takes the take_at-th copy (1-based) and no other."""
    offered = []

    def accept(s_side, t_side):
        offered.append((s_side, t_side))
        return len(offered) == take_at

    return kst_through(adj, s, t, left_mask, right_mask, anchor, accept), offered


@settings(max_examples=400)
@given(_anchored_cases())
def test_anchored_kst_on_graphs_matches_reference(case):
    adj, s, t, left_mask, right_mask, (ha, hb) = case
    want = list(_reference_kst_through(adj, s, t, left_mask, right_mask, ha, hb))
    assert _offered(adj, s, t, left_mask, right_mask, (ha, hb)) == (False, want)
    assert kst_through(adj, s, t, left_mask, right_mask, (ha, hb)) == bool(want)


@settings(max_examples=200)
@given(_anchored_cases(), st.integers(1, 6))
def test_anchored_kst_stops_at_the_accepted_copy(case, k):
    adj, s, t, left_mask, right_mask, (ha, hb) = case
    want = list(_reference_kst_through(adj, s, t, left_mask, right_mask, ha, hb))
    hit, offered = _offered(adj, s, t, left_mask, right_mask, (ha, hb), take_at=k)
    assert hit == (k <= len(want))
    assert offered == want[:k]
