"""`iter_kst` against a brute-force enumeration of K{s,t} copies.

The reference lists, for every s-subset of the left candidates in
lexicographic order, every t-subset of their common neighborhood in
lexicographic order, testing each adjacency bit on its own.  Every yield of
`iter_kst` is compared, in order, not only the first copy: the whole-host
mode on one-sided row masks (rows and columns are different vertex sets,
the contract of the check suites' cross layers) and on symmetric graphs,
and the anchored mode of the solver's per-edge checks on symmetric graphs.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from turanlab.hypergraph import Graph
from turanlab.patterns import iter_kst


def _settings(examples):
    return settings(
        max_examples=examples,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )


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
def _anchored_cases(draw):
    ha, hb = draw(st.sampled_from(((0, 1), (1, 0))))
    g = _graph(draw, min_n=2, plant=[(0, 1)])
    # relabel so that the anchor is a random edge, not always the pair {0, 1}
    perm = draw(st.permutations(range(g.n)))
    g = Graph(g.n, [tuple(sorted((perm[a], perm[b]))) for a, b in g.edges])
    ha, hb = perm[ha], perm[hb]
    s = draw(st.integers(1, 3))
    t = draw(st.integers(1, 4))
    left_mask, right_mask = _mask(draw, g.n), _mask(draw, g.n)
    if draw(st.booleans()):
        # as the solver calls it: the anchor lies inside its part masks
        left_mask |= 1 << ha
        right_mask |= 1 << hb
    return list(g.adj), s, t, left_mask, right_mask, (ha, hb)


@_settings(400)
@given(_one_sided_cases())
def test_whole_host_kst_on_one_sided_rows_matches_reference(case):
    adj, s, t, left_mask, right_mask = case
    got = list(iter_kst(adj, s, t, left_mask, right_mask))
    assert got == list(_reference_kst(adj, s, t, left_mask, right_mask))


@_settings(300)
@given(_graph_cases())
def test_whole_host_kst_on_graphs_matches_reference(case):
    adj, s, t, left_mask, right_mask = case
    got = list(iter_kst(adj, s, t, left_mask, right_mask))
    assert got == list(_reference_kst(adj, s, t, left_mask, right_mask))


@_settings(300)
@given(_anchored_cases())
def test_anchored_kst_on_graphs_matches_reference(case):
    adj, s, t, left_mask, right_mask, (ha, hb) = case
    got = list(iter_kst(adj, s, t, left_mask, right_mask, (ha, hb)))
    assert got == list(_reference_kst_through(adj, s, t, left_mask, right_mask, ha, hb))
