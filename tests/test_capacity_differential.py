"""The part-capacity rule for expansion copies, against full searches.

An expansion F+ adds one apex per core edge; the apexes are distinct and
lie outside the core.  In a semibipartite host every triple has two left
vertices and one right, so a core pair that crosses the parts takes a left
apex and a core pair inside the left part takes a right apex.  Counting
what each placement needs gives the rule computed by `_fits` below:

    ordered      core.m + |E| <= left  and  core.n <= right
    core-in-V1   core.m + core.n <= left  and  |E| <= right
    otherwise    v(F) + |E| <= all host vertices

The rule is necessary for a copy in any host.  It is also sufficient for
the complete host of the same parts, except for unordered placement on a
host with parts (a core may then be forced to cross the parts, and its
apexes to crowd one side), where only the necessary half is claimed.
The searches here never consult the rule: `find_expansion` on a complete
host that fits, the brute force of test_patterns, and the incremental
check `expansion_through_triple` on the host's triples.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_patterns import _brute_expansion
from turanlab.hypergraph import SemibipartiteThreeGraph, ThreeGraph
from turanlab.patterns import (
    PLACEMENTS,
    GraphHost,
    ThreeGraphHost,
    complete_bipartite,
    even_cycle,
    expansion_through_triple,
    find_expansion,
    verify_expansion_witness,
)

CORES = [(f"K{{{s},{t}}}", lambda p, s=s, t=t: complete_bipartite(s, t, True, p))
         for s in range(1, 4) for t in range(1, 4)]
CORES.append(("C6", lambda p: even_cycle(6, True, p)))
SPECS = [make(p) for _, make in CORES for p in PLACEMENTS]
PLAIN_SPECS = [make("unordered") for _, make in CORES]
SIDES = range(1, 7)


def _fits(spec, m, n=None):
    """The counting rule for a host with parts (m, n), or on m vertices
    without parts when n is None."""
    core, edges = spec.core, spec.core.edge_count
    if n is None or spec.placement == "unordered":
        return core.m + core.n + edges <= m + (n or 0)
    if spec.placement == "ordered":
        return core.m + edges <= m and core.n <= n
    return core.m + core.n <= m and edges <= n


def _complete_semibipartite(m, n):
    return SemibipartiteThreeGraph(
        m, n, [(u, v, w) for u, v in itertools.combinations(range(m), 2) for w in range(n)]
    )


def _no_triple_completes_a_copy(h, spec, first_only=False):
    """The solvers' incremental check, asked of every triple of the host
    (of its first triple alone, when the host's automorphisms take that
    triple to any other, as on a complete host)."""
    host = ThreeGraphHost.of(h)
    if isinstance(h, SemibipartiteThreeGraph):
        triples = [(u, v, h.m + w) for u, v, w in h.edges]
    else:
        triples = h.edges
    if first_only:
        triples = triples[:1]
    return not any(expansion_through_triple(host, spec, t) for t in triples)


def _check_complete(h, spec, fits, exact=True):
    got = find_expansion(h, spec)
    if got is not None:
        assert verify_expansion_witness(h, spec, got)
    if fits and exact:
        assert got is not None
    if not fits:
        assert got is None
        assert _no_triple_completes_a_copy(h, spec, first_only=True)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.display_name())
def test_complete_semibipartite_host_holds_a_copy_exactly_when_it_fits(spec):
    for m, n in itertools.product(SIDES, SIDES):
        fits = _fits(spec, m, n)
        _check_complete(_complete_semibipartite(m, n), spec, fits, spec.placement != "unordered")


@pytest.mark.parametrize("spec", PLAIN_SPECS, ids=lambda s: s.display_name())
def test_complete_three_graph_holds_a_copy_exactly_when_it_fits(spec):
    for nv in range(1, 11):
        h = ThreeGraph(nv, list(itertools.combinations(range(nv), 3)))
        _check_complete(h, spec, _fits(spec, nv))


@st.composite
def _excluded_case(draw):
    """A spec and a sparse host whose parts the rule says cannot hold it.
    Where the placement allows, the host has the v(F) + |E| vertices in all
    that counting vertices alone asks for, so the rule is what excludes it."""
    spec = draw(st.sampled_from(SPECS))
    need = spec.vertex_count + spec.core.edge_count
    if spec.placement == "unordered" and need > 3 and draw(st.booleans()):
        nv = draw(st.integers(3, min(need - 1, 8)))
        universe = list(itertools.combinations(range(nv), 3))
        keep = draw(st.lists(st.booleans(), min_size=len(universe), max_size=len(universe)))
        return spec, ThreeGraph(nv, [t for t, k in zip(universe, keep) if k]), (nv,)
    sizes = [(m, n) for m in SIDES for n in SIDES if not _fits(spec, m, n)]
    m, n = draw(st.sampled_from([(m, n) for m, n in sizes if m + n >= need] or sizes))
    universe = [(u, v, w) for u, v in itertools.combinations(range(m), 2) for w in range(n)]
    density = draw(st.sampled_from((0.15, 0.3, 0.5)))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(universe), max_size=len(universe)))
    edges = [t for t, x in zip(universe, keep) if x < density]
    return spec, SemibipartiteThreeGraph(m, n, edges), (m, n)


@settings(max_examples=150)
@given(_excluded_case())
def test_sparse_hosts_hold_no_copy_the_rule_excludes(case):
    spec, h, sides = case
    assert not _fits(spec, *sides)
    assert find_expansion(h, spec) is None
    assert _no_triple_completes_a_copy(h, spec)
    if _fits(spec.with_placement("unordered"), *sides):
        # the brute force needs enough vertices for an injective map to
        # tell it anything
        assert _brute_expansion(h, spec) is None


def test_can_hold_is_the_counting_rule():
    for spec in SPECS:
        for m, n in itertools.product(SIDES, SIDES):
            assert ThreeGraphHost(m, n).can_hold(spec) == _fits(spec, m, n)
    for spec in PLAIN_SPECS:
        for nv in range(1, 13):
            assert ThreeGraphHost(nv).can_hold(spec) == _fits(spec, nv)
    # graph patterns take no apexes
    for (s, t), (m, n) in itertools.product(itertools.product(SIDES, SIDES), repeat=2):
        assert GraphHost(m, n).can_hold(complete_bipartite(s, t, placement="ordered")) == (
            s <= m and t <= n
        )
        assert GraphHost(m, n).can_hold(complete_bipartite(s, t)) == (s + t <= m + n)
        assert GraphHost(m).can_hold(complete_bipartite(s, t)) == (s + t <= m)
