"""Witness verifiers against the set-based rule they replace, on all four host kinds.

The verifiers look each required edge up by bisection in the host's sorted
edge tuple.  The reference below is the earlier rule: build the host's edge
set in combined labels (right part shifted by m on hosts with parts) and
test membership.  Hypothesis draws small hosts, patterns with every
placement, and candidate witnesses whose core maps often put vertices on
the wrong side, repeat a vertex or leave the host; about half the examples
plant the candidate's edges wherever the host kind can hold them, so both
answers occur.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turanlab.hypergraph import BipartiteGraph, Graph, SemibipartiteThreeGraph, ThreeGraph
from turanlab.patterns import (
    EmbeddingWitness,
    ExpansionWitness,
    PatternSpec,
    complete_bipartite,
    even_cycle,
    verify_bipartite_witness,
    verify_expansion_witness,
    verify_graph_witness,
)

CORES = [
    complete_bipartite(1, 1).core,
    complete_bipartite(1, 2).core,
    complete_bipartite(2, 2).core,
    even_cycle(4).core,
    BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)]),  # path on four vertices
    BipartiteGraph(1, 1, []),  # no edges: the core map's fit alone decides
]


def _reference_holds(h, spec, core_map, core_edges, apexes=()) -> bool:
    if isinstance(h, (Graph, ThreeGraph)):
        left = right = range(h.n)
        edges = set(h.edges)
    else:
        left, right = range(h.m), range(h.m, h.m + h.n)
        edges = {(*e[:-1], h.m + e[-1]) for e in h.edges}
    m = spec.core.m
    if len(core_map) != m + spec.core.n or len(set(core_map)) != len(core_map):
        return False
    if not all(v in left or v in right for v in core_map):
        return False
    if spec.placement == "ordered" and not (
        all(v in left for v in core_map[:m]) and all(v in right for v in core_map[m:])
    ):
        return False
    if spec.placement == "core-in-V1" and not all(v in left for v in core_map):
        return False
    return all(
        tuple(sorted((core_map[a], core_map[b], *apexes[i : i + 1]))) in edges
        for i, (a, b) in enumerate(core_edges)
    )


def _combined(spec):
    return tuple((a, spec.core.m + b) for a, b in spec.core.edges)


def _reference_expansion(h, spec, w) -> bool:
    core_edges = _combined(spec)
    if len(w.apexes) != len(core_edges) or sorted(w.core_edges) != sorted(core_edges):
        return False
    if len(set(w.apexes)) != len(w.apexes) or set(w.apexes) & set(w.core_map):
        return False
    return _reference_holds(h, spec, w.core_map, w.core_edges, w.apexes)


def _labels(data, count, size):
    """`count` host labels out of `size`: usually distinct, sometimes any
    labels at all, repeats and out-of-range ones included."""
    if data.draw(st.integers(0, 3)):
        return tuple(data.draw(st.permutations(range(size)))[:count])
    return tuple(data.draw(st.lists(st.integers(-1, size), min_size=count, max_size=count)))


def _native(kind, m, n, combined):
    """The host edge a sorted combined-label edge names, or None."""
    if kind in ("graph", "3graph"):
        ok = len(set(combined)) == len(combined) and all(0 <= v < n for v in combined)
        return combined if ok else None
    *lefts, last = combined
    ok = (len(set(lefts)) == len(lefts) and all(0 <= v < m for v in lefts)
          and m <= last < m + n)
    return (*lefts, last - m) if ok else None


def _universe(kind, m, n):
    if kind == "graph":
        return list(itertools.combinations(range(n), 2))
    if kind == "3graph":
        return list(itertools.combinations(range(n), 3))
    if kind == "bipartite":
        return list(itertools.product(range(m), range(n)))
    return [(u, v, w) for u, v in itertools.combinations(range(m), 2) for w in range(n)]


HOSTS = {"graph": Graph, "3graph": ThreeGraph}
PARTED = {"bipartite": BipartiteGraph, "semibipartite": SemibipartiteThreeGraph}


@pytest.mark.parametrize("kind", ["graph", "bipartite", "3graph", "semibipartite"])
@settings(max_examples=300)
@given(data=st.data())
def test_verifiers_match_the_set_rule(kind, data):
    rank3 = kind in ("3graph", "semibipartite")
    core = data.draw(st.sampled_from(CORES))
    k = core.m + core.n
    # usually room for every label of the witness, sometimes not
    room = data.draw(st.integers(0, 2)) > 0
    if kind in PARTED:
        # core pairs and apexes, or the two core parts, fit on their sides
        left, right = (k, core.edge_count) if rank3 else (core.m, core.n)
        m = data.draw(st.integers(left * room, 6))
        n = data.draw(st.integers(right * room, 5))
    else:
        m, n = 0, data.draw(st.integers((k + core.edge_count * rank3) * room, 9))
    size = m + n if kind in PARTED else n
    placements = ("unordered", "ordered", "core-in-V1") if rank3 else ("unordered", "ordered")
    spec = PatternSpec(core, rank3, data.draw(st.sampled_from(placements)))

    core_edges = _combined(spec)
    if rank3 and data.draw(st.booleans()):
        core_edges = tuple(data.draw(st.permutations(core_edges)))
    # rank 3: the apexes follow the core map, now and then one short
    count = k + (len(core_edges) - (data.draw(st.integers(0, 4)) == 0)) * rank3
    if kind in PARTED and data.draw(st.booleans()):
        # the sides an edge needs: core parts in order, or core pairs left and apexes right
        lefts = data.draw(st.permutations(range(m)))
        rights = data.draw(st.permutations(range(m, size)))
        split = k if rank3 else core.m
        labels = tuple(lefts[:split] + rights[: count - split])
    else:
        labels = _labels(data, count, size)
    core_map, apexes = labels[:k], labels[k:]

    universe = _universe(kind, m, n)
    edges = data.draw(st.sets(st.sampled_from(universe))) if universe else set()
    if data.draw(st.booleans()):
        for i, (a, b) in enumerate(core_edges):
            if max(a, b) < len(core_map):
                e = _native(kind, m, n, tuple(sorted((core_map[a], core_map[b], *apexes[i : i + 1]))))
                if e is not None and len(e) == (3 if rank3 else 2):
                    edges.add(e)
    h = HOSTS[kind](n, edges) if kind in HOSTS else PARTED[kind](m, n, edges)

    if kind == "graph":
        w = EmbeddingWitness(core_map)
        assert verify_graph_witness(h, spec, w) == _reference_holds(h, spec, core_map, core_edges)
    elif kind == "bipartite":
        w = EmbeddingWitness(core_map)
        assert verify_bipartite_witness(h, spec, w) == _reference_holds(h, spec, core_map, core_edges)
    else:
        w = ExpansionWitness(core_map, core_edges, apexes)
        assert verify_expansion_witness(h, spec, w) == _reference_expansion(h, spec, w)


def test_empty_left_part_holds_no_ordered_core():
    spec = PatternSpec(BipartiteGraph(1, 1, []), False, "ordered")
    host = BipartiteGraph(0, 2, [])
    w = EmbeddingWitness((0, 1))
    assert verify_bipartite_witness(host, spec, w) is _reference_holds(host, spec, (0, 1), ()) is False
    assert verify_bipartite_witness(host, spec.with_placement("unordered"), w)
