"""Fullness extraction: frozen hand cases, a replayed random audit, and a
differential test against the scan-and-restart definition."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turanlab.fullness import (
    FullnessGroup,
    FullnessResult,
    FullnessSpec,
    extract_full,
    is_full,
    pair_spec,
    vertex_spec,
)
from turanlab.hypergraph import ThreeGraph


def test_star_collapses_under_vertex_floor_two():
    h = ThreeGraph(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    res = extract_full(h, vertex_spec(5, 2))
    assert res.hypergraph.edges == ()
    # after vertices 2 and 3 lose their edges, vertex 0 reaches degree 1
    # and the restarted scan hits it before vertex 4
    assert res.deleted_elements == ((0, (2,)), (0, (3,)), (0, (0,)))
    assert res.deleted_edges == 3
    assert res.lower_bound == 3 - 5


def test_floor_one_deletes_nothing():
    h = ThreeGraph(6, [(0, 1, 2), (3, 4, 5), (0, 3, 5)])
    res = extract_full(h, vertex_spec(6, 1))
    assert res.hypergraph.edges == h.edges
    assert res.deleted_elements == ()


def test_pair_floor_cascade():
    h = ThreeGraph(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    res = extract_full(h, pair_spec(5, 2))
    assert res.hypergraph.edges == ()
    assert res.deleted_edges == 3
    assert res.deleted_elements[0] == (0, (0, 2))


def test_complete_already_full():
    h = ThreeGraph(5, list(itertools.combinations(range(5), 3)))
    res = extract_full(h, vertex_spec(5, 4))
    assert res.hypergraph.edges == h.edges
    res = extract_full(h, pair_spec(5, 3))
    assert res.hypergraph.edges == h.edges


def test_complete_collapses_under_high_floor():
    h = ThreeGraph(5, list(itertools.combinations(range(5), 3)))
    res = extract_full(h, vertex_spec(5, 7))
    assert res.hypergraph.edges == ()
    assert res.deleted_elements[0] == (0, (0,))


def test_two_groups_scan_order():
    # group 0 (floor 3) is scanned before group 1 (floor 2)
    h = ThreeGraph(6, [(0, 1, 2), (0, 1, 3), (2, 3, 4), (2, 3, 5)])
    spec = FullnessSpec(
        (
            FullnessGroup(((0, 1), (2, 3)), 3),
            FullnessGroup(((0, 2), (0, 3)), 2),
        ),
        2,
    )
    res = extract_full(h, spec)
    assert res.deleted_elements[0] == (0, (0, 1))
    assert is_full(res.hypergraph, spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        FullnessSpec((FullnessGroup(((0, 1),), 0),), 2)
    with pytest.raises(ValueError):
        FullnessSpec((FullnessGroup(((1, 0),), 2),), 2)
    with pytest.raises(ValueError):
        FullnessSpec((FullnessGroup(((0,), (0,)), 2),), 1)
    with pytest.raises(ValueError):
        FullnessSpec(
            (FullnessGroup(((0, 1),), 2), FullnessGroup(((0, 1),), 3)), 2
        )
    with pytest.raises(ValueError):
        FullnessSpec((FullnessGroup(((0, 1),), 2),), 3)
    with pytest.raises(ValueError, match=r"\(-1,\)"):
        FullnessSpec((FullnessGroup(((-1,), (0,)), 2),), 1)
    with pytest.raises(ValueError, match=r"\(-2, 3\)"):
        FullnessSpec((FullnessGroup(((-2, 3),), 2),), 2)
    with pytest.raises(ValueError):
        extract_full(ThreeGraph(3, []), vertex_spec(5, 2))


def _replay_check(h, spec, res):
    """Re-run the deletions independently and verify each was justified."""
    alive = set(h.edges)
    for gi, e in res.deleted_elements:
        group = spec.groups[gi]
        assert e in group.elements
        d = sum(1 for t in alive if set(e) <= set(t))
        assert 0 < d < group.floor
        alive = {t for t in alive if not set(e) <= set(t)}
    assert set(res.hypergraph.edges) == alive


def test_random_audit():
    rng = random.Random(23)
    for trial in range(50):
        n = rng.randint(4, 10)
        p = rng.uniform(0.05, 0.5)
        edges = [t for t in itertools.combinations(range(n), 3) if rng.random() < p]
        h = ThreeGraph(n, edges)
        if trial % 2:
            size = 1
            pool = [(v,) for v in range(n)]
        else:
            size = 2
            pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pool)
        k = rng.randint(1, 3)
        groups = []
        chunk = max(1, len(pool) // k)
        for j in range(k):
            part = tuple(sorted(pool[j * chunk : (j + 1) * chunk]))
            if part:
                groups.append(FullnessGroup(part, rng.randint(1, 4)))
        spec = FullnessSpec(tuple(groups), size)
        res = extract_full(h, spec)
        assert is_full(res.hypergraph, spec)
        assert len(res.hypergraph.edges) >= res.lower_bound
        assert set(res.hypergraph.edges) <= set(h.edges)
        assert len(set(res.deleted_elements)) == len(res.deleted_elements)
        _replay_check(h, spec, res)


def _contains(edge, subset):
    return all(x in edge for x in subset)


def _reference_is_full(h, spec):
    """Fullness by definition: every listed subset's degree, one edge scan each."""
    for g in spec.groups:
        for e in g.elements:
            d = sum(1 for t in h.edges if _contains(t, e))
            if 0 < d < g.floor:
                return False
    return True


def _reference_extract_full(h, spec):
    """The scan-and-restart deletion, as the fullness module defines it."""
    alive = set(h.edges)
    deg = {e: sum(1 for t in alive if _contains(t, e)) for g in spec.groups for e in g.elements}
    deleted_elements = []
    deleted_edges = 0
    changed = True
    while changed:
        changed = False
        for gi, g in enumerate(spec.groups):
            for e in g.elements:
                if 0 < deg[e] < g.floor:
                    doomed = [t for t in alive if _contains(t, e)]
                    for t in doomed:
                        alive.remove(t)
                        for e2 in deg:
                            if _contains(t, e2):
                                deg[e2] -= 1
                    deleted_elements.append((gi, e))
                    deleted_edges += len(doomed)
                    changed = True
                    break
            if changed:
                break
    lower = len(h.edges) - spec.deletion_budget()
    return FullnessResult(
        ThreeGraph(h.n, sorted(alive)), tuple(deleted_elements), deleted_edges, lower
    )


def test_later_group_deletion_sends_the_scan_back_to_group_zero():
    # deleting vertex 3 (group 1) drops vertex 0 (group 0) to degree 1, so the
    # next deletion is vertex 0, before vertex 5 further along group 1
    h = ThreeGraph(6, [(0, 1, 2), (0, 3, 4), (1, 2, 5)])
    spec = FullnessSpec((FullnessGroup(((0,),), 2), FullnessGroup(((3,), (5,)), 2)), 1)
    res = extract_full(h, spec)
    assert res.deleted_elements == ((1, (3,)), (0, (0,)), (1, (5,)))
    assert res.hypergraph.edges == ()
    assert res == _reference_extract_full(h, spec)


def test_a_pair_past_the_host_reads_as_degree_zero():
    # pair (0, 7) lies past n = 5; read as a table index 0 * 5 + 7 it would
    # alias pair (1, 2), whose degree is 1, below the floor
    h = ThreeGraph(5, [(1, 2, 3)])
    spec = FullnessSpec((FullnessGroup(((0, 7),), 2),), 2)
    assert _reference_is_full(h, spec)
    assert is_full(h, spec)
    with pytest.raises(ValueError, match="outside the vertex range"):
        extract_full(h, spec)


@settings(max_examples=150)
@given(data=st.data())
def test_subsets_past_the_host_match_the_definition(data):
    n = data.draw(st.integers(3, 7))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    h = ThreeGraph(n, [t for t in itertools.combinations(range(n), 3) if rng.random() < 0.5])
    size = data.draw(st.sampled_from((1, 2)))
    pool = list(itertools.combinations(range(2 * n + 2), size))
    listed = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
    floor = data.draw(st.integers(1, 4))
    spec = FullnessSpec((FullnessGroup(tuple(sorted(listed)), floor),), size)
    assert is_full(h, spec) == _reference_is_full(h, spec)
    if max(e[-1] for e in listed) >= n:
        with pytest.raises(ValueError, match="outside the vertex range"):
            extract_full(h, spec)


@st.composite
def _hosts_and_specs(draw):
    """A random 3-graph on up to 12 vertices and a vertex or pair spec of 1-3
    groups with mixed floors, listing all or only some of the subsets."""
    n = draw(st.integers(3, 12))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from((0.1, 0.25, 0.4, 0.6, 0.85)))
    h = ThreeGraph(
        n, [t for t in itertools.combinations(range(n), 3) if rng.random() < density]
    )
    size = draw(st.sampled_from((1, 2)))
    pool = list(itertools.combinations(range(n), size))
    k = draw(st.integers(1, 3))
    # -1 leaves a subset unlisted
    owner = draw(st.lists(st.integers(-1, k - 1), min_size=len(pool), max_size=len(pool)))
    top = (n - 1) * (n - 2) // 2 if size == 1 else n - 2
    groups = []
    for j in range(k):
        part = tuple(e for e, o in zip(pool, owner) if o == j)
        if part:
            groups.append(FullnessGroup(part, draw(st.integers(1, top + 2))))
    return h, FullnessSpec(tuple(groups), size)


@settings(max_examples=300)
@given(_hosts_and_specs())
def test_extract_full_and_is_full_match_the_definition(case):
    h, spec = case
    assert is_full(h, spec) == _reference_is_full(h, spec)
    res = extract_full(h, spec)
    ref = _reference_extract_full(h, spec)
    assert res.hypergraph == ref.hypergraph
    assert res.deleted_elements == ref.deleted_elements
    assert res.deleted_edges == ref.deleted_edges
    assert res.lower_bound == ref.lower_bound
    assert is_full(res.hypergraph, spec) and _reference_is_full(res.hypergraph, spec)
