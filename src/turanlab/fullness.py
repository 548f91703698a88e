"""Degree-floor cleanup for 3-graphs.

A fullness spec lists disjoint groups of vertex subsets (all singletons or
all pairs) with a floor per group.  A 3-graph is full when every listed
subset has degree zero or at least its group's floor.  extract_full removes
offenders: scan groups in order and each group's subsets in lexicographic
order; on finding a subset whose degree lies strictly between zero and the
floor, delete every edge containing it and restart the scan.  A subset's
degree never rises, so each is deleted at most once and at most floor - 1
edges are spent on it, which gives the retained-size guarantee

    |result| >= |input| - sum_j (floor_j - 1) * |group_j|.

Neither function rescans the edges per subset.  is_full counts the degree
of every subset of the spec's size in one pass over the edges, each triple
feeding its three vertices or its three pairs.  extract_full indexes each
listed subset by the set of live triples containing it (its degree is the
set's size) and gives it a scan rank: its group's position, then its own
position in the group.  A min-heap holds the ranks of offenders.  Because
degrees never rise, a subset that becomes an offender stays one until its
degree reaches zero, and it enters the heap once, when it first falls
below its floor.  So the smallest rank in the heap whose degree is not yet
zero is exactly the first offender the restarted scan would find, and
popping it (dropping ranks whose degree has reached zero) deletes the same
subsets in the same order.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

from .errors import InvariantViolationError
from .hypergraph import ThreeGraph


@dataclass(frozen=True)
class FullnessGroup:
    elements: tuple[tuple[int, ...], ...]
    floor: int


@dataclass(frozen=True)
class FullnessSpec:
    groups: tuple[FullnessGroup, ...]
    subset_size: int

    def __post_init__(self):
        if self.subset_size not in (1, 2):
            raise ValueError("subset size must be 1 or 2 for 3-graphs")
        seen = set()
        for g in self.groups:
            if g.floor < 1:
                raise ValueError("floors must be >= 1")
            for e in g.elements:
                if len(e) != self.subset_size:
                    raise ValueError(f"subset {e} has the wrong size")
                if tuple(sorted(e)) != e or len(set(e)) != len(e):
                    raise ValueError(f"subset {e} must be sorted and distinct")
                if e[0] < 0:
                    raise ValueError(f"subset {e} has a negative vertex")
                if e in seen:
                    raise ValueError(f"subset {e} appears in two groups")
                seen.add(e)

    def deletion_budget(self) -> int:
        return sum((g.floor - 1) * len(g.elements) for g in self.groups)


def vertex_spec(n: int, floor: int) -> FullnessSpec:
    """One group holding every vertex."""
    return FullnessSpec((FullnessGroup(tuple((v,) for v in range(n)), floor),), 1)


def pair_spec(n: int, floor: int) -> FullnessSpec:
    """One group holding every vertex pair."""
    elements = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    return FullnessSpec((FullnessGroup(elements, floor),), 2)


@dataclass(frozen=True)
class FullnessResult:
    hypergraph: ThreeGraph
    deleted_elements: tuple[tuple[int, tuple[int, ...]], ...]
    deleted_edges: int
    lower_bound: int


def _subsets(t: tuple[int, int, int], size: int) -> tuple[tuple[int, ...], ...]:
    """The three vertices (size 1) or the three pairs (size 2) of a triple."""
    a, b, c = t
    return ((a,), (b,), (c,)) if size == 1 else ((a, b), (a, c), (b, c))


def is_full(h: ThreeGraph, spec: FullnessSpec) -> bool:
    deg = Counter(s for t in h.edges for s in _subsets(t, spec.subset_size))
    return not any(0 < deg[e] < g.floor for g in spec.groups for e in g.elements)


def extract_full(h: ThreeGraph, spec: FullnessSpec) -> FullnessResult:
    """Delete offenders in the order of the scan-and-restart definition."""
    for g in spec.groups:
        for e in g.elements:
            if e[-1] >= h.n:
                raise ValueError(f"subset {e} outside the vertex range")
    size = spec.subset_size
    order = [(gi, e, g.floor) for gi, g in enumerate(spec.groups) for e in g.elements]
    rank = {e: r for r, (_, e, _) in enumerate(order)}
    holders: dict[tuple[int, ...], set] = {e: set() for e in rank}
    for t in h.edges:
        for s in _subsets(t, size):
            if s in holders:
                holders[s].add(t)
    # ascending ranks already form a heap
    heap = [r for r, (_, e, floor) in enumerate(order) if 0 < len(holders[e]) < floor]

    alive = set(h.edges)
    deleted_elements = []
    deleted_edges = 0
    while heap:
        gi, e, _ = order[heapq.heappop(heap)]
        doomed = holders[e]
        if not doomed:
            continue
        deleted_elements.append((gi, e))
        deleted_edges += len(doomed)
        for t in list(doomed):
            alive.remove(t)
            for s in _subsets(t, size):
                held = holders.get(s)
                if held is not None:
                    held.remove(t)
                    r = rank[s]
                    # pushed once: when the degree first falls below the floor
                    if 0 < len(held) == order[r][2] - 1:
                        heapq.heappush(heap, r)

    result = ThreeGraph(h.n, sorted(alive))
    if not is_full(result, spec):
        raise InvariantViolationError("extraction left an unfull subset")
    lower = len(h.edges) - spec.deletion_budget()
    if len(result.edges) < lower:
        raise InvariantViolationError("retained-size guarantee violated")
    return FullnessResult(result, tuple(deleted_elements), deleted_edges, lower)
