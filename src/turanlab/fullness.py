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

Neither function rescans the edges per subset.  A subset inside the host
has a dense id, the vertex itself or a * n + b for a pair a < b < n, and
one pass over the triples fills a flat list of degrees; a listed subset
past the host has degree zero.  extract_full ranks the listed subsets in
scan order and keeps the ranks of offenders in a min-heap.  Degrees never
rise, so an offender stays one until its degree is zero and enters the
heap once, when it first falls below its floor: the smallest live rank in
the heap is the first offender the restarted scan would find.  Only a
non-empty heap makes each id list its triples' indices and each triple
carry an alive flag; the kept host is h.edges filtered in order.
"""

from __future__ import annotations

import heapq
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


def _tables(h: ThreeGraph, spec: FullnessSpec) -> tuple[list, list[int], list]:
    """Triple ids, id degrees, and (group, subset, id, floor) per listed subset in the host."""
    n, size = h.n, spec.subset_size
    ids = h.edges if size == 1 else [(a * n + b, a * n + c, b * n + c) for a, b, c in h.edges]
    deg = [0] * n**size
    for x, y, z in ids:
        deg[x] += 1
        deg[y] += 1
        deg[z] += 1
    return ids, deg, [(gi, e, e[0] * n + e[1] if size == 2 else e[0], g.floor)
                      for gi, g in enumerate(spec.groups) for e in g.elements if e[-1] < n]


def is_full(h: ThreeGraph, spec: FullnessSpec) -> bool:
    _, deg, listed = _tables(h, spec)  # a subset past the host has degree zero
    return not any(0 < deg[x] < floor for _, _, x, floor in listed)


def extract_full(h: ThreeGraph, spec: FullnessSpec) -> FullnessResult:
    """Delete offenders in the order of the scan-and-restart definition."""
    outside = [e for g in spec.groups for e in g.elements if e[-1] >= h.n]
    if outside:
        raise ValueError(f"subset {outside[0]} outside the vertex range")
    ids, deg, order = _tables(h, spec)
    rank, floor = [0] * len(deg), [0] * len(deg)  # an unlisted id has floor 0
    for r, (_, _, x, f) in enumerate(order):
        rank[x], floor[x] = r, f
    # ascending ranks already form a heap
    heap = [r for r, (_, _, x, f) in enumerate(order) if 0 < deg[x] < f]

    edges, deleted_elements = h.edges, []
    if heap:
        holders = [[] for _ in deg]  # each id's triples, by index
        for i, t in enumerate(ids):
            for x in t:
                holders[x].append(i)
        alive = [True] * len(edges)
        while heap:
            gi, e, x, _ = order[heapq.heappop(heap)]
            if not deg[x]:
                continue
            deleted_elements.append((gi, e))
            for i in holders[x]:
                if alive[i]:
                    alive[i] = False
                    for y in ids[i]:
                        deg[y] -= 1
                        # pushed once: when the degree first falls below the floor
                        if 0 < deg[y] == floor[y] - 1:
                            heapq.heappush(heap, rank[y])
        edges = [t for t, kept in zip(edges, alive) if kept]

    result = ThreeGraph(h.n, edges)
    if not is_full(result, spec):
        raise InvariantViolationError("extraction left an unfull subset")
    lower = len(h.edges) - spec.deletion_budget()
    if len(result.edges) < lower:
        raise InvariantViolationError("retained-size guarantee violated")
    return FullnessResult(result, tuple(deleted_elements), len(h.edges) - len(edges), lower)
