"""Algebraic extremal constructions over finite fields.

The norm graph on F_{q^(s-1)} x F_q^* joins (X, x) and (Y, y) when
N(X + Y) = x * y, with N the norm into F_q.  Vertices are numbered
idx(X) * (q - 1) + idx(x) - 1, so the layout is reproducible across runs.
Adjacency is enumerated through the unique-partner rule: fixing (X, x) and
Y != -X forces y = N(X + Y) / x, so each vertex is examined against only
q^(s-1) - 1 candidates instead of all vertex pairs.  All field arithmetic
runs on canonical indices through the cached tables of turanlab.ff: per X,
one row of sums X + Y read through the norm-index table, then one quotient
table per x, so no FieldElement is built.

The bipartite variant keeps two disjoint copies of the vertex set and joins
left (X, x) to right (Y, y) under the same equation for (X, x) != (Y, y);
the diagonal N(2X) = x^2 cases stay non-edges just as loops do, so its edge
count is exactly twice the plain graph's.

The composed 3-graph overlays two layers on a common index set of size
n = max(q^s1 - q^(s1-1), qt^s2 - qt^(s2-1)) where q = p^s2 and qt = p^s1:
a norm graph on (qt, s2) inside the left part and a bipartite norm graph on
(q, s1) across the parts.  Its triples are the cross-layer triangles: one
layer edge {u, v} plus a common cross-neighbor w.  Whichever layer is
smaller is padded with isolated vertices.

The norm graph has many automorphisms, and `norm_graph_symmetries` lists
generators of some of them as vertex permutations: the scaling
(X, x) -> (lam X, mu x) with mu^2 = N(lam), since N is multiplicative; in
characteristic 2 the translation (X, x) -> (X + 1, x), since the sum X + Y
does not change; and in odd characteristic the Frobenius
(X, x) -> (X^p, x^p), since N commutes with it.  The check suites search the layers for K{s,t} from one vertex
per orbit of these maps, after checking each map on the graph itself.

Hard caps: p^k <= 2^20 per field (enforced by turanlab.ff), q^s <= 2^22
per construction, and at most 2^21 edges or triples per built object;
beyond them CapExceededError is raised.  The edge count is known before
any edge is built: each vertex has q^(s-1) - 1 partners, one per Y != -X,
so a norm graph holds at most n * (q^(s-1) - 1) / 2 edges and its
bipartite variant at most twice that.  The composed 3-graph is refused
before either layer is built: first by each layer's own cap, then when the
layer's edge bound times the cross layer's degree bound q^(s1-1) - 1, an
upper bound on its triples, exceeds the cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import CapExceededError, InvariantViolationError
from .ff import field_tables, is_prime, norm_indices, prime_power_decompose
from .hypergraph import BipartiteGraph, Graph, SemibipartiteThreeGraph
from .patterns import PatternSpec, iter_graph_embeddings

MAX_CONSTRUCTION_ORDER = 1 << 22
# edges of a norm-graph layer, or triples of the composed 3-graph (about
# 200 bytes each once built)
MAX_CONSTRUCTION_EDGES = 1 << 21
MAX_DELETION_VERTICES = 1 << 10


def _validate_construction(q: int, s: int) -> tuple[int, int]:
    p, k = prime_power_decompose(q)
    if s < 2:
        raise ValueError("need s >= 2")
    if q**s > MAX_CONSTRUCTION_ORDER:
        raise CapExceededError(f"q^s = {q**s} exceeds {MAX_CONSTRUCTION_ORDER}")
    return p, k


def _capped_size(what: str, count: int) -> None:
    if count > MAX_CONSTRUCTION_EDGES:
        raise CapExceededError(f"{what} would hold {count} edges; capped at {MAX_CONSTRUCTION_EDGES}")


def _norm_order(q: int, s: int, sides: int) -> int:
    """Vertex count of the norm graph on (q, s), refused before any edge is
    built when its `sides` copies (1 plain, 2 bipartite) exceed the edge cap."""
    _validate_construction(q, s)
    n = q ** (s - 1) * (q - 1)
    name = "norm graph" if sides == 1 else "bipartite norm graph"
    _capped_size(f"{name} ({q}, {s})", n * (q ** (s - 1) - 1) * sides // 2)
    return n


def vertex_id(q: int, big_idx: int, small_idx: int) -> int:
    """Vertex number of (X, x) with X given by big-field idx, x by F_q idx >= 1."""
    if small_idx < 1:
        raise ValueError("second coordinate must be a nonzero field element")
    return big_idx * (q - 1) + small_idx - 1


def vertex_coords(q: int, v: int) -> tuple[int, int]:
    """Inverse of vertex_id."""
    return v // (q - 1), v % (q - 1) + 1


def _norm_partners(q: int, s: int):
    """Yield (u, v) over all vertices u and their unique partner per Y."""
    p, k = prime_power_decompose(q)
    big = field_tables(p, k * (s - 1))
    sub = field_tables(p, k)
    norms = norm_indices(q, s)
    # partner[a - 1][n]: vertex number of (Y, n / a), less Y's offset yi * (q - 1)
    partner = [[sub.div(n, a) - 1 for n in range(q)] for a in range(1, q)]
    for xi in range(big.order):
        neg_xi = big.neg(xi)
        # N(X + Y) by idx of Y
        row = [norms[z] for z in big.add_row(xi)]
        for a in range(1, q):
            u = vertex_id(q, xi, a)
            quot = partner[a - 1]
            for yi in range(big.order):
                if yi == neg_xi:
                    continue
                yield u, yi * (q - 1) + quot[row[yi]]


def norm_graph(q: int, s: int) -> Graph:
    """The norm graph on q^(s-1) * (q-1) vertices (loops dropped)."""
    n = _norm_order(q, s, 1)
    edges = [(u, v) for u, v in _norm_partners(q, s) if u < v]
    return Graph(n, edges)


def bipartite_norm_graph(q: int, s: int) -> BipartiteGraph:
    """Two copies of the norm-graph vertex set joined by the same equation,
    restricted to distinct labels (the diagonal is never an edge)."""
    n = _norm_order(q, s, 2)
    return BipartiteGraph(n, n, [(u, v) for u, v in _norm_partners(q, s) if u != v])


def norm_graph_symmetries(q: int, s: int) -> tuple[tuple[int, ...], ...]:
    """Generators of a group of automorphisms of `norm_graph(q, s)`, each a
    permutation of the vertex numbering; each acts on both sides of
    `bipartite_norm_graph(q, s)` alike.  Identity maps are left out.

    - Scaling (X, x) -> (lam X, mu x) with mu^2 = N(lam):
      N(lam X + lam Y) = N(lam) N(X + Y) = (mu x)(mu y).  lam is the
      primitive element g when N(g) is a square in F_q (always for even q),
      else lam = g^2 with mu = N(g).
    - In characteristic 2, translation (X, x) -> (X + 1, x):
      (X + 1) + (Y + 1) = X + Y.
    - For odd q, Frobenius (X, x) -> (X^p, x^p):
      N(X^p + Y^p) = N(X + Y)^p = x^p y^p.

    Each map is a bijection, so the bipartite variant's excluded diagonal
    (X, x) = (Y, y) stays excluded.  For even q, scaling and translation
    already act transitively on the vertices (they reach every
    (lam X + b, mu x)), so the Frobenius would merge no orbits and is left
    out; for odd q the maps leave several orbits.  The callers do not rely
    on any of this: `patterns.first_kst` checks every map against the
    graph it is given before it uses the orbits.
    """
    p, k = _validate_construction(q, s)
    big = field_tables(p, k * (s - 1))
    sub = field_tables(p, k)
    norms = norm_indices(q, s)
    g = big.exp[1]
    mu = next((m for m in range(1, q) if sub.mul(m, m) == norms[g]), None)
    lam = g
    if mu is None:
        lam, mu = big.mul(g, g), norms[g]

    def frobenius(t):
        return [0] + [t.exp[p * t.log[x] % (t.order - 1)] for x in range(1, t.order)]

    # each map as (image of every X, image of every x), by field index
    maps = [([big.mul(lam, X) for X in range(big.order)], [sub.mul(mu, x) for x in range(q)])]
    if p == 2:
        maps.append(([X ^ 1 for X in range(big.order)], list(range(q))))
    else:
        maps.append((frobenius(big), frobenius(sub)))
    identity = tuple(range(q ** (s - 1) * (q - 1)))
    gens = []
    for big_map, sub_map in maps:
        sigma = tuple(
            vertex_id(q, big_map[X], sub_map[x]) for X in range(big.order) for x in range(1, q)
        )
        if sigma != identity:
            gens.append(sigma)
    return tuple(gens)


def norm_ratio_count(q: int, s: int, x_idx: int, y_idx: int, lam_idx: int) -> int:
    """Number of Z with N(X + Z) = lam * N(Y + Z), for X != Y, lam != 0.

    The two excluded points Z = -X and Z = -Y never satisfy the equation
    (one side vanishes, the other does not), so plain enumeration suffices.
    The count is checked against the q^(s-2) floor before returning.
    """
    p, k = _validate_construction(q, s)
    if s < 3:
        raise ValueError("ratio counts need s >= 3")
    big = field_tables(p, k * (s - 1))
    sub = field_tables(p, k)
    if x_idx == y_idx:
        raise ValueError("need two distinct first coordinates")
    if not 1 <= lam_idx < q:
        raise ValueError("ratio must be a nonzero element of the small field")
    for idx in (x_idx, y_idx):
        if not 0 <= idx < big.order:
            raise ValueError(f"index {idx} out of range for order {big.order}")
    norms = norm_indices(q, s)
    scaled = [sub.mul(lam_idx, n) for n in range(q)]
    count = sum(
        1
        for xz, yz in zip(big.add_row(x_idx), big.add_row(y_idx))
        if norms[xz] == scaled[norms[yz]]
    )
    if count < q ** (s - 2):
        raise InvariantViolationError(
            f"ratio count {count} below floor {q ** (s - 2)} at ({q},{s},{x_idx},{y_idx},{lam_idx})"
        )
    return count


@dataclass(frozen=True)
class ComposedConstruction:
    """Two norm-graph layers on one index set plus their triangle 3-graph."""

    p: int
    s1: int
    s2: int
    n: int
    q: int
    q_tilde: int
    v1_layer: Graph
    cross_layer: BipartiteGraph
    hypergraph: SemibipartiteThreeGraph


def composed_sizes(p: int, s1: int, s2: int) -> tuple[int, int, int, int, int]:
    """(q, q_tilde, n, cross order, layer order) for the composed parameters."""
    if s1 < 3 or s2 < 3:
        raise ValueError("need s1, s2 >= 3")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = p**s2
    qt = p**s1
    n_cross = q**s1 - q ** (s1 - 1)
    n_layer = qt**s2 - qt ** (s2 - 1)
    return q, qt, max(n_cross, n_layer), n_cross, n_layer


def composed_construction(p: int, s1: int, s2: int) -> ComposedConstruction:
    """Overlay norm layers for parameters (p, s1, s2) and collect triangles.

    Every triple is a layer edge {u, v} in the left part together with a
    right vertex w adjacent to both u and v in the cross layer, so the
    layer's edge bound times the cross layer's degree bound caps the
    triple count before either layer is built.
    """
    q, qt, n, n_cross, n_layer = composed_sizes(p, s1, s2)
    if p ** (s1 * s2) > MAX_CONSTRUCTION_ORDER:
        raise CapExceededError(
            f"p^(s1*s2) = {p ** (s1 * s2)} exceeds {MAX_CONSTRUCTION_ORDER}"
        )
    _norm_order(qt, s2, 1)
    _norm_order(q, s1, 2)
    bound = n_layer * (qt ** (s2 - 1) - 1) // 2 * (q ** (s1 - 1) - 1)
    if bound > MAX_CONSTRUCTION_EDGES:
        raise CapExceededError(
            f"composed 3-graph ({p}, {s1}, {s2}) would hold up to {bound} triples; "
            f"capped at {MAX_CONSTRUCTION_EDGES}"
        )

    layer = norm_graph(qt, s2)
    if layer.n < n:
        layer = Graph(n, layer.edges)
    cross = bipartite_norm_graph(q, s1)
    if cross.m < n:
        cross = BipartiteGraph(n, n, cross.edges)

    cross_adj = cross.left_adj
    triples = []
    for u, v in layer.edges:
        rest = cross_adj[u] & cross_adj[v]
        while rest:
            low = rest & -rest
            triples.append((u, v, low.bit_length() - 1))
            rest ^= low
    hg = SemibipartiteThreeGraph(n, n, triples)
    return ComposedConstruction(p, s1, s2, n, q, qt, layer, cross, hg)


@dataclass(frozen=True)
class DeletionResult:
    """Outcome of the probabilistic construct-then-repair lower bound."""

    graph: Graph
    n: int
    probability: float
    initial_edges: int
    copies_found: int
    edges_deleted: int
    seed: int


def random_deletion_lower_bound(n: int, spec: PatternSpec, seed: int = 0) -> DeletionResult:
    """Sample G(n, p*) and delete one edge from each surviving pattern copy.

    p* = n^(-(v-2)/(e-1)) / 2 with v, e the pattern's vertex and edge counts.
    Copies are collected as deduplicated edge sets in lexicographic order;
    each still-intact copy loses its smallest edge, so at most one edge is
    spent per copy and the result is pattern-free.
    """
    if spec.expansion or spec.placement != "unordered":
        raise ValueError("deletion bound works on plain graph patterns")
    if n > MAX_DELETION_VERTICES:
        raise CapExceededError(f"n = {n} exceeds {MAX_DELETION_VERTICES}")
    core = spec.core
    v = core.m + core.n
    e = core.edge_count
    if n < v:
        raise ValueError(f"need n >= {v} host vertices")
    if core.is_forest():
        raise ValueError("pattern must contain a cycle")
    prob = 0.5 * n ** (-(v - 2) / (e - 1))
    rng = random.Random(seed)
    edges = [
        (u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < prob
    ]
    g = Graph(n, edges)

    copies = set()
    for emb in iter_graph_embeddings(g, spec):
        copy = tuple(
            sorted(tuple(sorted((emb[a], emb[core.m + b]))) for a, b in core.edges)
        )
        copies.add(copy)

    alive = set(g.edges)
    deleted = 0
    for copy in sorted(copies):
        if all(pair in alive for pair in copy):
            alive.discard(copy[0])
            deleted += 1
    return DeletionResult(
        graph=Graph(n, sorted(alive)),
        n=n,
        probability=prob,
        initial_edges=g.edge_count,
        copies_found=len(copies),
        edges_deleted=deleted,
        seed=seed,
    )
