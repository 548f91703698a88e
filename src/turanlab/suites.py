"""Invariant suites behind ``turanlab check``.

Each suite returns (violations, details): the number of failed invariants
and a JSON-ready dict of what it measured.  ``SUITES`` is the one table of
suites: for each name, the function and the parameters it reads, in call
order; the seeded suites also take the job's seed last.  The CLI builds
its ``check`` choices, flags and dispatch from that table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import factorial
from typing import Callable

from .constructions import (
    composed_construction,
    norm_graph,
    norm_graph_symmetries,
    norm_ratio_count,
    vertex_coords,
)
from .errors import CapExceededError, InvariantViolationError
from .ff import (
    field_tables,
    make_field,
    norm_indices,
    norm_preimage_count,
    prime_power_decompose,
)
from .fullness import FullnessGroup, FullnessSpec, extract_full, is_full, pair_spec, vertex_spec
from .harness import decompose_3graph, decompose_graph
from .hypergraph import Graph, ThreeGraph
from .patterns import (
    complete_bipartite,
    greedy_extend,
    heavy_shadow_graph,
    first_kst,
    verify_expansion_witness,
)


def suite_pg_properties(q: int, s: int) -> tuple[int, dict]:
    """Size, degree set and K{s,(s-1)!+1}-freeness of `norm_graph(q, s)`.

    The freeness search runs from one vertex per orbit of
    `norm_graph_symmetries(q, s)`, which `first_kst` checks against the
    graph first; the witness is the one the full search would report.
    """
    g = norm_graph(q, s)
    expected_n = q**s - q ** (s - 1)
    allowed = {q ** (s - 1) - 1, q ** (s - 1) - 2}
    bad_degrees = sum(1 for v in range(g.n) if g.degree(v) not in allowed)
    t = factorial(s - 1) + 1
    witness = first_kst(g.adj, s, t, (1 << g.n) - 1, -1, norm_graph_symmetries(q, s))
    violations = int(g.n != expected_n) + int(bad_degrees > 0) + int(witness is not None)
    return violations, {
        "n": g.n,
        "expected_n": expected_n,
        "bad_degrees": bad_degrees,
        "forbidden": f"K{{{s},{t}}}",
        "witness": None if witness is None else [list(witness[0]), list(witness[1])],
    }


def suite_norm_map(q: int, s: int) -> tuple[int, dict]:
    if s < 2:
        raise ValueError("need s >= 2")
    p, k = prime_power_decompose(q)
    if make_field(p, k * (s - 1)).order > 512:
        raise ValueError("full multiplicativity enumeration is capped at order 512")
    big = field_tables(p, k * (s - 1))
    sub = field_tables(p, k)
    norms = norm_indices(q, s)
    mult_failures = 0
    for x in range(big.order):
        nx = norms[x]
        for y in range(x, big.order):
            if norms[big.mul(x, y)] != sub.mul(nx, norms[y]):
                mult_failures += 1
    expected_fiber = (q ** (s - 1) - 1) // (q - 1)
    fiber_failures = 0
    for target in range(sub.order):
        got = norm_preimage_count(q, s, target)
        want = 1 if target == 0 else expected_fiber
        if got != want:
            fiber_failures += 1
    violations = int(mult_failures > 0) + int(fiber_failures > 0)
    return violations, {
        "order": big.order,
        "mult_failures": mult_failures,
        "fiber_failures": fiber_failures,
        "expected_fiber": expected_fiber,
    }


def suite_composed(p: int, s1: int, s2: int) -> tuple[int, dict]:
    """Shape, density band and freeness of both layers of the composed
    3-graph: the layer of K{s2,(s2-1)!+1}, the cross layer's rows of
    K{s1,(s1-1)!+1}.

    Each freeness search runs from one vertex per orbit of its layer's
    norm-graph symmetries, extended as the identity on padding vertices
    and checked by `first_kst` against the layer first.
    """
    c = composed_construction(p, s1, s2)
    h = c.hypergraph
    m, n = h.m, h.n
    bad_edges = sum(1 for u, v, w in h.edges if not (0 <= u < v < m and 0 <= w < n))
    t1 = factorial(s1 - 1) + 1
    t2 = factorial(s2 - 1) + 1
    layer = c.v1_layer
    layer_witness = first_kst(
        layer.adj, s2, t2, (1 << layer.n) - 1, -1, _padded_symmetries(c.q_tilde, s2, c.n)
    )
    cross = c.cross_layer
    cross_witness = first_kst(
        cross.left_adj, s1, t1, (1 << cross.m) - 1, -1, _padded_symmetries(c.q, s1, c.n)
    )
    density = h.edge_count / (c.n * c.n)
    band_ok = 0.1 <= density <= 1.0
    violations = (
        int(bad_edges > 0)
        + int(layer_witness is not None)
        + int(cross_witness is not None)
        + int(not band_ok)
    )
    return violations, {
        "side": c.n,
        "edges": h.edge_count,
        "density": density,
        "bad_edges": bad_edges,
        "layer_free_of": f"K{{{s2},{t2}}}",
        "layer_witness": None if layer_witness is None else list(layer_witness[0]),
        "cross_free_of": f"K{{{s1},{t1}}} ordered",
        "cross_witness": None if cross_witness is None else list(cross_witness[0]),
    }


def _padded_symmetries(q: int, s: int, n: int) -> list[tuple[int, ...]]:
    """`norm_graph_symmetries(q, s)` extended to n vertices by fixing the rest."""
    return [sigma + tuple(range(len(sigma), n)) for sigma in norm_graph_symmetries(q, s)]


def suite_ratio_count(q: int, s: int) -> tuple[int, dict]:
    """Solution-count floor for the norm-ratio equation, swept exhaustively.

    First half: every valid (X, Y, lam) triple has at least q^(s-2)
    solutions Z.  Second half, on the graph itself: the solution count for
    a vertex pair ((X,x),(Y,y)) with X != Y is the pair's common-neighbor
    count up to at most two corrections (a solution Z is lost only when
    its induced neighbor (Z,z) coincides with one of the two endpoints),
    so the codegree sits in [count-2, count]; pairs sharing the first
    coordinate have no common neighbors at all.  The only partners of a
    vertex counted below the floor are therefore the q-2 others sharing its
    first coordinate; any more is a violation.
    """
    if s < 3:
        raise ValueError("ratio counts need s >= 3")
    p, k = prime_power_decompose(q)
    big = field_tables(p, k * (s - 1))
    sub = field_tables(p, k)
    floor = q ** (s - 2)
    ratio_failures = 0
    triples = 0
    # (X, Y, lam) -> solution count, -1 where it fell below the floor
    counts: dict[tuple[int, int, int], int] = {}
    for x_idx in range(big.order):
        for y_idx in range(big.order):
            if x_idx == y_idx:
                continue
            for lam_idx in range(1, q):
                triples += 1
                try:
                    count = norm_ratio_count(q, s, x_idx, y_idx, lam_idx)
                except InvariantViolationError:
                    ratio_failures += 1
                    count = -1
                counts[(x_idx, y_idx, lam_idx)] = count
    g = norm_graph(q, s)
    codegree_failures = 0
    below_floor_failures = 0
    below = [0] * g.n
    for u in range(g.n):
        bx, sx = vertex_coords(q, u)
        for v in range(u + 1, g.n):
            by, sy = vertex_coords(q, v)
            codegree = (g.adj[u] & g.adj[v]).bit_count()
            if bx == by:
                below[u] += 1
                below[v] += 1
                if codegree != 0:
                    codegree_failures += 1
                continue
            count = counts[(bx, by, sub.div(sx, sy))]
            if count < floor:
                below[u] += 1
                below[v] += 1
            elif not count - 2 <= codegree <= count:
                codegree_failures += 1
    below_floor_failures = sum(1 for b in below if b > q - 2)
    violations = (
        int(ratio_failures > 0)
        + int(codegree_failures > 0)
        + int(below_floor_failures > 0)
    )
    return violations, {
        "triples": triples,
        "ratio_floor": floor,
        "ratio_failures": ratio_failures,
        "codegree_failures": codegree_failures,
        "below_floor_failures": below_floor_failures,
        "max_below_floor": max(below, default=0),
    }


def random_3graph(rng: random.Random, n: int, p: float) -> ThreeGraph:
    """Each triple of range(n) is an edge with probability p."""
    return ThreeGraph(n, [e for e in combinations(range(n), 3) if rng.random() < p])


def random_fullness_spec(rng: random.Random, n: int) -> FullnessSpec:
    """A vertex spec, a pair spec, or two pair groups with independent floors."""
    roll = rng.random()
    if roll < 0.4:
        return vertex_spec(n, rng.randint(1, 4))
    if roll < 0.8:
        return pair_spec(n, rng.randint(1, 4))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    cut = rng.randint(0, len(pairs))
    groups = []
    for chunk in (pairs[:cut], pairs[cut:]):
        if chunk:
            groups.append(FullnessGroup(tuple(sorted(chunk)), rng.randint(1, 3)))
    if not groups:
        return vertex_spec(n, 2)
    return FullnessSpec(tuple(groups), 2)


def suite_fullness(n: int, count: int, seed: int) -> tuple[int, dict]:
    rng = random.Random(seed)
    failures = 0
    for _ in range(count):
        nn = rng.randint(4, max(4, n))
        h = random_3graph(rng, nn, rng.uniform(0.1, 0.5))
        spec = random_fullness_spec(rng, nn)
        res = extract_full(h, spec)
        ok = (
            is_full(res.hypergraph, spec)
            and res.hypergraph.edge_count >= h.edge_count - spec.deletion_budget()
            and res.hypergraph.edge_count >= res.lower_bound
        )
        if not ok:
            failures += 1
    return int(failures > 0), {"cases": count, "failures": failures}


def suite_greedy_extend(n: int, count: int, seed: int) -> tuple[int, dict]:
    rng = random.Random(seed)
    failures = 0
    extended = 0
    for _ in range(count):
        nn = rng.randint(4, max(4, n))
        h = random_3graph(rng, nn, rng.uniform(0.2, 0.5))
        for s, t in ((1, 1), (1, 2), (2, 1), (2, 2)):
            need = s * t + s + t
            spec = complete_bipartite(s, t, expansion=True)
            heavy = heavy_shadow_graph(h, need)
            for s_side in combinations(range(nn), s):
                common = -1
                for v in s_side:
                    common &= heavy.adj[v]
                cands = [v for v in range(nn) if common >> v & 1]
                for t_side in combinations(cands, t):
                    try:
                        w = greedy_extend(h, s_side, t_side)
                    except (ValueError, InvariantViolationError):
                        failures += 1
                        continue
                    if verify_expansion_witness(h, spec, w):
                        extended += 1
                    else:
                        failures += 1
    return int(failures > 0), {"cases": count, "extensions": extended, "failures": failures}


def suite_decomposition(n: int, count: int, seed: int) -> tuple[int, dict]:
    rng = random.Random(seed)
    failures = 0
    for _ in range(count):
        nn = rng.randint(2, max(2, n))
        g = Graph(nn, [e for e in combinations(range(nn), 2) if rng.random() < 0.4])
        for v in range(nn):
            try:
                d = decompose_graph(g, v)
            except InvariantViolationError:
                failures += 1
                continue
            if sum(d.counts.values()) != g.edge_count:
                failures += 1
        h = random_3graph(rng, max(3, nn), 0.3)
        for v in range(h.n):
            for s, t in ((1, 1), (2, 2)):
                try:
                    d = decompose_3graph(h, v, s, t)
                except InvariantViolationError:
                    failures += 1
                    continue
                if sum(d.counts.values()) != h.edge_count:
                    failures += 1
    return int(failures > 0), {"cases": count, "failures": failures}


@dataclass(frozen=True)
class Suite:
    run: Callable[..., tuple[int, dict]]
    params: tuple[str, ...]
    seeded: bool = False


SUITES = {
    "pg-properties": Suite(suite_pg_properties, ("q", "s")),
    "norm-map": Suite(suite_norm_map, ("q", "s")),
    "composed": Suite(suite_composed, ("p", "s1", "s2")),
    "ratio-count": Suite(suite_ratio_count, ("q", "s")),
    "fullness": Suite(suite_fullness, ("n", "count"), seeded=True),
    "greedy-extend": Suite(suite_greedy_extend, ("n", "count"), seeded=True),
    "decomposition": Suite(suite_decomposition, ("n", "count"), seeded=True),
}

# every parameter some suite reads, in first-use order, and the CLI defaults
PARAMS = tuple(dict.fromkeys(k for suite in SUITES.values() for k in suite.params))
DEFAULTS = {"n": 8, "count": 25}

# the seeded suites draw hosts of up to --n vertices, and their cost grows
# steeply with it (a random 3-graph alone draws C(n, 3) numbers)
MAX_SUITE_VERTICES = 32


def run_suite(name: str, params: dict, seed: int = 0) -> tuple[int, dict]:
    """Run the named suite on the parameters it reads; returns (violations, details).

    A seeded suite refuses, before it draws any host, a negative parameter
    (ValueError) and an --n above MAX_SUITE_VERTICES (CapExceededError).
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite: {name!r}")
    suite = SUITES[name]
    args = [params[k] for k in suite.params]
    if suite.seeded:
        for key, value in zip(suite.params, args):
            if value < 0:
                raise ValueError(f"--{key} must be non-negative, got {value}")
        if params["n"] > MAX_SUITE_VERTICES:
            raise CapExceededError(f"--n is capped at {MAX_SUITE_VERTICES} vertices, got {params['n']}")
        args.append(seed)
    return suite.run(*args)
