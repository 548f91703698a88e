"""Forbidden-pattern specifications and exact containment searches.

A pattern is a bipartite core with ordered parts, optionally expanded: the
expansion of a graph F is the 3-graph F+ obtained by adding one new apex
vertex per edge of F, so v(F+) = v(F) + |F| and the apexes are pairwise
distinct.  Placement controls where a copy may land in a host with parts:

    unordered    anywhere (the only choice for plain graph / 3-graph hosts)
    ordered      first core part into the left host part, second into the right
    core-in-V1   both core parts inside the left host part (expansions only)

Apexes of an expansion copy are unconstrained by placement; they sit wherever
the host's edges put them.

The host decides what a pattern may do on it: `GraphHost.admit` refuses a
pattern of the wrong kind or placement before any search, so a refusal
never depends on the host's size, and `GraphHost.sides` lists the
orientations the core may take.  A whole-host search of a core with a
part-exchanging automorphism (`PatternSpec.swaps`) tries the first alone;
the anchored checks below try every one.

Vertex labels in witnesses are combined host labels: for bipartite and
semibipartite hosts the right part is shifted by the left part size.

Search strategy: on a whole host, complete bipartite cores K_{s,t} go
through `iter_kst`, an ascending s-subset enumeration with a running
common-neighborhood intersection that draws each next s-side vertex from
the rows adjacent to t of its members, counted from a reverse adjacency
(column -> rows) built once per call.  `first_kst` (the check suites'
K_{s,t} search) returns its first copy.  Given automorphisms of the host,
which it checks edge by edge first, it decides a copy-free host from one
row per orbit and runs the full search only when some copy exists.  All
other cores go through a most-constrained-first backtracking embedder,
whose placement plan (order, already-placed neighbors and core degree of
each free vertex) depends only on the core and its anchored vertices, so
it is compiled once and cached.  The three finders share one body: over
`sides` in order, each core embedding goes to a completion step, which
returns the witness or None; a graph copy is its embedding, and an
expansion copy is decided per core embedding by maximum bipartite matching
between core edges and eligible apexes.

Host state lives here too: `GraphHost` holds adjacency bitmasks and part
masks, and `ThreeGraphHost` adds pair links (pair -> bitmask of third
vertices) over a shadow it keeps in step with every added or removed triple,
so no search rebuilds the shadow.  The solvers grow a host edge by edge.
`GraphHost.can_hold` counts whether a host's parts have room for one copy
of an admitted pattern at all; the finders answer None at once when they do
not, and `plan_take` drops such patterns before a solve's search.
The 3-graph searches that never change their host (`find_expansion`,
`heavy_shadow_graph`, `greedy_extend`) share one read-only index,
`_static_host`, built once for the last static 3-graph asked about: none of
them may mutate it.  It keeps one entry, not one per host, because callers
ask many questions of one host before moving on, and a kept index would
hold each host's pair links for as long as the host lives.

The per-call checks `pattern_through_edge` and
`expansion_through_triple` ask whether the edge (or triple) just added
completes a copy, and both ask it of one anchored check: does an accept
callback (at rank 3, the apex match forced onto the anchored core edge)
take some copy with a core edge on the host pair?  It anchors each of the
spec's `arcs`, one directed core edge per orbit of the core's
automorphisms, on the pair in each orientation of `sides`.  A
complete core runs `kst_through` with the pair as its edge 0: t-side
candidates N(ha) minus hb, an s-side pool N(hb) minus ha, and a running
intersection that must keep t - 1 members.  For C4 through uv this is the
test "N(u) minus v meets N(x) for some x in N(v) minus u".  `kst_through`
returns at the first copy taken and recurses by plain calls, not as a
generator: one check runs per added edge, and generator frames cost more
than the search.  Any other core follows its arc's embedding plan.  The
orientations, arcs and plans depend only on the spec and the host's part
masks, so `plan_take` fixes them once per solve and returns the solvers'
step take(e), which adds e unless it completes a copy; the two checks
above plan the same way on every call.  At rank 2, take runs a complete
core's test itself, from the anchor tuples `_kst_anchors` derives for both:
for s = 2 (C4, K{2,t}) a flat loop over the pool with no call, for s >= 3
one call into `kst_through`'s recursion.  So the solvers never run
`pattern_through_edge` or `expansion_through_triple`: those are the
reference paths the differential tests check take against.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterator

from .errors import CapExceededError, InvariantViolationError
from .hypergraph import (
    BipartiteGraph,
    Graph,
    SemibipartiteThreeGraph,
    ThreeGraph,
    from_json_dict,
    iter_bits,
)

PLACEMENTS = ("unordered", "ordered", "core-in-V1")

# the most core vertices a parsed pattern may have, checked before its core
# is built
MAX_PATTERN_VERTICES = 64


@dataclass(frozen=True)
class PatternSpec:
    """A forbidden pattern: bipartite core, optional expansion, placement."""

    core: BipartiteGraph
    expansion: bool = False
    placement: str = "unordered"
    name: str = ""
    is_complete: bool = field(init=False, repr=False, compare=False)
    combined_edges: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    swaps: bool = field(init=False, repr=False, compare=False)
    arcs: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement: {self.placement!r}")
        if self.placement == "core-in-V1" and not self.expansion:
            raise ValueError("core-in-V1 placement applies to expansions only")
        # read by every incremental check, so computed once here
        core = self.core
        object.__setattr__(self, "is_complete", core.edge_count == core.m * core.n)
        # core edges in combined labels: right-part vertices shifted by core.m
        object.__setattr__(self, "combined_edges", tuple((a, core.m + b) for a, b in core.edges))
        # whether an automorphism of the core exchanges its parts, and one
        # directed core edge per symmetry class, for the anchored checks
        swaps, arcs = _core_symmetry(core, self.placement == "ordered")
        object.__setattr__(self, "swaps", swaps)
        object.__setattr__(self, "arcs", arcs)

    @property
    def vertex_count(self) -> int:
        return self.core.m + self.core.n

    def with_placement(self, placement: str) -> "PatternSpec":
        return PatternSpec(self.core, self.expansion, placement, self.name)

    def display_name(self) -> str:
        base = self.name or f"bipartite({self.core.m},{self.core.n})"
        if self.expansion and not base.endswith("+"):
            base += "+"
        if self.placement != "unordered":
            base += f" {self.placement}"
        return base


@lru_cache(maxsize=256)
def _core_symmetry(core: BipartiteGraph, ordered: bool) -> tuple[bool, tuple[tuple[int, int, int], ...]]:
    """(`PatternSpec.swaps`, `PatternSpec.arcs`).  Swaps: does some
    automorphism of the core (an embedding of the core into itself) exchange
    its parts?  Only equal parts can, and it is probed once, with the parts'
    masks reversed.  Arc (ei, x, y) stands for each directed core edge that
    an automorphism (keeping both parts whole, or unless `ordered`
    exchanging them) maps x -> y onto.  Arcs come in edge order, forward
    first: a complete core's lie on its edge 0.

    A complete core's answers are written down without the search: its
    automorphisms permute each part freely, so every forward arc lies in
    the orbit of (0, m), every backward arc in that of (m, 0), and the
    two orbits are one exactly when the parts may swap."""
    m = core.m
    if core.edge_count and core.edge_count == m * core.n:
        swaps = m == core.n
        return swaps, ((0, 0, m),) if swaps and not ordered else ((0, 0, m), (0, m, 0))
    host = GraphHost.of(core)
    keep = [host.left_mask] * m + [host.right_mask] * core.n
    edges = tuple((a, m + b) for a, b in core.edges)
    flipped = keep[::-1]  # the parts' masks exchanged, when the parts are equal
    swaps = False
    if m == core.n:
        probe = _embeddings(_embedding_plan(len(keep), edges, ()), flipped, host.adj)
        swaps = next(probe, None) is not None
    sides = [keep, flipped] if swaps and not ordered else [keep]
    directed = [(ei, x, y) for ei, (a, b) in enumerate(edges) for x, y in ((a, b), (b, a))]
    arcs, seen = [], set()
    for ei, rx, ry in directed:
        if (rx, ry) not in seen:
            arcs.append((ei, rx, ry))
            plan = _embedding_plan(len(keep), edges, (min(rx, ry), max(rx, ry)))
            for _, x, y in directed:
                maps = (_embeddings(plan, allowed, host.adj, ((rx, x), (ry, y))) for allowed in sides)
                if any(next(it, None) for it in maps):
                    seen.add((x, y))
    return swaps, tuple(arcs)


@dataclass(frozen=True)
class EmbeddingWitness:
    """Injective image of the core's vertices, in pattern vertex order."""

    core_map: tuple[int, ...]


@dataclass(frozen=True)
class ExpansionWitness:
    """Core embedding plus one distinct apex per core edge."""

    core_map: tuple[int, ...]
    core_edges: tuple[tuple[int, int], ...]
    apexes: tuple[int, ...]


# -- pattern library --


def complete_bipartite(s: int, t: int, expansion: bool = False, placement: str = "unordered") -> PatternSpec:
    if s < 1 or t < 1:
        raise ValueError("part sizes must be >= 1")
    core = BipartiteGraph(s, t, [(i, j) for i in range(s) for j in range(t)])
    return PatternSpec(core, expansion, placement, f"K{{{s},{t}}}")


def even_cycle(length: int, expansion: bool = False, placement: str = "unordered") -> PatternSpec:
    if length < 4 or length % 2:
        raise ValueError("cycle length must be even and >= 4")
    k = length // 2
    edges = [(i, i) for i in range(k)] + [((i + 1) % k, i) for i in range(k)]
    return PatternSpec(BipartiteGraph(k, k, sorted(set(edges))), expansion, placement, f"C{length}")


def _bipartite_from_graph(g: Graph, name: str) -> BipartiteGraph:
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in iter_bits(g.adj[v]):
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    raise ValueError(f"{name} is not bipartite")
    # each vertex's label inside its part: its rank among the vertices of its color
    label = [color[:v].count(color[v]) for v in range(g.n)]
    edges = [(label[u], label[v]) if color[u] == 0 else (label[v], label[u]) for u, v in g.edges]
    return BipartiteGraph(color.count(0), color.count(1), edges)


def theta(a: int, b: int, c: int, expansion: bool = False, placement: str = "unordered") -> PatternSpec:
    """Two hub vertices joined by three internally disjoint paths of a, b, c edges."""
    lens = (a, b, c)
    if min(lens) < 1:
        raise ValueError("path lengths must be >= 1")
    if len({x % 2 for x in lens}) != 1:
        raise ValueError("path lengths must share parity (bipartite pattern)")
    if sorted(lens)[1] == 1:
        raise ValueError("at most one path may be a single edge")
    edges = []
    nxt = 2  # 0 and 1 are the hubs
    for plen in lens:
        prev = 0
        for step in range(plen - 1):
            edges.append(tuple(sorted((prev, nxt))))
            prev = nxt
            nxt += 1
        edges.append(tuple(sorted((prev, 1))))
    g = Graph(nxt, edges)
    return PatternSpec(_bipartite_from_graph(g, "theta"), expansion, placement, f"theta{{{a},{b},{c}}}")


def grid_2x2(expansion: bool = False, placement: str = "unordered") -> PatternSpec:
    """The 3x3 lattice of vertices (a 2x2 grid of cells), 12 edges."""
    edges = []
    for r in range(3):
        for col in range(3):
            v = 3 * r + col
            if col < 2:
                edges.append((v, v + 1))
            if r < 2:
                edges.append((v, v + 3))
    g = Graph(9, edges)
    return PatternSpec(_bipartite_from_graph(g, "grid2x2"), expansion, placement, "grid2x2")


_KST_RE = re.compile(r"^K\{(\d+),(\d+)\}$")
_CYC_RE = re.compile(r"^C(\d+)$")
_THETA_RE = re.compile(r"^theta\{(\d+),(\d+),(\d+)\}$")


def parse_pattern(text: str) -> PatternSpec:
    """Parse the compact pattern syntax (grammar documented in turanlab.cli).

    A core of more than `MAX_PATTERN_VERTICES` vertices raises
    CapExceededError before it is built.
    """
    tokens = text.strip().split()
    if not tokens or len(tokens) > 2:
        raise ValueError(f"cannot parse pattern: {text!r}")
    base = tokens[0]
    placement = "unordered"
    if len(tokens) == 2:
        if tokens[1] not in ("ordered", "core-in-V1"):
            raise ValueError(f"unknown placement token: {tokens[1]!r}")
        placement = tokens[1]
    expansion = base.endswith("+")
    if expansion:
        base = base[:-1]

    def capped(vertices: int) -> None:
        if vertices > MAX_PATTERN_VERTICES:
            raise CapExceededError(
                f"pattern {base!r} has {vertices} core vertices; "
                f"patterns are capped at {MAX_PATTERN_VERTICES}"
            )

    if m := _KST_RE.match(base):
        s, t = int(m.group(1)), int(m.group(2))
        capped(s + t)
        return complete_bipartite(s, t, expansion, placement)
    if m := _CYC_RE.match(base):
        length = int(m.group(1))
        capped(length)
        return even_cycle(length, expansion, placement)
    if m := _THETA_RE.match(base):
        lens = int(m.group(1)), int(m.group(2)), int(m.group(3))
        capped(sum(lens) - 1)  # two hubs and the paths' inner vertices
        return theta(*lens, expansion, placement)
    if base == "grid2x2":
        return grid_2x2(expansion, placement)
    if base.startswith("@"):
        with open(base[1:], encoding="utf-8") as fh:
            d = json.load(fh)
        where = f"pattern file {base[1:]}"
        if not isinstance(d, dict) or d.get("kind") != "bipartite":
            raise ValueError(f"{where}: must contain a bipartite graph")
        sizes = d.get("m"), d.get("n")
        if all(type(size) is int and size >= 0 for size in sizes):
            capped(sum(sizes))
        try:
            core = from_json_dict(d)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        return PatternSpec(core, expansion, placement, base)
    raise ValueError(f"cannot parse pattern: {text!r}")


def normalize_specs(patterns) -> tuple[PatternSpec, ...]:
    """One pattern spec or an iterable of them, as a non-empty tuple.

    Every entry must be a PatternSpec with at least one core edge.
    """
    if isinstance(patterns, PatternSpec):
        specs: tuple[PatternSpec, ...] = (patterns,)
    else:
        specs = tuple(patterns)
    if not specs:
        raise ValueError("need at least one pattern")
    for spec in specs:
        if not isinstance(spec, PatternSpec):
            raise ValueError(f"not a pattern spec: {spec!r}")
        if spec.core.edge_count == 0:
            raise ValueError("pattern needs at least one core edge")
    return specs


def remove_vertex(spec: PatternSpec, v: int) -> PatternSpec:
    """Pattern minus one core vertex (combined label), part order preserved."""
    core = spec.core
    if not 0 <= v < core.m + core.n:
        raise ValueError(f"vertex {v} not in pattern")
    if v < core.m:
        keep = [u for u in range(core.m) if u != v]
        remap = {u: i for i, u in enumerate(keep)}
        edges = [(remap[u], w) for u, w in core.edges if u != v]
        new_core = BipartiteGraph(core.m - 1, core.n, edges)
    else:
        w0 = v - core.m
        keep = [w for w in range(core.n) if w != w0]
        remap = {w: i for i, w in enumerate(keep)}
        edges = [(u, remap[w]) for u, w in core.edges if w != w0]
        new_core = BipartiteGraph(core.m, core.n - 1, edges)
    return PatternSpec(new_core, spec.expansion, spec.placement, f"{spec.name or 'pattern'}-v{v}")


# -- low-level search engines --


def iter_kst(adj, s: int, t: int, left_mask: int, right_mask: int) -> Iterator[tuple[tuple, tuple]]:
    """Ascending s-subsets of left_mask whose common neighborhood inside
    right_mask has size >= t, paired with every t-subset of that neighborhood.

    Rows and columns may be different vertex sets: adj[v] for v in left_mask
    is a bitmask over the columns, and right_mask (-1 for all of them) picks
    the columns that count.  Copies come in lexicographic order of the
    s-side, then of the t-side.

    The next s-side vertex comes from a candidate mask.  A reverse
    adjacency, built once per call in O(edges), maps each column to the mask
    of rows adjacent to it.  When a vertex joins the s-side, the members x
    of the running intersection it leaves are folded over it into
    saturating counters, "adjacent to >= 1, >= 2, ..., >= t of them"; the
    top counter is exactly the set of rows that keep t common neighbors,
    and only its bits after the new vertex are kept.  A deeper vertex needs
    t members of a smaller intersection, so what is left of the mask is the
    next level's candidate set, and the s-th vertex is read off it with no
    search frame of its own.  Copies through one given edge are
    `kst_through`'s job, and the first copy alone is `first_kst`'s.
    """
    return _kst_copies(adj, s, t, left_mask, right_mask)


def first_kst(
    adj, s: int, t: int, left_mask: int, right_mask: int, symmetries=()
) -> tuple[tuple, tuple] | None:
    """The first copy `iter_kst` yields, or None, deciding a copy-free host
    from one row per orbit of the given symmetries.

    `symmetries` are permutations of ``range(len(adj))``, each acting on
    rows and columns alike; each is checked to be an automorphism of the
    host (see `_orbit_leads`), and a failed check raises
    InvariantViolationError.  An automorphism maps copies to copies, so if
    some copy (A, B) exists and a in A lies in the orbit of the row r, the
    map taking a to r gives a copy with r on its s-side.  The search
    therefore first asks, for the least row r of each orbit, whether any
    copy has r on its s-side; if none does, the host is copy-free.
    Otherwise the full search returns the first copy, so the answer never
    depends on the symmetries given.  Each row's columns are listed once,
    for the map check and for both searches.
    """
    if not symmetries:
        return next(_kst_copies(adj, s, t, left_mask, right_mask), None)
    leads, row_cols = _orbit_leads(adj, left_mask, right_mask, symmetries)
    if next(_kst_copies(adj, s, t, left_mask, right_mask, leads, row_cols), None) is None:
        return None
    return next(_kst_copies(adj, s, t, left_mask, right_mask, None, row_cols), None)


def _orbit_leads(adj, left_mask: int, right_mask: int, symmetries) -> tuple[list[int], dict]:
    """The least row of each orbit that `symmetries` generate on left_mask,
    after checking that each map is an automorphism of the host, and each
    row's columns inside right_mask, ascending, by row.

    Each map must be a permutation sigma of ``range(len(adj))`` that maps
    left_mask and the columns of right_mask onto themselves, with
    sigma(adj[v] & right_mask) == adj[sigma(v)] & right_mask for every row
    v; anything else raises InvariantViolationError.  The check costs
    O(edges) per map: each row's columns are listed once and compared, as
    sorted images, against the row they must land on.
    """
    n = len(adj)
    rows = list(iter_bits(left_mask))
    cols = list(iter_bits(right_mask & ((1 << n) - 1)))
    if rows and rows[-1] >= n:
        raise InvariantViolationError(f"row {rows[-1]} lies outside the maps' range {n}")
    row_cols = {v: list(iter_bits(adj[v] & right_mask)) for v in rows}
    for v, row in row_cols.items():
        if row and row[-1] >= n:
            raise InvariantViolationError(f"row {v} has column {row[-1]} outside the maps' range {n}")
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for sigma in symmetries:
        if sorted(sigma) != list(range(n)):
            raise InvariantViolationError(f"symmetry is not a permutation of range({n})")
        if sorted(sigma[v] for v in rows) != rows or sorted(sigma[x] for x in cols) != cols:
            raise InvariantViolationError("symmetry does not map the row and column masks onto themselves")
        for v, row in row_cols.items():
            if sorted(sigma[x] for x in row) != row_cols[sigma[v]]:
                raise InvariantViolationError(f"symmetry maps row {v} onto no row: not an automorphism")
        for v in rows:
            a, b = root(v), root(sigma[v])
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [v for v in rows if root(v) == v], row_cols


def _kst_copies(adj, s: int, t: int, left_mask: int, right_mask: int, leads=None, row_cols=None):
    """`iter_kst`'s search.  Given `leads`, it yields instead, for each lead
    row in turn, the copies with that row first on their s-side and the
    others ascending after it.  `row_cols`, if given, lists each row's
    columns as `_orbit_leads` lists them, so they are not listed again."""
    rows = [(v, adj[v] & right_mask) for v in iter_bits(left_mask)]
    rows = [(v, row) for v, row in rows if row.bit_count() >= t]
    # The counters are lanes of one integer, w bits each: lane k holds the
    # rows adjacent to >= k of the members folded so far, so lane 0 is every
    # row, and folding a member shifts each lane up one, masked by its rows.
    # radj[x] therefore keeps its row mask copied into lanes 1..t.
    w = rows[-1][0] + 1 if rows else 0
    lanes = sum(1 << k * w for k in range(1, t + 1))
    radj = [0] * max((row.bit_length() for _, row in rows), default=0)
    first = 0
    for v, row in rows:
        first |= 1 << v
        copies = lanes << v
        for x in iter_bits(row) if row_cols is None else row_cols[v]:
            radj[x] |= copies
    every = (1 << w) - 1
    top = t * w

    def rec(chosen: tuple, inter: int, cand: int, pool: int = 0):
        # the next level draws from the rows left in cand, and from pool:
        # a lead's level has cand = {lead} and every other row in pool
        last = len(chosen) == s - 1
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            ninter = inter & adj[v]
            if last:
                for b in combinations(iter_bits(ninter), t):
                    yield chosen + (v,), b
                continue
            counts = every
            rest = ninter
            while rest:
                low = rest & -rest
                rest ^= low
                counts |= (counts << w) & radj[low.bit_length() - 1]
            ncand = (cand | pool) & counts >> top
            if ncand:
                yield from rec(chosen + (v,), ninter, ncand)

    if leads is None:
        yield from rec((), right_mask, first)
        return
    for v in leads:
        if first >> v & 1:
            yield from rec((), right_mask, 1 << v, first & ~(1 << v))


def kst_through(adj, s: int, t: int, left_mask: int, right_mask: int, anchor, accept=None) -> bool:
    """Does accept(s_side, t_side) take some K{s,t} copy with the edge
    anchor = (ha, hb) on it, ha leading the s-side and hb the t-side?

    The caller sees that ha and hb are adjacent.  Copies are offered in
    lexicographic order of the s-side, then of the t-side, each side led by
    its anchor; the first one taken ends the search, and without accept any
    copy is a hit.  The sides are disjoint: no vertex is its own neighbor.
    """
    ha, hb = anchor
    inter = adj[ha] & right_mask & ~(1 << hb)
    if inter.bit_count() < t - 1:
        return False
    pool = adj[hb] & left_mask & ~(1 << ha)
    return _kst_through_from(adj, s - 1, t - 1, pool, inter, (ha,), (hb,), accept)


def _kst_through_from(adj, more: int, need: int, pool: int, inter: int, chosen, lead, accept) -> bool:
    """`kst_through` past its anchor: add `more` pool members in ascending
    order, each keeping `need` members of the running intersection.
    Without accept, a last member that keeps them is already a hit."""
    if not more:
        if accept is None:
            return True
        for rest in combinations(iter_bits(inter), need):
            if accept(chosen, lead + rest):
                return True
        return False
    last = more == 1 and accept is None
    while pool:
        low = pool & -pool
        pool ^= low
        v = low.bit_length() - 1
        ninter = inter & adj[v]
        if ninter.bit_count() >= need and (
            last or _kst_through_from(adj, more - 1, need, pool, ninter, chosen + (v,), lead, accept)
        ):
            return True
    return False


@lru_cache(maxsize=256)
def _embedding_plan(
    core_n: int, core_edges: tuple[tuple[int, int], ...], anchored: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, tuple[int, ...], int], ...]]:
    """Placement plan of a core with the given (sorted) vertices anchored.

    Returns the core edges among anchored vertices and, for each free core
    vertex in placement order, (vertex, already-placed neighbors, core
    degree).  Free vertices are placed most-constrained-first: most placed
    neighbors, then highest degree, then lowest label.
    """
    core_adj: list[list[int]] = [[] for _ in range(core_n)]
    for a, b in core_edges:
        core_adj[a].append(b)
        core_adj[b].append(a)
    placed = set(anchored)
    steps = []
    while len(placed) < core_n:
        best, best_key = -1, (-1, 0)
        for cv in range(core_n):
            if cv in placed:
                continue
            back = sum(1 for u in core_adj[cv] if u in placed)
            key = (back, len(core_adj[cv]))
            if key > best_key:
                best, best_key = cv, key
        steps.append((best, tuple(u for u in core_adj[best] if u in placed), len(core_adj[best])))
        placed.add(best)
    anchored_edges = tuple((a, b) for a, b in core_edges if a in anchored and b in anchored)
    return anchored_edges, tuple(steps)


def _embeddings(plan, allowed: list[int], adj, anchors=()) -> Iterator[tuple[int, ...]]:
    """All injective maps of a core into a host adjacency, by a plan from
    `_embedding_plan`.

    allowed[i] masks the host vertices permitted for core vertex i; anchors
    holds the (core vertex, host vertex) pairs the plan's anchored vertices
    are fixed to.  A free vertex's candidates need host degree at least its
    core degree, and the first free vertex's candidates are tried in
    ascending host degree.
    """
    anchored_edges, steps = plan
    mapping = [-1] * len(allowed)
    used = 0
    for cv, hv in anchors:
        if not allowed[cv] >> hv & 1 or used >> hv & 1:
            return
        mapping[cv] = hv
        used |= 1 << hv
    for a, b in anchored_edges:
        if not adj[mapping[a]] >> mapping[b] & 1:
            return
    last = len(steps)

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == last:
            yield tuple(mapping)
            return
        cv, back, need = steps[i]
        cand = allowed[cv] & ~used
        for u in back:
            cand &= adj[mapping[u]]
        cand_list = [v for v in iter_bits(cand) if adj[v].bit_count() >= need]
        if i == 0:
            cand_list.sort(key=lambda v: adj[v].bit_count())
        for hv in cand_list:
            mapping[cv] = hv
            yield from rec(i + 1, used | 1 << hv)

    yield from rec(0, used)


def _match_distinct(masks: list[int]) -> list[int] | None:
    """Assign one distinct vertex per mask (maximum bipartite matching)."""
    owner: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        m = masks[i]
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            if w in seen:
                continue
            seen.add(w)
            if w not in owner or augment(owner[w], seen):
                owner[w] = i
                return True
        return False

    for i in range(len(masks)):
        if not augment(i, set()):
            return None
    out = [-1] * len(masks)
    for w, i in owner.items():
        out[i] = w
    return out


# -- host state --


class GraphHost:
    """Adjacency bitmasks and part masks of a graph host, in combined labels.

    ``GraphHost(n)`` is an empty plain host (both part masks full) and
    ``GraphHost(m, n)`` an empty bipartite one (``has_parts`` set);
    ``GraphHost.of`` copies a static `Graph` or `BipartiteGraph`.  The host
    decides what a pattern may do on it: `admit` refuses a pattern of the
    wrong kind or placement, `sides` lists the orientations its core may
    take, and `can_hold` counts whether its parts have room for a copy.
    """

    __slots__ = ("adj", "left_mask", "right_mask", "has_parts")
    rank = 2

    def __init__(self, m: int, n: int | None = None):
        self.adj = [0] * (m if n is None else m + n)
        self.left_mask = (1 << m) - 1
        self.right_mask = self.left_mask if n is None else ((1 << n) - 1) << m
        self.has_parts = n is not None

    @classmethod
    def of(cls, g: Graph | BipartiteGraph) -> "GraphHost":
        if isinstance(g, Graph):
            host = cls(g.n)
            host.adj = list(g.adj)
            return host
        host = cls(g.m, g.n)
        for u, w in g.edges:
            host.add((u, g.m + w))
        return host

    def add(self, e: tuple[int, int]) -> None:
        u, v = e
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def remove(self, e: tuple[int, int]) -> None:
        u, v = e
        self.adj[u] &= ~(1 << v)
        self.adj[v] &= ~(1 << u)

    def admit(self, spec: PatternSpec) -> None:
        """Raise ValueError unless the pattern fits this host: an expansion
        exactly when the host is a 3-graph, and a placement other than
        unordered only on a host with parts.  Every finder, check and solve
        asks this first, before `can_hold` may answer for it."""
        if spec.expansion != (self.rank == 3):
            kind = "expansion" if spec.expansion else "graph"
            raise ValueError(f"{kind} pattern against a {'3-graph' if self.rank == 3 else 'graph'} host")
        if spec.placement != "unordered" and not self.has_parts:
            raise ValueError(f"placement {spec.placement!r} needs a host with parts")

    def sides(self, spec: PatternSpec) -> tuple[tuple[int, int], ...]:
        """Host masks (for the core's first part, for its second), one pair
        per orientation the core may take, in the order the searches try.

            ordered      first part left, second right
            core-in-V1   both parts left
            unordered    anywhere on a host without parts or a 3-graph host,
                         whose shadow pairs lie inside the left part too;
                         on a bipartite host both orientations, left first
        """
        left, right = self.left_mask, self.right_mask
        if spec.placement == "core-in-V1":
            return ((left, left),)
        if spec.placement == "unordered" and self.has_parts:
            if self.rank == 3:
                return ((left | right, left | right),)
            return ((left, right), (right, left))
        return ((left, right),)

    def can_hold(self, spec: PatternSpec) -> bool:
        """Do the host's parts have room for one copy of the pattern?

        A copy takes distinct host vertices: the core's, and for an
        expansion one apex per core edge, outside the core (A = |F| apexes
        for an expansion, 0 for a graph pattern).  Every triple of a
        semibipartite host has two left vertices and one right, so an
        ordered core (first part left, second right) gives each of its
        crossing pairs a left apex, and a core-in-V1 core gives each of its
        left pairs a right apex:

            ordered      core.m + A <= left,  core.n <= right
            core-in-V1   core.m + core.n <= left,  A <= right
            otherwise    v(F) + A <= all vertices

        "Otherwise" is unordered placement, or a host without parts (both
        part masks full).  The rule only counts vertices, so no host with
        these parts holds a copy it rejects, and a search may skip such a
        spec.  It is also exact on complete hosts, the unordered placement
        on a host with parts aside: the complete host with these parts holds
        a copy whenever the rule admits one.
        """
        core = spec.core
        apexes = core.edge_count if spec.expansion else 0
        left, right = self.left_mask, self.right_mask
        if spec.placement == "unordered" or left == right:
            return core.m + core.n + apexes <= len(self.adj)
        if spec.placement == "ordered":
            return core.m + apexes <= left.bit_count() and core.n <= right.bit_count()
        return core.m + core.n <= left.bit_count() and apexes <= right.bit_count()


class ThreeGraphHost(GraphHost):
    """Pair links of a 3-graph host over its shadow ``adj``, in combined labels.

    ``pair_link`` maps each sorted pair to the bitmask of the third vertices
    of its edges and holds no empty link; `add` and `remove` (of sorted
    triples) keep the shadow in step.  Built as a `GraphHost` is, from a
    `ThreeGraph` or a `SemibipartiteThreeGraph` (``has_parts`` set).
    """

    __slots__ = ("pair_link",)
    rank = 3

    def __init__(self, m: int, n: int | None = None):
        super().__init__(m, n)
        self.pair_link: dict[tuple[int, int], int] = {}

    @classmethod
    def of(cls, h: ThreeGraph | SemibipartiteThreeGraph) -> "ThreeGraphHost":
        if isinstance(h, ThreeGraph):
            host, triples = cls(h.n), h.edges
        else:
            host, triples = cls(h.m, h.n), [(u, v, h.m + w) for u, v, w in h.edges]
        link, adj = host.pair_link, host.adj
        for a, b, c in triples:
            link[a, b] = link.get((a, b), 0) | 1 << c
            link[a, c] = link.get((a, c), 0) | 1 << b
            link[b, c] = link.get((b, c), 0) | 1 << a
        for x, y in link:
            adj[x] |= 1 << y
            adj[y] |= 1 << x
        return host

    def add(self, t: tuple[int, int, int]) -> None:
        a, b, c = t
        link, adj = self.pair_link, self.adj
        for x, y, w in ((a, b, c), (a, c, b), (b, c, a)):
            old = link.get((x, y), 0)
            if not old:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
            link[(x, y)] = old | 1 << w

    def remove(self, t: tuple[int, int, int]) -> None:
        a, b, c = t
        link, adj = self.pair_link, self.adj
        for x, y, w in ((a, b, c), (a, c, b), (b, c, a)):
            rest = link[(x, y)] & ~(1 << w)
            if rest:
                link[(x, y)] = rest
            else:
                del link[(x, y)]
                adj[x] &= ~(1 << y)
                adj[y] &= ~(1 << x)


_last_static: tuple = (None, None)


def _static_host(h: ThreeGraph | SemibipartiteThreeGraph) -> ThreeGraphHost:
    """`ThreeGraphHost.of(h)` for the last static 3-graph asked about: a
    read-only index with one entry, for the reasons in the module docstring.
    It is keyed by the host object, not its value, so a lookup hashes
    nothing; the entry keeps its host alive, so no other object can take
    that identity while it is stored."""
    global _last_static
    last, host = _last_static
    if last is not h:
        host = ThreeGraphHost.of(h)
        _last_static = (h, host)
    return host


def _iter_pattern_embeddings(spec: PatternSpec, adj, lm: int, rm: int) -> Iterator[tuple[int, ...]]:
    """Every embedding of the core with its first part in lm, its second in rm."""
    core = spec.core
    if spec.is_complete:
        for a, b in iter_kst(adj, core.m, core.n, lm, rm):
            yield a + b
    else:
        plan = _embedding_plan(core.m + core.n, spec.combined_edges, ())
        yield from _embeddings(plan, [lm] * core.m + [rm] * core.n, adj)


# -- public searches --


def find_in_graph(g: Graph, spec: PatternSpec) -> EmbeddingWitness | None:
    """First copy of a graph pattern in a plain graph host, or None.

    A host with fewer vertices than the pattern is answered None without a
    search.
    """
    return _first_copy(GraphHost.of(g), spec, EmbeddingWitness)


def find_ordered_bipartite(g: BipartiteGraph, spec: PatternSpec) -> EmbeddingWitness | None:
    """First copy of a graph pattern in a bipartite host, or None.

    placement=ordered keeps the core's first part on the host's left side;
    unordered tries the orientations `GraphHost.sides` gives in turn, that
    one first, and returns the first copy found.  Witness labels are
    combined (right part shifted by g.m).  A host whose parts cannot hold
    the pattern (`GraphHost.can_hold`: for ordered placement, core.m left
    and core.n right vertices) is answered None without a search.
    """
    return _first_copy(GraphHost.of(g), spec, EmbeddingWitness)


def _first_copy(host: GraphHost, spec: PatternSpec, complete: Callable):
    """The first core embedding that complete(core_map) makes a witness of,
    over the orientations of `host.sides` in order, or None, once the host
    has admitted the pattern.  A core with a part-exchanging automorphism
    (`PatternSpec.swaps`) is searched in the first orientation alone: the
    map carries a copy in the second onto one in the first with the same
    image.  (An anchored check needs both: an arc may lead from the second
    part.)
    """
    host.admit(spec)
    if not host.can_hold(spec):
        return None
    for lm, rm in host.sides(spec)[: 1 if spec.swaps else 2]:
        for emb in _iter_pattern_embeddings(spec, host.adj, lm, rm):
            witness = complete(emb)
            if witness is not None:
                return witness
    return None


def _try_apex_match(
    core_map: tuple[int, ...],
    combined_edges,
    pair_link,
    forced: tuple[int, int] | None = None,
) -> ExpansionWitness | None:
    """Match distinct apexes to all core edges; forced = (edge index, apex)."""
    taken = 0
    for v in core_map:
        taken |= 1 << v
    idx = -1
    if forced is not None:
        idx, apex = forced
        if taken >> apex & 1:
            return None
        taken |= 1 << apex
    masks = []
    for i, (a, b) in enumerate(combined_edges):
        ha, hb = core_map[a], core_map[b]
        link = pair_link.get((ha, hb) if ha < hb else (hb, ha), 0)
        if i == idx:
            if not link >> apex & 1:
                return None
            continue
        eligible = link & ~taken
        if not eligible:
            return None
        masks.append(eligible)
    matched = _match_distinct(masks)
    if matched is None:
        return None
    if forced is not None:
        matched.insert(idx, apex)
    return ExpansionWitness(core_map, tuple(combined_edges), tuple(matched))


def find_expansion(
    h: ThreeGraph | SemibipartiteThreeGraph, spec: PatternSpec
) -> ExpansionWitness | None:
    """First expansion copy in a 3-graph host, or None.

    Core embeddings are enumerated in the shadow, over the orientations
    `GraphHost.sides` gives; each is completed by a maximum matching between
    core edges and distinct eligible apexes, so a core whose edges would
    have to share an apex is (correctly) rejected.  Shadow and pair links
    come from the one-entry, read-only index of `_static_host`, which a
    caller's next question about the same host reuses.

    A host whose parts cannot hold the expansion (`GraphHost.can_hold`
    counts the core's vertices and one distinct apex per core edge: an
    ordered K{2,2}+, say, needs 6 left vertices) is answered None without a
    search, exactly.
    """
    host = _static_host(h)
    combined_edges, pair_link = spec.combined_edges, host.pair_link
    return _first_copy(host, spec, lambda emb: _try_apex_match(emb, combined_edges, pair_link))


def iter_graph_embeddings(g: Graph, spec: PatternSpec) -> Iterator[tuple[int, ...]]:
    """Every injective embedding of the core into a plain graph host."""
    host = GraphHost.of(g)
    host.admit(spec)
    k = spec.vertex_count
    return _embeddings(_embedding_plan(k, spec.combined_edges, ()), [host.left_mask] * k, host.adj)


# -- solver-facing incremental checks --


def _kst_anchors(spec: PatternSpec, host: GraphHost) -> tuple[tuple, ...]:
    """A complete core's anchored K{s,t} tests on this host, one per
    orientation of `host.sides` and per arc: (s - 1,
    t - 1, first-part mask, second-part mask, does u lead the s-side).  An
    arc of a complete core lies on edge 0, from core vertex 0 to s or back,
    so on the host pair (u, v) u leads the copy's s-side or its t-side."""
    s, t = spec.core.m, spec.core.n
    return tuple(
        (s - 1, t - 1, lm, rm, x < s)
        for lm, rm in host.sides(spec)
        for _, x, _ in spec.arcs
    )


def _plan_through_pair(spec: PatternSpec, host: GraphHost):
    """Plan the anchored check of one spec on this host's part masks.

    Returns through(adj, u, v, avoid, accept): does accept(core_map, core
    edge index) take some copy of the core with a core edge on the host
    pair (u, v)?  Without accept any copy counts; host vertices in the
    avoid mask stay unused.  The orientations `host.sides` gives, the
    spec's `arcs` and, for a core that is not complete, each arc's
    embedding plan are fixed here, once.

    Each arc (ei, x, y) is anchored as x -> u, y -> v in each orientation: a
    complete core through `kst_through`, any other through its plan.  That
    is exact: a copy with core edge e on the pair maps some arc of e onto
    (u, v), and the automorphism carrying that arc to its orbit's
    representative carries the copy, e's apex and its orientation (swapped
    with the parts) along.  A complete core's check never reads the pair's
    own bit (`kst_through` leaves ha out of the s-side pool and hb out of
    the t-side), so it may run before the edge is added; any other core's
    plan tests its anchored edge, so the host must hold the pair.
    """
    s, t = spec.core.m, spec.core.n
    if spec.is_complete:
        anchors = _kst_anchors(spec, host)

        def through(adj, u, v, avoid=0, accept=None):
            kst_accept = None if accept is None else (lambda s_side, t_side: accept(s_side + t_side, 0))
            for _, _, lm, rm, forward in anchors:
                ha, hb = (u, v) if forward else (v, u)
                lm &= ~avoid
                rm &= ~avoid
                if lm >> ha & 1 and rm >> hb & 1 and kst_through(adj, s, t, lm, rm, (ha, hb), kst_accept):
                    return True
            return False

        return through

    plans = tuple(
        (ei, x, y, _embedding_plan(s + t, spec.combined_edges, (min(x, y), max(x, y))))
        for ei, x, y in spec.arcs
    )
    # every core edge runs from the first part (lm) to the second (rm)
    sides = host.sides(spec)

    def through(adj, u, v, avoid=0, accept=None):
        for lm, rm in sides:
            allowed = [lm & ~avoid] * s + [rm & ~avoid] * t
            for ei, x, y, plan in plans:
                for emb in _embeddings(plan, allowed, adj, ((x, u), (y, v))):
                    if accept is None or accept(emb, ei):
                        return True
        return False

    return through


def _plan_through_triple(spec: PatternSpec, host: ThreeGraphHost):
    """Plan `expansion_through_triple` for one spec on this host: returns
    hit(triple), which reads the host as it is when called.

    Any new copy must realize one core edge as (pair of the triple, apex =
    its third vertex), so the check anchors each decomposition in turn,
    keeps the apex out of the core and forces it onto the anchored edge.
    """
    through = _plan_through_pair(spec, host)
    adj, pair_link = host.adj, host.pair_link
    combined_edges = spec.combined_edges

    def hit(triple):
        a, b, c = triple
        for u, v, apex in ((a, b, c), (a, c, b), (b, c, a)):
            def apex_match(core_map, ei):
                return _try_apex_match(core_map, combined_edges, pair_link, forced=(ei, apex))
            if through(adj, u, v, 1 << apex, apex_match):
                return True
        return False

    return hit


def pattern_through_edge(host: GraphHost, spec: PatternSpec, u: int, v: int) -> bool:
    """Does some copy of the pattern use host edge (u, v)?  The host holds it."""
    host.admit(spec)
    if not host.adj[u] >> v & 1:
        return False
    return _plan_through_pair(spec, host)(host.adj, u, v)


def expansion_through_triple(
    host: ThreeGraphHost, spec: PatternSpec, triple: tuple[int, int, int]
) -> bool:
    """Does some expansion copy use the given host triple?  The host holds it."""
    host.admit(spec)
    return _plan_through_triple(spec, host)(triple)


def plan_take(host: GraphHost, specs) -> Callable[[tuple], bool]:
    """The solvers' per-edge step on a host they grow: take(e) adds the edge
    (a triple on a `ThreeGraphHost`), which the host does not hold yet, and
    returns True unless it completes a copy of some spec, in which case the
    host is left as it was and it returns False.

    The host admits every spec first (`GraphHost.admit` raises ValueError),
    then specs its parts cannot hold are dropped, and each kept spec's check
    is planned here, once per host, as `pattern_through_edge` and
    `expansion_through_triple` plan theirs on every call.  At rank 2 a
    complete core's test runs inline, before the edge is added, anchor by
    anchor (`_kst_anchors`), as `kst_through` without accept would: the
    intersection is N(ha) in the t-side mask and the pool N(hb) in the
    s-side mask, which leave out hb and ha while the pair is no edge.  For
    s = 2 a flat loop over the pool asks whether some member x keeps t - 1
    members of N(ha) & N(x), with no call; for s >= 3 take calls the
    recursion `_kst_through_from` directly.  A hit costs no add and no
    remove; every other check runs on the host holding the new edge.
    """
    kept = []
    for spec in specs:
        host.admit(spec)
        if host.can_hold(spec):
            kept.append(spec)
    add, remove = host.add, host.remove
    if host.rank == 3:
        hits = tuple(_plan_through_triple(s, host) for s in kept)

        def take(t):
            add(t)
            for hit in hits:
                if hit(t):
                    remove(t)
                    return False
            return True

        return take

    adj = host.adj
    anchors = tuple(a for s in kept if s.is_complete for a in _kst_anchors(s, host))
    after = tuple(_plan_through_pair(s, host) for s in kept if not s.is_complete)

    def take(e):
        u, v = e
        for more, need, first, second, forward in anchors:
            ha, hb = (u, v) if forward else (v, u)
            if not (first >> ha & 1 and second >> hb & 1):
                continue
            inter = adj[ha] & second
            if inter.bit_count() < need:
                continue
            pool = adj[hb] & first
            if more == 1:
                while pool:
                    low = pool & -pool
                    pool ^= low
                    if (inter & adj[low.bit_length() - 1]).bit_count() >= need:
                        return False
            elif _kst_through_from(adj, more, need, pool, inter, (ha,), (hb,), None):
                return False
        add(e)
        for through in after:
            if through(adj, u, v):
                remove(e)
                return False
        return True

    return take


# -- greedy expansion extension --


def heavy_shadow_graph(h: ThreeGraph, threshold: int) -> Graph:
    """Graph of shadow pairs whose pair degree in h is >= threshold.

    The pair links come from the one-entry, read-only index of
    `_static_host`, so asking for several thresholds of one host builds
    them once.
    """
    pair_link = _static_host(h).pair_link
    edges = [pair for pair, link in pair_link.items() if link.bit_count() >= threshold]
    return Graph(h.n, edges)


def greedy_extend(h: ThreeGraph, s_side: tuple[int, ...], t_side: tuple[int, ...]) -> ExpansionWitness:
    """Extend a complete bipartite core in the shadow to an expansion copy.

    Requires every core pair e to satisfy d_h(e) >= s*t + s + t; with that
    floor a fresh apex always exists (at most s + t + s*t - 1 vertices are
    ever excluded).  Apexes are chosen smallest-first in core edge order.
    The core pairs' links are read from the one-entry, read-only index of
    `_static_host`, which the many cores asked of one host share.
    """
    s, t = len(s_side), len(t_side)
    if s < 1 or t < 1:
        raise ValueError("core sides must be nonempty")
    if len(set(s_side) | set(t_side)) != s + t:
        raise ValueError("core vertices must be distinct")
    core_pairs = [(a, b) if a < b else (b, a) for a in s_side for b in t_side]
    pair_link = _static_host(h).pair_link
    links = [pair_link.get(key, 0) for key in core_pairs]
    need = s * t + s + t
    for key, link in zip(core_pairs, links):
        deg = link.bit_count()
        if deg < need:
            raise ValueError(f"pair {key} has degree {deg} < {need}; extension not guaranteed")
    core_mask = 0
    for v in (*s_side, *t_side):
        core_mask |= 1 << v
    used = 0
    apexes = []
    for link in links:
        avail = link & ~core_mask & ~used
        if not avail:
            raise InvariantViolationError("no apex available despite degree floor")
        w = (avail & -avail).bit_length() - 1
        apexes.append(w)
        used |= 1 << w
    core_map = tuple(s_side) + tuple(t_side)
    combined_edges = tuple((i, s + j) for i in range(s) for j in range(t))
    return ExpansionWitness(core_map, combined_edges, tuple(apexes))


# -- witness verification (direct definition checks, used by tests and harness) --


def _witness_holds(h, spec: PatternSpec, core_map, core_edges, apexes=()) -> bool:
    """core_map puts one distinct host vertex per core vertex on the sides
    the placement asks for, and every core edge, with its apex when apexes
    are given, is an edge of the host.

    Labels are combined (a host without parts is its own left and right).
    Each edge is bisected for in the sorted host edges; on a host with parts
    its last label, the right one, loses m, so a left label finds nothing.
    """
    if isinstance(h, (Graph, ThreeGraph)):
        m, left, right = 0, range(h.n), range(h.n)
    else:
        m, left, right = h.m, range(h.m), range(h.m, h.m + h.n)
    k = spec.core.m
    if len(core_map) != spec.vertex_count or len(set(core_map)) != len(core_map):
        return False
    if not all(v in left or v in right for v in core_map):
        return False
    if spec.placement == "ordered" and not (
        all(v in left for v in core_map[:k]) and all(v in right for v in core_map[k:])
    ):
        return False
    if spec.placement == "core-in-V1" and not all(v in left for v in core_map):
        return False
    edges = h.edges
    for i, (a, b) in enumerate(core_edges):
        x, y = core_map[a], core_map[b]
        if x > y:
            x, y = y, x
        if not apexes:
            key = (x, y - m)
        elif (w := apexes[i]) < x:
            key = (w, x, y - m)
        elif w < y:
            key = (x, w, y - m)
        else:
            key = (x, y, w - m)
        j = bisect_left(edges, key)
        if j == len(edges) or edges[j] != key:
            return False
    return True


def verify_graph_witness(g: Graph, spec: PatternSpec, w: EmbeddingWitness) -> bool:
    return _witness_holds(g, spec, w.core_map, spec.combined_edges)


def verify_bipartite_witness(g: BipartiteGraph, spec: PatternSpec, w: EmbeddingWitness) -> bool:
    return _witness_holds(g, spec, w.core_map, spec.combined_edges)


def verify_expansion_witness(
    h: ThreeGraph | SemibipartiteThreeGraph, spec: PatternSpec, w: ExpansionWitness
) -> bool:
    core_edges = spec.combined_edges
    if len(w.apexes) != len(core_edges) or sorted(w.core_edges) != sorted(core_edges):
        return False
    if len(set(w.apexes)) != len(w.apexes) or set(w.apexes) & set(w.core_map):
        return False
    return _witness_holds(h, spec, w.core_map, w.core_edges, w.apexes)
