"""Exact extremal solvers and closed-form bound certificates.

One branch-and-bound engine computes exact extremal edge counts on hosts
small enough for exhaustive reasoning.  Three entry points set it up:

* ``ex_exact``: pattern-free graphs or 3-graphs on ``n`` vertices, with an
  optional maximum-degree floor (only hosts whose largest degree reaches
  the floor count as feasible).
* ``z_exact``: bipartite hosts with parts ``(m, n)`` avoiding every given
  pattern, respecting each pattern's placement.
* ``z_expansion_exact``: semibipartite 3-graph hosts avoiding one ordered
  expansion pattern and one core-in-V1 expansion pattern simultaneously.

Each entry point checks its own arguments and caps, then hands one shared
tail, `_solve`, an empty `turanlab.patterns` host (``GraphHost`` at rank
2, ``ThreeGraphHost`` at rank 3), its lexicographic edge universe, the
vertices whose degree each edge raises, and the witness type with its
finder.  The tail runs the engine with the step `plan_take` builds for the
host: take(e) adds an edge unless it completes a forbidden pattern, and the
host's ``remove`` takes it out again.  The engine walks the universe
depth first, in one loop over an explicit stack of decided edges rather
than by recursion, trying inclusion before exclusion, and prunes a branch
when (i) the new edge completes a forbidden pattern, (ii) the incumbent
cannot be beaten even if every remaining edge were added, (iii) symmetry
breaking rules the branch out: tracked degrees must not increase with the
vertex label, checked where a vertex's degree becomes final, and where
vertex c >= 1 becomes final with the degree of c - 1, swapping the two
labels must not give a lexicographically smaller edge set; and at every
node, with u the largest vertex already final and a = u + 1, a and every
later vertex end with degree at most c = min(deg[u], deg[a] plus the
remaining edges that raise a), so the branch is cut unless the final
degrees of 0..u plus c for each later vertex could beat the incumbent
(this needs degrees to become final in label order, as they do in all
three entry points); and for ``z_exact`` and ``z_expansion_exact`` the
right part's columns of the row-major universe must be in non-increasing
lex order, checked at every row end, or (iv) the degree floor can no
longer be met: with symmetry breaking on, vertex 0 carries the largest
degree of every surviving host, so only its degree is tested; with it off,
no vertex may still reach the floor.  All of these are exact: every host
has a relabelled copy that passes (iii), with the same edge count and
maximum degree, and the cap only drops branches that cannot strictly beat
the incumbent: on a leaf that passes (iii) no vertex after a ends above
a's final degree, which is at most deg[u] and at most deg[a] plus a's
remaining edges.  Because inclusion is tried first and the incumbent is replaced
only on strict improvement, the reported witness is the lexicographically
smallest optimal edge set among the hosts the symmetry-reduced search
visits.  The equal-degree swap does not change that witness: a host it
cuts has a smaller copy with the same degrees, and sorting that copy's
columns, where it has parts, makes it smaller still, so the smallest
optimal host that passes the degree and column rules passes the swap
too (`_branch_and_bound` gives the argument).  Every witness is
re-verified against the full pattern finders, in `_solve`, before being
returned.

Rule (i) is the hot path: one planned check per tested edge, the anchored
check of `turanlab.patterns` with its masks, arcs and embedding plans
fixed once per solve.  It anchors on the new pair one directed core edge
per symmetry class of the core (`PatternSpec.arcs`: one for C4 and for
C6).  At rank 2, take runs a complete core's K{s,t} test inline, for
s = 2 (C4, K{2,t}) as a flat loop over the pool with no call;
`pattern_through_edge` and `expansion_through_triple` are the per-call
reference paths the differential tests check take against, not the code
the solvers run.  Before the search, the host admits every pattern
(`GraphHost.admit`: one of the wrong kind or placement raises ValueError),
and `plan_take` drops the patterns the host's parts cannot hold
(`GraphHost.can_hold`), which (i) would answer false on every edge, so
every decision, node count and witness stays the same.  An ordered
K{2,2}+, for one, needs 6 left vertices, more than any
``z_expansion_exact`` host up to the side cap has.

``eval_bound`` evaluates the closed-form upper bounds that accompany the
solvers with high-precision arithmetic (mpmath) and records which formula
branch applied.  Comparisons against exact integers should use the
high-precision value, never a rounded float.  mpmath is imported inside
the bound evaluators, its only users, so a solve, a scan or a CLI start
does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import comb
from operator import add
from typing import Callable, Sequence

from .errors import CapExceededError, InvariantViolationError
from .hypergraph import BipartiteGraph, Graph, SemibipartiteThreeGraph, ThreeGraph
from .patterns import (
    GraphHost,
    PatternSpec,
    ThreeGraphHost,
    find_expansion,
    find_in_graph,
    find_ordered_bipartite,
    normalize_specs,
    plan_take,
)

MAX_EX_GRAPH_VERTICES = 10
MAX_EX_THREE_VERTICES = 8
MAX_Z_CELLS = 64
MAX_Z_EXPANSION_SIDE = 5

_BOUND_PARAMS = {
    "kst_ex": ("n", "s", "t"),
    "kst_z": ("m", "n", "s", "t"),
    "nv_cycle": ("m", "n", "k"),
    "z_exp_i": ("m", "n", "s1", "t1", "s2", "t2"),
    "z_exp_ii": ("m", "n", "s1", "t1", "s2", "t2"),
}
BOUND_IDS = tuple(_BOUND_PARAMS)

_BOUND_DPS = 40


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve: extremal value, one witness, search size.

    ``witness`` is None only when a degree floor makes every pattern-free
    host infeasible; the value is then 0 by convention.  ``nodes_explored``
    counts decision-tree nodes entered, including pruned ones.
    """

    value: int
    witness: Graph | BipartiteGraph | ThreeGraph | SemibipartiteThreeGraph | None
    nodes_explored: int

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "nodes_explored": self.nodes_explored,
        }


def _branch_and_bound(
    universe: Sequence[tuple],
    raises: Sequence[tuple[int, ...]],
    nv_deg: int,
    symmetry: bool,
    take: Callable[[tuple], bool],
    remove: Callable[[tuple], None],
    floor: int | None = None,
    row_width: int = 0,
) -> tuple[int, tuple[int, ...], int]:
    """Largest subset of the edge universe that ``take`` accepts.

    Edges are decided in universe order, inclusion first; ``take(edge)``
    adds an edge to the host unless it completes a pattern copy and
    returns whether it did, and ``remove`` takes an included edge out again
    on backtracking.
    ``raises[i]`` lists the degree-tracked vertices (labels below
    ``nv_deg``) whose degree edge i raises; every edge raises the same
    number of them, the divisor, so tracked degrees sum to divisor * |E|.  A
    vertex's degree is final one past the last edge that raises it; with
    ``symmetry`` set, a branch is cut there when that degree exceeds its
    predecessor's, so every surviving leaf has non-increasing degrees over
    the tracked vertices that some edge raises.

    With ``symmetry`` set, every node is also capped by degrees.  At node i
    let u be the largest vertex already final and a = u + 1.  On a
    surviving leaf no vertex after a ends above a's final degree, which is
    at most deg[u] (u is final) and at most deg[a] plus the edges from
    index i on that raise a; call the smaller c.  So a leaf below node i
    has at most ``(S + (nv_deg - u - 1) * c) // divisor`` edges, where S is
    the sum of deg[0..u], and the branch is cut when that cannot beat the
    incumbent.  It drops only subtrees with no leaf
    above the incumbent, so the witness is unchanged.  The cap needs
    degrees to become final in label order, so that every vertex below u
    is final once u is; the lex edge universes of all three entry points
    have that order.  S is summed once, at the node where u becomes final:
    deg[0..u] do not change below it.

    With ``floor`` set, a branch is cut once no tracked vertex can still
    reach that degree.  With ``symmetry`` set as well, every tracked vertex
    must be raised by some edge, and the test reads vertex 0 alone: on a
    surviving leaf it has the largest degree, so the floor is met exactly
    when ``deg[0]`` reaches it.

    A nonzero ``row_width`` declares the universe a row-major matrix of
    rows of that many cells, whose columns can be permuted without changing
    any tracked degree or the host's pattern-freeness.  With ``symmetry``
    set, each column is read as a binary number with row 0 the most
    significant bit, and at every row end a branch is cut when some
    column's prefix exceeds its predecessor's (equal prefixes stay open),
    so surviving leaves have columns in non-increasing lex order.  Column
    sorting keeps row degrees, so both orders hold on some copy of every
    host.

    With ``symmetry`` set, a branch is also cut where a vertex c >= 1
    becomes final with ``deg[c] == deg[c - 1]``, when swapping the labels
    c - 1 and c gives a lexicographically smaller edge set, read in
    universe order with inclusion first.  The universe must be closed under
    that swap, with each cell re-sorted; a host with parts numbers its
    right part above the tracked labels, so only left labels move.  The
    swap moves just the cells holding exactly one of the two labels, in
    pairs (j, k) with k the image of j; every such cell holds c - 1 or c,
    so all are decided where c becomes final (degrees become final in
    label order, as for the cap).  The walk reads the pairs with j < k in
    ascending j, stops at the first whose two cells differ, and cuts when
    cell j is out: the swapped host has j in and agrees before it.  This
    is exact.  A leaf the cut drops has a copy with the same edge count,
    pattern-freeness and degrees, so it keeps the degree order and the
    floor, and it is lexicographically smaller.  If that copy breaks the
    column order, sorting its columns keeps every row degree and makes it
    smaller still: swapping two adjacent columns whose prefixes increase
    leaves the rows above their first difference alone and, in that row,
    turns the earlier cell from out to in.  So the smallest optimal host
    that passes the degree and column rules passes this cut too.  It is
    the first optimal leaf the search reaches with or without the cut, and
    the cuts by bound drop no branch holding it before it is found, so the
    value and the witness stay the same and only the node count moves.

    The walk is one loop over an explicit stack of decided edges, not a
    recursion, so its speed does not depend on how deep the caller's stack
    is.  The checks above run at the loop head of every node, from lists
    indexed by the node's depth.

    Returns (best count, universe indices of the first best set found,
    nodes entered); best is -1 when no leaf is feasible.
    """
    L = len(universe)
    divisor = len(raises[0]) if raises else 1
    final_at: dict[int, int] = {}
    for i, vs in enumerate(raises):
        for x in vs:
            final_at[x] = i + 1
    # what the loop head checks at node i, looked up by index: the vertices
    # made final there, and (u, nv_deg - u - 1, the raises of u + 1 from i
    # on) for the largest vertex u final by then (symmetry), whether a row
    # ends there (column order), and the degrees the remaining edges can
    # still add (floor)
    sym_at: list[tuple[int, ...]] = [()] * (L + 1)
    cap_at: list[tuple[int, int, int] | None] = [None] * (L + 1)
    # (c, the (j, k) universe indices with k the cell j becomes when labels
    # c - 1 and c swap, j < k, ascending j) for each c final at node i
    swap_at: list[tuple[tuple[int, tuple[tuple[int, int], ...]], ...]] = [()] * (L + 1)
    if symmetry:
        index = {e: j for j, e in enumerate(universe)}
        for u in sorted(final_at):
            sym_at[final_at[u]] += (u,)
            if u:
                swap = {u - 1: u, u: u - 1}
                pairs = tuple(
                    (j, k)
                    for j, e in enumerate(universe)
                    if (k := index[tuple(sorted(swap.get(x, x) for x in e))]) > j
                )
                swap_at[final_at[u]] += ((u, pairs),)
        u = -1
        for i in range(L + 1):
            if sym_at[i]:
                u = sym_at[i][-1]
            if 0 <= u < nv_deg - 1:
                more = sum(u + 1 in vs for vs in raises[i:])
                cap_at[i] = (u, nv_deg - u - 1, more)
    row_end = [False] * (L + 1)
    cols: list[int] = []
    if symmetry and row_width:
        top = L // row_width - 1
        cols = [0] * row_width
        cell = [(i % row_width, 1 << (top - i // row_width)) for i in range(L)]
        for i in range(row_width, L + 1, row_width):
            row_end[i] = True
    suffix: list[list[int]] | None = None
    if floor is not None:
        suffix = [[0] * nv_deg for _ in range(L + 1)]
        for i in range(L - 1, -1, -1):
            row = list(suffix[i + 1])
            for x in raises[i]:
                row[x] += 1
            suffix[i] = row
        if symmetry:
            # only vertex 0 is read: max(map(add, deg, row)) stops at the
            # shorter list
            suffix = [row[:1] for row in suffix]

    # deg[-1], past the tracked vertices, is a degree no vertex reaches, so
    # vertex 0 passes the order check against its "predecessor"
    deg = [0] * nv_deg + [L + 1]
    # fixed[u]: the sum of deg[0..u], set where u becomes final
    fixed = [0] * nv_deg
    # one entry per decided edge, in universe order: i while the inclusion
    # branch of edge i is open, ~i once its exclusion branch is
    stack: list[int] = []
    count = 0
    best = -1
    need = 0  # the smallest tracked degree total that beats best
    best_chosen: tuple[int, ...] = ()
    nodes = 0
    i = 0
    while True:
        # descend from node i (i == len(stack)) to a cut or a leaf
        while True:
            nodes += 1
            if count + (L - i) <= best:
                break
            us = sym_at[i]
            if us:
                for u in us:
                    if deg[u] > deg[u - 1]:
                        break
                if deg[u] > deg[u - 1]:  # the loop stopped at u
                    break
                earlier = False
                for c, pairs in swap_at[i]:
                    if deg[c] == deg[c - 1]:
                        # stack[j] is j or ~j, so an xor below 0 means
                        # exactly one of cells j and k is in
                        for j, k in pairs:
                            if (stack[j] ^ stack[k]) < 0:
                                earlier = stack[j] < 0
                                break
                        if earlier:
                            break
                if earlier:
                    break
                fixed[u] = sum(deg[:u + 1])
            cap = cap_at[i]
            if cap:
                u, rest, more = cap
                most = deg[u + 1] + more
                if most > deg[u]:
                    most = deg[u]
                if fixed[u] + rest * most < need:
                    break
            if row_end[i] and cols != sorted(cols, reverse=True):
                break
            if suffix is not None and max(map(add, deg, suffix[i])) < floor:
                break
            if i == L:
                best = count
                need = (best + 1) * divisor
                best_chosen = tuple(j for j in stack if j >= 0)
                break
            if take(universe[i]):
                for x in raises[i]:
                    deg[x] += 1
                if cols:
                    c, bit = cell[i]
                    cols[c] += bit
                stack.append(i)
                count += 1
            else:
                stack.append(~i)
            i += 1
        # backtrack: drop closed exclusion branches, then turn the deepest
        # inclusion into its exclusion
        while stack:
            i = stack.pop()
            if i >= 0:
                break
        else:
            return best, best_chosen, nodes
        for x in raises[i]:
            deg[x] -= 1
        if cols:
            c, bit = cell[i]
            cols[c] -= bit
        remove(universe[i])
        count -= 1
        stack.append(~i)
        i += 1


def _solve(host, specs, cells, raises, build, find, symmetry, floor=None, row_width=0) -> SolveResult:
    """The tail every entry point shares: the engine on the empty host, the
    witness, and its independent re-check.

    ``cells`` is the edge universe in the witness's labels, in which a host
    with parts numbers its right part from 0 too: the host's label of a
    cell's last, right-part vertex is shifted by the left part's size.
    ``raises[i]`` lists the degree-tracked vertices of cell i, which lie in
    the host's left part (all of a host without parts).  The best cells
    found become the witness build(cells); it must have as many edges as
    the solve's value, and `find` must see no spec in it.
    """
    tracked = host.left_mask.bit_length()
    shift = tracked if host.has_parts else 0
    universe = [(*cell[:-1], cell[-1] + shift) for cell in cells]
    best, chosen, nodes = _branch_and_bound(
        universe, raises, tracked, symmetry, plan_take(host, specs), host.remove, floor, row_width
    )
    if best < 0:
        return SolveResult(0, None, nodes)
    witness = build([cells[i] for i in chosen])
    if any(find(witness, s) is not None for s in specs):
        raise InvariantViolationError("witness failed the independent freeness re-check")
    if witness.edge_count != best:
        raise InvariantViolationError("witness edge count disagrees with the solve value")
    return SolveResult(best, witness, nodes)


def ex_exact(
    n: int,
    patterns: PatternSpec | Sequence[PatternSpec],
    host_kind: str = "graph",
    degree_floor: int | None = None,
    symmetry: bool = True,
) -> SolveResult:
    """Exact maximum edge count of a pattern-free host on n vertices.

    ``patterns`` is a single spec or a sequence; every listed pattern is
    forbidden.  ``host_kind`` selects plain graphs or 3-uniform hosts; the
    latter take expansion patterns, and neither has parts, so every
    pattern's placement must be unordered (`GraphHost.admit`).  With
    ``degree_floor`` set, only hosts whose maximum degree is at least the
    floor are feasible.  A floor no host on n vertices can meet raises
    ValueError; a floor that merely conflicts with the patterns yields
    value 0 and witness None.
    """
    specs = normalize_specs(patterns)
    if n < 0:
        raise ValueError("n must be >= 0")
    if host_kind == "graph":
        if n > MAX_EX_GRAPH_VERTICES:
            raise CapExceededError(f"graph solver capped at n <= {MAX_EX_GRAPH_VERTICES}")
        host, build, find = GraphHost(n), Graph, find_in_graph
    elif host_kind == "3graph":
        if n > MAX_EX_THREE_VERTICES:
            raise CapExceededError(f"3-graph solver capped at n <= {MAX_EX_THREE_VERTICES}")
        host, build, find = ThreeGraphHost(n), ThreeGraph, find_expansion
    else:
        raise ValueError(f"unknown host kind {host_kind!r}")

    floor = None
    if degree_floor is not None:
        floor = int(degree_floor)
        max_degree = comb(max(n - 1, 0), host.rank - 1)
        if floor < 0:
            raise ValueError("degree floor must be >= 0")
        if floor > max_degree:
            raise ValueError(
                f"degree floor {floor} exceeds the largest possible degree {max_degree}"
            )
        if floor == 0:
            floor = None

    cells = list(combinations(range(n), host.rank))
    return _solve(host, specs, cells, cells, partial(build, n), find, symmetry, floor)


def z_exact(
    m: int,
    n: int,
    patterns: PatternSpec | Sequence[PatternSpec],
    symmetry: bool = True,
) -> SolveResult:
    """Exact maximum edges of a pattern-free bipartite host with parts (m, n).

    Patterns must be plain graph patterns (`GraphHost.admit`).  Ordered
    placement pins a pattern's left part to the host's left part; unordered
    forbids both orientations.
    """
    specs = normalize_specs(patterns)
    if m < 0 or n < 0:
        raise ValueError("part sizes must be >= 0")
    if m * n > MAX_Z_CELLS:
        raise CapExceededError(f"bipartite solver capped at m*n <= {MAX_Z_CELLS}")

    cells = [(u, w) for u in range(m) for w in range(n)]
    return _solve(
        GraphHost(m, n), specs, cells, [(u,) for u, _ in cells], partial(BipartiteGraph, m, n),
        find_ordered_bipartite, symmetry, row_width=n,
    )


def z_expansion_exact(
    m: int,
    n: int,
    ordered_pattern: PatternSpec,
    core_in_v1_pattern: PatternSpec,
    symmetry: bool = True,
) -> SolveResult:
    """Exact maximum edges of a semibipartite 3-graph avoiding both patterns.

    The host has m left (V1) and n right (V2) vertices and every edge takes
    two left vertices and one right.  ``ordered_pattern`` must be an
    expansion with ordered placement, ``core_in_v1_pattern`` an expansion
    with core-in-V1 placement.
    """
    for spec, want in ((ordered_pattern, "ordered"), (core_in_v1_pattern, "core-in-V1")):
        if not isinstance(spec, PatternSpec) or not spec.expansion or spec.placement != want:
            raise ValueError(f"need an expansion pattern with {want} placement")
    if m < 0 or n < 0:
        raise ValueError("part sizes must be >= 0")
    if m > MAX_Z_EXPANSION_SIDE or n > MAX_Z_EXPANSION_SIDE:
        raise CapExceededError(
            f"semibipartite solver capped at parts <= {MAX_Z_EXPANSION_SIDE}"
        )

    cells = [(u, v, w) for u, v in combinations(range(m), 2) for w in range(n)]
    return _solve(
        ThreeGraphHost(m, n), (ordered_pattern, core_in_v1_pattern), cells, [(u, v) for u, v, _ in cells],
        partial(SemibipartiteThreeGraph, m, n), find_expansion, symmetry, row_width=n,
    )


# -- closed-form bound evaluation --


@dataclass(frozen=True, eq=True)
class BoundCertificate:
    """An evaluated closed-form bound.

    ``value`` is an mpmath high-precision real; ``branch`` records which
    case of the formula applied; ``components`` carries the named auxiliary
    quantities for the expansion bounds (f, g, h, r) when they exist.
    """

    bound_id: str
    params: dict
    value: mpmath.mpf
    branch: str
    components: dict | None = None

    def to_json_dict(self) -> dict:
        import mpmath

        out = {
            "bound_id": self.bound_id,
            "params": dict(self.params),
            "value": float(self.value),
            "value_str": mpmath.nstr(self.value, 24),
            "branch": self.branch,
        }
        if self.components is not None:
            out["components"] = {k: float(v) for k, v in self.components.items()}
        return out


def _check_bound_params(bound_id: str, params: dict) -> dict[str, int]:
    keys = _BOUND_PARAMS[bound_id]
    if set(params) != set(keys):
        raise ValueError(
            f"{bound_id} takes parameters {{{', '.join(keys)}}}, got {sorted(params)}"
        )
    vals = {}
    for k in keys:
        v = params[k]
        if v != int(v):
            raise ValueError(f"parameter {k} must be an integer, got {v!r}")
        v = int(v)
        if v < 1:
            raise ValueError(f"parameter {k} must be >= 1, got {v}")
        vals[k] = v
    if bound_id == "nv_cycle" and any(vals[k] < 2 for k in ("m", "n", "k")):
        raise ValueError("cycle bound needs m, n, k >= 2")
    if bound_id in ("z_exp_i", "z_exp_ii"):
        if not (vals["t1"] >= vals["s1"] >= 2 and vals["t2"] >= vals["s2"] >= 2):
            raise ValueError("expansion bounds need t1 >= s1 >= 2 and t2 >= s2 >= 2")
    return vals


def z_expansion_components(
    variant: str, m: int, n: int, s1: int, t1: int, s2: int, t2: int
) -> dict:
    """Auxiliary quantities f, g, h, r behind the expansion bounds.

    Variant "i" treats the host as dominated by right-side growth, variant
    "ii" by left-side growth; both share r and h.  Values are mpmath reals.
    """
    import mpmath

    if variant not in ("i", "ii"):
        raise ValueError("variant must be 'i' or 'ii'")
    with mpmath.workdps(_BOUND_DPS):
        mm = mpmath.mpf(m)
        nn = mpmath.mpf(n)
        one = mpmath.mpf(1)
        r = mpmath.mpf((s1 + 1) * (t1 + 1) * m * n + (s2 + 1) * (t2 + 1) * m * m)
        h = (s2 + t2) * mm ** (2 - one / s2) / 2
        if variant == "i":
            f = (
                (s1 + t1) ** 2 * (s2 + t2) * mm ** (2 - one / s2) * nn ** (1 - 2 * one / s1)
                + 2 * t1 * mm * nn
                + 2 * s1 * nn ** (1 + one / s1)
            )
            g = t1 * mm * nn ** (1 - one / s1) + s1 * nn
        else:
            f = (
                2
                * (s1 + t1)
                * (s2 + t2)
                * (
                    t1 * mm ** (2 - one / s1 - 2 * one / s2 + one / (s1 * s2)) * nn
                    + s1 * mm ** (2 + one / s1 - one / s2)
                )
            )
            g = t1 * nn * mm ** (1 - one / s1) + s1 * mm
        return {"f": f, "g": g, "h": h, "r": r}


def eval_bound(bound_id: str, params: dict) -> BoundCertificate:
    """Evaluate one of the closed-form bounds at integer parameters.

    Known ids: kst_ex and kst_z (complete-bipartite-free edge bounds),
    nv_cycle (even-cycle-free bipartite bound, parity branch recorded),
    z_exp_i and z_exp_ii (semibipartite expansion bounds, value 2f + r).
    """
    if bound_id not in _BOUND_PARAMS:
        raise ValueError(f"unknown bound id {bound_id!r}; known: {', '.join(BOUND_IDS)}")
    import mpmath

    vals = _check_bound_params(bound_id, params)
    components = None
    branch = "direct"
    with mpmath.workdps(_BOUND_DPS):
        one = mpmath.mpf(1)
        if bound_id == "kst_ex":
            n, s, t = vals["n"], vals["s"], vals["t"]
            nn = mpmath.mpf(n)
            value = mpmath.root(t - 1, s) / 2 * nn ** (2 - one / s) + mpmath.mpf(s - 1) / 2 * nn
        elif bound_id == "kst_z":
            m, n, s, t = vals["m"], vals["n"], vals["s"], vals["t"]
            mm, nn = mpmath.mpf(m), mpmath.mpf(n)
            value = mpmath.root(t - 1, s) * mm * nn ** (1 - one / s) + (s - 1) * nn
        elif bound_id == "nv_cycle":
            m, n, k = vals["m"], vals["n"], vals["k"]
            mm, nn = mpmath.mpf(m), mpmath.mpf(n)
            if k % 2:
                branch = "odd-k"
                e = one / 2 + one / (2 * k)
                value = (2 * k - 3) * (mm**e * nn**e + mm + nn)
            else:
                branch = "even-k"
                value = (2 * k - 3) * (mm ** (one / 2 + one / k) * nn ** (one / 2) + mm + nn)
        else:
            variant = "i" if bound_id == "z_exp_i" else "ii"
            branch = f"variant-{variant}"
            components = z_expansion_components(
                variant, vals["m"], vals["n"], vals["s1"], vals["t1"], vals["s2"], vals["t2"]
            )
            value = 2 * components["f"] + components["r"]
    return BoundCertificate(bound_id, vals, value, branch, components)
