"""Finite-host experiments tying the solvers, patterns, and hosts together.

The harness instantiates, at desk scale, the counting arguments that drive
degree-constrained extremal questions:

* ``scan_grid`` compares the pattern-free optimum with and without a
  maximum-degree floor derived from a density parameter alpha, over a grid
  of (n, alpha) cells.  It solves the free problem once per n and a floor
  problem only where the free witness misses the floor;
  ``boundedness_scan`` is its one-cell call.
* ``decompose_graph`` / ``decompose_3graph`` split a host around a pivot
  vertex into the regions whose edge counts appear in those arguments; the
  3-graph split classifies the other vertices by their codegree with the
  pivot against the threshold (s+1)(t+1).
* ``check_heavy_neighborhood_size`` verifies that a maximum-degree pivot
  whose degree meets the alpha floor has many high-codegree neighbors.
  Counting pairs through the pivot gives 2 d(v) = sum of codegrees, which
  is at most |V1|(n-2) + (n-1)(D-1) with D = (s+1)(t+1); if d(v) is at
  least alpha*C(n-1,2) and |V1| < alpha*n/2, the two bounds force
  alpha*(n-2)^2 < 2(n-1)(D-1), impossible once n > 2D/alpha + 4.  Below
  that explicit threshold the check reports "out-of-regime" instead of a
  verdict.
* ``check_region_freeness`` verifies the three freeness statements the
  decomposition regions inherit from an expansion-free host.
* ``monotonicity_check``, ``bipartite_split_check``, and ``removal_ratio``
  are exact-arithmetic consistency checks between the solvers.

All numeric comparisons here are exact (Fractions); reports serialize to
JSON and CSV rows carrying content hashes of their witness hosts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO

from .errors import InvariantViolationError
from .hypergraph import (
    BipartiteGraph,
    Graph,
    SemibipartiteThreeGraph,
    ThreeGraph,
    content_hash,
    degree_stats,
    iter_bits,
)
from .patterns import (
    PatternSpec,
    complete_bipartite,
    find_expansion,
    normalize_specs,
    remove_vertex,
    static_host,
)
from .solvers import ex_exact, z_exact


def _jsonable(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator, "float": float(x)}
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


@dataclass(frozen=True)
class ScanReport:
    """One cell of a degree-floor scan: constrained vs free optimum."""

    pattern: str
    host_kind: str
    n: int
    alpha: Fraction
    floor: int
    constrained_max: int
    unconstrained_ex: int
    ratio: Fraction
    constrained_witness: Graph | ThreeGraph | None
    unconstrained_witness: Graph | ThreeGraph | None

    def to_json_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "host_kind": self.host_kind,
            "n": self.n,
            "alpha": _jsonable(self.alpha),
            "floor": self.floor,
            "constrained_max": self.constrained_max,
            "unconstrained_ex": self.unconstrained_ex,
            "ratio": _jsonable(self.ratio),
            "constrained_witness": None
            if self.constrained_witness is None
            else self.constrained_witness.to_json_dict(),
            "unconstrained_witness": None
            if self.unconstrained_witness is None
            else self.unconstrained_witness.to_json_dict(),
            "constrained_witness_hash": self._hash(self.constrained_witness),
            "unconstrained_witness_hash": self._hash(self.unconstrained_witness),
        }

    def to_csv_row(self) -> dict:
        return {
            "pattern": self.pattern,
            "host_kind": self.host_kind,
            "n": self.n,
            "alpha": str(self.alpha),
            "floor": self.floor,
            "constrained_max": self.constrained_max,
            "unconstrained_ex": self.unconstrained_ex,
            "ratio": str(self.ratio),
            "ratio_float": float(self.ratio),
            "constrained_witness_hash": self._hash(self.constrained_witness),
            "unconstrained_witness_hash": self._hash(self.unconstrained_witness),
        }

    @staticmethod
    def _hash(witness) -> str:
        return "" if witness is None else content_hash(witness)


@dataclass(frozen=True)
class Decomposition:
    """Pivot split of a host; region edge counts sum to the host size."""

    pivot: int
    v1: tuple[int, ...]
    v2: tuple[int, ...]
    counts: dict
    total: int


@dataclass(frozen=True)
class Verdict:
    """Outcome of a consistency check plus the numbers behind it."""

    status: str
    details: dict

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def to_json_dict(self) -> dict:
        return {"status": self.status, "details": _jsonable(self.details)}


@dataclass(frozen=True)
class RemovalRatioReport:
    """Diagnostic ratio z(n,n,F-v) / ex(n,F); no verdict is attached."""

    pattern: str
    vertex: int
    n: int
    z_after_removal: int
    ex_value: int
    ratio: Fraction
    flag: str | None

    def to_json_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "vertex": self.vertex,
            "n": self.n,
            "z_after_removal": self.z_after_removal,
            "ex_value": self.ex_value,
            "ratio": _jsonable(self.ratio),
            "flag": self.flag,
        }


def boundedness_scan(patterns, n: int, alpha, host_kind: str = "graph") -> ScanReport:
    """One cell of ``scan_grid``: the scan of a single n and alpha."""
    return scan_grid(patterns, (n,), (alpha,), host_kind)[0]


def scan_grid(
    patterns, ns: Iterable[int], alphas: Iterable, host_kind: str = "graph"
) -> list[ScanReport]:
    """Compare the pattern-free optimum with and without a degree floor,
    for every n (outer) and alpha (inner).

    The floor is ceil(alpha * C(n-1, r-1)) on r-graphs (r = 2 or 3).  Every
    alpha and the host kind are checked before any solve.  The free problem
    is solved once per n.  The free witness is the first best leaf in search
    order, so under a floor it meets the floor-constrained search returns it
    too: that cell reuses the free result.  When even the unconstrained
    optimum is 0 the ratio is 1 by convention (no gap to speak of).
    """
    specs = normalize_specs(patterns)
    fas = [Fraction(a) for a in alphas]
    if not all(0 < fa <= 1 for fa in fas):
        raise ValueError("alpha must lie in (0, 1]")
    rank = {"graph": 2, "3graph": 3}.get(host_kind)
    if rank is None:
        raise ValueError(f"unknown host kind {host_kind!r}")
    name = ",".join(s.display_name() for s in specs)
    reports = []
    for n in ns:
        slots = comb(max(n - 1, 0), rank - 1)
        free = ex_exact(n, specs, host_kind=host_kind)
        top = degree_stats(free.witness).maximum
        for fa in fas:
            floor = ceil(fa * slots)
            constrained = free
            if top < floor:
                constrained = ex_exact(n, specs, host_kind=host_kind, degree_floor=floor)
                if constrained.value > free.value:
                    raise InvariantViolationError("constrained optimum exceeds the free optimum")
            ratio = Fraction(constrained.value, free.value) if free.value else Fraction(1)
            reports.append(ScanReport(
                pattern=name, host_kind=host_kind, n=n, alpha=fa, floor=floor,
                constrained_max=constrained.value, unconstrained_ex=free.value, ratio=ratio,
                constrained_witness=constrained.witness, unconstrained_witness=free.witness,
            ))
    return reports


def decompose_graph(g: Graph, v: int) -> Decomposition:
    """Split a graph around a pivot: V1 = its neighborhood, V2 = the rest.

    Region counts: edges at the pivot, inside V1, crossing V1-V2, inside
    V2.  They always sum to the edge count.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} not in host")
    nb = g.adj[v]
    v1 = tuple(u for u in range(g.n) if nb >> u & 1)
    v2 = tuple(u for u in range(g.n) if u != v and not nb >> u & 1)
    in1 = set(v1)
    counts = {"pivot": 0, "inside_v1": 0, "crossing": 0, "inside_v2": 0}
    for a, b in g.edges:
        if a == v or b == v:
            counts["pivot"] += 1
        else:
            k = (a in in1) + (b in in1)
            counts["inside_v1" if k == 2 else "crossing" if k == 1 else "inside_v2"] += 1
    if sum(counts.values()) != g.edge_count:
        raise InvariantViolationError("region counts fail to partition the edges")
    return Decomposition(v, v1, v2, counts, g.edge_count)


def decompose_3graph(h: ThreeGraph, v: int, s: int, t: int) -> Decomposition:
    """Split a 3-graph around a pivot by codegree with it.

    V1 holds the vertices whose pair degree with the pivot reaches
    (s+1)(t+1); V2 the rest.  Edges through the pivot are counted once, in
    the pivot region; the remaining edges are classified by how many of
    their vertices lie in V1.

    The counts come from the pair links L of `patterns.static_host`, the
    index the host's other static reads share, by inclusion-exclusion:
    pivot = sum over u in N(v) of |L(v,u)| / 2, inside_v1 = sum over pairs
    x < y in V1 of |L(x,y) & V1| / 3, two_in_v1 = the same sum of
    |L(x,y) - V1 - v|, one_in_v1 = sum over x in V1 of d(x) - |L(x,v)|,
    less 2 two_in_v1 and 3 inside_v1, and inside_v2 the rest.  Past the
    one index build per host, a pivot costs O(|N(v)| + |V1| n): one pass
    over the pivot's shadow neighbours, one over each V1 vertex's for its
    degree, and one over the pairs inside V1.  An odd pivot sum, a V1 pair
    sum not divisible by 3, or a negative region raises
    InvariantViolationError.
    """
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} not in host")
    if s < 1 or t < 1:
        raise ValueError("codegree threshold needs s, t >= 1")
    threshold = (s + 1) * (t + 1)
    host = static_host(h)
    link, adj = host.pair_link, host.adj
    co = {u: link[(u, v) if u < v else (v, u)].bit_count() for u in iter_bits(adj[v])}
    v1 = tuple(u for u, d in co.items() if d >= threshold)
    in1 = 0
    for u in v1:
        in1 |= 1 << u
    v2 = tuple(u for u in range(h.n) if u != v and not in1 >> u & 1)
    through, inside, two = sum(co.values()), 0, 0
    for i, x in enumerate(v1):
        for y in v1[i + 1:]:
            third = link.get((x, y), 0)
            inside += (third & in1).bit_count()
            two += (third & ~in1 & ~(1 << v)).bit_count()
    one = -2 * two - inside
    for x in v1:
        twice = sum(link[(x, y) if x < y else (y, x)].bit_count() for y in iter_bits(adj[x]))
        one += twice // 2 - co[x]
    if through % 2:
        raise InvariantViolationError(f"codegrees at pivot {v} sum to the odd {through}")
    if inside % 3:
        raise InvariantViolationError(f"pair links inside V1 sum to {inside}, not a multiple of 3")
    counts = {
        "pivot": through // 2,
        "inside_v1": inside // 3,
        "two_in_v1_one_in_v2": two,
        "one_in_v1_two_in_v2": one,
        "inside_v2": h.edge_count - through // 2 - inside // 3 - two - one,
    }
    if min(counts.values()) < 0:
        raise InvariantViolationError(f"negative region count in {counts}")
    if sum(counts.values()) != h.edge_count:
        raise InvariantViolationError("region counts fail to partition the edges")
    return Decomposition(v, v1, v2, counts, h.edge_count)


def check_heavy_neighborhood_size(
    h: ThreeGraph, v: int, alpha, s: int, t: int
) -> Verdict:
    """Check that a heavy pivot has at least alpha*n/2 high-codegree peers.

    Preconditions (errors, not verdicts): the pivot has maximum degree and
    that degree reaches alpha * C(n-1, 2).  The verdict applies only when
    n > 2(s+1)(t+1)/alpha + 4 (see module docstring for the two-line
    derivation); smaller hosts report "out-of-regime".
    """
    fa = Fraction(alpha)
    if not 0 < fa <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    n = h.n
    degs = h.degree_sequence()
    d = degs[v] if 0 <= v < n else None
    if d is None:
        raise ValueError(f"vertex {v} not in host")
    if d != max(degs):
        raise ValueError("pivot must have maximum degree")
    need = fa * Fraction((n - 1) * (n - 2), 2)
    if Fraction(d) < need:
        raise ValueError(f"pivot degree {d} is below the floor {need}")
    dec = decompose_3graph(h, v, s, t)
    threshold = (s + 1) * (t + 1)
    regime = Fraction(n) > 2 * threshold / fa + 4
    big_enough = 2 * len(dec.v1) >= fa * n
    if not regime:
        status = "out-of-regime"
    else:
        status = "holds" if big_enough else "violated"
    return Verdict(
        status,
        {
            "n": n,
            "pivot_degree": d,
            "v1_size": len(dec.v1),
            "required_size": fa * n / 2,
            "regime_threshold": 2 * threshold / fa + 4,
        },
    )


def check_region_freeness(h: ThreeGraph, v: int, s: int, t: int) -> Verdict:
    """Check the three freeness statements of the pivot decomposition.

    The host must itself be free of the expansion of K{s,t} (anything else
    is a usage error, not a failed check).  Then, with V1 the high-codegree
    part: the 3-graph inside V1 avoids the K{s-1,t} expansion, the edges
    with two V1 vertices avoid the ordered K{t,s-1} expansion read from V1,
    and the edges with two V2 vertices avoid the ordered K{s-1,t} expansion
    read from V2.
    """
    if s < 2 or t < 1:
        raise ValueError("needs s >= 2 and t >= 1")
    base = complete_bipartite(s, t, expansion=True)
    if find_expansion(h, base) is not None:
        raise ValueError("host contains the forbidden expansion; check does not apply")
    dec = decompose_3graph(h, v, s, t)
    inside, _ = h.induced(dec.v1)
    inside_free = find_expansion(inside, complete_bipartite(s - 1, t, expansion=True)) is None
    g1, _, _ = h.induced_semibipartite(dec.v1, dec.v2)
    g1_free = (
        find_expansion(g1, complete_bipartite(t, s - 1, expansion=True, placement="ordered"))
        is None
    )
    g2, _, _ = h.induced_semibipartite(dec.v2, dec.v1)
    g2_free = (
        find_expansion(g2, complete_bipartite(s - 1, t, expansion=True, placement="ordered"))
        is None
    )
    ok = inside_free and g1_free and g2_free
    return Verdict(
        "holds" if ok else "violated",
        {
            "v1_size": len(dec.v1),
            "v2_size": len(dec.v2),
            "inside_v1_free": inside_free,
            "cross_from_v1_free": g1_free,
            "cross_from_v2_free": g2_free,
        },
    )


def monotonicity_check(pattern: PatternSpec, m: int, n: int, r: int) -> Verdict:
    """Exact check of ex(m,F) <= (1 - ((n-m-r)/n)^r) * ex(n,F).

    Requires a connected plain graph pattern and n >= m + r; both extremal
    values are computed exactly and compared in rational arithmetic.
    """
    if pattern.expansion:
        raise ValueError("needs a plain graph pattern")
    if pattern.core.component_count() != 1:
        raise ValueError("needs a connected pattern")
    if r < 1:
        raise ValueError("r must be >= 1")
    if n < m + r:
        raise ValueError("needs n >= m + r")
    spec = pattern.with_placement("unordered")
    ex_m = ex_exact(m, spec).value
    ex_n = ex_exact(n, spec).value
    rhs = (1 - Fraction(n - m - r, n) ** r) * ex_n
    return Verdict(
        "holds" if Fraction(ex_m) <= rhs else "violated",
        {"ex_m": ex_m, "ex_n": ex_n, "rhs": rhs, "m": m, "n": n, "r": r},
    )


def bipartite_split_check(pattern: PatternSpec, n: int) -> Verdict:
    """Exact check of ex(2n,F)/2 <= z(n,n,F).

    Any pattern-free graph on 2n vertices has a balanced split keeping at
    least half its edges, and that split is a valid bipartite host.
    """
    if pattern.expansion:
        raise ValueError("needs a plain graph pattern")
    ex_2n = ex_exact(2 * n, pattern.with_placement("unordered")).value
    z_nn = z_exact(n, n, pattern).value
    return Verdict(
        "holds" if Fraction(ex_2n, 2) <= z_nn else "violated",
        {"ex_2n": ex_2n, "z_nn": z_nn, "n": n},
    )


def removal_ratio(pattern: PatternSpec, v: int, n: int) -> RemovalRatioReport:
    """Diagnostic ratio z(n,n,F-v) / ex(n,F) as an exact rational.

    The removed-vertex pattern keeps its part ordering on the bipartite
    side and must retain at least one core edge.  Patterns without a cycle
    are flagged; the ratio itself is still reported.  No verdict is
    attached: single values of n prove nothing about the trend.
    """
    if pattern.expansion:
        raise ValueError("needs a plain graph pattern")
    ex_val = ex_exact(n, pattern.with_placement("unordered")).value
    if ex_val == 0:
        raise ValueError("extremal number is zero; ratio undefined")
    reduced = remove_vertex(pattern, v).with_placement("ordered")
    if reduced.core.edge_count == 0:
        raise ValueError("removing that vertex leaves no core edges")
    z_val = z_exact(n, n, reduced).value
    flag = "no cycle: asymptotic comparison inapplicable" if pattern.core.is_forest() else None
    return RemovalRatioReport(
        pattern=pattern.display_name(),
        vertex=v,
        n=n,
        z_after_removal=z_val,
        ex_value=ex_val,
        ratio=Fraction(z_val, ex_val),
        flag=flag,
    )


def sweep(fn: Callable, cells: Sequence, jobs: int = 1) -> list:
    """Apply fn to every cell in order.  ``jobs`` is ignored; it stays only
    for callers that still pass it."""
    return [fn(c) for c in cells]


def write_csv(rows: Iterable[dict], out: str | Path | TextIO) -> None:
    """Write dict rows as CSV, columns from the first row, to a path or an
    open text stream (``\\r\\n`` line ends either way)."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    if isinstance(out, (str, Path)):
        with Path(out).open("w", newline="") as fh:
            write_csv(rows, fh)
        return
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


def read_csv(path: str | Path) -> list[dict]:
    """Read a CSV file written by write_csv back into dict rows.

    Blank lines are skipped.  A repeated column, a row whose field count
    differs from the header's, or a line csv cannot read (a field over its
    size limit) is a ValueError naming the file and line.
    """
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            for column in header:
                if header.count(column) > 1:
                    raise ValueError(f"{path}: line 1: column {column!r} appears more than once")
            rows = []
            for fields in filter(None, reader):
                if len(fields) != len(header):
                    raise ValueError(
                        f"{path}: line {reader.line_num}: expected {len(header)} fields, "
                        f"got {len(fields)}"
                    )
                rows.append(dict(zip(header, fields)))
        except csv.Error as e:
            raise ValueError(f"{path}: line {reader.line_num}: {e}") from None
        return rows
