"""Graph, bipartite graph and 3-graph containers with dense integer labels.

All edge sets use set semantics: duplicate edges in the input are an error,
never silently deduplicated.  Every constructor asserts the degree handshake
(sum of degrees = r * |edges| for r-uniform structures).  Adjacency is kept
as int bitmasks.  Objects are immutable once built.  While normalizing, a
constructor notes whether the edges arrive strictly increasing, as canonical
JSON, the composed triples and `induced` do; such input is neither re-sorted
nor re-scanned for duplicates, and any other is sorted and scanned.

The four containers share one private base, ``_Host``, which derives edge
count, JSON dict, equality (same type, sizes and edges), hash and repr from
each class's kind, part-size fields and edge arity.  Each container keeps
its own constructor and per-edge checks.

JSON schema (one object per file, edges sorted ascending).  `to_json_dict`
returns the edges as lists; `dumps_canonical` writes the stored tuples,
which JSON writes as the same arrays:

    {"kind": "graph",          "n": int,           "edges": [[u, v], ...]}
    {"kind": "bipartite",      "m": int, "n": int, "edges": [[u, w], ...]}
    {"kind": "3graph",         "n": int,           "edges": [[a, b, c], ...]}
    {"kind": "semibipartite3", "m": int, "n": int, "edges": [[u, v, w], ...]}

Bipartite edges pair a left index u < m with a right index w < n.
Semibipartite triples have two left indices u < v < m and one right w < n.

:func:`from_json_dict` is the one reader of this schema.  It raises a
ValueError for a non-object, and one naming the field for an unknown kind,
a part size that is missing, negative or not an int, edges that are not a
list of lists, an edge of the wrong arity, or a vertex that is not an int
(bools are not ints here); the constructor then rejects the rest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

from .errors import InvariantViolationError


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class DegreeStats:
    maximum: int
    minimum: int
    average: Fraction
    degrees: tuple[int, ...]


def _sorted_distinct(edges: list[tuple[int, ...]], ordered: bool) -> tuple[tuple[int, ...], ...]:
    """Normalized edges in ascending order.  A strictly increasing list
    (`ordered`) holds neither disorder nor repeats and is kept as it is;
    any other is sorted in place, and equal neighbours are duplicates."""
    if not ordered:
        edges.sort()
        if any(map(tuple.__eq__, edges, edges[1:])):
            raise ValueError("duplicate edges in input")
    return tuple(edges)


class _Host:
    """What the four containers share, driven by three class attributes.

    ``kind`` is the JSON kind, ``size_fields`` names the part sizes in
    constructor order, and ``arity`` is the number of vertices per edge.
    Subclasses set ``edges`` and define ``degree_sequence``.
    """

    __slots__ = ()
    kind: str
    size_fields: tuple[str, ...]
    arity: int
    edges: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _check_handshake(self) -> None:
        if sum(self.degree_sequence()) != self.arity * len(self.edges):
            raise InvariantViolationError("degree handshake failed")

    def _sizes(self) -> tuple[int, ...]:
        return tuple(getattr(self, key) for key in self.size_fields)

    def _json_fields(self, edges) -> dict:
        return {"kind": self.kind, **dict(zip(self.size_fields, self._sizes())), "edges": edges}

    def to_json_dict(self) -> dict:
        return self._json_fields([list(e) for e in self.edges])

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._sizes() == other._sizes()
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.kind, *self._sizes(), self.edges))

    def __repr__(self) -> str:
        sizes = "".join(f"{key}={size}, " for key, size in zip(self.size_fields, self._sizes()))
        return f"{type(self).__name__}({sizes}edges={len(self.edges)})"


class Graph(_Host):
    """Simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj")
    kind, size_fields, arity = "graph", ("n",), 2

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("n must be >= 0")
        norm_edges = []
        last, ordered = (), True
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e} out of range for n={n}")
            t = (u, v) if u < v else (v, u)
            ordered = ordered and last < t
            last = t
            norm_edges.append(t)
        self.n = n
        self.edges = _sorted_distinct(norm_edges, ordered)
        adj = [0] * n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = tuple(adj)
        self._check_handshake()

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> list[int]:
        return [a.bit_count() for a in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


class BipartiteGraph(_Host):
    """Bipartite graph with ordered parts of sizes m (left) and n (right)."""

    __slots__ = ("m", "n", "edges", "left_adj", "right_adj")
    kind, size_fields, arity = "bipartite", ("m", "n"), 2

    def __init__(self, m: int, n: int, edges: Iterable[tuple[int, int]]):
        if m < 0 or n < 0:
            raise ValueError("part sizes must be >= 0")
        norm_edges = []
        last, ordered = (), True
        for e in edges:
            u, w = e
            if not (0 <= u < m and 0 <= w < n):
                raise ValueError(f"edge {e} out of range for parts ({m},{n})")
            t = (u, w)
            ordered = ordered and last < t
            last = t
            norm_edges.append(t)
        self.m = m
        self.n = n
        self.edges = _sorted_distinct(norm_edges, ordered)
        la = [0] * m
        ra = [0] * n
        for u, w in self.edges:
            la[u] |= 1 << w
            ra[w] |= 1 << u
        self.left_adj = tuple(la)
        self.right_adj = tuple(ra)
        self._check_handshake()

    def degree_sequence(self) -> list[int]:
        """Degrees of left vertices 0..m-1 followed by right vertices 0..n-1."""
        return [a.bit_count() for a in self.left_adj + self.right_adj]

    def has_edge(self, u: int, w: int) -> bool:
        return bool(self.left_adj[u] >> w & 1)

    def component_count(self) -> int:
        """Connected components over both parts, isolated vertices included."""
        nbr = [a << self.m for a in self.left_adj] + list(self.right_adj)
        unseen = (1 << (self.m + self.n)) - 1
        count = 0
        while unseen:
            count += 1
            comp = frontier = unseen & -unseen
            while frontier:
                reach = 0
                for v in iter_bits(frontier):
                    reach |= nbr[v]
                frontier = reach & ~comp
                comp |= frontier
            unseen &= ~comp
        return count

    def is_forest(self) -> bool:
        """No cycle: every component has one edge fewer than vertices."""
        return self.edge_count == self.m + self.n - self.component_count()


class ThreeGraph(_Host):
    """3-uniform hypergraph on vertices 0..n-1."""

    __slots__ = ("n", "edges")
    kind, size_fields, arity = "3graph", ("n",), 3

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        if n < 0:
            raise ValueError("n must be >= 0")
        norm_edges = []
        last, ordered = (), True
        for e in edges:
            if type(e) is tuple and len(e) == 3 and 0 <= e[0] < e[1] < e[2] < n:
                t = e  # already normalized
            else:
                t = tuple(sorted(e))
                if not (len(t) == 3 and 0 <= t[0] < t[1] < t[2] < n):
                    if len(t) != 3 or len(set(t)) != 3:
                        raise ValueError(f"not a 3-set: {e}")
                    raise ValueError(f"edge {e} out of range for n={n}")
            ordered = ordered and last < t
            last = t
            norm_edges.append(t)
        self.n = n
        self.edges = _sorted_distinct(norm_edges, ordered)
        self._check_handshake()

    def degree_sequence(self) -> list[int]:
        deg = [0] * self.n
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg

    def induced(self, vertices: Iterable[int]) -> tuple["ThreeGraph", tuple[int, ...]]:
        labels = tuple(sorted(set(vertices)))
        pos = {v: i for i, v in enumerate(labels)}
        sub = [
            (pos[a], pos[b], pos[c])
            for a, b, c in self.edges
            if a in pos and b in pos and c in pos
        ]
        return ThreeGraph(len(labels), sub), labels

    def induced_semibipartite(
        self, left: Iterable[int], right: Iterable[int]
    ) -> tuple["SemibipartiteThreeGraph", tuple[int, ...], tuple[int, ...]]:
        """Edges with exactly two vertices in `left` and one in `right`, relabeled."""
        lt = tuple(sorted(set(left)))
        rt = tuple(sorted(set(right)))
        if set(lt) & set(rt):
            raise ValueError("parts must be disjoint")
        lp = {v: i for i, v in enumerate(lt)}
        rp = {v: i for i, v in enumerate(rt)}
        sub = []
        for e in self.edges:
            inl = [v for v in e if v in lp]
            inr = [v for v in e if v in rp]
            if len(inl) == 2 and len(inr) == 1:
                u, v = sorted(lp[x] for x in inl)
                sub.append((u, v, rp[inr[0]]))
        return SemibipartiteThreeGraph(len(lt), len(rt), sub), lt, rt


class SemibipartiteThreeGraph(_Host):
    """3-graph whose every edge has exactly two vertices in the left part.

    Edges are stored as (u, v, w) with left indices u < v < m and right index
    w < n.  Left and right indices are separate dense ranges.
    """

    __slots__ = ("m", "n", "edges")
    kind, size_fields, arity = "semibipartite3", ("m", "n"), 3

    def __init__(self, m: int, n: int, edges: Iterable[tuple[int, int, int]]):
        if m < 0 or n < 0:
            raise ValueError("part sizes must be >= 0")
        norm_edges = []
        last, ordered = (), True
        for e in edges:
            u, v, w = e
            if u == v:
                raise ValueError(f"repeated left vertex in {e}")
            if u > v:
                u, v = v, u
            if not (0 <= u < m and 0 <= v < m and 0 <= w < n):
                raise ValueError(f"edge {e} out of range for parts ({m},{n})")
            t = (u, v, w)
            ordered = ordered and last < t
            last = t
            norm_edges.append(t)
        self.m = m
        self.n = n
        self.edges = _sorted_distinct(norm_edges, ordered)
        self._check_handshake()

    def degree_sequence(self) -> list[int]:
        """Degrees of left vertices 0..m-1 followed by right vertices 0..n-1."""
        m = self.m
        deg = [0] * (m + self.n)
        for u, v, w in self.edges:
            deg[u] += 1
            deg[v] += 1
            deg[m + w] += 1
        return deg

    def to_three_graph(self) -> ThreeGraph:
        """Plain 3-graph on m+n vertices; right part shifted by m."""
        return ThreeGraph(
            self.m + self.n, [(u, v, self.m + w) for u, v, w in self.edges]
        )


# -- degree statistics --


def degree_stats(g: _Host) -> DegreeStats:
    degs = g.degree_sequence()
    if not degs:
        return DegreeStats(0, 0, Fraction(0), ())
    return DegreeStats(max(degs), min(degs), Fraction(sum(degs), len(degs)), tuple(degs))


# -- serialization --

_CLASSES = {cls.kind: cls for cls in (Graph, BipartiteGraph, ThreeGraph, SemibipartiteThreeGraph)}


def from_json_dict(d) -> _Host:
    """Validate one graph JSON object and build its container.

    A malformed object raises ValueError naming the field; the module
    docstring lists what is checked here and what the constructors check.
    """
    if not isinstance(d, dict):
        raise ValueError(f"graph JSON must be an object, got {type(d).__name__}")
    kind = d.get("kind")
    cls = _CLASSES.get(kind) if type(kind) is str else None
    if cls is None:
        raise ValueError(f"field 'kind' must be one of {', '.join(_CLASSES)}, got {kind!r}")
    sizes = [d.get(key) for key in cls.size_fields]
    for key, size in zip(cls.size_fields, sizes):
        if type(size) is not int or size < 0:
            raise ValueError(f"field {key!r} must be an integer >= 0, got {size!r}")
    edges = d.get("edges")
    if type(edges) is not list or not set(map(type, edges)) <= {list}:
        raise ValueError("field 'edges' must be a list of lists")
    if not set(map(len, edges)) <= {cls.arity}:
        raise ValueError(f"field 'edges' must hold lists of {cls.arity} vertices")
    if not set(map(type, chain.from_iterable(edges))) <= {int}:
        raise ValueError("field 'edges' must hold integer vertices")
    return cls(*sizes, map(tuple, edges))


def dumps_canonical(obj) -> str:
    """Canonical single-line JSON used for files and content hashing.

    A host's edges are written from the stored tuples, which JSON writes
    as arrays, so the text is that of its `to_json_dict`."""
    if isinstance(obj, _Host):
        d = obj._json_fields(obj.edges)
    else:
        d = obj.to_json_dict() if hasattr(obj, "to_json_dict") else obj
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def content_hash(obj) -> str:
    """Git-style blob hash (sha1 over 'blob <len>\\0<bytes>') of canonical JSON."""
    payload = dumps_canonical(obj).encode()
    return hashlib.sha1(b"blob %d\0%s" % (len(payload), payload)).hexdigest()


def loads(text: str) -> _Host:
    return from_json_dict(json.loads(text))


# -- graph6 (plain graphs only) --


def _g6_encode_n(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise ValueError("graph6 export supports n <= 258047")


def to_graph6(g: Graph) -> str:
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = bytearray()
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        body.append(val + 63)
    return (_g6_encode_n(g.n) + bytes(body)).decode("ascii")


def from_graph6(text: str) -> Graph:
    data = [c - 63 for c in text.strip().encode("ascii")]
    if any(not 0 <= d <= 63 for d in data):
        raise ValueError("invalid graph6 byte")
    if not data or (data[0] == 63 and len(data) < 4):
        raise ValueError("graph6 vertex count missing or truncated")
    if data[0] == 63:  # 126 - 63: long form
        n = data[1] << 12 | data[2] << 6 | data[3]
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    need = n * (n - 1) // 2
    bits = []
    for d in data:
        for shift in range(5, -1, -1):
            bits.append(d >> shift & 1)
    if len(bits) < need or any(bits[need:]):
        raise ValueError("graph6 payload length mismatch")
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return Graph(n, edges)
