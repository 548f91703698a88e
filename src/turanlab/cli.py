"""Command line front end: construct, check, solve, scan, bound, report.

Every run is described by a JobSpec (command, flat parameter map, output
path, seed) and is reproducible from it.  Results go to --output or stdout;
the last line on stderr is always a single-line JSON status record.

Exit codes: 0 success, 1 invariant violation, 2 malformed invocation,
3 size cap exceeded.

Pattern grammar (--pattern and friends):

    K{s,t}        complete bipartite core with part sizes s and t
    C<2k>         even cycle, e.g. C4, C6, C8
    theta{a,b,c}  two terminals joined by three disjoint paths of the
                  given lengths
    grid2x2       the 3x3-vertex grid of four unit squares
    @path.json    bipartite core loaded from a graph JSON file

Any form may carry a trailing ``+`` for the 3-graph expansion (one fresh
apex per core edge) and an optional placement word: ``ordered`` maps core
parts onto host parts in order; ``core-in-V1`` pins an expansion's core
pairs inside the left part.  Examples: ``C6``, ``K{2,3}+``,
``K{2,2}+ ordered``, ``@core.json+ core-in-V1``.

Graph JSON schema (construct output and pattern files):
``{"kind": "graph"|"bipartite"|"3graph"|"semibipartite3", "n": int`` (plus
``"m"`` for the two-part kinds), ``"edges": [[...], ...]}`` with edges
sorted ascending; files are canonical single-line JSON, so re-serializing
a parsed file reproduces its bytes.  ``--format graph6`` (plain graphs
only) emits the standard graph6 encoding instead.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial
from pathlib import Path

from .constructions import (
    bipartite_norm_graph,
    composed_construction,
    norm_graph,
    norm_ratio_count,
    random_deletion_lower_bound,
    vertex_coords,
)
from .errors import CapExceededError, InvariantViolationError
from .ff import make_field, norm, norm_preimage_count, prime_power_decompose
from .fullness import extract_full, is_full, pair_spec, vertex_spec
from .harness import (
    boundedness_scan,
    decompose_3graph,
    decompose_graph,
    read_csv,
    sweep,
    write_csv,
)
from .hypergraph import (
    Graph,
    ThreeGraph,
    dumps_canonical,
    to_graph6,
)
from .patterns import (
    _iter_kst,
    complete_bipartite,
    greedy_extend,
    heavy_shadow_graph,
    parse_pattern,
    verify_expansion_witness,
)
from .solvers import BOUND_IDS, eval_bound, ex_exact, z_exact, z_expansion_exact

COMMANDS = ("construct", "check", "solve", "scan", "bound", "report")

_PARAM_KEYS = {
    "construct": {"kind", "q", "s", "p", "s1", "s2", "n", "pattern", "layer", "format"},
    "check": {"suite", "q", "s", "p", "s1", "s2", "n", "count"},
    "solve": {"quantity", "n", "m", "patterns", "host_kind", "degree_floor",
              "ordered_pattern", "core_pattern"},
    "scan": {"patterns", "ns", "alphas", "host_kind"},
    "bound": {"bound_id", "sets"},
    "report": {"inputs"},
}


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to reproduce one CLI run."""

    command: str
    params: dict = field(default_factory=dict)
    output: str | None = None
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command: {self.command!r}")
        unknown = set(self.params) - _PARAM_KEYS[self.command]
        if unknown:
            raise ValueError(f"unknown parameters for {self.command}: {sorted(unknown)}")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _emit_json(obj: dict, output: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n", output)


def _serialize_host(obj, fmt: str) -> str:
    if fmt == "graph6":
        if not isinstance(obj, Graph):
            raise ValueError("graph6 export applies to plain graphs only")
        return to_graph6(obj) + "\n"
    return dumps_canonical(obj) + "\n"


# -- construct --


def _cmd_construct(spec: JobSpec) -> tuple[int, dict]:
    p = spec.params
    kind = p["kind"]
    fmt = p.get("format", "json")
    extra: dict = {"kind": kind}
    if kind == "normgraph":
        obj = norm_graph(p["q"], p["s"])
    elif kind == "bipartite":
        obj = bipartite_norm_graph(p["q"], p["s"])
    elif kind == "composed":
        c = composed_construction(p["p"], p["s1"], p["s2"])
        layer = p.get("layer", "hypergraph")
        try:
            obj = {"hypergraph": c.hypergraph, "v1": c.v1_layer, "cross": c.cross_layer}[layer]
        except KeyError:
            raise ValueError(f"unknown layer: {layer!r}") from None
        extra["layer"] = layer
        extra["side"] = c.n
    elif kind == "deletion":
        pat = parse_pattern(p["pattern"])
        res = random_deletion_lower_bound(p["n"], pat, seed=spec.seed)
        obj = res.graph
        extra.update(
            probability=res.probability,
            initial_edges=res.initial_edges,
            copies_found=res.copies_found,
            edges_deleted=res.edges_deleted,
        )
    else:
        raise ValueError(f"unknown construction: {kind!r}")
    _emit(_serialize_host(obj, fmt), spec.output)
    extra["edges"] = obj.edge_count
    return 0, extra


# -- check suites --


def _find_common_kst(masks, count, s, t):
    """First K_{s,t}: the smallest s-subset of range(count) whose masks share
    >= t bits, with its lowest t common bits; None if there is none."""
    return next(_iter_kst(masks, s, t, (1 << count) - 1, -1), None)


def _suite_pg_properties(q: int, s: int) -> tuple[int, dict]:
    g = norm_graph(q, s)
    expected_n = q**s - q ** (s - 1)
    allowed = {q ** (s - 1) - 1, q ** (s - 1) - 2}
    bad_degrees = sum(1 for v in range(g.n) if g.degree(v) not in allowed)
    t = factorial(s - 1) + 1
    witness = _find_common_kst(g.adj, g.n, s, t)
    violations = int(g.n != expected_n) + int(bad_degrees > 0) + int(witness is not None)
    return violations, {
        "n": g.n,
        "expected_n": expected_n,
        "bad_degrees": bad_degrees,
        "forbidden": f"K{{{s},{t}}}",
        "witness": None if witness is None else [list(witness[0]), list(witness[1])],
    }


def _suite_norm_map(q: int, s: int) -> tuple[int, dict]:
    p, k = prime_power_decompose(q)
    big = make_field(p, k * (s - 1))
    sub = make_field(p, k)
    if big.order > 512:
        raise ValueError("full multiplicativity enumeration is capped at order 512")
    els = list(big.elements())
    norms = [norm(x, q, s) for x in els]
    mult_failures = 0
    for i, x in enumerate(els):
        ni = norms[i]
        for j in range(i, len(els)):
            if (norms[(x * els[j]).idx].idx) != (ni * norms[j]).idx:
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


def _suite_composed(p: int, s1: int, s2: int) -> tuple[int, dict]:
    c = composed_construction(p, s1, s2)
    h = c.hypergraph
    bad_edges = sum(
        1 for u, v, w in h.edges if not (0 <= u < v < h.m and 0 <= w < h.n)
    )
    t1 = factorial(s1 - 1) + 1
    t2 = factorial(s2 - 1) + 1
    layer_witness = _find_common_kst(c.v1_layer.adj, c.v1_layer.n, s2, t2)
    cross_witness = _find_common_kst(c.cross_layer.left_adj, c.cross_layer.m, s1, t1)
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


def _suite_ratio_count(q: int, s: int) -> tuple[int, dict]:
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
    p, k = prime_power_decompose(q)
    big = make_field(p, k * (s - 1))
    sub = make_field(p, k)
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
            lam = sub.from_index(sx) / sub.from_index(sy)
            count = counts[(bx, by, lam.idx)]
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


def _random_3graph(rng: random.Random, n: int, p: float) -> ThreeGraph:
    return ThreeGraph(n, [e for e in combinations(range(n), 3) if rng.random() < p])


def _random_fullness_spec(rng: random.Random, n: int):
    roll = rng.random()
    if roll < 0.4:
        return vertex_spec(n, rng.randint(1, 4))
    if roll < 0.8:
        return pair_spec(n, rng.randint(1, 4))
    # two pair groups with independent floors
    from .fullness import FullnessGroup, FullnessSpec

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


def _suite_fullness(n: int, count: int, seed: int) -> tuple[int, dict]:
    rng = random.Random(seed)
    failures = 0
    for _ in range(count):
        nn = rng.randint(4, max(4, n))
        h = _random_3graph(rng, nn, rng.uniform(0.1, 0.5))
        spec = _random_fullness_spec(rng, nn)
        res = extract_full(h, spec)
        ok = (
            is_full(res.hypergraph, spec)
            and res.hypergraph.edge_count >= h.edge_count - spec.deletion_budget()
            and res.hypergraph.edge_count >= res.lower_bound
        )
        if not ok:
            failures += 1
    return int(failures > 0), {"cases": count, "failures": failures}


def _suite_greedy_extend(n: int, count: int, seed: int) -> tuple[int, dict]:
    rng = random.Random(seed)
    failures = 0
    extended = 0
    for _ in range(count):
        nn = rng.randint(4, max(4, n))
        h = _random_3graph(rng, nn, rng.uniform(0.2, 0.5))
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


def _suite_decomposition(n: int, count: int, seed: int) -> tuple[int, dict]:
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
        h = _random_3graph(rng, max(3, nn), 0.3)
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


def _cmd_check(spec: JobSpec) -> tuple[int, dict]:
    p = spec.params
    suite = p["suite"]
    if suite == "pg-properties":
        violations, details = _suite_pg_properties(p["q"], p["s"])
    elif suite == "norm-map":
        violations, details = _suite_norm_map(p["q"], p["s"])
    elif suite == "composed":
        violations, details = _suite_composed(p["p"], p["s1"], p["s2"])
    elif suite == "ratio-count":
        violations, details = _suite_ratio_count(p["q"], p["s"])
    elif suite == "fullness":
        violations, details = _suite_fullness(p["n"], p["count"], spec.seed)
    elif suite == "greedy-extend":
        violations, details = _suite_greedy_extend(p["n"], p["count"], spec.seed)
    elif suite == "decomposition":
        violations, details = _suite_decomposition(p["n"], p["count"], spec.seed)
    else:
        raise ValueError(f"unknown suite: {suite!r}")
    details["suite"] = suite
    details["violations"] = violations
    if spec.output is not None:
        _emit_json(details, spec.output)
    return (1 if violations else 0), details


# -- solve / scan / bound / report --


def _cmd_solve(spec: JobSpec) -> tuple[int, dict]:
    p = spec.params
    quantity = p["quantity"]
    if quantity == "ex":
        specs = [parse_pattern(t) for t in p["patterns"]]
        result = ex_exact(
            p["n"],
            specs,
            host_kind=p.get("host_kind", "graph"),
            degree_floor=p.get("degree_floor"),
        )
    elif quantity == "z":
        specs = [parse_pattern(t) for t in p["patterns"]]
        result = z_exact(p["m"], p["n"], specs)
    elif quantity == "zexp":
        ordered = parse_pattern(p["ordered_pattern"]).with_placement("ordered")
        core = parse_pattern(p["core_pattern"]).with_placement("core-in-V1")
        result = z_expansion_exact(p["m"], p["n"], ordered, core)
    else:
        raise ValueError(f"unknown quantity: {quantity!r}")
    _emit_json(result.to_json_dict(), spec.output)
    return 0, {"quantity": quantity, "value": result.value, "nodes": result.nodes_explored}


def _cmd_scan(spec: JobSpec) -> tuple[int, dict]:
    p = spec.params
    specs = [parse_pattern(t) for t in p["patterns"]]
    host_kind = p.get("host_kind", "graph")
    alphas = [Fraction(a) for a in p["alphas"]]
    cells = [(n, a) for n in p["ns"] for a in alphas]
    rows = sweep(
        lambda cell: boundedness_scan(specs, cell[0], cell[1], host_kind).to_csv_row(),
        cells,
        jobs=spec.jobs,
    )
    if spec.output is None:
        import csv as _csv

        writer = _csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    else:
        write_csv(rows, spec.output)
    return 0, {"cells": len(rows)}


def _cmd_bound(spec: JobSpec) -> tuple[int, dict]:
    p = spec.params
    params = {}
    for item in p["sets"]:
        key, _, value = item.partition("=")
        if not _ or not key:
            raise ValueError(f"expected key=value, got {item!r}")
        try:
            params[key] = int(value)
        except ValueError:
            raise ValueError(f"parameter {key!r} needs an integer, got {value!r}") from None
    cert = eval_bound(p["bound_id"], params)
    _emit_json(cert.to_json_dict(), spec.output)
    return 0, {"bound_id": cert.bound_id, "value": float(cert.value)}


def _cmd_report(spec: JobSpec) -> tuple[int, dict]:
    p = spec.params
    rows = []
    columns: list[str] = []
    for path in p["inputs"]:
        for row in read_csv(path):
            rows.append(row)
            for key in row:
                if key not in columns:
                    columns.append(key)
    if not rows:
        raise ValueError("no rows in the input files")
    merged = [{c: row.get(c, "") for c in columns} for row in rows]
    if spec.output is None:
        import csv as _csv

        writer = _csv.DictWriter(sys.stdout, fieldnames=columns)
        writer.writeheader()
        writer.writerows(merged)
    else:
        write_csv(merged, spec.output)
    return 0, {"rows": len(merged), "columns": len(columns)}


_DISPATCH = {
    "construct": _cmd_construct,
    "check": _cmd_check,
    "solve": _cmd_solve,
    "scan": _cmd_scan,
    "bound": _cmd_bound,
    "report": _cmd_report,
}


def dispatch(spec: JobSpec) -> tuple[int, dict]:
    """Run one job; returns (exit code, status extras)."""
    return _DISPATCH[spec.command](spec)


# -- argument parsing --


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turanlab",
        description="Construct, check, and solve small extremal-graph instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--jobs", type=int, default=1)

    sp = sub.add_parser("construct", help="build a named construction")
    sp.add_argument("kind", choices=("normgraph", "bipartite", "composed", "deletion"))
    sp.add_argument("--q", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--s1", type=int)
    sp.add_argument("--s2", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--pattern")
    sp.add_argument("--layer", choices=("hypergraph", "v1", "cross"), default="hypergraph")
    sp.add_argument("--format", choices=("json", "graph6"), default="json")
    common(sp)

    sp = sub.add_parser("check", help="run a named invariant suite")
    sp.add_argument(
        "suite",
        choices=(
            "pg-properties",
            "norm-map",
            "composed",
            "ratio-count",
            "fullness",
            "greedy-extend",
            "decomposition",
        ),
    )
    sp.add_argument("--q", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--s1", type=int)
    sp.add_argument("--s2", type=int)
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--count", type=int, default=25)
    common(sp)

    sp = sub.add_parser("solve", help="exact optimum for a host family")
    sp.add_argument("quantity", choices=("ex", "z", "zexp"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int)
    sp.add_argument("--pattern", action="append", default=[])
    sp.add_argument("--host-kind", choices=("graph", "3graph"), default="graph")
    sp.add_argument("--degree-floor", type=int, default=None)
    sp.add_argument("--ordered-pattern")
    sp.add_argument("--core-pattern")
    common(sp)

    sp = sub.add_parser("scan", help="degree-floor scans to CSV")
    sp.add_argument("--pattern", action="append", required=True)
    sp.add_argument("--n", type=int, action="append", required=True)
    sp.add_argument("--alpha", action="append", required=True,
                    help="density parameter, e.g. 1, 0.5, or 2/3 (repeatable)")
    sp.add_argument("--host-kind", choices=("graph", "3graph"), default="graph")
    common(sp)

    sp = sub.add_parser("bound", help="evaluate a certified upper-bound formula")
    sp.add_argument("bound_id", choices=BOUND_IDS)
    sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    common(sp)

    sp = sub.add_parser("report", help="merge CSV reports into one table")
    sp.add_argument("inputs", nargs="+")
    common(sp)

    return parser


def _require(args, names: tuple[str, ...]) -> None:
    missing = [k for k in names if getattr(args, k, None) is None]
    if missing:
        raise ValueError(f"missing required flags: {', '.join('--' + m for m in missing)}")


def job_from_args(args: argparse.Namespace) -> JobSpec:
    cmd = args.command
    if cmd == "construct":
        if args.kind in ("normgraph", "bipartite"):
            _require(args, ("q", "s"))
            params = {"kind": args.kind, "q": args.q, "s": args.s}
        elif args.kind == "composed":
            _require(args, ("p", "s1", "s2"))
            params = {"kind": args.kind, "p": args.p, "s1": args.s1, "s2": args.s2,
                      "layer": args.layer}
        else:
            _require(args, ("n", "pattern"))
            params = {"kind": args.kind, "n": args.n, "pattern": args.pattern}
        params["format"] = args.format
    elif cmd == "check":
        suite = args.suite
        if suite in ("pg-properties", "norm-map", "ratio-count"):
            _require(args, ("q", "s"))
            params = {"suite": suite, "q": args.q, "s": args.s}
        elif suite == "composed":
            _require(args, ("p", "s1", "s2"))
            params = {"suite": suite, "p": args.p, "s1": args.s1, "s2": args.s2}
        else:
            params = {"suite": suite, "n": args.n, "count": args.count}
    elif cmd == "solve":
        if args.quantity == "zexp":
            _require(args, ("m", "ordered_pattern", "core_pattern"))
            params = {"quantity": "zexp", "m": args.m, "n": args.n,
                      "ordered_pattern": args.ordered_pattern,
                      "core_pattern": args.core_pattern}
        else:
            if not args.pattern:
                raise ValueError("missing required flags: --pattern")
            params = {"quantity": args.quantity, "n": args.n, "patterns": list(args.pattern)}
            if args.quantity == "ex":
                params["host_kind"] = args.host_kind
                if args.degree_floor is not None:
                    params["degree_floor"] = args.degree_floor
            else:
                _require(args, ("m",))
                params["m"] = args.m
    elif cmd == "scan":
        params = {"patterns": list(args.pattern), "ns": list(args.n),
                  "alphas": list(args.alpha), "host_kind": args.host_kind}
    elif cmd == "bound":
        params = {"bound_id": args.bound_id, "sets": list(getattr(args, "set"))}
    else:
        params = {"inputs": list(args.inputs)}
    return JobSpec(cmd, params, args.output, args.seed, args.jobs)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        _status({"command": None, "status": "ok" if code == 0 else "error", "exit": code})
        return code
    command = args.command
    try:
        spec = job_from_args(args)
        code, extras = dispatch(spec)
    except CapExceededError as e:
        _status({"command": command, "status": "error", "error": str(e), "exit": 3})
        return 3
    except InvariantViolationError as e:
        _status({"command": command, "status": "violation", "error": str(e), "exit": 1})
        return 1
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as e:
        _status({"command": command, "status": "error", "error": str(e), "exit": 2})
        return 2
    status = {"command": command, "exit": code,
              "status": "ok" if code == 0 else "violation"}
    status.update(extras)
    _status(status)
    return code


def _status(d: dict) -> None:
    sys.stderr.write(json.dumps(d, sort_keys=True, separators=(",", ":"), default=str) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
