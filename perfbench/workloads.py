"""The three benchmark workloads: inputs from a seed, calls, output checks.

Each workload has a ``setup(seed)`` that builds its inputs and a
``run(inputs, tally)`` that makes the calls one at a time and checks every
output with the public finders and verifiers, not with the code path that
produced it.  Functions are looked up on their modules at call time
(``patterns.greedy_extend``), so the traced pass sees every call.

* ``exact-solve``: the expensive rows of ``data/exact_values.csv`` through
  ``cli.dispatch``; almost all work is in ``solvers`` and ``patterns``.
* ``algebra``: the composed, norm-map and ratio-count suites and the
  composed construction as canonical JSON; ``ff``, ``constructions``,
  ``hypergraph`` and ``cli`` work, ``solvers`` does not.
* ``sweep``: a degree-floor scan through ``harness.sweep`` on two threads,
  then seeded random 3-graphs through ``fullness``, ``greedy_extend``,
  ``find_expansion`` and ``decompose_3graph``.
"""

from __future__ import annotations

import csv
import json
import os
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def bootstrap() -> None:
    """Import turanlab from this checkout's ``src``; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "turanlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no turanlab sources under {src}")
    sys.path.insert(0, str(src))
    import turanlab

    if Path(turanlab.__file__).resolve().parent != src / "turanlab":
        raise SystemExit(f"perfbench: imported turanlab from {turanlab.__file__}")


class NonzeroExit(str):
    """A dispatch status failure whose output otherwise passed its checks."""


class Tally:
    """Operations attempted and failed, with seconds per operation kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []
        self.seconds: dict[str, float] = {}
        self.solves: list[dict] = []

    def op(self, kind: str, call, check):
        """Time one call, then judge its outcome; returns the outcome."""
        start = perf_counter()
        try:
            outcome = call()
        except Exception as e:  # a raising call is a failed operation, not a crash
            outcome = e
        self.seconds[kind] = self.seconds.get(kind, 0.0) + perf_counter() - start
        self.judge(kind, outcome, check)
        return outcome

    def judge(self, kind: str, outcome, check) -> None:
        self.attempted += 1
        if isinstance(outcome, Exception):
            problem = f"raised {type(outcome).__name__}: {outcome}"
        else:
            try:
                problem = check(outcome)
            except Exception as e:  # output too malformed to check
                problem = f"check raised {type(e).__name__}: {e}"
        if problem is None:
            return
        self.failed += 1
        if not isinstance(problem, NonzeroExit):
            self.wrong += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {problem}")


def _dispatch_check(check_details):
    """Check a (exit code, details) pair: details first, then the exit code."""

    def check(outcome):
        code, details = outcome
        problem = check_details(details)
        if problem is None and code != 0:
            problem = NonzeroExit(f"exit {code} with {details}")
        return problem

    return check


def _expect(details: dict, **want) -> str | None:
    bad = {k: details.get(k) for k, v in want.items() if details.get(k) != v}
    return None if not bad else f"expected {want}, got {bad}"


def exact_values() -> dict[tuple[str, str], int]:
    """The regression table, keyed by (quantity, params)."""
    with open(ROOT / "data" / "exact_values.csv", newline="") as fh:
        return {(r["quantity"], r["params"]): int(r["value"]) for r in csv.DictReader(fh)}


# -- exact-solve --

EXACT_ROWS = (
    ("ex", "n=8;pattern=C4"),
    ("ex", "n=8;pattern=C4;degree_floor=7"),
    ("z", "m=4;n=5;pattern=K{2,2}"),
    ("z", "m=4;n=4;pattern=C6"),
    ("zexp", "m=4;n=4;p1=K{2,2}+ ordered;p2=K{2,2}+ core-in-V1"),
    ("ex", "n=5;pattern=K{2,2}+;host=3graph"),
    ("ex", "n=6;pattern=K{2,2}+;host=3graph"),
    ("ex", "n=7;pattern=K{2,2}+;host=3graph"),
)


def _solve_params(quantity: str, params: str) -> dict:
    kv = dict(item.split("=", 1) for item in params.split(";"))
    if quantity == "zexp":
        return {"quantity": "zexp", "m": int(kv["m"]), "n": int(kv["n"]),
                "ordered_pattern": kv["p1"], "core_pattern": kv["p2"]}
    out = {"quantity": quantity, "n": int(kv["n"]), "patterns": [kv["pattern"]]}
    if quantity == "z":
        out["m"] = int(kv["m"])
    else:
        out["host_kind"] = kv.get("host", "graph")
        if "degree_floor" in kv:
            out["degree_floor"] = int(kv["degree_floor"])
    return out


def exact_setup(seed: int) -> list:
    from turanlab.cli import JobSpec

    table = exact_values()
    jobs = []
    for i, (quantity, params) in enumerate(EXACT_ROWS):
        spec = JobSpec("solve", _solve_params(quantity, params), str(OUT / f"solve-{i}.json"))
        jobs.append((f"{quantity} {params}", spec, table[(quantity, params)]))
    return jobs


def _solve_witness_problem(p: dict, value: int, witness) -> str | None:
    """Is the emitted witness a pattern-free host with the claimed edge count?"""
    from turanlab import patterns

    if witness is None or witness.edge_count != value:
        return f"witness does not carry {value} edges"
    if p["quantity"] == "zexp":
        specs = [patterns.parse_pattern(p["ordered_pattern"]).with_placement("ordered"),
                 patterns.parse_pattern(p["core_pattern"]).with_placement("core-in-V1")]
        found = [patterns.find_expansion(witness, s) for s in specs]
    elif p["quantity"] == "z":
        found = [patterns.find_ordered_bipartite(witness, patterns.parse_pattern(t))
                 for t in p["patterns"]]
    elif p["host_kind"] == "3graph":
        found = [patterns.find_expansion(witness, patterns.parse_pattern(t))
                 for t in p["patterns"]]
    else:
        found = [patterns.find_in_graph(witness, patterns.parse_pattern(t))
                 for t in p["patterns"]]
        floor = p.get("degree_floor")
        if floor is not None and max(witness.degree(v) for v in range(witness.n)) < floor:
            return f"witness misses the degree floor {floor}"
    if any(w is not None for w in found):
        return "witness contains a forbidden pattern"
    return None


def exact_run(jobs, tally: Tally) -> None:
    from turanlab import cli, hypergraph

    for name, spec, expected in jobs:
        def check_details(details):
            if details.get("value") != expected:
                return f"value {details.get('value')} != table value {expected}"
            with open(spec.output) as fh:
                emitted = json.load(fh)
            if emitted["value"] != expected or emitted["nodes_explored"] != details["nodes"]:
                return "emitted result disagrees with the status"
            witness = emitted["witness"]
            witness = None if witness is None else hypergraph.from_json_dict(witness)
            return _solve_witness_problem(spec.params, expected, witness)

        outcome = tally.op("solve", lambda: cli.dispatch(spec), _dispatch_check(check_details))
        if not isinstance(outcome, Exception):
            tally.solves.append({"job": name, **outcome[1]})


# -- algebra --

COMPOSED = {"p": 2, "s1": 3, "s2": 3}
COMPOSED_TRIPLES = 124_992
COMPOSED_SIDE = 448


def algebra_setup(seed: int) -> list:
    from turanlab.cli import JobSpec

    nm_q, nm_s = 8, 4
    rc_q, rc_s = 5, 3
    big = rc_q ** (rc_s - 1)
    return [
        ("check composed", JobSpec("check", {"suite": "composed", **COMPOSED}),
         dict(side=COMPOSED_SIDE, edges=COMPOSED_TRIPLES, bad_edges=0,
              layer_witness=None, cross_witness=None, violations=0)),
        ("construct composed",
         JobSpec("construct", {"kind": "composed", **COMPOSED, "layer": "hypergraph",
                               "format": "json"}, str(OUT / "composed.json")),
         dict(side=COMPOSED_SIDE, edges=COMPOSED_TRIPLES)),
        ("check norm-map", JobSpec("check", {"suite": "norm-map", "q": nm_q, "s": nm_s}),
         dict(order=nm_q ** (nm_s - 1), mult_failures=0, fiber_failures=0,
              expected_fiber=(nm_q ** (nm_s - 1) - 1) // (nm_q - 1))),
        # Exits 1 on this valid norm graph: the suite caps below-floor
        # partners at 2 where its docstring's bound is q-2, so every q >= 5
        # fails.  Counted as a failed operation until the suite is fixed.
        ("check ratio-count", JobSpec("check", {"suite": "ratio-count", "q": rc_q, "s": rc_s}),
         dict(triples=(big * big - big) * (rc_q - 1), ratio_floor=rc_q ** (rc_s - 2),
              ratio_failures=0, codegree_failures=0)),
    ]


def _composed_file_problem(path: str) -> str | None:
    """Does the emitted file round-trip byte for byte with every triple?"""
    from turanlab import hypergraph

    with open(path) as fh:
        text = fh.read()
    h = hypergraph.loads(text)
    if not isinstance(h, hypergraph.SemibipartiteThreeGraph):
        return f"emitted a {type(h).__name__}"
    if (h.m, h.n, h.edge_count) != (COMPOSED_SIDE, COMPOSED_SIDE, COMPOSED_TRIPLES):
        return f"emitted parts ({h.m}, {h.n}) with {h.edge_count} triples"
    if hypergraph.dumps_canonical(h) + "\n" != text:
        return "canonical JSON does not round-trip"
    return None


def algebra_run(jobs, tally: Tally) -> None:
    from turanlab import cli

    for name, spec, want in jobs:
        def check_details(details):
            problem = _expect(details, **want)
            if problem is None and spec.output is not None:
                problem = _composed_file_problem(spec.output)
            return problem

        tally.op(name, lambda: cli.dispatch(spec), _dispatch_check(check_details))


# -- sweep --

SCAN_CELLS = tuple(
    [("C4", "graph", n, a) for n in (6, 7) for a in ("1", "3/4", "1/2")]
    + [("K{1,2}+", "3graph", n, a) for n in (6, 7) for a in ("1", "1/2")]
)
HOSTS = 160
HOST_DENSITY = 0.15
CORE_SHAPES = ((1, 2), (2, 1), (2, 2))
EXPANSIONS = ("K{2,2}+", "C6+")


def random_hosts(seed: int) -> list:
    """Seeded 3-graphs on 14..22 vertices.

    Vertex and edge counts follow a fixed schedule and only the triples
    are drawn, so the work per pass varies little from seed to seed.
    """
    from turanlab.hypergraph import ThreeGraph

    rng = random.Random(seed)
    hosts = []
    for i in range(HOSTS):
        n = 14 + (5 * i) % 9
        triples = list(combinations(range(n), 3))
        hosts.append(ThreeGraph(n, rng.sample(triples, round(HOST_DENSITY * len(triples)))))
    return hosts


def fullness_specs(h) -> list:
    """Vertex and pair floors around the host's mean degrees."""
    from turanlab.fullness import pair_spec, vertex_spec

    mean_deg = 3 * h.edge_count / h.n
    mean_pair = 3 * h.edge_count / (h.n * (h.n - 1) / 2)
    return ([vertex_spec(h.n, max(1, round(f * mean_deg))) for f in (0.5, 0.8)]
            + [pair_spec(h.n, max(1, round(f * mean_pair))) for f in (0.5, 1.0)])


def sweep_setup(seed: int) -> dict:
    from turanlab.patterns import complete_bipartite, parse_pattern

    hosts = random_hosts(seed)
    return {
        "cells": [(p, parse_pattern(p), kind, n, Fraction(a)) for p, kind, n, a in SCAN_CELLS],
        "ex_table": exact_values(),
        "hosts": [(h, fullness_specs(h)) for h in hosts],
        "cores": {st: complete_bipartite(*st, expansion=True) for st in CORE_SHAPES},
        "expansions": [parse_pattern(p) for p in EXPANSIONS],
    }


def _scan_problem(cell, report, ex_table) -> str | None:
    from turanlab import patterns

    text, spec, kind, n, alpha = cell
    slots = n - 1 if kind == "graph" else (n - 1) * (n - 2) // 2
    if report.floor != ceil(alpha * slots):
        return f"floor {report.floor} != ceil({alpha} * {slots})"
    known = ex_table.get(("ex", f"n={n};pattern={text}"))
    if kind == "graph" and known is not None and report.unconstrained_ex != known:
        return f"unconstrained {report.unconstrained_ex} != table value {known}"
    if report.constrained_max > report.unconstrained_ex:
        return "constrained optimum above the free optimum"
    find = patterns.find_in_graph if kind == "graph" else patterns.find_expansion
    for value, witness, floor in ((report.unconstrained_ex, report.unconstrained_witness, 0),
                                  (report.constrained_max, report.constrained_witness,
                                   report.floor)):
        if witness is None:
            if value != 0:
                return f"value {value} without a witness"
            continue
        if witness.edge_count != value or find(witness, spec) is not None:
            return f"witness for {value} is not a {text}-free host of that size"
        degrees = ([witness.degree(v) for v in range(witness.n)] if kind == "graph"
                   else witness.degree_sequence())
        if max(degrees, default=0) < floor:
            return f"witness misses the degree floor {floor}"
    return None


def _extract_problem(h, spec, res) -> str | None:
    from turanlab import fullness

    kept = res.hypergraph
    budget = sum((g.floor - 1) * len(g.elements) for g in spec.groups)
    if not set(kept.edges) <= set(h.edges):
        return "extraction kept a triple the host lacks"
    if res.deleted_edges != h.edge_count - kept.edge_count:
        return "deleted-edge count disagrees with the kept host"
    if kept.edge_count < h.edge_count - budget:
        return f"kept {kept.edge_count} < edge floor {h.edge_count - budget}"
    if not fullness.is_full(kept, spec):
        return "extracted host is not full"
    return None


def _pair_degrees(h) -> dict:
    deg: dict[tuple[int, int], int] = {}
    for a, b, c in h.edges:
        for pair in ((a, b), (a, c), (b, c)):
            deg[pair] = deg.get(pair, 0) + 1
    return deg


def _decompose_problem(h, v, threshold, d) -> str | None:
    co = [0] * h.n
    pivot = 0
    for e in h.edges:
        if v in e:
            pivot += 1
            for u in e:
                co[u] += 1
    v1 = tuple(u for u in range(h.n) if u != v and co[u] >= threshold)
    v2 = tuple(u for u in range(h.n) if u != v and co[u] < threshold)
    if (d.v1, d.v2) != (v1, v2):
        return f"pivot {v}: parts disagree with codegree threshold {threshold}"
    if d.counts["pivot"] != pivot or sum(d.counts.values()) != h.edge_count:
        return f"pivot {v}: region counts do not partition the edges"
    return None


def sweep_run(inputs, tally: Tally) -> None:
    from turanlab import fullness, harness, patterns

    cells = inputs["cells"]

    def scan_cell(cell):
        _, spec, kind, n, alpha = cell
        try:
            return harness.boundedness_scan([spec], n, alpha, kind)
        except Exception as e:  # judged per cell below
            return e

    start = perf_counter()
    reports = harness.sweep(scan_cell, cells, jobs=min(2, os.cpu_count() or 1))
    tally.seconds["scan"] = perf_counter() - start
    for cell, report in zip(cells, reports):
        tally.judge("scan", report, lambda r: _scan_problem(cell, r, inputs["ex_table"]))

    for h, specs in inputs["hosts"]:
        for spec in specs:
            tally.op("extract_full", lambda: fullness.extract_full(h, spec),
                     lambda res: _extract_problem(h, spec, res))
        pair_deg = _pair_degrees(h)
        for (s, t), core in inputs["cores"].items():
            need = s * t + s + t
            heavy = tally.op(
                "heavy_shadow_graph", lambda: patterns.heavy_shadow_graph(h, need),
                lambda g: None if all(pair_deg.get(e, 0) >= need for e in g.edges)
                and sum(d >= need for d in pair_deg.values()) == g.edge_count
                else "heavy shadow disagrees with the pair degrees")
            if isinstance(heavy, Exception):
                continue
            for s_side in combinations(range(h.n), s):
                common = -1
                for v in s_side:
                    common &= heavy.adj[v]
                cands = [v for v in range(h.n) if common >> v & 1]
                for t_side in combinations(cands, t):
                    tally.op("greedy_extend",
                             lambda: patterns.greedy_extend(h, s_side, t_side),
                             lambda w: None if patterns.verify_expansion_witness(h, core, w)
                             else f"bad witness for {s_side} x {t_side}")
        for spec in inputs["expansions"]:
            tally.op("find_expansion", lambda: patterns.find_expansion(h, spec),
                     lambda w: None if w is None or patterns.verify_expansion_witness(h, spec, w)
                     else f"bad {spec.display_name()} witness")
        for v in range(h.n):
            tally.op("decompose_3graph", lambda: harness.decompose_3graph(h, v, 2, 2),
                     lambda d: _decompose_problem(h, v, (2 + 1) * (2 + 1), d))


WORKLOADS = {
    "exact-solve": (exact_setup, exact_run),
    "algebra": (algebra_setup, algebra_run),
    "sweep": (sweep_setup, sweep_run),
}
