"""End-to-end acceptance gate.

Each test covers one shipping criterion: fixed algebraic constructions,
exhaustive small-case enumeration against independent brute force,
seeded randomized sweeps, and cross-checks between separately written
code paths.  Every test enforces its own wall-clock budget and records a
single summary line, echoed after the run by the conftest hook.
"""

import csv
import random
import time
from fractions import Fraction
from itertools import combinations
from math import factorial
from pathlib import Path

import numpy as np

from turanlab.constructions import norm_graph
from turanlab.ff import make_field, norm, norm_preimage_count, prime_power_decompose
from turanlab.fullness import extract_full, is_full
from turanlab.harness import (
    bipartite_split_check,
    boundedness_scan,
    check_region_freeness,
    monotonicity_check,
)
from turanlab.patterns import (
    complete_bipartite,
    even_cycle,
    find_expansion,
    find_in_graph,
    greedy_extend,
    heavy_shadow_graph,
    verify_expansion_witness,
)
from turanlab.solvers import eval_bound, ex_exact, z_exact, z_expansion_exact
from turanlab.suites import random_3graph as _random_3graph
from turanlab.suites import random_fullness_spec as _random_fullness_spec
from turanlab.suites import suite_composed as _suite_composed
from turanlab.suites import suite_ratio_count as _suite_ratio_count

DATA = Path(__file__).resolve().parents[1] / "data" / "exact_values.csv"

SUMMARY_LINES: list[str] = []


def _finish(num: int, t0: float, budget: float, detail: str) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget:.0f}s"
    SUMMARY_LINES.append(
        f"ACCEPTANCE {num}: PASS ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    )


def _load_rows() -> list[dict]:
    with DATA.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _int_params(text: str) -> dict:
    out = {}
    for part in text.split(";"):
        key, val = part.split("=")
        out[key] = int(val)
    return out


def test_01_norm_graph_suite_under_30s():
    t0 = time.monotonic()
    for q, s in ((3, 2), (4, 2), (5, 2), (7, 2), (3, 3)):
        g = norm_graph(q, s)
        assert g.n == q**s - q ** (s - 1)
        degrees = {g.degree(v) for v in range(g.n)}
        assert degrees <= {q ** (s - 1) - 1, q ** (s - 1) - 2}
        t = factorial(s - 1) + 1
        assert find_in_graph(g, complete_bipartite(s, t)) is None
    _finish(1, t0, 30.0, "5 construction cases: size, degree set, forbidden K{s,t} absent")


def _cyclic_tables(field) -> tuple[list[int], list[int]]:
    """(exp, log) index tables for the multiplicative group via a generator."""
    o = field.order
    one = field.one()
    if o == 2:
        return [one.idx], [-1, 0]
    for idx in range(1, o):
        g = field.from_index(idx)
        if g == field.zero() or g == one:
            continue
        exp = [one.idx]
        acc = one
        proper = True
        for _ in range(o - 2):
            acc = acc * g
            if acc == one:
                proper = False
                break
            exp.append(acc.idx)
        if proper and acc * g == one:
            log = [-1] * o
            for i, e in enumerate(exp):
                log[e] = i
            return exp, log
    raise AssertionError("no generator found")


def _norm_cases(limit: int = 512) -> list[tuple[int, int]]:
    cases = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19):
        s = 3
        while q ** (s - 1) <= limit:
            cases.append((q, s))
            s += 1
    cases.extend(((3, 2), (4, 2), (5, 2), (7, 2)))
    return cases


def _check_norm_multiplicative(q: int, s: int) -> int:
    p, k = prime_power_decompose(q)
    big = make_field(p, k * (s - 1))
    sub = make_field(p, k)
    assert norm(big.zero(), q, s) == sub.zero()
    nidx = [norm(big.from_index(i), q, s).idx for i in range(big.order)]
    assert nidx[big.zero().idx] == sub.zero().idx
    bexp, _ = _cyclic_tables(big)
    _, slog = _cyclic_tables(sub)
    nlog = [slog[nidx[e]] for e in bexp]
    assert -1 not in nlog
    om = big.order - 1
    qm = sub.order - 1
    for i in range(om):
        ni = nlog[i]
        assert nlog[i:] + nlog[:i] == [(ni + x) % qm for x in nlog]
    return om * om


def test_02_norm_multiplicativity_under_10s():
    t0 = time.monotonic()
    cases = _norm_cases()
    pairs = 0
    for q, s in cases:
        pairs += _check_norm_multiplicative(q, s)
    for q in (3, 2, 4):
        fiber = (q**2 - 1) // (q - 1)
        for y in range(q):
            assert norm_preimage_count(q, 3, y) == (1 if y == 0 else fiber)
    _finish(2, t0, 10.0, f"{len(cases)} fields, {pairs} nonzero products, 3 fiber profiles")


def test_03_fullness_extraction_200_hosts_under_30s():
    t0 = time.monotonic()
    rng = random.Random(330)
    done = 0
    for _ in range(200):
        n = rng.randint(4, 12)
        h = _random_3graph(rng, n, rng.uniform(0.05, 0.5))
        spec = _random_fullness_spec(rng, n)
        result = extract_full(h, spec)
        assert is_full(result.hypergraph, spec)
        floor_val = h.edge_count - spec.deletion_budget()
        assert result.lower_bound == floor_val
        assert result.hypergraph.edge_count >= floor_val
        done += 1
    assert done == 200
    _finish(3, t0, 30.0, "200/200 random hosts n<=12: output full, edge floor met")


def test_04_greedy_extension_100_hosts_under_60s():
    t0 = time.monotonic()
    rng = random.Random(440)
    copies = 0
    for _ in range(100):
        n = rng.randint(5, 10)
        h = _random_3graph(rng, n, rng.uniform(0.1, 0.45))
        for s, t in ((1, 1), (1, 2), (2, 1), (2, 2)):
            shadow = heavy_shadow_graph(h, s * t + s + t)
            spec = complete_bipartite(s, t, expansion=True)
            for left in combinations(range(n), s):
                common = -1
                for v in left:
                    common &= shadow.adj[v]
                candidates = [v for v in range(n) if (common >> v) & 1]
                for right in combinations(candidates, t):
                    witness = greedy_extend(h, left, right)
                    assert verify_expansion_witness(h, spec, witness)
                    copies += 1
    assert copies > 0
    _finish(4, t0, 60.0, f"{copies} heavy-shadow K(s,t) copies extended, 0 failures")


def _c4_edge_masks(n: int, eidx: dict) -> list[int]:
    masks = []
    for a, b, c, d in combinations(range(n), 4):
        for order in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            m = 0
            for i in range(4):
                u, v = order[i], order[(i + 1) % 4]
                m |= 1 << eidx[(min(u, v), max(u, v))]
            masks.append(m)
    return masks


def _naive_ex_c4_python(n: int) -> int:
    pairs = list(combinations(range(n), 2))
    eidx = {e: i for i, e in enumerate(pairs)}
    masks = _c4_edge_masks(n, eidx)
    best = 0
    for host in range(1 << len(pairs)):
        if all((host & m) != m for m in masks):
            best = max(best, host.bit_count())
    return best


def _naive_ex_c4_vectorized(n: int) -> int:
    pairs = list(combinations(range(n), 2))
    eidx = {e: i for i, e in enumerate(pairs)}
    arr = np.arange(1 << len(pairs), dtype=np.int64)
    good = np.ones(arr.size, dtype=bool)
    for m in _c4_edge_masks(n, eidx):
        good &= (arr & m) != m
    free = arr[good]
    pop8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
    counts = pop8[free.view(np.uint8).reshape(-1, 8)].sum(axis=1)
    return int(counts.max())


def _naive_z_k22(m: int, n: int) -> int:
    cells = [(i, j) for i in range(m) for j in range(n)]
    cidx = {c: k for k, c in enumerate(cells)}
    quads = []
    for i1, i2 in combinations(range(m), 2):
        for j1, j2 in combinations(range(n), 2):
            quads.append(
                (1 << cidx[(i1, j1)])
                | (1 << cidx[(i1, j2)])
                | (1 << cidx[(i2, j1)])
                | (1 << cidx[(i2, j2)])
            )
    best = 0
    for host in range(1 << len(cells)):
        if all((host & qd) != qd for qd in quads):
            best = max(best, host.bit_count())
    return best


def test_05_solver_values_vs_brute_force_under_120s():
    t0 = time.monotonic()
    expected = {4: 4, 5: 6, 6: 7, 7: 9}
    for n in (4, 5):
        assert _naive_ex_c4_python(n) == expected[n]
    for n in (5, 6, 7):
        assert _naive_ex_c4_vectorized(n) == expected[n]
    for n in range(4, 8):
        assert ex_exact(n, even_cycle(4)).value == expected[n]
    assert _naive_z_k22(2, 2) == 3
    assert _naive_z_k22(3, 3) == 6
    assert z_exact(2, 2, complete_bipartite(2, 2)).value == 3
    assert z_exact(3, 3, complete_bipartite(2, 2)).value == 6
    _finish(5, t0, 120.0, "ex(4..7) and two grid values match independent enumeration")


def test_06_certificates_dominate_table_under_10s():
    t0 = time.monotonic()
    rows = _load_rows()
    assert len(rows) == 25
    checked = 0
    for row in rows:
        if not row["bound_id"]:
            continue
        cert = eval_bound(row["bound_id"], _int_params(row["bound_params"]))
        assert float(row["value"]) <= float(cert.value) + 1e-6, row
        checked += 1
    assert checked == 21
    _finish(6, t0, 10.0, f"{checked} table rows below certificate, slack 1e-6")


def test_07_consistency_checks_under_120s():
    t0 = time.monotonic()
    c4 = even_cycle(4)
    for m, n in ((4, 6), (4, 7), (5, 7)):
        verdict = monotonicity_check(c4, m, n, 2)
        assert verdict.holds, (m, n, verdict.details)
    for n in (1, 2, 3):
        verdict = bipartite_split_check(c4, n)
        assert verdict.holds, (n, verdict.details)
    _finish(7, t0, 120.0, "3 growth-window checks and split checks n<=3 all hold")


def test_08_degree_floor_gap_under_300s():
    t0 = time.monotonic()
    report = boundedness_scan(even_cycle(4), 8, Fraction(1))
    assert report.floor == 7
    assert report.unconstrained_ex == 11
    assert report.constrained_max == 10
    assert report.constrained_max < report.unconstrained_ex
    assert report.ratio == Fraction(10, 11)
    by_params = {row["params"]: int(row["value"]) for row in _load_rows() if row["quantity"] == "ex"}
    assert by_params["n=8;pattern=C4"] == report.unconstrained_ex
    assert by_params["n=8;pattern=C4;degree_floor=7"] == report.constrained_max
    _finish(8, t0, 300.0, "n=8 full-floor optimum 10 < 11 unconstrained, ratio 10/11")


def test_09_composed_construction_under_600s():
    t0 = time.monotonic()
    violations, details = _suite_composed(2, 3, 3)
    assert violations == 0
    assert details["side"] == 448
    assert details["edges"] == 124992
    assert details["bad_edges"] == 0
    assert details["layer_witness"] is None
    assert details["cross_witness"] is None
    assert 0.1 <= details["density"] <= 1.0
    _finish(9, t0, 600.0, "448-vertex composed host: shape, two freeness sweeps, density band")


def test_10_ratio_count_floor_under_30s():
    t0 = time.monotonic()
    violations, details = _suite_ratio_count(3, 3)
    assert violations == 0
    assert details["triples"] == 144
    assert details["ratio_floor"] == 3
    assert details["ratio_failures"] == 0
    assert details["codegree_failures"] == 0
    assert details["below_floor_failures"] == 0
    _finish(10, t0, 30.0, "144 parameter triples at floor 3, codegree bands exact")


def test_11_region_freeness_on_solver_witnesses_under_120s():
    t0 = time.monotonic()
    free_spec = complete_bipartite(2, 2, expansion=True)
    hosts = []
    for n in (4, 5, 6):
        result = ex_exact(n, free_spec, host_kind="3graph")
        assert result.witness is not None
        hosts.append(result.witness)
    ordered = complete_bipartite(2, 2, expansion=True, placement="ordered")
    core_in_v1 = complete_bipartite(2, 2, expansion=True, placement="core-in-V1")
    for (m, n), want in {(2, 2): 2, (3, 3): 9, (4, 3): 18, (4, 4): 18}.items():
        result = z_expansion_exact(m, n, ordered, core_in_v1)
        assert result.value == want, (m, n, result.value)
        hosts.append(result.witness.to_three_graph())
    checked = 0
    for h in hosts:
        if h.edge_count == 0 or find_expansion(h, free_spec) is not None:
            continue
        degrees = h.degree_sequence()
        pivot = degrees.index(max(degrees))
        verdict = check_region_freeness(h, pivot, 2, 2)
        assert verdict.status == "holds", verdict.details
        assert verdict.details["inside_v1_free"]
        assert verdict.details["cross_from_v1_free"]
        assert verdict.details["cross_from_v2_free"]
        checked += 1
    assert checked >= 6
    _finish(11, t0, 120.0, f"{checked}/{len(hosts)} free witnesses pass all three region checks")
