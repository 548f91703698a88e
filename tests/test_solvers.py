"""Branch-and-bound solvers vs naive enumeration, plus bound certificates."""

from itertools import combinations

import mpmath
import pytest

from turanlab import solvers
from turanlab.errors import CapExceededError, InvariantViolationError
from turanlab.hypergraph import (
    BipartiteGraph,
    Graph,
    SemibipartiteThreeGraph,
    ThreeGraph,
    content_hash,
)
from turanlab.patterns import (
    PatternSpec,
    complete_bipartite,
    find_expansion,
    find_in_graph,
    find_ordered_bipartite,
    parse_pattern,
    theta,
)
from turanlab.solvers import (
    eval_bound,
    ex_exact,
    z_exact,
    z_expansion_exact,
    z_expansion_components,
)


# -- naive full-enumeration oracles --


def naive_ex_graph(n, specs):
    universe = list(combinations(range(n), 2))
    best = -1
    for bits in range(1 << len(universe)):
        edges = [e for j, e in enumerate(universe) if bits >> j & 1]
        g = Graph(n, edges)
        if all(find_in_graph(g, s) is None for s in specs):
            best = max(best, len(edges))
    return best


def naive_ex_3graph(n, specs):
    universe = list(combinations(range(n), 3))
    best = -1
    for bits in range(1 << len(universe)):
        edges = [e for j, e in enumerate(universe) if bits >> j & 1]
        h = ThreeGraph(n, edges)
        if all(find_expansion(h, s) is None for s in specs):
            best = max(best, len(edges))
    return best


def naive_z(m, n, specs):
    universe = [(u, w) for u in range(m) for w in range(n)]
    best = -1
    for bits in range(1 << len(universe)):
        edges = [e for j, e in enumerate(universe) if bits >> j & 1]
        g = BipartiteGraph(m, n, edges)
        if all(find_ordered_bipartite(g, s) is None for s in specs):
            best = max(best, len(edges))
    return best


def naive_zexp(m, n, p1, p2):
    universe = [(u, v, w) for u, v in combinations(range(m), 2) for w in range(n)]
    best = -1
    for bits in range(1 << len(universe)):
        edges = [e for j, e in enumerate(universe) if bits >> j & 1]
        h = SemibipartiteThreeGraph(m, n, edges)
        if find_expansion(h, p1) is None and find_expansion(h, p2) is None:
            best = max(best, len(edges))
    return best


# -- oracle agreement --


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize(
    "pattern_texts",
    [["C4"], ["K{1,2}"], ["K{1,1}"], ["C4", "K{1,3}"]],
)
def test_ex_graph_matches_naive(n, pattern_texts):
    specs = [parse_pattern(t) for t in pattern_texts]
    want = naive_ex_graph(n, specs)
    assert ex_exact(n, specs).value == want
    assert ex_exact(n, specs, symmetry=False).value == want


def test_ex_oversized_pattern_is_never_found():
    # K{3,3} has 6 vertices, so every 5-vertex host is free
    assert ex_exact(5, complete_bipartite(3, 3)).value == 10
    # theta(2,2,2) is K{2,3} on 5 vertices and does constrain the host
    assert ex_exact(5, theta(2, 2, 2)).value == naive_ex_graph(5, [theta(2, 2, 2)])


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("pattern_texts", [["K{1,1}+"], ["K{1,2}+"]])
def test_ex_3graph_matches_naive(n, pattern_texts):
    specs = [parse_pattern(t) for t in pattern_texts]
    want = naive_ex_3graph(n, specs)
    assert ex_exact(n, specs, host_kind="3graph").value == want
    assert ex_exact(n, specs, host_kind="3graph", symmetry=False).value == want


def test_ex_3graph_single_triple_pattern():
    assert ex_exact(5, parse_pattern("K{1,1}+"), host_kind="3graph").value == 0


@pytest.mark.parametrize(
    "m,n,pattern_texts",
    [
        (2, 2, ["K{2,2}"]),
        (3, 3, ["K{2,2}"]),
        (2, 3, ["K{1,2} ordered"]),
        (2, 3, ["K{2,1} ordered"]),
        (2, 3, ["K{1,2}"]),
        (3, 3, ["C6"]),
        (1, 4, ["K{2,2}"]),
        (3, 3, ["K{2,2}", "K{1,3} ordered"]),
    ],
)
def test_z_matches_naive(m, n, pattern_texts):
    specs = [parse_pattern(t) for t in pattern_texts]
    want = naive_z(m, n, specs)
    assert z_exact(m, n, specs).value == want
    assert z_exact(m, n, specs, symmetry=False).value == want


def test_z_placement_asymmetry():
    # forbidding the star out of the left part caps left degrees only
    assert z_exact(2, 3, parse_pattern("K{1,2} ordered")).value == 2
    assert z_exact(2, 3, parse_pattern("K{2,1} ordered")).value == 3


@pytest.mark.parametrize(
    "m,n,p1_text,p2_text",
    [
        (2, 2, "K{2,2}+ ordered", "K{2,2}+ core-in-V1"),
        (3, 2, "K{2,2}+ ordered", "K{2,2}+ core-in-V1"),
        (2, 3, "K{1,2}+ ordered", "K{2,2}+ core-in-V1"),
        (3, 3, "K{2,2}+ ordered", "K{1,2}+ core-in-V1"),
        (3, 3, "K{1,1}+ ordered", "K{2,2}+ core-in-V1"),
    ],
)
def test_zexp_matches_naive(m, n, p1_text, p2_text):
    p1 = parse_pattern(p1_text)
    p2 = parse_pattern(p2_text)
    want = naive_zexp(m, n, p1, p2)
    assert z_expansion_exact(m, n, p1, p2).value == want
    assert z_expansion_exact(m, n, p1, p2, symmetry=False).value == want


# -- frozen values and witnesses --


def test_ex_c4_known_values():
    c4 = parse_pattern("C4")
    assert [ex_exact(n, c4).value for n in (4, 5, 6, 7)] == [4, 6, 7, 9]


def test_ex_c4_witness_is_lex_smallest():
    r = ex_exact(4, parse_pattern("C4"))
    assert r.witness.edges == ((0, 1), (0, 2), (0, 3), (1, 2))
    assert r.nodes_explored > 0


def test_ex_c6_search_is_pinned():
    # value, search size and witness of the one free C6 graph solve in the
    # suite: a change to the anchored check must keep all three, and a
    # sharper symmetry cut may move only the search size
    r = ex_exact(7, parse_pattern("C6"))
    assert (r.value, r.nodes_explored) == (13, 3812)
    assert content_hash(r.witness) == "120979bd02b8f7d20df7cf32b5b4ddf56e65fa48"


def test_z_known_values():
    k22 = parse_pattern("K{2,2}")
    assert z_exact(2, 2, k22).value == 3
    assert z_exact(2, 2, k22).witness.edges == ((0, 0), (0, 1), (1, 0))
    assert z_exact(3, 3, k22).value == 6
    for n in range(1, 7):
        assert z_exact(1, n, k22).value == n


def test_zexp_known_values():
    p2 = parse_pattern("K{2,2}+ core-in-V1")
    assert z_expansion_exact(3, 3, parse_pattern("K{1,1}+ ordered"), p2).value == 0
    r = z_expansion_exact(2, 2, parse_pattern("K{2,2}+ ordered"), p2)
    assert r.value == 2
    assert r.witness.edges == ((0, 1, 0), (0, 1, 1))


# -- degree floor --


def test_degree_floor_known_value():
    # a dominating vertex leaves room for a 2-edge matching among its
    # neighbors, so the constrained optimum on 5 vertices is 4 + 2
    r = ex_exact(5, parse_pattern("C4"), degree_floor=4)
    assert r.value == 6
    assert max(r.witness.degree(v) for v in range(5)) >= 4


def test_degree_floor_zero_matches_unconstrained():
    c4 = parse_pattern("C4")
    assert ex_exact(5, c4, degree_floor=0).value == ex_exact(5, c4).value


def test_degree_floor_never_exceeds_unconstrained():
    c4 = parse_pattern("C4")
    free = ex_exact(6, c4).value
    for floor in range(1, 6):
        assert ex_exact(6, c4, degree_floor=floor).value <= free


def test_degree_floor_infeasible_with_pattern():
    # forbidding every edge leaves only the empty graph, which misses floor 1
    r = ex_exact(4, parse_pattern("K{1,1}"), degree_floor=1)
    assert r.value == 0
    assert r.witness is None


def test_degree_floor_structurally_impossible():
    with pytest.raises(ValueError):
        ex_exact(4, parse_pattern("C4"), degree_floor=4)
    with pytest.raises(ValueError):
        ex_exact(4, parse_pattern("C4"), degree_floor=-1)
    with pytest.raises(ValueError):
        ex_exact(5, parse_pattern("K{2,2}+"), host_kind="3graph", degree_floor=7)


def test_degree_floor_on_3graph_host():
    spec = parse_pattern("K{1,2}+")
    free = ex_exact(5, spec, host_kind="3graph").value
    constrained = ex_exact(5, spec, host_kind="3graph", degree_floor=2)
    assert 0 < constrained.value <= free
    stats = constrained.witness.degree_sequence()
    assert max(stats) >= 2


# -- caps and validation --


def test_caps():
    c4 = parse_pattern("C4")
    with pytest.raises(CapExceededError):
        ex_exact(11, c4)
    with pytest.raises(CapExceededError):
        ex_exact(9, parse_pattern("K{2,2}+"), host_kind="3graph")
    with pytest.raises(CapExceededError):
        z_exact(8, 9, parse_pattern("K{2,2}"))
    with pytest.raises(CapExceededError):
        z_expansion_exact(
            6, 2, parse_pattern("K{2,2}+ ordered"), parse_pattern("K{2,2}+ core-in-V1")
        )
    with pytest.raises(CapExceededError):
        z_expansion_exact(
            2, 6, parse_pattern("K{2,2}+ ordered"), parse_pattern("K{2,2}+ core-in-V1")
        )


@pytest.mark.parametrize("text", ["K{2,2}+ ordered", "K{2,2}+ core-in-V1"])
def test_3graph_ex_refuses_placements_on_a_host_too_small_to_hold_them(monkeypatch, text):
    # with the capacity count first, the pattern would be dropped and the
    # complete 3-graph on 4 vertices returned; the re-check's finder, which
    # refuses it too but only after the search, is kept out of the way
    monkeypatch.setattr(solvers, "find_expansion", lambda host, spec: None)
    with pytest.raises(ValueError, match="needs a host with parts"):
        ex_exact(4, parse_pattern(text), host_kind="3graph")


def test_graph_ex_refuses_ordered_patterns_on_a_host_too_small_to_hold_them(monkeypatch):
    monkeypatch.setattr(solvers, "find_in_graph", lambda host, spec: None)
    with pytest.raises(ValueError, match="needs a host with parts"):
        ex_exact(3, parse_pattern("C4 ordered"))
    with pytest.raises(ValueError, match="needs a host with parts"):
        ex_exact(3, [parse_pattern("K{1,1}"), parse_pattern("C4 ordered")])


def test_host_pattern_kind_validation():
    with pytest.raises(ValueError):
        ex_exact(4, parse_pattern("K{2,2}+"))
    with pytest.raises(ValueError):
        ex_exact(4, parse_pattern("C4"), host_kind="3graph")
    with pytest.raises(ValueError):
        ex_exact(4, parse_pattern("C4"), host_kind="hypercube")
    with pytest.raises(ValueError):
        ex_exact(4, [])
    with pytest.raises(ValueError):
        z_exact(2, 2, parse_pattern("K{2,2}+"))
    with pytest.raises(ValueError):
        z_expansion_exact(
            2, 2, parse_pattern("K{2,2}+"), parse_pattern("K{2,2}+ core-in-V1")
        )
    with pytest.raises(ValueError):
        z_expansion_exact(
            2, 2, parse_pattern("K{2,2}+ ordered"), parse_pattern("K{2,2}+ ordered")
        )


def test_edgeless_pattern_rejected():
    bare = PatternSpec(BipartiteGraph(1, 1, []), name="bare")
    with pytest.raises(ValueError):
        ex_exact(3, bare)
    with pytest.raises(ValueError):
        z_exact(2, 2, bare)


# -- structural invariants --


def test_witnesses_are_independently_free():
    c4 = parse_pattern("C4")
    for n in (4, 5, 6):
        r = ex_exact(n, c4)
        assert r.witness.edge_count == r.value
        assert find_in_graph(r.witness, c4) is None
    k22 = parse_pattern("K{2,2}")
    r = z_exact(3, 4, k22)
    assert r.witness.edge_count == r.value
    assert find_ordered_bipartite(r.witness, k22) is None


@pytest.mark.parametrize(
    "finder,solve",
    [
        ("find_in_graph", lambda: ex_exact(4, parse_pattern("C4"))),
        ("find_expansion", lambda: ex_exact(4, parse_pattern("K{1,2}+"), host_kind="3graph")),
        ("find_ordered_bipartite", lambda: z_exact(2, 2, parse_pattern("K{2,2}"))),
        (
            "find_expansion",
            lambda: z_expansion_exact(
                2, 2, parse_pattern("K{2,2}+ ordered"), parse_pattern("K{2,2}+ core-in-V1")
            ),
        ),
    ],
    ids=["ex", "ex-3graph", "z", "zexp"],
)
def test_witness_recheck_rejects_a_reported_copy(monkeypatch, finder, solve):
    monkeypatch.setattr(solvers, finder, lambda host, spec: object())
    with pytest.raises(InvariantViolationError, match="independent freeness re-check"):
        solve()


def test_monotonicity_in_host_size():
    c4 = parse_pattern("C4")
    values = [ex_exact(n, c4).value for n in (3, 4, 5, 6, 7)]
    assert values == sorted(values)
    k22 = parse_pattern("K{2,2}")
    assert z_exact(2, 3, k22).value <= z_exact(3, 3, k22).value
    assert z_exact(3, 2, k22).value <= z_exact(3, 3, k22).value


def test_nodes_explored_deterministic():
    c4 = parse_pattern("C4")
    a = ex_exact(6, c4)
    b = ex_exact(6, c4)
    assert a.nodes_explored == b.nodes_explored
    assert a.witness.edges == b.witness.edges


def test_solve_result_json_round_trip():
    r = z_exact(2, 2, parse_pattern("K{2,2}"))
    d = r.to_json_dict()
    assert d["value"] == 3
    assert d["witness"]["kind"] == "bipartite"
    assert d["nodes_explored"] == r.nodes_explored


# -- bound certificates --


def test_kst_z_frozen_value():
    cert = eval_bound("kst_z", {"m": 3, "n": 3, "s": 2, "t": 2})
    want = 3 * mpmath.sqrt(3) + 3
    assert abs(cert.value - want) < 1e-12
    assert cert.branch == "direct"


def test_kst_ex_exact_case():
    cert = eval_bound("kst_ex", {"n": 4, "s": 2, "t": 2})
    assert abs(cert.value - 6) < 1e-20


def test_nv_cycle_branches():
    even = eval_bound("nv_cycle", {"m": 4, "n": 4, "k": 2})
    assert even.branch == "even-k"
    assert abs(even.value - 16) < 1e-20
    odd = eval_bound("nv_cycle", {"m": 3, "n": 3, "k": 3})
    assert odd.branch == "odd-k"
    want = 3 * (mpmath.mpf(3) ** mpmath.mpf("2/3") * mpmath.mpf(3) ** mpmath.mpf("2/3") + 6)
    assert abs(odd.value - want) < 1e-12


def test_z_exp_i_frozen_components():
    cert = eval_bound("z_exp_i", {"m": 4, "n": 4, "s1": 2, "t1": 2, "s2": 2, "t2": 2})
    assert cert.branch == "variant-i"
    assert abs(cert.components["f"] - 608) < 1e-18
    assert abs(cert.components["r"] - 288) < 1e-18
    assert abs(cert.components["g"] - 24) < 1e-18
    assert abs(cert.components["h"] - 16) < 1e-18
    assert abs(cert.value - 1504) < 1e-18


def test_z_exp_ii_matches_direct_expression():
    cert = eval_bound("z_exp_ii", {"m": 4, "n": 4, "s1": 2, "t1": 2, "s2": 2, "t2": 2})
    assert cert.branch == "variant-ii"
    mm = mpmath.mpf(4)
    f = 2 * 4 * 4 * (2 * mm ** mpmath.mpf("0.75") * 4 + 2 * mm ** mpmath.mpf(2))
    assert abs(cert.components["f"] - f) / f < 1e-12
    assert abs(cert.value - (2 * f + 288)) / f < 1e-12


def test_bound_precision_is_stable():
    # recomputing at much higher precision moves the value by < 1e-9 relative
    for bound_id, params in (
        ("kst_z", {"m": 7, "n": 9, "s": 3, "t": 5}),
        ("nv_cycle", {"m": 6, "n": 11, "k": 5}),
        ("z_exp_ii", {"m": 3, "n": 4, "s1": 2, "t1": 3, "s2": 2, "t2": 4}),
    ):
        a = eval_bound(bound_id, params).value
        with mpmath.workdps(80):
            b = eval_bound(bound_id, params).value
            assert abs(a - b) / b < 1e-9


def test_bound_param_validation():
    with pytest.raises(ValueError):
        eval_bound("kst_q", {"n": 3, "s": 2, "t": 2})
    with pytest.raises(ValueError):
        eval_bound("kst_ex", {"n": 3, "s": 2})
    with pytest.raises(ValueError):
        eval_bound("kst_ex", {"n": 3, "s": 2, "t": 2, "extra": 1})
    with pytest.raises(ValueError):
        eval_bound("kst_ex", {"n": 3, "s": 2, "t": 2.5})
    with pytest.raises(ValueError):
        eval_bound("kst_ex", {"n": 3, "s": 0, "t": 2})
    with pytest.raises(ValueError):
        eval_bound("nv_cycle", {"m": 3, "n": 3, "k": 1})
    with pytest.raises(ValueError):
        eval_bound("z_exp_i", {"m": 3, "n": 3, "s1": 1, "t1": 2, "s2": 2, "t2": 2})
    with pytest.raises(ValueError):
        eval_bound("z_exp_i", {"m": 3, "n": 3, "s1": 3, "t1": 2, "s2": 2, "t2": 2})


def test_components_match_certificate():
    params = {"m": 5, "n": 7, "s1": 2, "t1": 3, "s2": 2, "t2": 2}
    cert = eval_bound("z_exp_i", params)
    comp = z_expansion_components("i", **params)
    assert comp["f"] == cert.components["f"]
    assert abs(cert.value - (2 * comp["f"] + comp["r"])) / cert.value < 1e-12
    with pytest.raises(ValueError):
        z_expansion_components("iii", 2, 2, 2, 2, 2, 2)


def test_dominance_over_exact_values():
    slack = 1e-6
    for m, n in ((2, 2), (2, 3), (3, 3), (4, 5)):
        exact = z_exact(m, n, parse_pattern("K{2,2}")).value
        cert = eval_bound("kst_z", {"m": m, "n": n, "s": 2, "t": 2})
        assert exact <= float(cert.value) + slack
    for n in (4, 5, 6):
        exact = ex_exact(n, parse_pattern("C4")).value
        cert = eval_bound("kst_ex", {"n": n, "s": 2, "t": 2})
        assert exact <= float(cert.value) + slack
    exact = z_exact(3, 3, parse_pattern("C6")).value
    cert = eval_bound("nv_cycle", {"m": 3, "n": 3, "k": 3})
    assert exact <= float(cert.value) + slack
    exact = z_expansion_exact(
        3, 3, parse_pattern("K{2,2}+ ordered"), parse_pattern("K{2,2}+ core-in-V1")
    ).value
    for bound_id in ("z_exp_i", "z_exp_ii"):
        cert = eval_bound(bound_id, {"m": 3, "n": 3, "s1": 2, "t1": 2, "s2": 2, "t2": 2})
        assert exact <= float(cert.value) + slack
