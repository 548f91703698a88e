import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from turanlab.errors import CapExceededError
from turanlab.hypergraph import BipartiteGraph, Graph, ThreeGraph
from turanlab.patterns import PatternSpec, complete_bipartite, even_cycle, theta
from turanlab import harness as H


def random_graph(rng, n, p=0.4):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def random_3graph(rng, n, p=0.2):
    return ThreeGraph(n, [e for e in combinations(range(n), 3) if rng.random() < p])


class TestDecomposeGraph:
    def test_star(self):
        g = Graph(6, [(0, i) for i in range(1, 6)])
        d = H.decompose_graph(g, 0)
        assert d.v1 == (1, 2, 3, 4, 5)
        assert d.v2 == ()
        assert d.counts == {"pivot": 5, "inside_v1": 0, "crossing": 0, "inside_v2": 0}

    def test_four_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        d = H.decompose_graph(g, 0)
        assert d.v1 == (1, 3)
        assert d.v2 == (2,)
        assert d.counts == {"pivot": 2, "inside_v1": 0, "crossing": 2, "inside_v2": 0}

    def test_counts_partition_edges(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 9))
            v = rng.randrange(g.n)
            d = H.decompose_graph(g, v)
            assert sum(d.counts.values()) == g.edge_count == d.total
            assert v not in d.v1 and v not in d.v2
            assert sorted(d.v1 + d.v2) == [u for u in range(g.n) if u != v]
            assert all(g.has_edge(v, u) for u in d.v1)
            assert not any(g.has_edge(v, u) for u in d.v2)

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            H.decompose_graph(Graph(3, [(0, 1)]), 3)


class TestDecompose3Graph:
    def test_complete_four_vertices_has_empty_heavy_part(self):
        h = ThreeGraph(4, list(combinations(range(4), 3)))
        d = H.decompose_3graph(h, 0, 1, 1)
        # every codegree with the pivot is 2, below the threshold 4
        assert d.v1 == ()
        assert d.counts["pivot"] == 3
        assert d.counts["inside_v2"] == 1

    def test_sunflower_heavy_partner(self):
        h = ThreeGraph(11, [(0, 1, x) for x in range(2, 11)])
        d = H.decompose_3graph(h, 0, 2, 2)
        assert d.v1 == (1,)
        assert d.counts["pivot"] == 9
        d_high = H.decompose_3graph(h, 0, 3, 3)
        assert d_high.v1 == ()

    def test_counts_partition_edges(self):
        rng = random.Random(11)
        for _ in range(30):
            h = random_3graph(rng, rng.randint(3, 8), 0.35)
            v = rng.randrange(h.n)
            d = H.decompose_3graph(h, v, 1, 1)
            assert sum(d.counts.values()) == h.edge_count == d.total
            assert sorted(d.v1 + d.v2) == [u for u in range(h.n) if u != v]
            # recount the pivot region directly
            assert d.counts["pivot"] == sum(1 for e in h.edges if v in e)

    def test_rejects_bad_params(self):
        h = ThreeGraph(4, [(0, 1, 2)])
        with pytest.raises(ValueError):
            H.decompose_3graph(h, 4, 1, 1)
        with pytest.raises(ValueError):
            H.decompose_3graph(h, 0, 0, 1)


class TestBoundednessScan:
    def test_tiny_alpha_keeps_ratio_one(self):
        r = H.boundedness_scan(even_cycle(4), 6, Fraction(1, 100))
        assert r.floor == 1
        assert r.ratio == 1
        assert r.constrained_max == r.unconstrained_ex == 7

    def test_full_alpha_small_host(self):
        # a dominating vertex plus a 2-matching on its neighbors stays free
        r = H.boundedness_scan(even_cycle(4), 6, 1)
        assert r.floor == 5
        assert (r.constrained_max, r.unconstrained_ex) == (7, 7)
        assert r.ratio == 1

    def test_three_graph_zero_optimum_convention(self):
        spec = complete_bipartite(1, 1, expansion=True)
        r = H.boundedness_scan(spec, 5, Fraction(1, 2), host_kind="3graph")
        assert r.constrained_max == r.unconstrained_ex == 0
        assert r.ratio == 1
        assert r.constrained_witness is None
        assert r.unconstrained_witness is not None
        assert r.unconstrained_witness.edge_count == 0

    def test_constrained_never_exceeds_unconstrained(self):
        for alpha in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5), 1):
            r = H.boundedness_scan(even_cycle(4), 7, alpha)
            assert r.constrained_max <= r.unconstrained_ex
            assert 0 <= r.ratio <= 1
            assert r.floor == -((-alpha * 6) // 1)

    def test_alpha_validation(self):
        for alpha in (0, -1, Fraction(3, 2)):
            with pytest.raises(ValueError):
                H.boundedness_scan(even_cycle(4), 5, alpha)

    def test_host_kind_validation(self):
        with pytest.raises(ValueError):
            H.boundedness_scan(even_cycle(4), 5, 1, host_kind="bipartite")

    def test_grid_solves_the_free_problem_once_per_n(self, monkeypatch):
        calls = []
        solve = H.ex_exact

        def counting(n, specs, **kwargs):
            calls.append((n, kwargs.get("degree_floor")))
            return solve(n, specs, **kwargs)

        monkeypatch.setattr(H, "ex_exact", counting)
        alphas = (1, Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
        reports = H.scan_grid(even_cycle(4), (7, 8), alphas)
        # only C4 at n = 8 under floors 7 and 6 needs more than the free witness
        assert calls == [(7, None), (8, None), (8, 7), (8, 6)]
        assert [(r.n, r.floor, r.constrained_max, r.unconstrained_ex) for r in reports] == [
            (7, 6, 9, 9), (7, 5, 9, 9), (7, 3, 9, 9), (7, 2, 9, 9),
            (8, 7, 10, 11), (8, 6, 10, 11), (8, 4, 11, 11), (8, 2, 11, 11),
        ]

    def test_grid_checks_every_alpha_before_solving(self, monkeypatch):
        monkeypatch.setattr(H, "ex_exact", None)
        with pytest.raises(ValueError, match="alpha must lie"):
            H.scan_grid(even_cycle(4), (5, 6), (1, 2))
        with pytest.raises(ValueError, match="unknown host kind"):
            H.scan_grid(even_cycle(4), (5,), (1,), host_kind="bipartite")

    def test_report_serialization(self):
        r = H.boundedness_scan(even_cycle(4), 5, Fraction(1, 2))
        d = r.to_json_dict()
        json.dumps(d)
        assert d["ratio"]["num"] == r.ratio.numerator
        assert d["constrained_witness_hash"]
        assert d["constrained_witness"]["n"] == 5
        row = r.to_csv_row()
        assert row["ratio"] == str(r.ratio)
        assert row["ratio_float"] == pytest.approx(float(r.ratio))


class TestHeavyNeighborhoodSize:
    def test_holds_in_regime(self):
        h = ThreeGraph(13, list(combinations(range(13), 3)))
        v = H.check_heavy_neighborhood_size(h, 0, 1, 1, 1)
        assert v.status == "holds"
        assert v.holds
        assert v.details["v1_size"] == 12

    def test_small_host_is_out_of_regime(self):
        h = ThreeGraph(4, list(combinations(range(4), 3)))
        v = H.check_heavy_neighborhood_size(h, 0, 1, 1, 1)
        assert v.status == "out-of-regime"
        assert not v.holds
        assert v.details["regime_threshold"] == 12

    def test_requires_max_degree_pivot(self):
        h = ThreeGraph(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3)])
        with pytest.raises(ValueError):
            H.check_heavy_neighborhood_size(h, 4, 1, 1, 1)

    def test_requires_degree_floor(self):
        h = ThreeGraph(6, [(0, 1, 2)])
        with pytest.raises(ValueError):
            H.check_heavy_neighborhood_size(h, 0, 1, 1, 1)

    def test_requires_valid_alpha_and_vertex(self):
        h = ThreeGraph(4, list(combinations(range(4), 3)))
        with pytest.raises(ValueError):
            H.check_heavy_neighborhood_size(h, 0, 2, 1, 1)
        with pytest.raises(ValueError):
            H.check_heavy_neighborhood_size(h, 9, 1, 1, 1)

    def test_verdict_serialization(self):
        h = ThreeGraph(4, list(combinations(range(4), 3)))
        v = H.check_heavy_neighborhood_size(h, 0, 1, 1, 1)
        d = v.to_json_dict()
        json.dumps(d)
        assert d["details"]["regime_threshold"]["num"] == 12


class TestRegionFreeness:
    def test_sunflower_holds_with_heavy_partner(self):
        h = ThreeGraph(11, [(0, 1, x) for x in range(2, 11)])
        v = H.check_region_freeness(h, 0, 2, 2)
        assert v.status == "holds"
        assert v.details["v1_size"] == 1
        assert v.details["inside_v1_free"]
        assert v.details["cross_from_v1_free"]
        assert v.details["cross_from_v2_free"]

    def test_single_triple_vacuous(self):
        v = H.check_region_freeness(ThreeGraph(3, [(0, 1, 2)]), 0, 2, 1)
        assert v.status == "holds"
        assert v.details["v1_size"] == 0

    def test_host_with_expansion_is_an_error(self):
        h = ThreeGraph(8, [(0, 2, 4), (0, 3, 5), (1, 2, 6), (1, 3, 7)])
        with pytest.raises(ValueError):
            H.check_region_freeness(h, 0, 2, 2)

    def test_requires_s_at_least_two(self):
        with pytest.raises(ValueError):
            H.check_region_freeness(ThreeGraph(3, [(0, 1, 2)]), 0, 1, 1)

    def test_random_free_hosts_never_violate(self):
        # sparse random 3-graphs rarely contain the expansion; for those
        # that are free the three region statements must all hold
        rng = random.Random(23)
        checked = 0
        for _ in range(40):
            h = random_3graph(rng, rng.randint(4, 8), 0.25)
            if h.edge_count == 0:
                continue
            degs = h.degree_sequence()
            pivot = degs.index(max(degs))
            try:
                v = H.check_region_freeness(h, pivot, 2, 2)
            except ValueError:
                continue
            assert v.status == "holds"
            checked += 1
        assert checked >= 20


class TestMonotonicity:
    def test_frozen_small_cells(self):
        v = H.monotonicity_check(even_cycle(4), 4, 6, 2)
        assert v.status == "holds"
        assert v.details == {"ex_m": 4, "ex_n": 7, "rhs": Fraction(7), "m": 4, "n": 6, "r": 2}
        v = H.monotonicity_check(even_cycle(4), 4, 7, 2)
        assert v.status == "holds"
        assert v.details["rhs"] == Fraction(432, 49)

    def test_sweep_over_small_cells(self):
        for m, n, r in [(3, 5, 1), (3, 6, 2), (4, 7, 3), (5, 7, 2)]:
            assert H.monotonicity_check(even_cycle(4), m, n, r).holds
            assert H.monotonicity_check(complete_bipartite(1, 2), m, n, r).holds

    def test_rejects_disconnected_pattern(self):
        two_edges = PatternSpec(BipartiteGraph(2, 2, [(0, 0), (1, 1)]), name="2K2")
        with pytest.raises(ValueError):
            H.monotonicity_check(two_edges, 4, 6, 1)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            H.monotonicity_check(even_cycle(4), 4, 5, 2)
        with pytest.raises(ValueError):
            H.monotonicity_check(even_cycle(4), 4, 6, 0)

    def test_rejects_expansion_pattern(self):
        with pytest.raises(ValueError):
            H.monotonicity_check(complete_bipartite(2, 2, expansion=True), 4, 6, 1)


class TestBipartiteSplit:
    def test_frozen_cells(self):
        v = H.bipartite_split_check(even_cycle(4), 2)
        assert v.holds and v.details == {"ex_2n": 4, "z_nn": 3, "n": 2}
        v = H.bipartite_split_check(even_cycle(4), 3)
        assert v.holds and v.details == {"ex_2n": 7, "z_nn": 6, "n": 3}

    def test_single_edge_pattern_degenerate(self):
        v = H.bipartite_split_check(complete_bipartite(1, 1), 1)
        assert v.holds and v.details == {"ex_2n": 0, "z_nn": 0, "n": 1}

    def test_path_pattern(self):
        v = H.bipartite_split_check(complete_bipartite(1, 2), 2)
        assert v.holds
        assert v.details["ex_2n"] == 2 and v.details["z_nn"] == 2

    def test_respects_host_caps(self):
        with pytest.raises(CapExceededError):
            H.bipartite_split_check(even_cycle(4), 6)


class TestRemovalRatio:
    def test_four_cycle_vertex(self):
        r = H.removal_ratio(even_cycle(4), 0, 3)
        assert (r.z_after_removal, r.ex_value) == (3, 3)
        assert r.ratio == 1
        assert r.flag is None

    def test_ratio_may_exceed_one(self):
        r = H.removal_ratio(theta(2, 2, 2), 0, 3)
        assert r.ratio == 2
        assert r.flag is None

    def test_forest_pattern_is_flagged(self):
        r = H.removal_ratio(complete_bipartite(1, 2), 1, 2)
        assert r.ratio == 0
        assert r.flag == "no cycle: asymptotic comparison inapplicable"

    def test_zero_denominator_is_an_error(self):
        with pytest.raises(ValueError):
            H.removal_ratio(complete_bipartite(1, 1), 0, 1)

    def test_edgeless_remainder_is_an_error(self):
        # removing the center of a path leaves two bare vertices
        with pytest.raises(ValueError):
            H.removal_ratio(complete_bipartite(1, 2), 0, 2)

    def test_serialization(self):
        r = H.removal_ratio(even_cycle(4), 0, 3)
        d = r.to_json_dict()
        json.dumps(d)
        assert d["ratio"] == {"num": 1, "den": 1, "float": 1.0}


class TestSweepAndReports:
    def test_sweep_order_independent_of_jobs(self):
        cells = [(even_cycle(4), n, Fraction(1, 2)) for n in range(4, 8)]
        fn = lambda c: H.boundedness_scan(*c).to_csv_row()
        seq = H.sweep(fn, cells, jobs=1)
        par = H.sweep(fn, cells, jobs=4)
        assert seq == par
        assert [row["n"] for row in seq] == [4, 5, 6, 7]

    def test_csv_round_trip(self, tmp_path):
        reports = [H.boundedness_scan(even_cycle(4), n, 1) for n in (4, 5)]
        path = tmp_path / "scan.csv"
        H.write_csv([r.to_csv_row() for r in reports], path)
        rows = H.read_csv(path)
        assert len(rows) == 2
        assert rows[0]["pattern"] == "C4"
        assert rows[0]["ratio"] == str(reports[0].ratio)
        assert rows[0]["constrained_witness_hash"] == H.content_hash(
            reports[0].constrained_witness
        )

    def test_write_csv_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            H.write_csv([], tmp_path / "empty.csv")
