"""Fullness extraction and pivot decomposition against their references on
hosts as large as the benchmark's `sweep` workload draws.

The property tests draw at most 12 vertices for fullness and 16 for the
decomposition, so a cascade of deletions that empties a sparse host is
rarely sampled there.  Here ten seeded 3-graphs on 14..22 vertices at
density 0.15 run through `extract_full` with vertex floors at 0.5 and 0.8
of the mean degree and pair floors at 0.5 and 1.0 of the mean pair degree,
and through `decompose_3graph` at every pivot.
"""

import itertools
import random

import pytest
from test_fullness import _reference_extract_full, _reference_is_full
from test_static_host_differential import _reference_decompose

from turanlab.fullness import extract_full, is_full, pair_spec, vertex_spec
from turanlab.harness import decompose_3graph
from turanlab.hypergraph import ThreeGraph


def _hosts():
    rng = random.Random(29)
    hosts = []
    for i in range(10):
        n = 14 + (5 * i) % 9
        triples = list(itertools.combinations(range(n), 3))
        hosts.append(ThreeGraph(n, rng.sample(triples, round(0.15 * len(triples)))))
    return hosts


def _specs(h):
    mean_deg = 3 * h.edge_count / h.n
    mean_pair = 3 * h.edge_count / (h.n * (h.n - 1) / 2)
    return ([vertex_spec(h.n, max(1, round(f * mean_deg))) for f in (0.5, 0.8)]
            + [pair_spec(h.n, max(1, round(f * mean_pair))) for f in (0.5, 1.0)])


HOSTS = _hosts()


@pytest.mark.parametrize("h", HOSTS, ids=lambda h: f"n{h.n}-m{h.edge_count}")
def test_extract_full_matches_the_definition_at_sweep_scale(h):
    for spec in _specs(h):
        assert is_full(h, spec) == _reference_is_full(h, spec)
        assert extract_full(h, spec) == _reference_extract_full(h, spec)


@pytest.mark.parametrize("h", HOSTS, ids=lambda h: f"n{h.n}-m{h.edge_count}")
def test_decompose_3graph_matches_the_two_pass_split_at_sweep_scale(h):
    for v in range(h.n):
        got = decompose_3graph(h, v, 2, 2)
        want = _reference_decompose(h, v, 2, 2)
        assert got == want
        assert list(got.counts) == list(want.counts)


def test_the_hosts_reach_the_cascades_the_small_draws_miss():
    # some pass empties its host and some keeps part of it
    kept = [extract_full(h, spec).hypergraph.edge_count for h in HOSTS for spec in _specs(h)]
    assert 0 in kept and any(kept)
