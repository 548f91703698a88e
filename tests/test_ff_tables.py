"""The integer field tables against the FieldElement reference.

Every canonical field of order <= 512 is covered: element pairs are
exhaustive up to order 256 and a seeded sample above that.  The norm-index
table is compared with ``norm`` for every (q, s) with q^(s-1) <= 512.
"""

import random
import subprocess
import sys

import pytest

from turanlab.ff import (
    field_tables,
    is_prime,
    make_field,
    norm,
    norm_indices,
    prime_power_decompose,
)

MAX_ORDER = 512
EXHAUSTIVE_ORDER = 256
SAMPLED_ROWS = 12


def _prime_powers(limit):
    return [(p, k) for p in range(2, limit + 1) if is_prime(p)
            for k in range(1, limit.bit_length()) if p**k <= limit]


FIELDS = sorted(_prime_powers(MAX_ORDER), key=lambda pk: pk[0] ** pk[1])
NORM_CASES = [(p**k, s) for p, k in FIELDS for s in range(2, 11)
              if (p**k) ** (s - 1) <= MAX_ORDER]


def _rows(order):
    """Every element up to EXHAUSTIVE_ORDER, a seeded sample above it."""
    if order <= EXHAUSTIVE_ORDER:
        return range(order)
    return random.Random(order).sample(range(order), SAMPLED_ROWS)


@pytest.mark.parametrize("p,k", FIELDS, ids=[f"GF({p}^{k})" for p, k in FIELDS])
def test_tables_match_field_elements(p, k):
    # each sampled a is checked against every b
    field = make_field(p, k)
    t = field_tables(p, k)
    els = list(field.elements())
    order = field.order
    assert t.order == order
    assert [t.neg(a) for a in range(order)] == [(-x).idx for x in els]
    assert [t.div(1, a) for a in range(1, order)] == [x.inverse().idx for x in els[1:]]
    for a in _rows(order):
        x = els[a]
        total = [(x + y).idx for y in els]
        assert t.add_row(a) == total
        assert [t.add(a, b) for b in range(order)] == total
        assert [t.add(a, t.neg(b)) for b in range(order)] == [(x - y).idx for y in els]
        product = [(x * y).idx for y in els]
        assert [t.mul(a, b) for b in range(order)] == product
        assert [t.div(c, b) for b, c in enumerate(product) if b] == [a] * (order - 1)


def test_tables_are_built_once_per_field():
    assert field_tables(3, 2) is field_tables(3, 2)
    t = field_tables(3, 2)
    assert sorted(t.exp[: t.order - 1]) == list(range(1, t.order))
    assert t.exp[: t.order - 1] == t.exp[t.order - 1:]
    assert all(t.exp[t.log[a]] == a for a in range(1, t.order))


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        field_tables(2, 3).div(5, 0)


@pytest.mark.parametrize("q,s", NORM_CASES, ids=[f"q{q}s{s}" for q, s in NORM_CASES])
def test_norm_indices_match_norm(q, s):
    big = make_field(*prime_power_decompose(q ** (s - 1)))
    assert norm_indices(q, s) == tuple(norm(x, q, s).idx for x in big.elements())


def test_no_tables_built_at_import():
    code = ("import turanlab.cli, turanlab.ff as ff; "
            "print(ff.field_tables.cache_info().currsize, ff.norm_indices.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", "0"]
