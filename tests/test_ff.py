import numpy as np
import pytest

from turanlab.errors import CapExceededError
from turanlab.ff import (
    FieldElement,
    make_field,
    norm,
    norm_preimage_count,
    prime_power_decompose,
)


def _naive_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _naive_is_irreducible(poly, p):
    # trial division by every monic polynomial of degree 1..deg//2
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for low in range(p**d):
            div = []
            idx = low
            for _ in range(d):
                div.append(idx % p)
                idx //= p
            div.append(1)
            # long division remainder
            rem = list(poly)
            while len(rem) - 1 >= d and any(rem):
                lead = rem[-1]
                if lead:
                    shift = len(rem) - 1 - d
                    for i in range(d + 1):
                        rem[shift + i] = (rem[shift + i] - lead * div[i]) % p
                rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                return False
    return True


def _naive_least_irreducible(p, k):
    for low in range(p**k):
        coeffs = []
        idx = low
        for _ in range(k):
            coeffs.append(idx % p)
            idx //= p
        poly = coeffs + [1]
        if _naive_is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("none found")


@pytest.mark.parametrize(
    "p,k,expected",
    [
        (3, 2, (1, 0, 1)),  # x^2 + 1
        (2, 3, (1, 1, 0, 1)),  # x^3 + x + 1
        (2, 2, (1, 1, 1)),
        (2, 4, (1, 1, 0, 0, 1)),
        (5, 1, (0, 1)),
    ],
)
def test_make_field_canonical_modulus(p, k, expected):
    assert make_field(p, k).modulus == expected


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_make_field_matches_naive_oracle(p, k):
    assert make_field(p, k).modulus == _naive_least_irreducible(p, k)


def test_make_field_validation():
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(CapExceededError):
        make_field(2, 21)


def test_prime_power_decompose():
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(49) == (7, 2)
    assert prime_power_decompose(7) == (7, 1)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power_decompose(bad)


def test_index_round_trip():
    f = make_field(3, 3)
    for i in range(f.order):
        assert f.from_index(i).idx == i


def test_f9_hand_facts():
    f9 = make_field(3, 2)
    x = f9.element((0, 1))
    # x * x = -1 = 2 with modulus x^2 + 1
    assert (x * x).idx == 2
    # inverse of x is 2x: x * 2x = 2 * x^2 = 2 * 2 = 1
    assert x.inverse() == f9.element((0, 2))
    assert (x * x.inverse()) == f9.one()


def test_f3_prime_field_arith():
    f3 = make_field(3, 1)
    two = f3.from_index(2)
    assert (two + two).idx == 1
    assert (two * two).idx == 1
    assert (-two).idx == 1
    assert two.inverse().idx == 2


def test_pow_and_inverse_consistency():
    f = make_field(2, 4)
    for a in f.elements():
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            continue
        assert a * a.inverse() == f.one()
        assert a ** (f.order - 1) == f.one()
        assert a**-1 == a.inverse()


def _index_tables(f):
    n = f.order
    els = [f.from_index(i) for i in range(n)]
    add = np.zeros((n, n), dtype=np.int64)
    mul = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            add[i, j] = (a + b).idx
            mul[i, j] = (a * b).idx
    return add, mul


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (3, 3), (2, 6)])
def test_field_axioms_exhaustive_triples(p, k):
    # tables built elementwise, then every triple checked by vectorized lookup
    f = make_field(p, k)
    n = f.order
    add, mul = _index_tables(f)
    i = np.arange(n)
    assert (add == add.T).all() and (mul == mul.T).all()
    assert (add[0] == i).all()
    assert (mul[1] == i).all()
    assert (mul[0] == 0).all()
    a = np.repeat(np.repeat(i, n), n).reshape(n, n, n)
    b = np.tile(np.repeat(i, n), n).reshape(n, n, n)
    c = np.tile(np.tile(i, n), n).reshape(n, n, n)
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    # additive and multiplicative inverses exist and are unique
    assert sorted(np.argmin(add, axis=1).tolist()) == list(range(n))
    nonzero = mul[1:, 1:]
    assert ((nonzero == 1).sum(axis=1) == 1).all()


def test_norm_trivial_values():
    f9 = make_field(3, 2)
    f3 = make_field(3, 1)
    assert norm(f9.zero(), 3, 3) == f3.zero()
    assert norm(f9.one(), 3, 3) == f3.one()


def test_norm_of_generator_f9():
    f9 = make_field(3, 2)
    gen = None
    for a in f9.elements():
        if a.is_zero():
            continue
        order = 1
        acc = a
        while acc != f9.one():
            acc = acc * a
            order += 1
        if order == 8:
            gen = a
            break
    assert gen is not None
    # the norm of a multiplicative generator has order q - 1 = 2 in F_3
    assert norm(gen, 3, 3).idx == 2


@pytest.mark.parametrize("q,s", [(3, 3), (2, 3), (4, 3), (3, 4), (5, 3)])
def test_norm_multiplicative_full_enumeration(q, s):
    field = make_field(*prime_power_decompose(q ** (s - 1)))
    table = [norm(x, q, s) for x in field.elements()]
    for a in field.elements():
        for b in field.elements():
            assert table[(a * b).idx] == table[a.idx] * table[b.idx]


@pytest.mark.parametrize("q,s", [(3, 3), (2, 3), (4, 3)])
def test_norm_fiber_uniformity(q, s):
    expected = (q ** (s - 1) - 1) // (q - 1)
    assert norm_preimage_count(q, s, 0) == 1
    for y in range(1, q):
        assert norm_preimage_count(q, s, y) == expected


def test_norm_preimage_examples():
    # q=3, s=3: fibers over 1 and 2 have size 4, over 0 size 1
    assert norm_preimage_count(3, 3, 1) == 4
    assert norm_preimage_count(3, 3, 2) == 4
    assert norm_preimage_count(3, 3, 0) == 1


def test_norm_rejects_wrong_field():
    f4 = make_field(2, 2)
    with pytest.raises(ValueError):
        norm(f4.one(), 3, 3)


def test_subfield_embedding_is_ring_hom():
    # reconstruct the embedding F_4 -> F_16 from norm internals via preimages
    from turanlab.ff import _subfield_table

    big, sub, table = _subfield_table(4, 3)
    emb = {}
    for i, t in enumerate(table):
        if t >= 0:
            assert t not in emb
            emb[t] = i
    assert len(emb) == sub.order
    for a in sub.elements():
        for b in sub.elements():
            ea = big.from_index(emb[a.idx])
            eb = big.from_index(emb[b.idx])
            assert emb[(a + b).idx] == (ea + eb).idx
            assert emb[(a * b).idx] == (ea * eb).idx


def test_cross_field_operations_rejected():
    f9 = make_field(3, 2)
    f3 = make_field(3, 1)
    with pytest.raises(ValueError):
        _ = f9.one() + f3.one()


def test_element_reduction_of_long_coeffs():
    f9 = make_field(3, 2)
    # x^2 reduces to 2 under x^2 + 1
    assert FieldElement(f9, (0, 0, 1)).idx == 2


def _reference_subfield_table(q, s):
    # the embedding by FieldElement arithmetic: F_q's generator goes to the
    # least-index root of F_q's modulus in the big field
    p, kq = prime_power_decompose(q)
    big = make_field(p, kq * (s - 1))
    sub = make_field(p, kq)
    root = next(
        r for r in big.elements()
        if sum((big.from_index(c) * r**i for i, c in enumerate(sub.modulus)), big.zero()).is_zero()
    )
    table = [-1] * big.order
    for a in sub.elements():
        img = sum(
            (big.from_index(c) * root**i for i, c in enumerate(a.coeffs)), big.zero()
        )
        table[img.idx] = a.idx
    return big, sub, tuple(table)


# every non-prime q with s >= 3 and q^(s-1) <= 512, plus identity cases:
# s = 2, and a prime q, whose embedding fixes the prime field's indices
@pytest.mark.parametrize(
    "q,s",
    [(4, 3), (4, 4), (4, 5), (8, 3), (8, 4), (9, 3), (16, 3),
     (2, 2), (5, 2), (9, 2), (3, 3), (7, 3), (2, 9)],
)
def test_subfield_table_matches_reference(q, s):
    from turanlab.ff import _subfield_table

    assert _subfield_table(q, s) == _reference_subfield_table(q, s)
