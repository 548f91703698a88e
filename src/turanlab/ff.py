"""Finite fields F_{p^k} in polynomial basis, with the norm map onto a subfield.

Elements are coefficient vectors over F_p, constant term first, reduced modulo
a fixed monic irreducible modulus of degree k.  Every field of a given order
uses one canonical modulus (see :func:`make_field`), so elements of equal
order are directly comparable.  The canonical index

    idx(x) = sum(coeffs[i] * p**i)

is a bijection onto {0, ..., p^k - 1} and is what the construction layer uses
to label vertices.

:class:`FieldElement` is the reference arithmetic.  The construction and
check layers work on canonical indices only, through :func:`field_tables`:
exp/log tables over a primitive element g, so x * y is a table lookup on
log x + log y, and x + y is XOR for p = 2 and digitwise addition mod p
otherwise.  Tables are built on first use and cached per canonical field.

The relative norm from F_{q^(s-1)} down to F_q is

    N(x) = x * x**q * ... * x**(q**(s-2)) = x ** ((q**(s-1) - 1) // (q - 1)),

so N(g**i) = g**(e*i) with e = (q**(s-1) - 1) // (q - 1).  :func:`norm_indices`
tabulates it by that exponent, and :func:`norm` by exponentiating a
FieldElement; both re-express the result in the standalone F_q descriptor
through one explicitly enumerated subfield embedding.
"""

from __future__ import annotations

import functools
from typing import Iterator

from .errors import CapExceededError

MAX_FIELD_ORDER = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p**k, p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = q
    for d in range(2, q + 1):
        if d * d > q:
            break
        if q % d == 0:
            p = d
            break
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1 or not is_prime(p):
        raise ValueError(f"not a prime power: {q}")
    return p, k


# -- dense polynomial arithmetic over F_p (lists, constant term first) --


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)

def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    # m must be monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return _trim(a)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        if b[-1] != 1:
            inv = pow(b[-1], p - 2, p)
            b = [(c * inv) % p for c in b]
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_powmod_x(e: int, m: list[int], p: int) -> list[int]:
    """x**e mod m by square and multiply."""
    result = [1]
    base = _poly_mod([0, 1], m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        e >>= 1
    return result


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Monic poly of degree >= 1: no roots, and gcd(x^(p^i) - x, f) = 1 for i <= deg/2."""
    k = len(poly) - 1
    if k == 1:
        return True
    for c in range(p):
        acc = 0
        for coeff in reversed(poly):
            acc = (acc * c + coeff) % p
        if acc == 0:
            return False
    if k <= 3:
        # cubics and quadratics are irreducible iff rootless
        return True
    for i in range(1, k // 2 + 1):
        xq = _poly_powmod_x(p**i, poly, p)
        diff = list(xq)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(poly, _trim(diff), p)
        if len(g) - 1 >= 1:
            return False
    return True


def _check_order(p: int, k: int) -> None:
    if not is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if p**k > MAX_FIELD_ORDER:
        raise CapExceededError(f"field order {p**k} exceeds cap {MAX_FIELD_ORDER}")


class FieldDescriptor:
    """Immutable description of F_{p^k}: characteristic, degree, modulus.

    The modulus is a length-(k+1) coefficient tuple, constant term first,
    monic.  For k = 1 the modulus is x, making the quotient the prime field.
    """

    __slots__ = ("p", "k", "modulus")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        _check_order(p, k)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if k > 1 and not _is_irreducible(list(modulus), p):
            raise ValueError("modulus is reducible")
        self.p = p
        self.k = k
        self.modulus = modulus

    @property
    def order(self) -> int:
        return self.p**self.k

    def element(self, coeffs) -> "FieldElement":
        return FieldElement(self, coeffs)

    def from_index(self, idx: int) -> "FieldElement":
        if not 0 <= idx < self.order:
            raise ValueError(f"index {idx} out of range for order {self.order}")
        return FieldElement(self, _digits(idx, self.p, self.k))

    def zero(self) -> "FieldElement":
        return self.from_index(0)

    def one(self) -> "FieldElement":
        return self.from_index(1)

    def elements(self) -> Iterator["FieldElement"]:
        for i in range(self.order):
            yield self.from_index(i)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldDescriptor)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"FieldDescriptor(p={self.p}, k={self.k}, modulus={self.modulus})"


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FieldDescriptor:
    """Canonical descriptor of F_{p^k}.

    The modulus is the least monic irreducible of degree k, where monic
    degree-k polynomials are ordered by their index sum(c_i * p**i) over the
    non-leading coefficients.  For k = 1 the modulus is x.
    """
    _check_order(p, k)
    if k == 1:
        return FieldDescriptor(p, 1, (0, 1))
    for low in range(p**k):
        poly = _digits(low, p, k) + [1]
        if _is_irreducible(poly, p):
            return FieldDescriptor(p, k, tuple(poly))
    raise RuntimeError("no irreducible found")  # unreachable: they exist for all p, k


class FieldElement:
    """Element of a FieldDescriptor's field.  Immutable; supports + - * / **."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs):
        coeffs = tuple(int(c) % field.p for c in coeffs)
        if len(coeffs) > field.k:
            reduced = _poly_mod(list(coeffs), list(field.modulus), field.p)
            coeffs = tuple(reduced)
        coeffs = coeffs + (0,) * (field.k - len(coeffs))
        self.field = field
        self.coeffs = coeffs

    @property
    def idx(self) -> int:
        return _index(self.coeffs, self.field.p)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_same_field(self, other: "FieldElement") -> None:
        if self.field != other.field:
            raise ValueError("elements from different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check_same_field(other)
        p = self.field.p
        return FieldElement(self.field, [(a + b) % p for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check_same_field(other)
        p = self.field.p
        return FieldElement(self.field, [(a - b) % p for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "FieldElement":
        p = self.field.p
        return FieldElement(self.field, [(-a) % p for a in self.coeffs])

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check_same_field(other)
        prod = _poly_mul(list(self.coeffs), list(other.coeffs), self.field.p)
        return FieldElement(self.field, _poly_mod(prod, list(self.field.modulus), self.field.p))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.order - 2)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"<{self.coeffs} in GF({self.field.p}^{self.field.k})>"


def _index(coeffs, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


def _digits(idx: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(idx % p)
        idx //= p
    return out


class FieldTables:
    """Integer arithmetic of a canonical field F_{p^k} on canonical indices.

    exp[i] is the index of g**i for the primitive element g of least index,
    stored for 0 <= i < 2 * (order - 1) so that a product or quotient needs
    no reduction; log[x] is the exponent of x != 0 (log[0] is -1).  Use
    :func:`field_tables` to get the cached tables of a field.
    """

    __slots__ = ("p", "k", "order", "exp", "log")

    def __init__(self, p: int, k: int, exp: tuple[int, ...], log: tuple[int, ...]):
        self.p = p
        self.k = k
        self.order = p**k
        self.exp = exp
        self.log = log

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out, place = 0, 1
        while a or b:
            out += (a % p + b % p) % p * place
            a //= p
            b //= p
            place *= p
        return out

    def add_row(self, a: int) -> list[int]:
        """idx(a + y) for every index y, in order of y."""
        if self.p == 2:
            return [a ^ y for y in range(self.order)]
        p = self.p
        row, place = [0], 1
        for _ in range(self.k):
            d = a % p
            a //= p
            row = [r + (d + c) % p * place for c in range(p) for r in row]
            place *= p
        return row

    def neg(self, a: int) -> int:
        if self.p == 2 or a == 0:
            return a
        # -1 = g**((order - 1) / 2) in odd characteristic
        return self.exp[self.log[a] + (self.order - 1) // 2]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if a == 0:
            return 0
        return self.exp[self.log[a] - self.log[b] + self.order - 1]


@functools.lru_cache(maxsize=None)
def field_tables(p: int, k: int) -> FieldTables:
    """exp/log tables of make_field(p, k), built on first use."""
    field = make_field(p, k)
    modulus = list(field.modulus)
    order = field.order
    for g in range(1, order):
        # powers of g by polynomial multiplication, until they return to 1
        g_coeffs = _digits(g, p, k)
        powers = [1]
        cur = [1]
        while True:
            cur = _poly_mod(_poly_mul(cur, g_coeffs, p), modulus, p)
            idx = _index(cur, p)
            if idx == 1:
                break
            powers.append(idx)
        if len(powers) == order - 1:
            break
    log = [-1] * order
    for i, x in enumerate(powers):
        log[x] = i
    return FieldTables(p, k, tuple(powers * 2), tuple(log))


@functools.lru_cache(maxsize=None)
def _subfield_table(q: int, s: int) -> tuple[FieldDescriptor, FieldDescriptor, tuple[int, ...]]:
    """(big_field, sub_field, table) for F_q inside F_{q^(s-1)}.

    table maps the big-field canonical index of each subfield member to the
    index of the corresponding F_q element; non-members map to -1.  The
    embedding sends the generator of F_q's polynomial basis to the root of
    F_q's modulus in the big field with least canonical index.
    """
    p, kq = prime_power_decompose(q)
    big = make_field(p, kq * (s - 1))
    sub = make_field(p, kq)
    if s == 2:
        return big, sub, tuple(range(big.order))
    table = [-1] * big.order
    if kq == 1:
        table[:p] = range(p)
        return big, sub, tuple(table)
    t = field_tables(p, big.k)

    def at(poly, x):
        # poly's F_p coefficients are also their own big-field indices
        acc = 0
        for coeff in reversed(poly):
            acc = t.add(t.mul(acc, x), coeff)
        return acc

    root = next(x for x in range(big.order) if at(sub.modulus, x) == 0)
    for a in range(sub.order):
        table[at(_digits(a, p, kq), root)] = a
    return big, sub, tuple(table)


@functools.lru_cache(maxsize=None)
def norm_indices(q: int, s: int) -> tuple[int, ...]:
    """idx of N(x) in F_q for every x in F_{q^(s-1)}, by idx of x."""
    if s < 2:
        raise ValueError(f"s must be >= 2, got {s}")
    big, _, table = _subfield_table(q, s)
    t = field_tables(big.p, big.k)
    e = (q ** (s - 1) - 1) // (q - 1)
    exp, log, period = t.exp, t.log, t.order - 1
    return (0,) + tuple(table[exp[e * log[x] % period]] for x in range(1, t.order))


def norm(x: FieldElement, q: int, s: int) -> FieldElement:
    """Relative norm of x in F_{q^(s-1)} down to F_q, as an F_q element.

    N(x) = x ** ((q**(s-1) - 1) // (q - 1)); N(0) = 0.  The result always
    lands in the fixed field of the q-power Frobenius, re-expressed here in
    the canonical standalone descriptor of F_q.
    """
    if s < 2:
        raise ValueError(f"s must be >= 2, got {s}")
    p, kq = prime_power_decompose(q)
    big, sub, table = _subfield_table(q, s)
    if x.field != big:
        raise ValueError(f"element not in F_{q}^{s-1} = F_{big.order} with canonical modulus")
    e = (q ** (s - 1) - 1) // (q - 1)
    y = x**e
    sub_idx = table[y.idx]
    if sub_idx < 0:
        raise RuntimeError("norm image outside subfield")  # unreachable
    return sub.from_index(sub_idx)


def norm_preimage_count(q: int, s: int, y) -> int:
    """Number of x in F_{q^(s-1)} with N(x) = y.  y: F_q element or index."""
    _, sub, _ = _subfield_table(q, s)
    if isinstance(y, FieldElement):
        if y.field != sub:
            raise ValueError("target must live in F_q")
        target = y.idx
    else:
        target = int(y)
        if not 0 <= target < sub.order:
            raise ValueError(f"index {target} out of range for F_{q}")
    return norm_indices(q, s).count(target)
