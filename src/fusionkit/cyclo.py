"""Exact arithmetic in the cyclotomic field Q(zeta_m).

An element is a rational-coefficient residue modulo the m-th cyclotomic
polynomial Phi_m, stored as an integer coefficient vector of length
euler_phi(m) over a single positive denominator.  All arithmetic is exact;
the float embedding exists only as a cross-check and is never ground truth.

The conductor m is fixed per element, and mixed-conductor arithmetic is
rejected: every number of one computation is built in the same field.

The field has no division here: the matrices built from these numbers are
unitary, so their inverses are conjugate transposes, and a negative power
raises ValueError.

The signed roots of unity (-1)^s zeta_m^k are tagged: each is one cached
number per (m, s, k) whose slot root holds (s, k).  zeta and one return
them, and negation, galois, conjugate and powers of a tagged number, and
the product of two, are lookups with no convolution.  Every other number
has root None; equality and hashing read only (m, den, num).
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache


class ConductorMismatch(ValueError):
    """Raised when two operands live in different cyclotomic fields."""


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # den must be monic; exact integer division is guaranteed for our inputs
    assert den[-1] == 1
    num = list(num)
    q = [0] * max(1, len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        if c:
            q[shift] = c
            for j, y in enumerate(den):
                num[shift + j] -= c * y
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending degree, monic."""
    assert m >= 1
    if m == 1:
        return (-1, 1)
    poly = [0] * m + [1]
    poly[0] = -1  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            assert rem == [0]
    return tuple(poly)


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


class _Context:
    """Cached reduction data for one conductor."""

    __slots__ = ("m", "phi", "poly", "power_rows")

    def __init__(self, m: int):
        self.m = m
        self.poly = cyclotomic_polynomial(m)
        self.phi = len(self.poly) - 1
        # power_rows[t] = integer vector of x^t mod Phi_m; products of two
        # reduced vectors reach degree 2*(phi - 1), zeta powers reach m - 1
        top = max(self.m, 2 * self.phi - 1)
        rows = []
        for t in range(top):
            if t < self.phi:
                row = [0] * self.phi
                row[t] = 1
            else:
                prev = rows[t - 1]
                row = [0] + list(prev[:-1])
                lead = prev[-1]
                if lead:
                    for k in range(self.phi):
                        row[k] -= lead * self.poly[k]
            rows.append(row)
        self.power_rows = tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def _context(m: int) -> _Context:
    return _Context(m)


def _normalize(den: int, num: list[int]) -> tuple[int, tuple[int, ...]]:
    """den and num in lowest terms; den is positive, as every caller's is."""
    if den == 1:
        return 1, tuple(num)
    g = den
    for x in num:
        g = math.gcd(g, x)
        if g == 1:
            break
    if g > 1:
        den //= g
        num = [x // g for x in num]
    if not any(num):
        den = 1
    return den, tuple(num)


class CycNum:
    """One element of Q(zeta_m), reduced mod Phi_m."""

    __slots__ = ("m", "den", "num", "_hash", "root")

    def __init__(self, m: int, den: int, num: tuple[int, ...], root=None):
        self.m = m
        self.den = den
        self.num = num
        self._hash = None
        # (s, k) for the cached (-1)^s zeta_m^k, else None
        self.root = root

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeta(m: int, k: int = 1) -> "CycNum":
        return _root(m, 0, k % m)

    @staticmethod
    def rational(m: int, value) -> "CycNum":
        q = Fraction(value)
        ctx = _context(m)
        num = [0] * ctx.phi
        num[0] = q.numerator
        den, num = _normalize(q.denominator, num)
        return CycNum(m, den, num)

    @staticmethod
    def zero(m: int) -> "CycNum":
        return _zero(m)

    @staticmethod
    def one(m: int) -> "CycNum":
        return _root(m, 0, 0)

    @staticmethod
    def from_coeffs(m: int, coeffs) -> "CycNum":
        """Build from rational coefficients of 1, zeta, zeta^2, ... (any length)."""
        ctx = _context(m)
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = den * f.denominator // math.gcd(den, f.denominator)
        ints = [f.numerator * (den // f.denominator) for f in fracs]
        num = [0] * ctx.phi
        for t, c in enumerate(ints):
            if c:
                row = ctx.power_rows[t % m]
                for k in range(ctx.phi):
                    num[k] += c * row[k]
        den, tup = _normalize(den, num)
        return CycNum(m, den, tup)

    # -- views -------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Reduced rational coefficient vector, length euler_phi(m)."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not a rational element: %s" % self)
        return Fraction(self.num[0], self.den)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "CycNum") -> None:
        if self.m != other.m:
            raise ConductorMismatch(
                "conductor mismatch: %d vs %d (build both in one field)" % (self.m, other.m)
            )

    def __add__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2 == 1:
            # what _normalize returns for an integral sum
            return CycNum(self.m, 1, tuple(map(operator.add, self.num, other.num)))
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        num = [a * m1 + b * m2 for a, b in zip(self.num, other.num)]
        den, tup = _normalize(d1 * m1, num)
        return CycNum(self.m, den, tup)

    def __sub__(self, other: "CycNum") -> "CycNum":
        return self + (-other)

    def __neg__(self) -> "CycNum":
        if self.root is not None:
            s, k = self.root
            return _root(self.m, 1 - s, k)
        return CycNum(self.m, self.den, tuple(-x for x in self.num))

    def __mul__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        r, t = self.root, other.root
        if r is not None and t is not None:
            return _root(self.m, r[0] ^ t[0], (r[1] + t[1]) % self.m)
        a, b = self.num, other.num
        if not any(b[1:]):
            a, b = b, a
        if not any(a[1:]):
            # a rational operand only scales the other numerator: the
            # convolution gives the same vector and has nothing to reduce
            den, tup = _normalize(self.den * other.den, [a[0] * y for y in b])
            return CycNum(self.m, den, tup)
        ctx = _context(self.m)
        phi = ctx.phi
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(other.num):
                    if y:
                        conv[i + j] += x * y
        num = conv[:phi]
        for t in range(phi, 2 * phi - 1):
            c = conv[t]
            if c:
                row = ctx.power_rows[t]
                for k in range(phi):
                    num[k] += c * row[k]
        den, tup = _normalize(self.den * other.den, num)
        return CycNum(self.m, den, tup)

    def __pow__(self, n: int) -> "CycNum":
        if n < 0:
            raise ValueError("negative powers unsupported: Q(zeta_%d) has no division here" % self.m)
        if self.root is not None:
            s, k = self.root
            return _root(self.m, s * n % 2, k * n % self.m)
        return square_and_multiply(self, n, _root(self.m, 0, 0))

    # -- field automorphisms ----------------------------------------------

    def galois(self, k: int) -> "CycNum":
        """Apply zeta -> zeta^k; requires gcd(k, m) = 1."""
        if math.gcd(k, self.m) != 1:
            raise ValueError("galois exponent %d not coprime to %d" % (k, self.m))
        if self.root is not None:
            s, t = self.root
            return _root(self.m, s, t * k % self.m)
        ctx = _context(self.m)
        num = [0] * ctx.phi
        for t, c in enumerate(self.num):
            if c:
                row = ctx.power_rows[(t * k) % self.m]
                for j in range(ctx.phi):
                    num[j] += c * row[j]
        den, tup = _normalize(self.den, num)
        return CycNum(self.m, den, tup)

    def conjugate(self) -> "CycNum":
        return self.galois(self.m - 1)

    # -- comparisons and embedding ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.m == other.m and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.m, self.den, self.num))
            self._hash = h
        return h

    def to_complex(self) -> complex:
        z = 0j
        for t, c in enumerate(self.num):
            if c:
                z += c * cmath.exp(2j * cmath.pi * t / self.m)
        return z / self.den

    def __repr__(self) -> str:
        terms = []
        for t, c in enumerate(self.num):
            if c == 0:
                continue
            if t == 0:
                terms.append(str(c))
            else:
                mono = "z%d" % self.m if t == 1 else "z%d^%d" % (self.m, t)
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append("-" + mono)
                else:
                    terms.append("%d*%s" % (c, mono))
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        if self.den == 1:
            return body
        return "(%s)/%d" % (body, self.den)


def square_and_multiply(x, n: int, one):
    """x ** n for n >= 0, from one, the identity: one product per set bit
    of n and one square per bit below the top one."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


@lru_cache(maxsize=None)
def _zero(m: int) -> CycNum:
    return CycNum(m, 1, (0,) * euler_phi(m))


@lru_cache(maxsize=None)
def _root(m: int, s: int, k: int) -> CycNum:
    """The tagged (-1)^s zeta_m^k, for s in {0, 1} and 0 <= k < m."""
    row = _context(m).power_rows[k]
    return CycNum(m, 1, tuple(-x for x in row) if s else row, (s, k))
