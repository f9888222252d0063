"""Exact cyclotomic arithmetic, cross-checked against the complex embedding.

The floating-point embedding is an independent oracle: it shares no code
with the polynomial-residue arithmetic, so agreement on random inputs is
strong evidence that the exact layer multiplies, divides, and reduces
correctly.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest

from fusionkit.cyclo import (
    ConductorMismatch,
    CycNum,
    cyclotomic_polynomial,
    euler_phi,
)

CONDUCTORS = [3, 4, 5, 7, 8, 9, 12, 16, 25, 27, 49]


def random_cyc(rng: random.Random, m: int) -> CycNum:
    phi = euler_phi(m)
    out = CycNum.zero(m)
    for i in range(phi):
        c = rng.randint(-4, 4)
        if c:
            out = out + CycNum.rational(m, c) * CycNum.zeta(m, i)
    return out


def close(a: complex, b: complex, tol: float = 1e-8) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_phi_function():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 8, 9, 12, 49)] == [1, 1, 2, 2, 4, 6, 4, 42]


def test_cyclotomic_polynomials_known():
    p = 7
    assert cyclotomic_polynomial(p) == tuple([1] * p)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for m in CONDUCTORS:
        poly = cyclotomic_polynomial(m)
        assert len(poly) == euler_phi(m) + 1
        assert poly[-1] == 1


def test_root_satisfies_minimal_polynomial():
    for m in CONDUCTORS:
        z = CycNum.zeta(m)
        acc = CycNum.zero(m)
        for i, c in enumerate(cyclotomic_polynomial(m)):
            acc = acc + CycNum.rational(m, c) * z ** i
        assert acc.is_zero


def test_zeta_has_exact_order():
    for m in CONDUCTORS:
        z = CycNum.zeta(m)
        assert z ** m == CycNum.one(m)
        for d in range(1, m):
            if m % d == 0:
                assert z ** d != CycNum.one(m)


def test_primitive_root_sums():
    # sum over all nontrivial p-th roots of unity is -1
    for p in (3, 5, 7):
        acc = CycNum.zero(p)
        for k in range(1, p):
            acc = acc + CycNum.zeta(p, k)
        assert acc == CycNum.rational(p, -1)
        assert acc.is_rational and acc.as_rational() == Fraction(-1)


def test_arithmetic_matches_complex_embedding():
    rng = random.Random(20260823)
    for m in CONDUCTORS:
        for _ in range(12):
            x = random_cyc(rng, m)
            y = random_cyc(rng, m)
            xc, yc = x.to_complex(), y.to_complex()
            assert close((x + y).to_complex(), xc + yc)
            assert close((x - y).to_complex(), xc - yc)
            assert close((x * y).to_complex(), xc * yc)
            assert close(x.conjugate().to_complex(), xc.conjugate())


def test_power_matches_repeated_product():
    rng = random.Random(11)
    for m in (5, 8, 9):
        x = random_cyc(rng, m)
        acc = CycNum.one(m)
        for n in range(6):
            assert x ** n == acc
            acc = acc * x


def test_negative_power_is_rejected():
    # the field has no division here; without the check the square-and-
    # multiply loop would never end on a negative exponent
    with pytest.raises(ValueError, match="negative powers"):
        _ = CycNum.zeta(5) ** -1


def test_galois_is_field_automorphism():
    rng = random.Random(13)
    for m in (5, 7, 8, 9, 12):
        units = [k for k in range(1, m) if math.gcd(k, m) == 1]
        for k in units[:4]:
            x, y = random_cyc(rng, m), random_cyc(rng, m)
            assert (x + y).galois(k) == x.galois(k) + y.galois(k)
            assert (x * y).galois(k) == x.galois(k) * y.galois(k)
            assert CycNum.zeta(m).galois(k) == CycNum.zeta(m, k)


def test_conjugate_is_galois_minus_one():
    for m in (5, 8, 12):
        z = CycNum.zeta(m)
        assert z.conjugate() == z.galois(m - 1)
        assert close(z.conjugate().to_complex(), z.to_complex().conjugate())


def test_mixed_conductor_arithmetic_rejected():
    a = CycNum.zeta(5)
    b = CycNum.zeta(7)
    with pytest.raises(ConductorMismatch):
        _ = a + b
    with pytest.raises(ConductorMismatch):
        _ = a * b


def test_rational_round_trip():
    x = CycNum.rational(8, Fraction(3, 4))
    assert x.is_rational
    assert x.as_rational() == Fraction(3, 4)
    assert (x + x).as_rational() == Fraction(3, 2)


def test_half_turns_and_quarter_turns():
    # ζ_4 = i: square is -1, embedding agrees
    i = CycNum.zeta(4)
    assert i * i == CycNum.rational(4, -1)
    assert close(i.to_complex(), 1j)
    # ζ_8^2 = ζ_4, built in the conductor-8 field as zeta(8, 2)
    z8 = CycNum.zeta(8)
    assert z8 * z8 == CycNum.zeta(8, 2)
    assert close((z8 ** 2).to_complex(), cmath.exp(2j * cmath.pi / 4))


def _convolution_product(x: CycNum, y: CycNum) -> CycNum:
    """x*y by the full convolution of the numerators, reduced by long
    division by Phi_m and put over the product of the denominators: the
    path every product takes when neither operand is rational.  Zero terms
    are skipped, since they add nothing."""
    m = x.m
    poly = cyclotomic_polynomial(m)
    conv = [0] * (len(x.num) + len(y.num) - 1)
    for i, a in enumerate(x.num):
        if a:
            for j, b in enumerate(y.num):
                conv[i + j] += a * b
    for t in range(len(conv) - 1, len(poly) - 2, -1):
        c = conv[t]
        if c:
            for k, q in enumerate(poly):
                if q:
                    conv[t - len(poly) + 1 + k] -= c * q
    den = x.den * y.den
    return CycNum.from_coeffs(m, [Fraction(c, den) for c in conv[:len(poly) - 1]])


@pytest.mark.parametrize("m", [3, 5, 7, 8, 9])
def test_rational_operand_product_matches_convolution(m):
    rng = random.Random(9000 + m)
    scalars = [CycNum.rational(m, q) for q in
               (1, -1, 0, 3, -7, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 6))]
    half = CycNum.rational(m, Fraction(1, 2))
    others = scalars + [random_cyc(rng, m) for _ in range(6)]
    others += [random_cyc(rng, m) * half for _ in range(3)]
    others.append(CycNum.zeta(m) + CycNum.rational(m, Fraction(-2, 9)))
    assert all(c.is_rational for c in scalars)
    # every ordered pair: a rational operand on either side, or on neither
    for x in others:
        for y in others:
            got, want = x * y, _convolution_product(x, y)
            # the same canonical value: denominator and numerator
            assert (got.den, got.num) == (want.den, want.num)


@pytest.mark.parametrize("m", [3, 5, 7, 8, 9, 25, 49])
def test_tagged_roots_match_convolution(m):
    # the 2m tagged (-1)^s zeta^k, built by zeta and negation
    roots = {(s, k): -CycNum.zeta(m, k) if s else CycNum.zeta(m, k)
             for s in (0, 1) for k in range(m)}
    assert CycNum.one(m) is roots[0, 0] and CycNum.zeta(m, m + 1) is roots[0, 1]
    for (s, k), x in roots.items():
        assert x.root == (s, k)
        # equal to, and hashing like, the same value built untagged
        plain = CycNum.from_coeffs(m, [0] * k + [(-1) ** s])
        assert plain.root is None and x == plain and hash(x) == hash(plain)
        assert -x is roots[1 - s, k] and x.conjugate() is roots[s, -k % m]
        for j in range(1, m):
            if math.gcd(j, m) == 1:
                assert x.galois(j) is roots[s, k * j % m] and x.galois(j) == plain.galois(j)
    # every ordered pair: a lookup, the same value as the convolution
    for (s, k), x in roots.items():
        for (t, l), y in roots.items():
            got, want = x * y, _convolution_product(x, y)
            assert (got.den, got.num) == (want.den, want.num)
            assert got is roots[s ^ t, (k + l) % m]


def _generic_power(x: CycNum, n: int) -> CycNum:
    """Square and multiply, as CycNum.__pow__ runs it on an untagged number."""
    result, base = CycNum.one(x.m), x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


@pytest.mark.parametrize("m", [8, 9, 25, 49])
def test_tagged_powers_match_square_and_multiply(m):
    # a tagged (-1)^s zeta^k to the n is the tagged (-1)^(sn) zeta^(kn),
    # the value that square and multiply gives on the same number untagged
    for s in (0, 1):
        for k in range(m):
            x = -CycNum.zeta(m, k) if s else CycNum.zeta(m, k)
            plain = CycNum.from_coeffs(m, [0] * k + [(-1) ** s])
            assert plain.root is None
            for n in range(2 * m + 1):
                got, want = x ** n, _generic_power(plain, n)
                sign = -CycNum.one(m) if s * n % 2 else CycNum.one(m)
                assert got is CycNum.zeta(m, k * n) * sign
                assert got == want == plain ** n and hash(got) == hash(want)
