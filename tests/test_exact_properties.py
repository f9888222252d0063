"""Property tests of the exact layer: the field laws of CycNum, and
words in the catalog matrices against the closure they generate.

Operands are drawn at conductors 3, 5, 7, 8 and 9, each either integral
(denominator 1, the fast paths of addition and normalization) or
fractional (the general path), so every law is checked across both.
Results are compared structurally, which is sound because every CycNum is
kept in one canonical form; that form is checked too.  The words are drawn
in the catalog generators at p = 2, 3 and 5: the sparse CycMatrix product
of a word must be the closure's matrix of the product of its indices.  The
examples are derandomized so that the suite stays deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.cyclo import CycNum, euler_phi
from fusionkit.matgroup import CycMatrix, closure, std_matrix

CONDUCTORS = (3, 5, 7, 8, 9)

exact = settings(derandomize=True, deadline=None, database=None, max_examples=120)


@st.composite
def operand(draw, m: int) -> CycNum:
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=euler_phi(m), max_size=euler_phi(m)))
    den = draw(st.sampled_from((1, 1, 2, 3, 6, 7, 12)))
    return CycNum.from_coeffs(m, [Fraction(c, den) for c in coeffs])


def triples():
    return st.sampled_from(CONDUCTORS).flatmap(
        lambda m: st.tuples(operand(m), operand(m), operand(m)))


def canonical(x: CycNum) -> bool:
    """One positive denominator, coprime to the numerators (so 1 for 0)."""
    return len(x.num) == euler_phi(x.m) and x.den > 0 and math.gcd(x.den, *x.num) == 1


@exact
@given(triples())
def test_addition_is_coefficientwise(xyz):
    x, y, _ = xyz
    s = x + y
    assert canonical(s)
    assert s.coeffs == tuple(a + b for a, b in zip(x.coeffs, y.coeffs))
    assert (x - y).coeffs == tuple(a - b for a, b in zip(x.coeffs, y.coeffs))


@exact
@given(triples())
def test_commutativity(xyz):
    x, y, _ = xyz
    assert x + y == y + x
    assert x * y == y * x
    assert canonical(x * y)


@exact
@given(triples())
def test_associativity(xyz):
    x, y, z = xyz
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)


@exact
@given(triples())
def test_distributivity(xyz):
    x, y, z = xyz
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@exact
@given(triples())
def test_identities(xyz):
    x, _, _ = xyz
    zero, one = CycNum.zero(x.m), CycNum.one(x.m)
    assert canonical(x)
    assert x.is_zero == (x.coeffs == zero.coeffs)
    assert x.is_rational == (x.coeffs[1:] == zero.coeffs[1:])
    assert x + zero == x == zero + x
    assert x * one == x == one * x
    assert (x - x) == zero and (x - x).is_zero
    assert (x * zero).is_zero


def catalog_generators(p: int) -> list[CycMatrix]:
    """At p = 2 the determinant-one clock and shift with F and the dense
    H; at odd p the clock, shift, D, sigma_2 and (at p = 3) tau."""
    if p == 2:
        return [std_matrix(2, "A", det_one=True), std_matrix(2, "B", det_one=True),
                std_matrix(2, "F"), std_matrix(2, "H")]
    names = ("A", "B", "D", "tau") if p == 3 else ("A", "B", "D")
    return [std_matrix(p, w) for w in names] + [std_matrix(p, "sigma", k=2)]


@lru_cache(maxsize=None)
def catalog_group(p: int):
    gens = catalog_generators(p)
    return gens, closure(gens)


def words():
    return st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(
        st.just(p), st.lists(st.integers(0, len(catalog_generators(p)) - 1), max_size=16)))


@exact
@given(words())
def test_catalog_words_match_the_closure(pw):
    p, word = pw
    gens, G = catalog_group(p)
    mat, x = CycMatrix.identity(gens[0].dim, gens[0].m), G.identity
    for k in word:
        mat, x = mat * gens[k], G.mult(x, G.generator_indices[k])
    assert mat == G.matrix(x)
    assert hash(mat) == hash(G.matrix(x))
    assert G.index_of(mat) == x
    assert G.index_of(G.matrix(x)) == x
