"""Extraspecial groups of order p^3 and exponent p, in coordinates.

Elements are triples (c, i, j) over F_p with
    (c, i, j) * (c', i', j') = (c + c' + j*i', i + i', j + j')
so that a = (0,1,0), b = (0,0,1), z = (1,0,0) satisfy z central,
a^p = b^p = z^p = 1 and b*a = z*(a*b).  A diagonal matrix group with a
cyclic shift realizes the same presentation, and the triple coordinates
make automorphisms computable without touching matrix entries.

Aut decomposes as inner automorphisms (p^2 central twists) extended by a
GL2(F_p) of linear substitutions.  The substitution attached to
M = [[m00, m01], [m10, m11]] sends a -> a^m00 b^m10, b -> a^m01 b^m11 and
needs a quadratic central correction to be a homomorphism:

    f_M(c, w) = (det(M)*c + s_M(w), M*w)
    s_M(i, j) = (1/2)*(m00*m10*i^2 + m01*m11*j^2) + m10*m01*i*j

With this correction M -> f_M is itself a group homomorphism, which gives
a certified complement to the inner automorphisms.  Every automorphism is
determined by the images of (a, b), and any ordered pair with nontrivial
commutator occurs, so |Aut| equals the pair count (p^3 - p)(p^3 - p^2):
the certificate in aut_certificate checks all of this explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fingroup import (
    FiniteGroup,
    Mat2Group,
    PermGroup,
    SemidirectGroup,
    greedy_generators,
    hom_by_generators,
    mat2_group,
    perm_closure,
    smallest_primitive_root,
)


class HeisenbergGroup(FiniteGroup):
    """Order p^3, exponent p, center of order p; odd p only."""

    def __init__(self, p: int):
        assert p % 2 == 1 and p > 2, "exponent-p model needs an odd prime"
        self.p = p
        self.order = p ** 3
        self.identity = 0
        self.a_index = self.encode(0, 1, 0)
        self.b_index = self.encode(0, 0, 1)
        self.z_index = self.encode(1, 0, 0)

    def encode(self, c: int, i: int, j: int) -> int:
        p = self.p
        return (c % p * p + i % p) * p + j % p

    def decode(self, x: int) -> tuple[int, int, int]:
        p = self.p
        x, j = divmod(x, p)
        c, i = divmod(x, p)
        return c, i, j

    def mult(self, x: int, y: int) -> int:
        p = self.p
        c1, i1, j1 = self.decode(x)
        c2, i2, j2 = self.decode(y)
        return self.encode(c1 + c2 + j1 * i2, i1 + i2, j1 + j2)

    def inv(self, x: int) -> int:
        c, i, j = self.decode(x)
        return self.encode(i * j - c, -i, -j)

    def element_order(self, x: int) -> int:
        return 1 if x == self.identity else self.p

    def exponent(self) -> int:
        return self.p

    def label(self, x: int) -> str:
        c, i, j = self.decode(x)
        if (c, i, j) == (0, 0, 0):
            return "e"
        parts = []
        for sym, e in (("z", c), ("a", i), ("b", j)):
            if e == 1:
                parts.append(sym)
            elif e:
                parts.append("%s%d" % (sym, e))
        return ".".join(parts)

    def central_indices(self) -> list[int]:
        return [self.encode(c, 0, 0) for c in range(self.p)]


def half_inverse(p: int) -> int:
    # (p + 1) // 2 is the inverse of 2 mod odd p
    return (p + 1) // 2


def section_perm(gam: HeisenbergGroup, M: tuple[int, int, int, int]) -> tuple[int, ...]:
    """The linear-substitution automorphism f_M as a permutation of indices."""
    p = gam.p
    m00, m01, m10, m11 = M
    det = (m00 * m11 - m01 * m10) % p
    assert det != 0, "singular substitution"
    h = half_inverse(p)
    # s_M(i, j) and M*(i, j) depend only on the middle coordinates: evaluate
    # them once per (i, j), then add det*c to the central coordinate, in
    # index order x = c*p^2 + i*p + j
    middle = [
        (h * (m00 * m10 * i * i + m01 * m11 * j * j) + m10 * m01 * i * j,
         (m00 * i + m01 * j) % p * p + (m10 * i + m11 * j) % p)
        for i in range(p) for j in range(p)
    ]
    pp = p * p
    return tuple((det * c + s) % p * pp + tail for c in range(p) for s, tail in middle)


def section_perms(gam: HeisenbergGroup, H: Mat2Group) -> list[tuple[int, ...]]:
    """f_M for every element of H, in H's element order."""
    return [section_perm(gam, M) for M in H.elements]


def inner_perm(gam: HeisenbergGroup, u: int, v: int) -> tuple[int, ...]:
    """Conjugation by any element with middle coordinates (u, v)."""
    p = gam.p
    out = []
    for x in range(gam.order):
        c, i, j = gam.decode(x)
        out.append(gam.encode(c + v * i - u * j, i, j))
    return tuple(out)


def inner_perms(gam: HeisenbergGroup) -> list[tuple[int, ...]]:
    return [inner_perm(gam, u, v) for u in range(gam.p) for v in range(gam.p)]


def commuting_pair_scan(G: FiniteGroup) -> int:
    """#{(a, b) : [a, b] != e}; equals |Aut| for these groups.

    [a, b] = e iff ab = ba, a symmetric relation that holds on the
    diagonal, so the pairs a < b are counted and doubled."""
    count = 0
    for a in range(G.order):
        for b in range(a + 1, G.order):
            if G.mult(a, b) != G.mult(b, a):
                count += 1
    return 2 * count


@dataclass
class AutCertificate:
    p: int
    scan_count: int
    closed_formula: int
    factored_formula: int
    inner_order: int
    section_order: int
    intersection_trivial: bool
    closure_matches: bool
    section_is_gl2_image: bool
    product_equals_scan: bool

    @property
    def ok(self) -> bool:
        return (
            self.scan_count == self.closed_formula == self.factored_formula
            and self.intersection_trivial
            and self.closure_matches
            and self.section_is_gl2_image
            and self.product_equals_scan
        )


def aut_certificate(p: int) -> AutCertificate:
    """Certify |Aut| and the inner-by-GL2 structure without materializing Aut.

    Checks, in order: the commuting-pair scan agrees with both closed
    formulas; the f_M permutations are pairwise distinct, closed under
    composition (closure from generators reproduces the full set), and form
    a certified isomorphic image of GL2(F_p); they meet the inner
    permutations only in the identity; and inner_order * section_order
    equals the scan count.  Since every automorphism is determined by its
    generator-pair image, the scan count is an upper bound for |Aut|, so the
    exhibited product accounts for all of Aut.
    """
    gam = HeisenbergGroup(p)
    scan = commuting_pair_scan(gam)
    closed = p ** 3 * (p - 1) * (p * p - 1)
    factored = (p ** 3 - p) * (p ** 3 - p * p)

    H = mat2_group(p, "GL")
    perms = section_perms(gam, H)
    distinct = len(set(perms)) == H.order

    gl_gens = greedy_generators(H)
    closure = perm_closure([perms[g] for g in gl_gens])
    closure_matches = distinct and closure.order == H.order and set(closure.perms) == set(perms)

    K = PermGroup(perms)
    iso = hom_by_generators(H, K, gl_gens, gl_gens)
    section_is_gl2_image = iso is not None and iso.is_bijective()

    inner = inner_perms(gam)
    ident = tuple(range(gam.order))
    inter = set(perms) & set(inner)
    intersection_trivial = inter == {ident}

    inner_order = len(set(inner))
    return AutCertificate(
        p=p,
        scan_count=scan,
        closed_formula=closed,
        factored_formula=factored,
        inner_order=inner_order,
        section_order=H.order,
        intersection_trivial=intersection_trivial,
        closure_matches=closure_matches,
        section_is_gl2_image=section_is_gl2_image,
        product_equals_scan=inner_order * H.order == scan,
    )


def heisenberg_semidirect(p: int, kind: str) -> SemidirectGroup:
    """Gamma x| H for H one of GL / SL / USL / UGL acting through f_M."""
    gam = HeisenbergGroup(p)
    H = mat2_group(p, kind)
    return SemidirectGroup(gam, H, section_perms(gam, H))


def primitive_scaling_matrix(p: int) -> tuple[int, int, int, int]:
    """diag(xi, 1) for the smallest primitive root xi: the automorphism
    a -> a^xi, b -> b, of determinant xi on the middle quotient."""
    return (smallest_primitive_root(p), 0, 0, 1)
