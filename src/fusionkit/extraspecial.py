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

The certificate holds each f_M as its pair (f_M(a), f_M(b)) of
coordinate triples (section_pair).  A pair (u, v) is evaluated on all of
Gamma by the only rule a homomorphism phi with phi(a) = u, phi(b) = v can
follow, phi(z^c a^i b^j) = phi(z)^c u^i v^j with phi(z) = [v, u]
(pair_image), so composing two sections costs two evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .fingroup import (
    FiniteGroup,
    Mat2Group,
    SemidirectGroup,
    bfs_closure,
    greedy_generators,
    mat2_group,
    propagate_hom,
    smallest_primitive_root,
)


class HeisenbergGroup(FiniteGroup):
    """Order p^3, exponent p, center of order p; odd p only."""

    def __init__(self, p: int):
        assert p % 2 == 1 and p > 2, "exponent-p model needs an odd prime"
        self.p = p
        self.order = p ** 3
        self.identity = 0
        # one int object per index, shared by every permutation tuple built
        # on this group (an int above 256 is otherwise a fresh object)
        self.indices = list(range(self.order))
        # central_shift[k][x] is the index of z^k * x
        pp = p * p
        self.central_shift = [self.indices[k * pp:] + self.indices[:k * pp] for k in range(p)]
        # coords[x] = decode(x), in the order of encode
        self.coords = [(c, i, j) for c in range(p) for i in range(p) for j in range(p)]
        self.a_index = self.encode(0, 1, 0)
        self.b_index = self.encode(0, 0, 1)

    def encode(self, c: int, i: int, j: int) -> int:
        p = self.p
        return (c % p * p + i % p) * p + j % p

    def decode(self, x: int) -> tuple[int, int, int]:
        return self.coords[x]

    def mult(self, x: int, y: int) -> int:
        coords = self.coords
        c1, i1, j1 = coords[x]
        c2, i2, j2 = coords[y]
        return self.encode(c1 + c2 + j1 * i2, i1 + i2, j1 + j2)

    def right_mult(self, g: int):
        """x -> x * g with g's coordinates read once and encode inlined."""
        p, coords = self.p, self.coords
        c2, i2, j2 = coords[g]

        def step(x):
            c1, i1, j1 = coords[x]
            return ((c1 + c2 + j1 * i2) % p * p + (i1 + i2) % p) * p + (j1 + j2) % p
        return step

    def inv(self, x: int) -> int:
        c, i, j = self.coords[x]
        return self.encode(i * j - c, -i, -j)

    def element_order(self, x: int) -> int:
        return 1 if x == self.identity else self.p

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
    pp = p * p
    # s_M(i, j) and M*(i, j) depend only on the middle coordinates: the
    # images of block c = 0 (index x = i*p + j) are evaluated once per
    # (i, j).  Block c multiplies every image by z^(det*c), so it reads the
    # same positions off central_shift[det*c].
    block0 = itemgetter(*[
        (h * (m00 * m10 * i * i + m01 * m11 * j * j) + m10 * m01 * i * j) % p * pp
        + (m00 * i + m01 * j) % p * p + (m10 * i + m11 * j) % p
        for i in range(p) for j in range(p)
    ])
    out: list[int] = []
    for c in range(p):
        out += block0(gam.central_shift[det * c % p])
    return tuple(out)


def section_perms(gam: HeisenbergGroup, H: Mat2Group) -> list[tuple[int, ...]]:
    """f_M for every element of H, in H's element order."""
    return [section_perm(gam, M) for M in H.elements]


def section_pair(p: int, M: tuple[int, int, int, int]) -> tuple[tuple, tuple]:
    """(f_M(a), f_M(b)) as coordinate triples: the columns of M, each with
    its central correction s_M(1, 0) or s_M(0, 1)."""
    m00, m01, m10, m11 = M
    h = half_inverse(p)
    return (h * m00 * m10 % p, m00, m10), (h * m01 * m11 % p, m01, m11)


def section_pairs(p: int, H: Mat2Group) -> list[tuple[tuple, tuple]]:
    """section_pair for every element of H, in H's element order."""
    return [section_pair(p, M) for M in H.elements]


def pair_image(p: int, pair: tuple[tuple, tuple], w: tuple) -> tuple[int, int, int]:
    """phi(w) for phi(a), phi(b) = pair, by phi(z^c a^i b^j) =
    phi(z)^c phi(a)^i phi(b)^j with phi(z) = [phi(b), phi(a)].

    In coordinates (c, i, j) = z^c a^i b^j.  The product law gives
    x^n = (n*c + C(n, 2)*i*j, n*i, n*j) and x*y = z^(j_x*i_y - j_y*i_x) * y*x,
    so [x, y] = z^(j_x*i_y - j_y*i_x), central."""
    (cu, iu, ju), (cv, iv, jv) = pair
    c, i, j = w
    # phi(a)^i * phi(b)^j, then times the central phi(z)^c
    central = (c * (jv * iu - ju * iv) + i * cu + i * (i - 1) // 2 * iu * ju
               + j * cv + j * (j - 1) // 2 * iv * jv + i * ju * j * iv)
    return central % p, (i * iu + j * iv) % p, (i * ju + j * jv) % p


def section_is_faithful(p: int, H: Mat2Group, pairs: list[tuple[tuple, tuple]],
                        gens: list[int]) -> bool:
    """Whether M -> phi_M, held as pairs in H's element order, is an
    injective homomorphism on H = <gens>: the pairs are distinct, phi_I is
    the identity pair, and the pair of x*g is phi_x at the pair of g for
    every x and generator g.  Gamma is free of rank 2 among groups of
    class 2 and exponent p, so every pair defines the endomorphism that
    pair_image evaluates; then phi_{x*g} = phi_x o phi_g, and induction on
    word length gives the rest."""
    return (len(set(pairs)) == H.order
            and pairs[H.identity] == ((0, 1, 0), (0, 0, 1))
            and all(pairs[H.mult(x, g)] == (pair_image(p, pairs[x], u), pair_image(p, pairs[x], v))
                    for g in gens
                    for u, v in [pairs[g]]
                    for x in range(H.order)))


def inner_perm(gam: HeisenbergGroup, u: int, v: int) -> tuple[int, ...]:
    """Conjugation by any element with middle coordinates (u, v): it sends
    (c, i, j) to (c + v*i - u*j, i, j), that is x to z^(v*i - u*j) * x."""
    p, shift = gam.p, gam.central_shift
    out = []
    for x in range(gam.order):
        _, i, j = gam.decode(x)
        out.append(shift[(v * i - u * j) % p][x])
    return tuple(out)


def inner_perms(gam: HeisenbergGroup) -> list[tuple[int, ...]]:
    return [inner_perm(gam, u, v) for u in range(gam.p) for v in range(gam.p)]


def conjugation_perm(gam: HeisenbergGroup, g: int) -> tuple[int, ...]:
    """x -> g * x * g^-1, multiplied out in Gamma."""
    g_inv = gam.inv(g)
    return tuple(gam.mult(gam.mult(g, x), g_inv) for x in gam.indices)


def commuting_pair_scan(G: FiniteGroup) -> int:
    """#{(a, b) : [a, b] != e}; equals |Aut| for these groups.

    b commutes with a iff b lies in C_G(a), of order |G|/|a^G|.  Summed
    over one conjugacy class that is |G|, so the commuting ordered pairs
    number |G|*k(G) for k(G) classes, and the others |G|^2 - |G|*k(G).  The
    classes are the orbits of conjugation by greedy_generators(G), each
    closed breadth first: |G|*|gens| conjugations in all."""
    conj = [(g, G.inv(g)) for g in greedy_generators(G)]

    def act(x, g):
        return G.mult(G.mult(g[0], x), g[1])

    seen: set[int] = set()
    classes = 0
    for x in range(G.order):
        if x not in seen:
            classes += 1
            seen.update(bfs_closure([x], conj, act)[0])
    return G.order * (G.order - classes)


def aut_order_formulas(p: int) -> tuple[int, int]:
    """|Aut| of the extraspecial group of order p^3 by the two closed
    formulas, p^3(p-1)(p^2-1) and (p^3-p)(p^3-p^2), in that order."""
    return p ** 3 * (p - 1) * (p * p - 1), (p ** 3 - p) * (p ** 3 - p * p)


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
    sections_are_automorphisms: bool
    inner_are_conjugations: bool

    @property
    def split(self) -> bool:
        """Aut = Inn x| section.  Inn is normal in Aut; the section is a
        subgroup of automorphisms isomorphic to GL2(F_p) (its generators
        are automorphisms, and M -> phi_M is a homomorphism onto it); the
        two meet trivially, so their product has inner_order *
        section_order elements, and that is the scan count, an upper bound
        for |Aut|.  So the product is Aut, with the section as complement."""
        return (
            self.inner_are_conjugations
            and self.sections_are_automorphisms
            and self.section_is_gl2_image
            and self.intersection_trivial
            and self.product_equals_scan
        )

    @property
    def ok(self) -> bool:
        return (
            self.scan_count == self.closed_formula == self.factored_formula
            and self.closure_matches
            and self.split
        )


def aut_certificate(p: int) -> AutCertificate:
    """Certify |Aut| and the inner-by-GL2 structure without materializing Aut.

    Each f_M is held as its pair (f_M(a), f_M(b)) (section_pairs), and
    phi_M is the map pair_image evaluates from that pair.  Checks, in
    order:
    - the commuting-pair count agrees with both closed formulas;
    - each greedy generator g's pair extends, through propagate_hom, to a
      homomorphism that is a bijection and equals section_perm on all of
      Gamma.  A homomorphism with those images of a and b takes z to their
      commutator, so it is phi_g, and phi_g is an automorphism;
    - section_is_faithful on the same generators: M -> phi_M is an
      injective homomorphism on <gens> = GL2(F_p), so every phi_M is a
      product of the generators' automorphisms, its image is the closure
      of the generators' images (closure_matches), and it is an
      isomorphic image of GL2(F_p) (section_is_gl2_image);
    - the inner permutation of (u, v) is conjugation by a at (1, 0) and
      by b at (0, 1), and inner(u+1, v) = inner(u, v) o inner(1, 0) and
      inner(0, v+1) = inner(0, v) o inner(0, 1) (indices mod p).  At
      (0, 0) the first equation makes inner(0, 0) the identity, so
      inner(u, v) is conjugation by b^v a^u and the inner permutations
      are Inn(Gamma);
    - the sections meet the inner automorphisms only in the identity,
      compared as pairs, which determine an automorphism;
    - inner_order * section_order equals the count.
    Since every automorphism is determined by its generator-pair image, the
    count is an upper bound for |Aut|, so the exhibited product accounts
    for all of Aut.
    """
    gam = HeisenbergGroup(p)
    scan = commuting_pair_scan(gam)
    closed, factored = aut_order_formulas(p)

    H = mat2_group(p, "GL")
    pairs = section_pairs(p, H)

    a, b = gam.a_index, gam.b_index
    ident = (gam.decode(a), gam.decode(b))
    gl_gens = greedy_generators(H)
    automorphic = True
    for g in gl_gens:
        f = section_perm(gam, H.elements[g])
        images = propagate_hom(gam, gam, [a, b], [gam.encode(*w) for w in pairs[g]])
        automorphic = (
            automorphic
            and images is not None
            and all(images.get(x) == fx for x, fx in enumerate(f))
            and len(set(f)) == gam.order
        )

    inner = inner_perms(gam)  # (u, v) at u*p + v
    alpha, beta = inner[p], inner[1]
    after_alpha, after_beta = itemgetter(*alpha), itemgetter(*beta)
    inner_are_conjugations = (
        alpha == conjugation_perm(gam, a)
        and beta == conjugation_perm(gam, b)
        and all(inner[(u + 1) % p * p + v] == after_alpha(inner[u * p + v])
                for u in range(p) for v in range(p))
        and all(inner[(v + 1) % p] == after_beta(inner[v]) for v in range(p))
    )
    inner_pairs = {(gam.decode(f[a]), gam.decode(f[b])) for f in inner}
    intersection_trivial = set(pairs) & inner_pairs == {ident}

    inner_order = len(set(inner))
    certified = section_is_faithful(p, H, pairs, gl_gens)
    return AutCertificate(
        p=p,
        scan_count=scan,
        closed_formula=closed,
        factored_formula=factored,
        inner_order=inner_order,
        section_order=H.order,
        intersection_trivial=intersection_trivial,
        closure_matches=certified,
        section_is_gl2_image=certified,
        product_equals_scan=inner_order * H.order == scan,
        sections_are_automorphisms=automorphic,
        inner_are_conjugations=inner_are_conjugations,
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
