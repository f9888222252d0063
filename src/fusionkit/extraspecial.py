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

The certificate holds every automorphism as its pair (phi(a), phi(b)) of
coordinate triples: f_M as section_pair, conjugation as inner_pair.  A
pair (u, v) is evaluated on all of Gamma by the only rule a homomorphism
phi with phi(a) = u, phi(b) = v can follow, phi(z^c a^i b^j) =
phi(z)^c u^i v^j with phi(z) = [v, u] (pair_image), so composing two
automorphisms costs two evaluations (pair_compose).  section_walk walks a
matrix group from its generators once: it reaches every element and
checks the composition law on every arc, so one walk certifies both
generation and the section law.
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
        indices = list(range(self.order))
        # central_shift[k][x] is the index of z^k * x
        pp = p * p
        self.central_shift = [indices[k * pp:] + indices[:k * pp] for k in range(p)]
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


def pair_compose(p: int, f: tuple[tuple, tuple], g: tuple[tuple, tuple]) -> tuple[tuple, tuple]:
    """The pair of phi_f o phi_g: phi_f at phi_g(a) and at phi_g(b)."""
    return pair_image(p, f, g[0]), pair_image(p, f, g[1])


def section_walk(H: Mat2Group, gens) -> tuple[dict, bool]:
    """The pair section_pair(p, M) of each M in <gens> < H, by M in the
    order of a breadth-first walk from I (bfs_closure), and whether M ->
    phi_M is certified an injective homomorphism on H: the walk reaches all
    of H (so gens generate H), phi_I is the identity, the pairs are
    distinct, and on every arc x -> x*g the pair of x*g is phi_x o phi_g.
    Gamma is free of rank 2 among groups of class 2 and exponent p, so
    every pair defines the endomorphism pair_image evaluates, and
    induction on word length gives the rest."""
    p = H.p
    points, _, graph = bfs_closure([H.identity], [H.index[M] for M in gens], H.mult)
    pairs = [section_pair(p, H.elements[x]) for x in points]
    # graph[k][i] is the position of points[i] * gens[k], and row[0] that of gens[k]
    certified = (len(points) == H.order and pairs[0] == ((0, 1, 0), (0, 0, 1))
                 and len(set(pairs)) == len(pairs)
                 and all(pairs[y] == pair_compose(p, pairs[x], pairs[row[0]])
                         for row in graph for x, y in enumerate(row)))
    return {H.elements[x]: pair for x, pair in zip(points, pairs)}, certified


def inner_pair(p: int, u: int, v: int) -> tuple[tuple, tuple]:
    """Conjugation by any element with middle coordinates (u, v), as its
    pair: it sends (c, i, j) to (c + v*i - u*j, i, j), so a to z^v a and
    b to z^-u b."""
    return (v % p, 1, 0), (-u % p, 0, 1)


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
    """What aut_certificate certified of Aut(Gamma), each automorphism held
    as its pair.  section_order is |GL2(F_p)|, inner_order the number of
    distinct inner pairs, and closure_matches and section_is_gl2_image are
    both section_walk's verdict that the walk reaches section_order
    matrices with M -> phi_M an injective homomorphism."""

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

    Every automorphism is held as its pair (phi(a), phi(b)), and composed
    by pair_compose.  Checks, in order:
    - the commuting-pair count agrees with both closed formulas;
    - section_walk of GL2(F_p) from diag(xi, 1) (primitive_scaling_matrix)
      and [[-1, 1], [-1, 0]] reaches all of GL2 with M -> phi_M an
      injective homomorphism, so every phi_M is a product of the walk
      generators' automorphisms, its image is the closure of theirs
      (closure_matches), and it is an isomorphic image of GL2(F_p)
      (section_is_gl2_image);
    - each walk generator g's pair extends, through propagate_hom, to a
      homomorphism that is a bijection and equals section_perm on all of
      Gamma.  A homomorphism with those images of a and b takes z to their
      commutator, so it is phi_g, and phi_g is an automorphism;
    - the inner pair of (u, v) (inner_pair) is conjugation by a at (1, 0)
      and by b at (0, 1), and inner(u+1, v) = inner(u, v) o inner(1, 0)
      and inner(0, v+1) = inner(0, v) o inner(0, 1) (indices mod p).  At
      (0, 0) the first equation makes inner(0, 0) the identity, so
      inner(u, v) is conjugation by b^v a^u and the inner pairs are
      Inn(Gamma);
    - the sections meet the inner automorphisms only in the identity pair;
    - inner_order * section_order equals the count.
    Since every automorphism is determined by its generator-pair image, the
    count is an upper bound for |Aut|, so the exhibited product accounts
    for all of Aut.
    """
    gam = HeisenbergGroup(p)
    scan = commuting_pair_scan(gam)
    closed, factored = aut_order_formulas(p)

    gl = mat2_group(p, "GL")
    gens = [primitive_scaling_matrix(p), (p - 1, 1, p - 1, 0)]
    pairs, certified = section_walk(gl, gens)

    a, b = gam.a_index, gam.b_index
    automorphic = True
    for M in gens:
        f = section_perm(gam, M)
        images = propagate_hom(gam, gam, [a, b], [gam.encode(*w) for w in pairs[M]])
        automorphic = automorphic and images is not None and len(set(f)) == gam.order and all(
            images.get(x) == fx for x, fx in enumerate(f))

    inner = [inner_pair(p, u, v) for u in range(p) for v in range(p)]  # (u, v) at u*p + v
    alpha, beta = inner[p], inner[1]
    # the pairs of conjugation by a and by b, multiplied out in Gamma
    conjugations = [tuple(gam.decode(gam.mult(gam.mult(g, x), gam.inv(g))) for x in (a, b))
                    for g in (a, b)]
    inner_are_conjugations = (
        [alpha, beta] == conjugations
        and all(inner[(u + 1) % p * p + v] == pair_compose(p, inner[u * p + v], alpha)
                for u in range(p) for v in range(p))
        and all(inner[(v + 1) % p] == pair_compose(p, inner[v], beta) for v in range(p))
    )
    ident = (gam.decode(a), gam.decode(b))
    intersection_trivial = set(pairs.values()) & set(inner) == {ident}

    inner_order = len(set(inner))
    return AutCertificate(
        p=p,
        scan_count=scan,
        closed_formula=closed,
        factored_formula=factored,
        inner_order=inner_order,
        section_order=gl.order,
        intersection_trivial=intersection_trivial,
        closure_matches=certified,
        section_is_gl2_image=certified,
        product_equals_scan=inner_order * gl.order == scan,
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
