"""Finite groups on element indices: subgroup machinery, extensions, recognition.

A group object only needs the protocol
    order : int        identity : int
    mult(i, j) -> int  inv(i) -> int     label(i) -> str
and everything here works on top of it; right_mult(g), the step x -> x*g,
defaults to mult and may be prebuilt.  A subgroup is the sorted tuple of
its member indices, and a homomorphism the list of its images in the
source's index order.  A permutation of at most 256 points is stored as
bytes, one byte per point, and a larger one as a tuple (perm_store); both
compose in C in one kernel, perm_mul (bytes.translate, or
operator.itemgetter on tuples), or in a function built once for a fixed
right factor (right_mul_by).  PermGroup is the one permutation-group
class, keyed by base images (every point by default; matgroup's matrix
groups are PermGroups on their basis orbit), and PermGroup.key turns any
sequence of images into such a key; no other module builds one.
perm_closure is the one closure over permutation generators: it hands
the group its walk's index and Cayley graph.  On top of that sit one
breadth-first walk (bfs_closure: every closure and orbit in the package,
each returned with its Schreier graph), one generator-growing loop
(grow_generators, behind small generating sets and the stabilizer
generators in fusion), centralizers (the center tested on a generating
set), normal closures, normality decided on left-coset representatives
(once per quotient), quotients of G or of a subgroup that multiply
through coset representatives, certified generator homomorphisms
(propagate_hom, stepping both sides through right_mult), one
generator-image backtracking search (behind isomorphism and
automorphism_group), short-exact-sequence verification with an exhaustive
complement search over the product of the lift lists, and structure
recognition against natively built reference groups (2x2 matrix groups
over F_p, built only for a prime p whose order formula gives |G|,
symmetric and cyclic groups).  A TableGroup holds its flat
multiplication table in one unsigned array (table_store: 2 bytes an entry
up to order 65536).  group_from_json reads a document from an open text
file MULT_CHUNK characters at a time and packs its mult array into that
store chunk by chunk, so it never holds the whole text or a list of the
entries; a refused document takes the reference parse of json.loads.
normalizer scans G; it is the reference that fusion's stabilizers are
tested against.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from array import array
from dataclasses import dataclass
from operator import itemgetter

from . import SCHEMA_VERSION, canonical_json

DEFAULT_CAP = 2_000_000
SUBGROUP_CAP = 100_000


class CapExceeded(RuntimeError):
    """Closure grew past the configured element cap."""


class FiniteGroup:
    """Protocol base with shared helpers; subclasses provide mult/inv."""

    order: int
    identity: int
    generator_indices: list[int] = []  # closure generators, where it carries its Cayley graph

    def mult(self, i: int, j: int) -> int:
        raise NotImplementedError

    def inv(self, i: int) -> int:
        raise NotImplementedError

    def label(self, i: int) -> str:
        return "g%d" % i

    def right_mult(self, g: int):
        """The function x -> mult(x, g), for stepping along generator g."""
        mult = self.mult
        return lambda x: mult(x, g)

    def element_order(self, i: int) -> int:
        j = i
        for n in range(1, self.order + 1):
            if j == self.identity:
                return n
            j = self.mult(j, i)
        raise ValueError("element %d has no order: the input is not a group" % i)

    def conjugate(self, g: int, x: int) -> int:
        return self.mult(self.mult(g, x), self.inv(g))

    def orders_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for i in range(self.order):
            o = self.element_order(i)
            hist[o] = hist.get(o, 0) + 1
        return hist

    def is_abelian(self) -> bool:
        gens = self.generator_indices
        if gens:
            # commuting generators generate an abelian group
            return all(self.mult(x, y) == self.mult(y, x) for x in gens for y in gens)
        n = self.order
        for i in range(n):
            for j in range(i + 1, n):
                if self.mult(i, j) != self.mult(j, i):
                    return False
        return True


def table_store(entries, order: int):
    """entries, each in 0..order-1, as a group table's one store: an
    unsigned array, 2 bytes an entry up to order 65536 and 4 above.  An
    array of that type is returned as it is, not copied."""
    code = "H" if order <= 1 << 16 else "I"
    if type(entries) is array and entries.typecode == code:
        return entries
    return array(code, entries)


class TableGroup(FiniteGroup):
    """Group given by its flat row-major multiplication table:
    mult(i, j) = table[i*order + j].  The entries are packed into the one
    table store (table_store); an array already in that form is kept, not
    copied.

    Raises ValueError on a table of the wrong length, with no identity or
    with a row without the identity; the group axioms are not otherwise
    checked.
    """

    def __init__(self, table, order, labels=None):
        n = order
        table = table_store(table, n)
        if len(table) != n * n:
            raise ValueError("group table has %d entries, expected %d" % (len(table), n * n))
        self.table = table
        self.order = n
        self.labels = list(labels) if labels else ["g%d" % i for i in range(n)]
        # a two-sided identity is unique and idempotent, so only the
        # diagonal's fixed points need their row and column compared
        index = table_store(range(n), n)
        ident = next((e for e in range(n) if table[e * n + e] == e
                      and table[e * n:e * n + n] == index and table[e::n] == index), None)
        if ident is None:
            raise ValueError("group table has no identity element")
        self.identity = ident
        # the inverse is where a row's bytes first hold the identity's at
        # an entry boundary; bytes.find may also match across two entries
        width = table.itemsize
        key = table_store((ident,), n).tobytes()
        self._inv = []
        for i in range(n):
            row = table[i * n:i * n + n].tobytes()
            k = row.find(key)
            while k > 0 and k % width:
                k = row.find(key, k + 1)
            if k < 0:
                raise ValueError("group table element %d has no inverse" % i)
            self._inv.append(k // width)

    def mult(self, i, j):
        return self.table[i * self.order + j]

    def inv(self, i):
        return self._inv[i]

    def label(self, i):
        return self.labels[i]


class PermGroup(FiniteGroup):
    """Group of permutations of 0..n-1; product a*b acts as x -> a[b[x]].

    The images of the first base points (every point by default) determine
    an element: its base images (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, section 4.4).  The one element dict,
    index, is keyed by base images, and bases lists them in element order,
    so a product maps only its right factor's base images through its left
    factor, and an inverse is keyed by the preimages of the base points.
    Permutations and keys are stored as perm_store(n) says, and key turns
    any sequence of images into a key; permutations given without an
    index are converted.  perm_closure hands over its walk's index and
    Cayley graph: cayley[k][x] is the index of x * generator k, which
    right_mult reads back.
    """

    def __init__(self, perms, base: int | None = None, index=None, cayley=()):
        degree = len(perms[0])
        self._store = perm_store(degree)
        self.base = degree if base is None else base
        if index is None:
            perms = [self._store(q) for q in perms]
            index = {q[:self.base]: i for i, q in enumerate(perms)}
            assert len(index) == len(perms), "duplicate permutations"
        self.perms = perms
        self.order = len(perms)
        self.index = index
        self.bases = list(index)
        self.identity = index[self.key(range(self.base))]
        self.cayley = cayley
        self.generator_indices = [row[0] for row in cayley]

    def key(self, images):
        """The index key of the permutation with the given images (any
        sequence of ints, from the image of 0 on): its base images."""
        return self._store(images[:self.base])

    def mult(self, i, j):
        return self.index[perm_mul(self.perms[i], self.bases[j])]

    def inv(self, i):
        p = self.perms[i]
        if type(p) is bytes:
            # the table that maps each image back to its point, in C
            return self.index[bytes.maketrans(p, _POINTS[:len(p)])[:self.base]]
        # every preimage in one pass, then the base points' ones
        q = [0] * len(p)
        for x, y in enumerate(p):
            q[y] = x
        return self.index[self.key(q)]

    def right_mult(self, g: int):
        """A closure generator's Cayley row as a lookup, else mult."""
        if g in self.generator_indices:
            return self.cayley[self.generator_indices.index(g)].__getitem__
        return super().right_mult(g)

    def label(self, i):
        return "p%d" % i


_POINTS = bytes(range(256))


def perm_store(degree: int):
    """The type that stores a permutation of degree points and its base
    images: bytes, one byte per point, for at most 256 points (Seress,
    Permutation Group Algorithms, 2003), else tuple."""
    return bytes if degree <= 256 else tuple


def perm_mul(a, b):
    """The product x -> a[b[x]] of a permutation a and the images b of
    some points (a whole permutation or base images), both stored as
    perm_store says for a's degree.  For bytes, b.translate maps b through
    a padded to 256 points; for tuples (at least two images),
    operator.itemgetter does.  Both run in C."""
    if type(a) is bytes:
        return b.translate(a + _POINTS[len(a):])
    return itemgetter(*b)(a)


def right_mul_by(b, degree: int):
    """The function a -> perm_mul(a, b) on permutations a of degree
    points, built once for a fixed right factor b: the padding of a
    (bytes) or the getter (tuples) is prebuilt."""
    if type(b) is bytes:
        tail = _POINTS[degree:]
        translate = b.translate
        return lambda a: translate(a + tail)
    return itemgetter(*b)


def bfs_closure(starts, gens, image, cap: int | None = None, key=None):
    """The orbit of the distinct start points under the generators,
    breadth first (Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, 2005, section 4.1).

    Returns (points, index, graph): the points in discovery order, the
    starts first and then image(x, g) for each x in turn and g in gens, so
    the numbering is fixed by the generator order; index maps each point's
    key to its position; and graph[k][i] is the position of
    image(points[i], gens[k]), the orbit's Schreier graph (for a closure
    under right multiplication from the identity, its Cayley graph).
    Returns None once there are more than cap points.

    Without key every point is its own key.  With key, a pair (the start
    points' keys, a function f), f(x, g) must name image(x, g) without
    forming it; image is then called only for the new points.
    """
    if key is None:
        keys, key = starts, image

        def form(x, g, k):
            return k
    else:
        keys, key = key

        def form(x, g, k):
            return image(x, g)
    points = list(starts)
    index = {k: i for i, k in enumerate(keys)}
    graph: list[int] = []
    for x in points:  # grows while it is walked
        for g in gens:
            k = key(x, g)
            j = index.get(k)
            if j is None:
                if len(points) == cap:  # never equal when cap is None
                    return None
                j = index[k] = len(points)
                points.append(form(x, g, k))
            graph.append(j)
    n = len(gens)
    return points, index, [graph[k::n] for k in range(n)]


def perm_closure(perms, cap: int = DEFAULT_CAP, base: int | None = None) -> PermGroup:
    """Breadth-first closure of permutation generators, identity first,
    as the PermGroup with the given base (see PermGroup): the generators,
    any sequences of images, are stored as perm_store says, and the walk's
    index and Cayley graph become the group's.  With a short base, each
    product is named by its base images and formed whole only when it is
    new.  Raises CapExceeded past cap elements."""
    n = len(perms[0])
    store = perm_store(n)
    perms = [store(q) for q in perms]
    gens = [right_mul_by(q, n) for q in perms]
    ident = store(range(n))
    if base is None:
        found = bfs_closure([ident], gens, lambda x, g: g(x), cap)
    else:
        pairs = [(right_mul_by(q[:base], n), g) for q, g in zip(perms, gens)]
        found = bfs_closure([ident], pairs, lambda x, g: g[1](x), cap,
                            key=([ident[:base]], lambda x, g: g[0](x)))
    if found is None:
        raise CapExceeded("permutation closure exceeded cap %d" % cap)
    points, index, graph = found
    return PermGroup(points, base, index, graph)


class SemidirectGroup(FiniteGroup):
    """N x| H with H acting on N through explicit index permutations.

    action[h] must be the permutation of N-indices for H's element h, and
    h -> action[h] a homomorphism for PermGroup-style composition
    (action[h1*h2] = action[h1] after action[h2]).  Element (n, h) is
    encoded as n * H.order + h.
    """

    def __init__(self, N: FiniteGroup, H: FiniteGroup, action):
        self.N = N
        self.H = H
        self.action = [tuple(a) for a in action]
        assert len(self.action) == H.order
        assert all(len(a) == N.order for a in self.action)
        self.order = N.order * H.order
        self.identity = N.identity * H.order + H.identity

    def encode(self, n: int, h: int) -> int:
        return n * self.H.order + h

    def decode(self, i: int) -> tuple[int, int]:
        return divmod(i, self.H.order)

    def mult(self, i, j):
        n1, h1 = self.decode(i)
        n2, h2 = self.decode(j)
        n = self.N.mult(n1, self.action[h1][n2])
        h = self.H.mult(h1, h2)
        return self.encode(n, h)

    def right_mult(self, g: int):
        """x -> x * g with g = (n, h) decoded once: (n1, h1) * (n, h) is
        (n1 * h1(n), h1 * h), so the H-part and h1(n) are read from two
        prebuilt |H|-long rows, and for n = 1 the step only shifts the
        H-part."""
        n, h = self.decode(g)
        k = self.H.order
        hrow = [self.H.mult(h1, h) for h1 in range(k)]
        if n == self.N.identity:
            return lambda x: x - x % k + hrow[x % k]
        col = [a[n] for a in self.action]
        nmult = self.N.mult

        def step(x):
            n1, h1 = divmod(x, k)
            return nmult(n1, col[h1]) * k + hrow[h1]
        return step

    def inv(self, i):
        n, h = self.decode(i)
        hi = self.H.inv(h)
        return self.encode(self.action[hi][self.N.inv(n)], hi)

    def label(self, i):
        n, h = self.decode(i)
        return "(%s,%s)" % (self.N.label(n), self.H.label(h))


# -- subgroup machinery -----------------------------------------------------


def generated_subgroup(G: FiniteGroup, gens,
                       cap: int | None = None) -> tuple[int, ...] | None:
    """Sorted member indices of <gens>, or None if it has more than cap."""
    found = bfs_closure([G.identity], list(gens), G.mult, cap)
    return None if found is None else tuple(sorted(found[0]))


def grow_generators(G: FiniteGroup, candidates, target: int) -> tuple[list[int], list[int]]:
    """Adjoin each candidate that lies outside the closure so far, until
    the closure has target elements or the candidates run out.

    Returns the generators and the closure they ended with, in bfs_closure
    order.  The order is tested right after each adjoined candidate, before
    the next is drawn, so a lazy iterable computes none past the target."""
    gens: list[int] = []
    members = [G.identity]
    have = {G.identity}
    candidates = iter(candidates)
    while len(members) < target:
        x = next(candidates, None)
        if x is None:
            break
        if x not in have:
            gens.append(x)
            members, have, _ = bfs_closure([G.identity], gens, G.mult)
    return gens, members


def subgroup_generators(G: FiniteGroup, members) -> list[int]:
    """A small generating set for a subgroup given by its member indices."""
    return grow_generators(G, members, len(set(members)))[0]


def greedy_generators(G: FiniteGroup) -> list[int]:
    """Each element outside the closure of the earlier ones, in index order."""
    return subgroup_generators(G, range(G.order))


def normalizer(G: FiniteGroup, members) -> tuple[int, ...]:
    # g normalizes H iff it conjugates a generating set into H: conjugation
    # is injective, so the image is a subgroup of H of full size
    hset = set(members)
    hgens = subgroup_generators(G, members) or [G.identity]
    out = []
    for g in range(G.order):
        gi = G.inv(g)
        if all(G.mult(G.mult(g, x), gi) in hset for x in hgens):
            out.append(g)
    return tuple(out)


def centralizer(G: FiniteGroup, members, within=None) -> tuple[int, ...]:
    """The elements of G, or of within when given, in their order, that
    commute with every one of members."""
    return tuple(g for g in (range(G.order) if within is None else within)
                 if all(G.mult(g, x) == G.mult(x, g) for x in members))


def center(G: FiniteGroup) -> tuple[int, ...]:
    # what commutes with a generating set commutes with the whole group:
    # the closure generators where G carries them, else greedy ones
    return centralizer(G, G.generator_indices or greedy_generators(G))


def normal_closure(G: FiniteGroup, gens, seed) -> tuple[int, ...]:
    """Smallest subgroup containing seed that conjugation by the given
    generators of G leaves invariant (= the normal closure when gens
    generate G)."""
    orbit = bfs_closure(seed, gens, lambda x, g: G.conjugate(g, x))[0]
    return generated_subgroup(G, sorted(orbit))


def all_subgroups(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Every subgroup, by closing single-generator extensions of the
    trivial subgroup to a fixpoint.

    <H, x> = <H, x*h> for h in H, so one x per left coset of H is tried,
    and each closure starts from the generators H was found with.  Raises
    CapExceeded past SUBGROUP_CAP subgroups.
    """
    gens_of: dict[tuple[int, ...], list[int]] = {(G.identity,): []}
    queue = list(gens_of)
    while queue:
        h = queue.pop()
        tried = set(h)
        for x in range(G.order):
            if x in tried:
                continue
            tried.update(G.mult(x, y) for y in h)
            k = generated_subgroup(G, gens_of[h] + [x])
            if k not in gens_of:
                gens_of[k] = gens_of[h] + [x]
                queue.append(k)
                if len(gens_of) > SUBGROUP_CAP:
                    raise CapExceeded("subgroup enumeration exceeded cap %d" % SUBGROUP_CAP)
    return sorted(gens_of, key=lambda t: (len(t), t))


def left_cosets(G: FiniteGroup, members, within=None) -> tuple[list[int], list[int]]:
    """Left cosets of the subgroup with the given members, in G or in the
    subgroup H of G whose members are within (H must contain them).

    Returns (coset_of, reps): coset_of is a list over G's indices (-1
    outside H), reps[c] is the least element of coset c, and cosets are
    numbered by first appearance in index order.
    """
    coset_of = [-1] * G.order
    reps = []
    for i in range(G.order) if within is None else sorted(within):
        if coset_of[i] != -1:
            continue
        c = len(reps)
        reps.append(i)
        for n in members:
            coset_of[G.mult(i, n)] = c
    return coset_of, reps


class CosetGroup(FiniteGroup):
    """H/N on coset numbers; aN * bN is the coset of a*b, multiplied in the
    parent group through the coset representatives, so no table is built."""

    def __init__(self, G: FiniteGroup, coset_of: list[int], reps: list[int]):
        self.G = G
        self.coset_of = coset_of
        self.reps = reps
        self.order = len(reps)
        self.identity = coset_of[G.identity]

    def mult(self, a, b):
        return self.coset_of[self.G.mult(self.reps[a], self.reps[b])]

    def inv(self, a):
        return self.coset_of[self.G.inv(self.reps[a])]

    def label(self, a):
        return self.G.label(self.reps[a]) + "N"


def quotient(G: FiniteGroup, members, within=None) -> tuple[CosetGroup, list[int]]:
    """H/N on the left cosets, with the projection, where N is the
    subgroup with the given members and H is G or the subgroup of G whose
    members are within.

    Cosets are numbered as in quotient(subgroup_as_group(G, within), ...),
    so the two give the same multiplication, inverses and labels (for N
    trivial, those of H, with no table built).  The projection is a list
    over G's indices, -1 outside H.  Raises ValueError when N is not normal
    in H.
    """
    coset_of, reps = left_cosets(G, members, within)
    # N is normal in H iff r x r^-1 lies in N for every left-coset
    # representative r and every generator x of N: with g = r*n,
    # g N g^-1 = r N r^-1, and conjugation is injective, so the image of a
    # generating set inside N forces r N r^-1 = N
    nset = set(members)
    ngens = subgroup_generators(G, members)
    if not all(G.conjugate(r, x) in nset for r in reps for x in ngens):
        raise ValueError("quotient requires a normal subgroup")
    return CosetGroup(G, coset_of, reps), coset_of


def subgroup_as_group(G: FiniteGroup, members) -> TableGroup:
    members = list(members)
    pos = {m: i for i, m in enumerate(members)}
    table = [pos[G.mult(a, b)] for a in members for b in members]
    return TableGroup(table, len(members), [G.label(m) for m in members])


# -- homomorphisms ----------------------------------------------------------


def propagate_hom(G: FiniteGroup, H: FiniteGroup, gen_idx, img_idx):
    """BFS-extend gen -> img over <gens>; dict of images or None on conflict.

    Enforces f(x*g) = f(x)*f(g) for every reached x and every generator g,
    which by induction on word length makes a returned map a certified
    homomorphism on the generated subgroup.  Both sides step through
    right_mult, built once per generator: x*g through G.right_mult(g),
    which a closed group answers from its Cayley graph, and f(x)*f(g)
    through H.right_mult(f(g)), which a semidirect or Heisenberg target
    prebuilds.
    """
    images = {G.identity: H.identity}
    frontier = [G.identity]
    steps = [(G.right_mult(g), H.right_mult(fg)) for g, fg in zip(gen_idx, img_idx)]
    while frontier:
        new = []
        for x in frontier:
            fx = images[x]
            for step, fstep in steps:
                y = step(x)
                fy = fstep(fx)
                old = images.get(y)
                if old is None:
                    images[y] = fy
                    new.append(y)
                elif old != fy:
                    return None
        frontier = new
    return images


def hom_by_generators(G: FiniteGroup, H: FiniteGroup, gen_idx, img_idx) -> list[int] | None:
    """The images, in G's index order, of the certified homomorphism G -> H
    with the given generator images, or None when there is none.  Raises
    ValueError when the generators do not generate G."""
    images = propagate_hom(G, H, gen_idx, img_idx)
    if images is None:
        return None
    if len(images) != G.order:
        raise ValueError("generators do not generate the source group")
    return [images[i] for i in range(G.order)]


def generator_image_maps(G: FiniteGroup, H: FiniteGroup):
    """Every injective homomorphism G -> H, by generator-image backtracking.

    The images of greedy_generators(G) range in index order over the
    elements of H of the same order; each partial choice is propagated and
    certified by propagate_hom and pruned on a conflict or a collision.
    Yields each map as the tuple of images in G's index order.
    """
    gens = greedy_generators(G)
    by_order: dict[int, list[int]] = {}
    for i in range(H.order):
        by_order.setdefault(H.element_order(i), []).append(i)
    pools = [by_order.get(G.element_order(g), []) for g in gens]

    def extend(chosen: list[int]):
        images = propagate_hom(G, H, gens[:len(chosen)], chosen)
        if images is None or len(set(images.values())) != len(images):
            return
        if len(chosen) == len(gens):
            yield tuple(images[i] for i in range(G.order))
            return
        for cand in pools[len(chosen)]:
            yield from extend(chosen + [cand])

    return extend([])


def isomorphism(G: FiniteGroup, H: FiniteGroup) -> tuple[int, ...] | None:
    """The images of the first isomorphism G -> H found by
    generator_image_maps, or None."""
    if G.order != H.order or G.orders_histogram() != H.orders_histogram():
        return None
    return next(generator_image_maps(G, H), None)


def isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    return isomorphism(G, H) is not None


# -- automorphisms ----------------------------------------------------------


def automorphism_group(G: FiniteGroup) -> PermGroup:
    """The full automorphism group as permutations of G's index set, by
    generator-image backtracking; practical up to a few hundred elements."""
    return PermGroup(sorted(generator_image_maps(G, G)))


# -- short exact sequences --------------------------------------------------


@dataclass
class SesReport:
    is_normal: bool
    quotient_iso: tuple[int, ...] | None
    complement: tuple[int, ...] | None
    lift_order_profiles: list[dict[int, int]]
    tuples_checked: int
    exhausted: bool

    @property
    def split(self) -> bool | None:
        if self.complement is not None:
            return True
        return False if self.exhausted else None


def sesverify(G: FiniteGroup, members, Q_expected: FiniteGroup | None = None,
              hint_lifts=None) -> SesReport:
    """Verify 1 -> N -> G -> Q -> 1 for the subgroup N with the given
    members: normality, quotient recognition, and a complement search over
    all lifts of a quotient generating tuple.

    Any complement contains a lift of each quotient generator with matching
    element order, so enumerating those lift tuples is exhaustive: complement
    None with exhausted True is a genuine non-splitting certificate.
    hint_lifts, when given, are tried before the search.
    """
    try:
        Q, proj = quotient(G, members)
    except ValueError:
        return SesReport(False, None, None, [], 0, True)
    iso = isomorphism(Q, Q_expected) if Q_expected is not None else None
    qgens = greedy_generators(Q)
    cosets: dict[int, list[int]] = {}
    for i in range(G.order):
        cosets.setdefault(proj[i], []).append(i)
    profiles = []
    cand_lists = []
    for qg in qgens:
        need = Q.element_order(qg)
        lifts = [(x, G.element_order(x)) for x in cosets[qg]]
        prof: dict[int, int] = {}
        for _, o in lifts:
            prof[o] = prof.get(o, 0) + 1
        profiles.append(prof)
        cand_lists.append([x for x, o in lifts if o == need])

    nset = set(members)

    def try_tuple(lifts):
        got = generated_subgroup(G, lifts, cap=Q.order)
        if got is None or len(got) != Q.order:
            return None
        inter = [x for x in got if x in nset]
        if inter != [G.identity]:
            return None
        return got

    checked = 0
    if hint_lifts:
        checked += 1
        got = try_tuple(hint_lifts)
        if got is not None:
            return SesReport(True, iso, got, profiles, checked, False)

    comp = None
    for lifts in itertools.product(*cand_lists):
        checked += 1
        comp = try_tuple(lifts)
        if comp is not None:
            break
    return SesReport(True, iso, comp, profiles, checked, comp is None)


# -- reference groups -------------------------------------------------------


def cyclic_group(n: int) -> TableGroup:
    table = [(i + j) % n for i in range(n) for j in range(n)]
    return TableGroup(table, n, ["r%d" % i for i in range(n)])


def symmetric_group(n: int) -> PermGroup:
    perms = sorted(itertools.permutations(range(n)))
    return PermGroup(perms)


def mat2_elements(p: int, kind: str) -> list[tuple[int, int, int, int]]:
    out = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    det = (a * d - b * c) % p
                    if det == 0:
                        continue
                    if kind in ("SL", "USL") and det != 1:
                        continue
                    if kind in ("USL", "UGL") and c != 0:
                        continue
                    out.append((a, b, c, d))
    return sorted(out)


class Mat2Group(FiniteGroup):
    """2x2 matrices over F_p: GL, SL, or their upper-triangular subgroups."""

    def __init__(self, p: int, kind: str):
        assert kind in ("GL", "SL", "USL", "UGL")
        self.p = p
        self.kind = kind
        self.elements = mat2_elements(p, kind)
        self.order = len(self.elements)
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.identity = self.index[(1, 0, 0, 1)]

    def mult(self, i, j):
        p = self.p
        a1, b1, c1, d1 = self.elements[i]
        a2, b2, c2, d2 = self.elements[j]
        return self.index[
            (
                (a1 * a2 + b1 * c2) % p,
                (a1 * b2 + b1 * d2) % p,
                (c1 * a2 + d1 * c2) % p,
                (c1 * b2 + d1 * d2) % p,
            )
        ]

    def inv(self, i):
        p = self.p
        a, b, c, d = self.elements[i]
        det = (a * d - b * c) % p
        di = pow(det, -1, p)
        return self.index[((d * di) % p, (-b * di) % p, (-c * di) % p, (a * di) % p)]

    def label(self, i):
        return "[[%d,%d],[%d,%d]]" % self.elements[i]


_mat2_cache: dict[tuple[int, str], Mat2Group] = {}


def mat2_group(p: int, kind: str) -> Mat2Group:
    key = (p, kind)
    if key not in _mat2_cache:
        _mat2_cache[key] = Mat2Group(p, kind)
    return _mat2_cache[key]


def smallest_primitive_root(p: int) -> int:
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ValueError("no primitive root mod %d" % p)


# -- recognition ------------------------------------------------------------


def abelian_factor_orders(G: FiniteGroup) -> list[int]:
    """Primary cyclic factor orders of an abelian group, sorted ascending.

    For each prime q, the number of elements of order dividing q^k is
    q**(number of parts of the q-partition cut at k), so successive count
    ratios give the conjugate partition and from it the factor orders.
    """
    n = G.order
    orders = [G.element_order(x) for x in range(n)]
    factors: list[int] = []
    rest = n
    q = 2
    primes = []
    while rest > 1:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    for q in primes:
        qpow = [o for o in orders if is_p_power(o, q)]
        parts_ge = []
        prev = 1
        k = 1
        while prev < len(qpow):
            ck = sum(1 for o in qpow if o <= q ** k)
            ratio = ck // prev
            m = 0
            while ratio > 1:
                ratio //= q
                m += 1
            parts_ge.append(m)
            prev = ck
            k += 1
        width = parts_ge[0] if parts_ge else 0
        for j in range(1, width + 1):
            lam = sum(1 for m in parts_ge if m >= j)
            factors.append(q ** lam)
    return sorted(factors)


def is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def recognize(G: FiniteGroup, hist: dict | None = None, zc: tuple | None = None) -> str:
    """G's structure tag; hist and zc, when given, are G.orders_histogram() and center(G)."""
    n = G.order
    if n == 1:
        return "trivial"
    if hist is None:
        hist = G.orders_histogram()
    if hist.get(n, 0) > 0:
        return "C%d" % n
    if G.is_abelian():
        return "x".join("C%d" % f for f in abelian_factor_orders(G))
    # 2-power order with a unique involution and noncyclic: generalized quaternion
    if n & (n - 1) == 0 and hist.get(2, 0) == 1 and n >= 8:
        return "Q%d" % n
    if n == 48 and hist.get(2, 0) == 1:
        zc = center(G) if zc is None else zc
        if len(zc) == 2:
            Q, _ = quotient(G, zc)
            if isomorphic(Q, symmetric_group(4)):
                return "O48"
    r = round(n ** (1 / 3))
    if r ** 3 == n and r > 2 and is_prime(r) and len(center(G) if zc is None else zc) == r:
        # G is not abelian (see above), and the exponent of a p-group is
        # its largest element order
        return "extraspecial(%d^3, exp %s)" % (r, "p" if max(hist) == r else "p^2")
    # the 2x2 linear groups over F_q by their orders, each a multiple of q
    # and at least q(q-1), for the primes q in ascending order
    q = 2
    while q * (q - 1) <= n:
        if n % q == 0 and is_prime(q):
            for kind, name, order in (("SL", "SL2(F%d)", q * (q * q - 1)),
                                      ("GL", "GL2(F%d)", q * (q - 1) ** 2 * (q + 1)),
                                      ("USL", "U(SL2(F%d))", q * (q - 1)),
                                      ("UGL", "U(GL2(F%d))", q * (q - 1) ** 2)):
                if order == n and isomorphic(G, mat2_group(q, kind)):
                    return name % q
        q += 1
    if n % 2 == 0 and n >= 8 and hist.get(n // 2, 0):
        # the first element of order n/2 as the rotation
        r = next(r for r in range(n) if G.element_order(r) == n // 2)
        rot = set(generated_subgroup(G, [r]))
        for s in range(n):
            if G.element_order(s) == 2 and s not in rot and G.conjugate(s, r) == G.inv(r):
                return "D%d" % n
    for k in (3, 4, 5):
        if n == math.factorial(k) and isomorphic(G, symmetric_group(k)):
            return "S%d" % k
    return "unknown(order %d)" % n


# -- serialization ----------------------------------------------------------


def group_to_json_dict(G: FiniteGroup, prime: int | None = None) -> dict:
    n = G.order
    data = {
        "schema_version": SCHEMA_VERSION,
        "kind": "group_table",
        "order": n,
        "mult": [G.mult(i, j) for i in range(n) for j in range(n)],
        "labels": [G.label(i) for i in range(n)],
    }
    if prime is not None:
        data["prime"] = prime
    return data


def group_to_json(G: FiniteGroup, prime: int | None = None) -> str:
    return canonical_json(group_to_json_dict(G, prime))


# characters of a group_table document that group_from_json reads at a
# time, and of its mult array that it parses at a time
MULT_CHUNK = 1 << 14


def _document_order(data, cap):
    """The order of a group_table document, checked and under cap."""
    if not isinstance(data, dict) or data.get("kind") != "group_table":
        raise ValueError("not a group_table document")
    if type(data.get("order")) is not int:
        raise ValueError("group_table document needs 'order' as an int")
    n = data["order"]
    if cap is not None and n > cap:
        raise CapExceeded("input group order %d exceeds cap %d" % (n, cap))
    return n


def group_from_json_dict(data: dict, cap: int | None = None) -> tuple[TableGroup, int | None]:
    """The table group of a group_table document and its stored prime.

    The reference reader of a parsed document: its mult list is checked
    and packed into the group's table store (group_from_json hands over
    the store it checked while packing it).  Raises ValueError on a
    malformed document (labels, when present, must be a list of order
    strings; mult entries must be ints, not bools, in 0..order-1), and
    CapExceeded on an order above cap before the table is built."""
    n = _document_order(data, cap)
    flat = data.get("mult")
    if not isinstance(flat, (list, array)):
        raise ValueError("group_table document needs 'mult' as a list")
    if len(flat) != n * n:
        raise ValueError("mult table has %d entries, expected %d" % (len(flat), n * n))
    labels = data.get("labels")
    if "labels" in data and not (isinstance(labels, list) and len(labels) == n
                                 and all(isinstance(x, str) for x in labels)):
        raise ValueError("group_table labels must be a list of %d strings" % n)
    if type(flat) is list:
        if not (set(map(type, flat)) <= {int} and (not flat or 0 <= min(flat) and max(flat) < n)):
            raise ValueError("group_table mult entries must be integers in 0..%d" % (n - 1))
        flat = table_store(flat, n)
    return TableGroup(flat, n, labels), data.get("prime")


def _refuse_float(literal):
    raise ValueError("group_table numbers must be integers, got %s" % literal)


class _TextReader:
    """A JSON text read from a file MULT_CHUNK characters at a time, or
    given whole as a str.  buf holds what has been read and not yet
    dropped; eof says that nothing is left to read."""

    def __init__(self, source):
        if isinstance(source, str):
            self.fh, self.buf, self.eof = None, source, True
        else:
            self.fh, self.buf, self.eof = source, "", False

    def refill(self, i):
        """Drop buf[:i] and read on: MULT_CHUNK characters, or as many as
        buf keeps if that is more, so that a long value takes a number of
        refills logarithmic in its length.  Returns 0, where buf[i] is now."""
        more = self.fh.read(max(MULT_CHUNK, len(self.buf) - i))
        self.buf, self.eof = self.buf[i:] + more, not more
        return 0

    def scan(self, i, step):
        """step(buf, i) -> (value, end), read again after a refill while it
        fails or ends at the end of buf and the text goes on."""
        while True:
            try:
                value, end = step(self.buf, i)
                if end < len(self.buf) or self.eof:
                    return value, end
            except ValueError:  # json.JSONDecodeError, or a refused float
                if self.eof:
                    raise
            i = self.refill(i)


def _skip_ws(buf, i):
    return None, json.decoder.WHITESPACE.match(buf, i).end()


def _scan_object(text, decoder, cap):
    """The top-level object of a _TextReader's JSON text as json.loads
    parses it, walked key by key, except that a "mult" array is packed as
    _pack_flat_array says, and stands as refused once any mult array was,
    since a later key does not make the text parse; None when the text is
    not an object, the walk meets a syntax error, or a mult array holds a
    string or a nested array."""
    _, i = text.scan(0, _skip_ws)
    if not text.buf.startswith("{", i):
        return None
    data, delim, refused = {}, ",", False
    _, i = text.scan(i + 1, _skip_ws)
    if text.buf.startswith("}", i):
        i, delim = i + 1, "}"
    try:
        while delim == ",":
            if not text.buf.startswith('"', i):
                return None
            key, i = text.scan(i + 1, json.decoder.scanstring)
            _, i = text.scan(i, _skip_ws)
            if not text.buf.startswith(":", i):
                return None
            _, i = text.scan(i + 1, _skip_ws)
            if key == "mult" and text.buf.startswith("[", i):
                data[key], i = _pack_flat_array(text, i, data.get("order"), cap)
                refused = refused or data[key][0] is None
            else:
                data[key], i = text.scan(i, decoder.raw_decode)
            _, i = text.scan(i, _skip_ws)
            delim = text.buf[i:i + 1]
            if delim not in (",", "}"):
                return None
            _, i = text.scan(i + 1, _skip_ws)
    except ValueError:  # json.JSONDecodeError
        return None
    if refused:
        data["mult"] = (None, -1)
    return data if i == len(text.buf) else None


def _pack_flat_array(text, i, order, cap):
    """The JSON array at text.buf[i] as (store, top) and the position past
    its first "]": its entries packed into a table store (of an order-order
    group, while the walk has met order as an int) and the largest of
    them.  The text is read and parsed MULT_CHUNK characters at a time,
    cut at the first comma at least MULT_CHUNK characters past the last
    cut.  The store is None where order is over cap, and where a chunk
    does not parse, holds a value the store refuses, or holds an e
    (outside strings only true, false and exponents spell one, and the
    store takes none of them); the walk still goes on to the array's end.
    Raises ValueError when the array holds a string or a nested array, or
    the text has no "]"."""
    if type(order) is not int:
        order = 0
    store = table_store((), order) if cap is None or order <= cap else None
    top, pos, first = -1, i + 1, True
    while True:
        buf = text.buf
        end = buf.find("]", pos)
        cut = buf.find(",", pos + MULT_CHUNK, len(buf) if end < 0 else end)
        if end < 0 and cut < 0:
            if text.eof:
                raise ValueError("mult array is not closed")
            pos = text.refill(pos)
            continue
        chunk = buf[pos:end if cut < 0 else cut]
        if '"' in chunk or "[" in chunk:
            raise ValueError("mult array is not flat")
        if store is not None:
            store, top = _pack_chunk(store, top, chunk, cut < 0 and first)
        if cut < 0:
            return (store, top), end + 1
        pos, first = cut + 1, False


def _pack_chunk(store, top, chunk, whole):
    """store with the entries of chunk, a piece of a flat JSON array (the
    whole array when whole), appended, and the largest entry so far;
    (None, top) where the piece is refused."""
    if "e" not in chunk:
        try:
            values = json.loads("[" + chunk + "]")
            if values or whole:  # else a comma with no entry beside it
                store.fromlist(values)
                return store, max(top, max(values, default=top))
        except (ValueError, TypeError, OverflowError):
            pass
    return None, top


def group_from_json(source, cap: int | None = None) -> tuple[TableGroup, int | None]:
    """group_from_json_dict of a group_table document, read from an open
    text file or a str without holding the whole text or building a list
    of the mult entries.

    A file is read MULT_CHUNK characters at a time, and what the walk has
    passed is dropped.  The top-level object is walked with the json
    module's own pieces (scanstring for keys, raw_decode for values), so
    keys decode their escapes and a repeated key keeps its last value, as
    in json.loads; a value that reaches the end of what has been read is
    read again after a refill.  A mult array is packed into the table
    store chunk by chunk (_pack_flat_array), so the reader holds about 2
    bytes an entry.  Every other document, and every refused array,
    takes the reference parse of the whole text (json.loads, then
    group_from_json_dict), so the verdicts are the reference's; a refused
    flat array waits for the walk's end, where the document's kind, order
    and cap are checked first.  An array after an order over cap is not
    packed, and one before the order is packed before the cap refuses
    it.  A file that cannot seek back, such as a pipe, is read whole.  A
    number with a fraction or an exponent is refused while parsing, and a
    document nested deeper than the parser's recursion limit raises
    ValueError."""
    if not isinstance(source, str) and not source.seekable():
        source = source.read()
    start = None if isinstance(source, str) else source.tell()
    decoder = json.JSONDecoder(parse_float=_refuse_float)
    try:
        data = _scan_object(_TextReader(source), decoder, cap)
        if data is not None and type(data.get("mult")) is tuple:
            (store, top), n = data["mult"], _document_order(data, cap)
            if store is not None and top < n:
                data["mult"] = table_store(store, n)
            else:
                data = None
        if data is None:
            if start is not None:
                source.seek(start)
                source = source.read()
            data = json.loads(source, parse_float=_refuse_float)
    except RecursionError:
        raise ValueError("group_table JSON is nested too deeply") from None
    return group_from_json_dict(data, cap)


# -- invariant helpers ------------------------------------------------------


def spot_check_associativity(G: FiniteGroup, trials: int = 200, seed: int = 5) -> bool:
    rng = random.Random(seed)
    n = G.order
    for _ in range(trials):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if G.mult(G.mult(a, b), c) != G.mult(a, G.mult(b, c)):
            return False
    return True
