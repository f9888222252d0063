"""Matrices over Q(zeta_m) and finite matrix groups generated by closure.

The standard generator catalog covers the matrices used by the bundled case
studies at an odd prime p (conductor p^level) and at p = 2 (conductor 8):

  A       diagonal of successive p-th root powers diag(1, z, ..., z^(p-1))
  B       the cyclic shift permutation matrix (1 2 ... p)
  D       quadratic-exponent diagonal diag(z^-(i-1)^2)
  sigma   multiplication-by-k permutation i -> k(i-1)+1, sign-corrected to det 1
  tau     negation involution (2,p)(3,p-1)..., fixing 1
  F       diag(z8, z8^-1), the extra diagonal normalizer generator at p = 2
  H       rotation by pi/4 (entries 1/sqrt2), the second p = 2 generator

Every catalog matrix but H is monomial, and so is every element of the
torus normalizer, so a CycMatrix stores only its nonzero entries, row by
row, and a vector is the tuple of its nonzero (row, value) pairs: a
product or a determinant costs a pass over those entries, not over all
dim^2 of them, and one step of a monomial matrix on a basis vector's
image is one product of numbers, with no zero test.

Groups are built by breadth-first closure with a hard element cap; exceeding
the cap raises, it never truncates silently.  Exact cyclotomic arithmetic
only compiles the generators to permutations of the orbit of the standard
basis vectors (Seress, Permutation Group Algorithms, 2003): the orbit is a
walk of fingroup.bfs_closure over sparse vectors, and its Schreier graph
gives the generator permutations.  The closure is fingroup.perm_closure of
those, with the basis positions as base, so a MatrixGroup is a PermGroup:
every group operation runs on permutations of the orbit, keyed by the
images of the basis, and the closure's Cayley graph is what right_mult
hands to propagate_hom.  This module adds only the exact layer: matrices,
and matrix membership.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cyclo import CycNum, ConductorMismatch, square_and_multiply
from .fingroup import (
    DEFAULT_CAP,
    CapExceeded,
    FiniteGroup,
    PermGroup,
    bfs_closure,
    perm_closure,
)


class CycMatrix:
    """Square matrix over Q(zeta_m), immutable and hashable.

    nz holds, for each row, a tuple of (column, value) pairs in column
    order with no zero value.  The form is canonical, so equality and
    hashing read (dim, m, nz); rows is the dense view, built on request.
    """

    __slots__ = ("dim", "m", "nz", "_hash")

    def __init__(self, dim: int, m: int, nz):
        self.dim = dim
        self.m = m
        self.nz = tuple(tuple(r) for r in nz)
        if len(self.nz) != dim:
            raise ValueError("%d rows given for a %dx%d matrix" % (len(self.nz), dim, dim))
        self._hash = None

    @staticmethod
    def from_rows(dim: int, m: int, rows) -> "CycMatrix":
        """The matrix with the given dense rows."""
        rows = [tuple(r) for r in rows]
        if any(len(r) != dim for r in rows):
            raise ValueError("a %dx%d matrix needs rows of length %d" % (dim, dim, dim))
        return CycMatrix(dim, m, [[(j, x) for j, x in enumerate(r) if not x.is_zero] for r in rows])

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(dim: int, m: int) -> "CycMatrix":
        return _monomial(m, [(i, CycNum.one(m)) for i in range(dim)])

    @property
    def rows(self) -> tuple:
        """The dense rows, zeros filled in."""
        zero = CycNum.zero(self.m)
        return tuple(tuple(map(dict(r).get, range(self.dim), [zero] * self.dim)) for r in self.nz)

    def __mul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.m != other.m:
            raise ConductorMismatch("matrix conductors differ: %d vs %d" % (self.m, other.m))
        if self.dim != other.dim:
            raise ValueError("matrix dimensions differ: %d vs %d" % (self.dim, other.dim))
        return CycMatrix(self.dim, self.m, [_combine(row, other.nz) for row in self.nz])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return self.dim == other.dim and self.m == other.m and self.nz == other.nz

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.dim, self.m, self.nz))
            self._hash = h
        return h

    def scalar_mul(self, c: CycNum) -> "CycMatrix":
        keep = not c.is_zero  # a zero scalar leaves no entry
        return CycMatrix(self.dim, self.m, [[(j, c * x) for j, x in r if keep] for r in self.nz])

    def conj_transpose(self) -> "CycMatrix":
        return CycMatrix(self.dim, self.m, [[(i, x.conjugate()) for i, x in c]
                                            for c in _transpose(self.dim, self.nz)])

    def trace(self) -> CycNum:
        return sum((x for i, r in enumerate(self.nz) for j, x in r if j == i), CycNum.zero(self.m))

    def det(self) -> CycNum:
        # subset dynamic program over column sets, nonzero entries only
        prev = {0: CycNum.one(self.m)}
        for row in self.nz:
            cur: dict[int, CycNum] = {}
            for used, val in prev.items():
                for j, x in row:
                    bit = 1 << j
                    if used & bit:
                        continue
                    term = val * x
                    # sign: number of used columns above j
                    if bin(used >> (j + 1)).count("1") & 1:
                        term = -term
                    key = used | bit
                    s = cur.get(key)
                    cur[key] = term if s is None else s + term
            prev = cur
        return prev.get((1 << self.dim) - 1, CycNum.zero(self.m))

    def is_identity(self) -> bool:
        return self == CycMatrix.identity(self.dim, self.m)

    def is_scalar(self) -> bool:
        """Whether self is c * I for some c, zero included."""
        first = self.nz[0]
        return all(r == ((i, first[0][1]),) if first else not r for i, r in enumerate(self.nz))

    def permutation_part(self):
        """For a monomial matrix, the map i -> j with entry (i, j) nonzero."""
        perm = tuple(r[0][0] if len(r) == 1 else None for r in self.nz)
        return perm if None not in perm and len(set(perm)) == self.dim else None

    def __pow__(self, n: int) -> "CycMatrix":
        if n < 0:
            raise ValueError("negative matrix powers unsupported; use group inverse")
        return square_and_multiply(self, n, CycMatrix.identity(self.dim, self.m))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(repr(x) for x in row) for row in self.rows)
        return "CycMatrix(%d, m=%d, [%s])" % (self.dim, self.m, body)


def _combine(terms, lines) -> tuple:
    """The sparse vector sum of x * lines[k] over the (k, x) pairs of
    terms, each line sparse, (position, value) pairs in position order: a
    row of a product, or a matrix's columns on a vector.  A sum that
    cancels is dropped, as the dense H's products need."""
    if len(terms) == 1:
        # a field has no zero divisors: x * y is never zero
        (k, x), = terms
        return tuple([(j, x * y) for j, y in lines[k]])
    acc: dict = {}
    for k, x in terms:
        for j, y in lines[k]:
            s = acc.get(j)
            acc[j] = x * y if s is None else s + x * y
    return tuple([(j, s) for j, s in sorted(acc.items()) if not s.is_zero])


def _transpose(dim: int, lines) -> list[list]:
    """The sparse lines, entry (i, j) moved to (j, i): rows to columns."""
    out: list = [[] for _ in range(dim)]
    for i, line in enumerate(lines):
        for j, x in line:
            out[j].append((i, x))
    return out


# -- standard generator catalog -------------------------------------------


def _monomial(m: int, entries) -> CycMatrix:
    """The monomial matrix whose row i holds the one nonzero (column,
    value) pair entries[i]."""
    return CycMatrix(len(entries), m, [(e,) for e in entries])


def legendre_symbol(k: int, p: int) -> int:
    s = pow(k % p, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


def std_matrix(p: int, which: str, k: int | None = None, conductor: int | None = None,
               det_one: bool = False) -> CycMatrix:
    """Standard generator matrices for the case studies at the prime p.

    det_one applies at p = 2 only and replaces A, B by i*A, i*B.
    sigma is returned sign-corrected so its determinant is 1 for every k.
    """
    if p == 2:
        m = conductor if conductor is not None else 8
        if m % 8 != 0:
            raise ValueError("p = 2 requires a conductor divisible by 8")
    else:
        m = conductor if conductor is not None else p
        if m % p != 0:
            raise ValueError("conductor %d not divisible by p = %d" % (m, p))
    one = CycNum.one(m)
    z = CycNum.zeta(m, m // p)

    if which in ("A", "B"):
        mat = _monomial(m, [(i, z ** i) if which == "A" else ((i + 1) % p, one)
                            for i in range(p)])
        if p == 2 and det_one:
            mat = mat.scalar_mul(CycNum.zeta(m, m // 4))
        return mat
    if which == "D":
        if p == 2:
            raise ValueError("D is defined for odd p only")
        return _monomial(m, [(i, z ** (-(i * i) % p)) for i in range(p)])
    if which == "sigma":
        if p == 2:
            raise ValueError("sigma is defined for odd p only")
        if k is None or not 1 <= k <= p - 1:
            raise ValueError("sigma requires 1 <= k <= p-1")
        # row i (0-based) maps to column k*i mod p
        sign = -one if legendre_symbol(k, p) == -1 else one
        return _monomial(m, [(k * i % p, sign) for i in range(p)])
    if which == "tau":
        if p == 2:
            raise ValueError("tau is defined for odd p only")
        return _monomial(m, [(-i % p, one) for i in range(p)])
    if which == "F":
        if p != 2:
            raise ValueError("F exists at p = 2 only")
        z8 = CycNum.zeta(m, m // 8)
        return _monomial(m, [(0, z8), (1, z8 ** 7)])
    if which == "H":
        if p != 2:
            raise ValueError("H exists at p = 2 only")
        z8 = CycNum.zeta(m, m // 8)
        inv_sqrt2 = (z8 + z8 ** 7) * CycNum.rational(m, Fraction(1, 2))
        return CycMatrix.from_rows(2, m, [[inv_sqrt2, -inv_sqrt2], [inv_sqrt2, inv_sqrt2]])
    raise ValueError("unknown standard matrix %r" % which)


# -- closure ----------------------------------------------------------------


def closure(gens, cap: int | None = None, expected: int | None = None) -> "MatrixGroup":
    """Breadth-first multiplicative closure of the generators.

    The generators are compiled once to permutations of the orbit of the
    standard basis vectors (the basis first, then the orbit's walk order):
    the rows of the orbit's Schreier graph.  The walk reads each vector
    as its nonzero (row, value) pairs, the basis vector i as ((i, 1),),
    and each generator as its columns, built once: a vector with one
    nonzero entry, as every orbit vector of a monomial group, steps to the
    generator's column scaled by that entry.  The closure is perm_closure
    of those permutations with the basis positions as base: the action is
    faithful, so it is the same walk under an isomorphic product.
    Element numbering is by discovery order with the identity first, which
    makes it deterministic for a fixed generator order.  If expected is
    given the cap defaults to twice it; a closure passing the cap raises
    CapExceeded.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    dim, m = gens[0].dim, gens[0].m
    for g in gens:
        if g.dim != dim or g.m != m:
            raise ConductorMismatch("generators disagree in dim or conductor")
    if cap is None:
        cap = 2 * expected if expected is not None else DEFAULT_CAP
    one = CycNum.one(m)
    basis = [((i, one),) for i in range(dim)]
    # the orbit is the union of dim orbits of size at most |G|
    cols = [_transpose(dim, g.nz) for g in gens]
    found = bfs_closure(basis, cols, _combine, dim * cap)
    if found is None:
        raise CapExceeded("closure exceeded cap %d (dim %d, conductor %d)" % (cap, dim, m))
    orbit, orbit_index, gen_perms = found
    return MatrixGroup(m, orbit, orbit_index, perm_closure(gen_perms, cap, base=dim))


class MatrixGroup(PermGroup):
    """A finite group of CycMatrix elements: the PermGroup of its action on
    the orbit of the standard basis vectors, with the exact layer on top.

    The orbit contains the basis, at positions 0..dim-1, so the base
    images of an element (the orbit positions of its columns) determine
    its matrix.  orbit_index maps each orbit vector, a tuple of nonzero
    (row, value) pairs, to its position.  Matrices are built only on
    request, from the pairs, with no zero test.
    """

    def __init__(self, m: int, orbit, orbit_index, group: PermGroup):
        super().__init__(group.perms, group.base, group.index, group.cayley)
        self.dim = group.base
        self.m = m
        self.orbit = orbit
        self.orbit_index = orbit_index

    label = FiniteGroup.label  # g0, g1, ... as in the dumped group tables

    def matrix(self, i: int) -> CycMatrix:
        # its columns are the orbit vectors at its base images
        cols = map(self.orbit.__getitem__, self.bases[i])
        return CycMatrix(self.dim, self.m, _transpose(self.dim, cols))

    def index_of(self, mat: CycMatrix) -> int | None:
        """The index of mat, or None when mat is not in the group."""
        if mat.dim != self.dim or mat.m != self.m:
            return None
        cols = [self.orbit_index.get(tuple(c)) for c in _transpose(self.dim, mat.nz)]
        return None if None in cols else self.index.get(self.key(cols))

    def contains_matrix(self, mat: CycMatrix) -> bool:
        return self.index_of(mat) is not None


# -- predicates over groups -------------------------------------------------


def scalar_indices(G: MatrixGroup, cent) -> list[int]:
    """The indices of the scalar matrices of G, in index order.  A scalar
    commutes with everything, so only cent, the centralizer of G's
    generators in index order, is scanned."""
    return [i for i in cent if G.matrix(i).is_scalar()]


# -- torus truncation membership -------------------------------------------


def min_level(p: int) -> int:
    # the finite 2-group catalog needs fourth roots of unity on the diagonal
    return 2 if p == 2 else 1


def default_conductor(p: int, level: int) -> int:
    """The conductor of the case studies at p and the truncation level: the
    p^level-torsion, and at p = 2 at least the eighth roots of unity."""
    return max(8, 2 ** level) if p == 2 else p ** level


def torus_order(p: int, level: int, det_one: bool) -> int:
    """The order of the p^level-torsion torus: rank p - 1 on the
    determinant-one side, rank p otherwise."""
    return p ** (level * (p - 1)) if det_one else p ** (level * p)


def in_truncated_torus_extension(mat: CycMatrix, p: int, level: int, det_one: bool = True) -> bool:
    """Membership in S_level = T_level<B>: monomial, shift permutation part,
    diagonal part p^level-torsion, and (det_one side) determinant 1."""
    perm = mat.permutation_part()
    if perm is None:
        return False
    shift = perm[0]
    if any(perm[i] != (i + shift) % p for i in range(p)):
        return False
    # mat = diag * B^shift, and row i of mat carries diag's entry i
    torsion = p ** level
    one = CycNum.one(mat.m)
    if any(r[0][1] ** torsion != one for r in mat.nz):
        return False
    if det_one and mat.det() != one:
        return False
    return True


def torus_extension_generators(p: int, level: int, det_one: bool = True,
                               conductor: int | None = None) -> list[CycMatrix]:
    """Generator matrices of S_level: diagonal p^level-torsion generators
    (difference form on the det-one side) followed by the shift matrix."""
    m = conductor if conductor is not None else default_conductor(p, level)
    torsion = p ** level
    if m % torsion:
        raise ValueError("conductor %d lacks p^level torsion" % m)
    zt = CycNum.zeta(m, m // torsion)
    gens = []
    for r in range(p - 1 if det_one else p):
        diag = [CycNum.one(m)] * p
        diag[r] = zt
        if det_one:
            diag[r + 1] = zt ** (torsion - 1)
        gens.append(_monomial(m, list(enumerate(diag))))
    gens.append(std_matrix(p, "B", conductor=m, det_one=(p == 2 and det_one)))
    return gens


def torus_extension_group(p: int, level: int, det_one: bool = True,
                          conductor: int | None = None) -> MatrixGroup:
    """Explicit S_level as a matrix group; only sensible at desk scale, so
    past 20000 elements it raises CapExceeded."""
    size = p * torus_order(p, level, det_one)
    if size > 20000:
        raise CapExceeded("torus extension of order %d exceeds cap 20000" % size)
    gens = torus_extension_generators(p, level, det_one, conductor)
    return closure(gens, expected=size)
