"""Matrix catalog and BFS closure, checked against hand-built oracles.

The quaternion oracle is written out symbol by symbol from the standard
presentation, with no shared code, and matched to the closure of the
determinant-one clock and shift by explicit isomorphism search.
"""

from __future__ import annotations

import itertools
import operator
import random
import sys
from fractions import Fraction

import pytest

from fusionkit.cases import CaseConfig, d_sigma_matrices, gamma_matrices
from fusionkit.cyclo import CycNum
from fusionkit.extraspecial import heisenberg_semidirect
from fusionkit.fingroup import (
    TableGroup,
    bfs_closure,
    centralizer,
    cyclic_group,
    generated_subgroup,
    isomorphic,
    perm_closure,
    perm_mul,
    perm_store,
    propagate_hom,
    recognize,
    smallest_primitive_root,
    symmetric_group,
)
from fusionkit.matgroup import (
    CapExceeded,
    CycMatrix,
    _combine,
    _transpose,
    closure,
    in_truncated_torus_extension,
    legendre_symbol,
    min_level,
    scalar_indices,
    std_matrix,
    torus_extension_generators,
    torus_extension_group,
)


def quaternion_oracle() -> TableGroup:
    """Q8 = {1, -1, i, -i, j, -j, k, -k} built from the symbol rules alone."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
            ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j"}

    def mul(x: str, y: str) -> str:
        sign = 1
        if x.startswith("-"):
            sign, x = -sign, x[1:]
        if y.startswith("-"):
            sign, y = -sign, y[1:]
        if x == "1":
            out = y
        elif y == "1":
            out = x
        elif x == y:
            out, sign = "1", -sign
        else:
            out = base[(x, y)]
        if out.startswith("-"):
            sign, out = -sign, out[1:]
        return out if sign == 1 else "-" + out

    idx = {n: i for i, n in enumerate(names)}
    table = [idx[mul(a, b)] for a in names for b in names]
    return TableGroup(table, len(names), names)


def test_quaternion_oracle_is_a_group():
    Q = quaternion_oracle()
    n = Q.order
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert Q.mult(Q.mult(a, b), c) == Q.mult(a, Q.mult(b, c))
    assert sorted(Q.element_order(i) for i in range(n)) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_clock_and_shift_close_to_quaternion_group():
    A = std_matrix(2, "A", det_one=True)
    B = std_matrix(2, "B", det_one=True)
    G = closure([A, B], expected=8)
    assert G.order == 8
    assert isomorphic(G, quaternion_oracle())
    assert recognize(G) == "Q8"


def test_clock_shift_commutator_all_primes():
    # B A = zeta (A B) exactly, at every supported prime
    for p in (2, 3, 5, 7):
        det_one = p == 2
        A = std_matrix(p, "A", det_one=det_one)
        B = std_matrix(p, "B", det_one=det_one)
        m = A.m
        z = CycNum.zeta(m, m // p)
        assert B * A == (A * B).scalar_mul(z)


def test_generator_determinants_are_one():
    for p in (2, 3, 5, 7):
        A = std_matrix(p, "A", det_one=(p == 2))
        B = std_matrix(p, "B", det_one=(p == 2))
        one = CycNum.one(A.m)
        assert A.det() == one
        assert B.det() == one


def test_closure_orders():
    for p, expect in ((3, 27), (5, 125)):
        A = std_matrix(p, "A")
        B = std_matrix(p, "B")
        G = closure([A, B], expected=expect)
        assert G.order == expect
        assert len(scalar_indices(G, centralizer(G, G.generator_indices))) == p


def _scalar_test_groups(p: int):
    """Gamma at p, and beside it a group with more scalars (p = 2: O48 and
    the core with the eighth-root scalars; p = 3: the level-2 core with
    the ninth-root scalars) or with the identity alone (<D, sigma_g>)."""
    A, B = gamma_matrices(CaseConfig("sup", p))
    yield closure([A, B]), p
    if p == 2:
        yield closure([A, B, std_matrix(2, "F"), std_matrix(2, "H")]), 2
        yield closure([A, B, CycMatrix.identity(2, 8).scalar_mul(CycNum.zeta(8, 1))]), 8
        return
    yield closure([std_matrix(p, "D"), std_matrix(p, "sigma", k=smallest_primitive_root(p))]), 1
    if p == 3:
        A9, B9 = gamma_matrices(CaseConfig("sup", 3, level=2))
        yield closure([A9, B9, CycMatrix.identity(3, 9).scalar_mul(CycNum.zeta(9, 1))]), 9


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_scalar_indices_agree_with_the_full_scan(p):
    # scalar_indices scans only the centralizer of the generators
    for G, scalars in _scalar_test_groups(p):
        full = [i for i in range(G.order) if G.matrix(i).is_scalar()]
        assert scalar_indices(G, centralizer(G, G.generator_indices)) == full
        assert len(full) == scalars


def test_diagonal_matrix_relations():
    for p in (3, 5, 7):
        A = std_matrix(p, "A")
        B = std_matrix(p, "B")
        D = std_matrix(p, "D")
        m = A.m
        z = CycNum.zeta(m, m // p)
        assert D * A == A * D
        assert D * B == ((A * A) * B).scalar_mul(z) * D
        acc = CycMatrix.identity(p, m)
        for _ in range(p):
            acc = acc * D
        assert acc == CycMatrix.identity(p, m)


def test_scaling_matrix_relations():
    rng = random.Random(2026)
    for p in (3, 5, 7):
        A = std_matrix(p, "A")
        B = std_matrix(p, "B")
        ks = [k for k in range(2, p) ]
        for k in rng.sample(ks, min(3, len(ks))):
            S = std_matrix(p, "sigma", k=k)
            kinv = pow(k, -1, p)
            assert S * A == matrix_power(A, k) * S
            assert S * B == matrix_power(B, kinv) * S
            one = CycNum.one(A.m)
            assert S.det() == one


def matrix_power(mat: CycMatrix, n: int) -> CycMatrix:
    acc = CycMatrix.identity(mat.dim, mat.m)
    for _ in range(n):
        acc = acc * mat
    return acc


def test_scaling_signs_follow_legendre():
    # the -1 scalar lands exactly on the non-residues, making det 1
    for p in (3, 5, 7):
        residues = {pow(x, 2, p) for x in range(1, p)}
        for k in range(1, p):
            expect = 1 if k in residues else -1
            assert legendre_symbol(k, p) == expect


def test_tau_relations():
    for p in (3, 5, 7):
        A = std_matrix(p, "A")
        T = std_matrix(p, "tau")
        assert T * T == CycMatrix.identity(p, A.m)
        assert T * A == matrix_power(A, p - 1) * T
        # det tau = (-1)^((p-1)/2): +1 iff p = 1 mod 4
        expect = CycNum.one(A.m) if p % 4 == 1 else CycNum.rational(A.m, -1)
        assert T.det() == expect


def test_p2_catalog():
    F = std_matrix(2, "F")
    H = std_matrix(2, "H")
    A = std_matrix(2, "A", det_one=True)
    one = CycNum.one(F.m)
    assert F.det() == one
    assert H.det() == one
    assert F * F == A
    q16 = closure([std_matrix(2, "A", det_one=True), std_matrix(2, "B", det_one=True), F],
                  expected=16)
    assert q16.order == 16
    o48 = closure([std_matrix(2, "A", det_one=True), std_matrix(2, "B", det_one=True), F, H],
                  expected=48)
    assert o48.order == 48


def test_p7_chain_normalizer_store_is_small():
    # the closure of the p = 7 chain normalizer, which verify certifies
    # from Gamma and K without closing it, but test_acceptance's
    # enumerated route builds: 14406 permutations of the 98 orbit
    # points, one byte per point (as tuples of ints, about 12 MB)
    p = 7
    gens = [std_matrix(p, w) for w in "ABD"] + [std_matrix(p, "sigma", k=smallest_primitive_root(p))]
    G = closure(gens, expected=p ** 4 * (p - 1))
    assert G.order == 14406 and len(G.orbit) == 98
    assert sum(map(sys.getsizeof, G.perms)) < 3_000_000


def test_closure_cap_enforced():
    A = std_matrix(5, "A")
    B = std_matrix(5, "B")
    with pytest.raises(CapExceeded):
        closure([A, B], cap=10)
    # every closure admits exactly cap elements and fails one past it
    assert closure([A, B], cap=125).order == 125
    with pytest.raises(CapExceeded):
        closure([A, B], cap=124)
    d8 = [(1, 2, 3, 0), (2, 1, 0, 3)]
    assert perm_closure(d8, cap=8).order == 8
    with pytest.raises(CapExceeded):
        perm_closure(d8, cap=7)
    S4 = symmetric_group(4)
    gens = [S4.index[S4.key(g)] for g in d8]
    members = generated_subgroup(S4, gens)
    assert len(members) == 8
    assert generated_subgroup(S4, gens, cap=8) == members
    assert generated_subgroup(S4, gens, cap=7) is None


def differential_generators(name: str) -> list[CycMatrix]:
    if name.startswith("gamma"):
        p = int(name[-1])
        return [std_matrix(p, "A", det_one=(p == 2)), std_matrix(p, "B", det_one=(p == 2))]
    if name == "O48":  # H is not monomial
        return [std_matrix(2, "A", det_one=True), std_matrix(2, "B", det_one=True),
                std_matrix(2, "F"), std_matrix(2, "H")]
    if name == "chain5":
        return [std_matrix(5, "A"), std_matrix(5, "B"), std_matrix(5, "D"),
                std_matrix(5, "sigma", k=2)]
    if name == "torus3full":  # fewer than dim columns leave the last entry free
        return torus_extension_generators(3, 2, det_one=False)
    assert name == "torus3"
    return torus_extension_generators(3, 2)


@pytest.mark.parametrize("name", ["gamma2", "gamma3", "gamma5", "gamma7", "O48", "chain5",
                                  "torus3"])
def test_permutation_layer_matches_matrices(name):
    """The basis-orbit permutation layer against plain CycMatrix arithmetic:
    the matrix closure itself, the sparse orbit walk against a dense one,
    products, inverses, orders, random words and matrices outside the
    group."""
    gens = differential_generators(name)
    G = closure(gens)
    ident = CycMatrix.identity(gens[0].dim, gens[0].m)
    mats = bfs_closure([ident], gens, operator.mul)[0]
    # same discovery order, so the same numbering
    assert [G.matrix(i) for i in range(G.order)] == mats
    assert [mats[i] for i in G.generator_indices] == gens
    # the dense oracle: the basis orbit walked as full vectors, each image
    # a schoolbook matrix-vector product.  The sparse walk finds the same
    # vectors in the same order, each stored as its nonzero entries in row
    # order, and its generator permutations are the dense Schreier graph:
    # position q goes to the position of g*v for the vector v at q
    dense_orbit, _, graph = bfs_closure(list(ident.rows), gens, lambda v, g: _dense_apply(g, v))
    assert [_dense_vector(v, ident.dim, ident.m) for v in G.orbit] == dense_orbit
    assert all(_canonical_vector(v, ident.dim) for v in G.orbit)
    assert [G.orbit_index[v] for v in G.orbit] == list(range(len(G.orbit)))
    assert [list(G.perms[i]) for i in G.generator_indices] == graph
    rng = random.Random(20261018)
    for _ in range(30):
        i, j = rng.randrange(G.order), rng.randrange(G.order)
        assert G.mult(i, j) == G.index_of(mats[i] * mats[j])
        assert mats[G.inv(i)] * mats[i] == ident
        n, acc = 1, mats[i]
        while acc != ident:
            n, acc = n + 1, acc * mats[i]
        assert G.element_order(i) == n
    for _ in range(20):
        x, mat = G.identity, ident
        for _ in range(rng.randrange(1, 16)):
            k = rng.randrange(len(gens))
            x, mat = G.mult(x, G.generator_indices[k]), mat * gens[k]
        assert G.index_of(mat) == x
    members = set(mats)
    two = CycNum.rational(ident.m, 2)
    for _ in range(10):
        M = mats[rng.randrange(G.order)]
        # swapping two columns keeps them in the orbit but leaves the group
        swapped = CycMatrix.from_rows(M.dim, M.m, [(r[1], r[0]) + r[2:] for r in M.rows])
        for outside in (swapped, M.scalar_mul(two)):
            assert outside not in members
            assert G.index_of(outside) is None
            assert not G.contains_matrix(outside)


@pytest.mark.parametrize("name", ["gamma2", "gamma3", "gamma5", "gamma7", "O48", "chain5",
                                  "torus3", "torus3full"])
def test_base_images_match_whole_permutations(name):
    """Products, inverses and the closure on base images against the same
    operations on whole orbit permutations, composed by perm_mul."""
    gens = differential_generators(name)
    G = closure(gens)
    degree = len(G.orbit)
    ident = perm_store(degree)(range(degree))
    gen_perms = [G.perms[g] for g in G.generator_indices]
    # the keyed BFS discovers the elements in the order of the unkeyed
    # one, and both record the same Cayley graph
    perms, index, graph = bfs_closure([ident], gen_perms, perm_mul)
    assert perms == G.perms and graph == G.cayley
    assert index == {q: i for i, q in enumerate(perms)}
    # so do perm_closure on base images and on whole permutations
    keyed, full = perm_closure(gen_perms, base=G.dim), perm_closure(gen_perms)
    assert keyed.perms == full.perms == perms and keyed.order == full.order == G.order
    assert keyed.cayley == full.cayley == graph
    assert keyed.bases == G.bases and full.index == index
    for row, g in zip(graph, gen_perms):
        assert [perms[j] for j in row] == [perm_mul(q, g) for q in perms]
    # exactly cap points are admitted, and one more returns None
    assert bfs_closure([ident], gen_perms, perm_mul, cap=G.order)[0] == perms
    assert bfs_closure([ident], gen_perms, perm_mul, cap=G.order - 1) is None
    whole = {q: i for i, q in enumerate(G.perms)}
    rng = random.Random(20261019)
    for _ in range(200):
        i, j = rng.randrange(G.order), rng.randrange(G.order)
        assert G.mult(i, j) == whole[perm_mul(G.perms[i], G.perms[j])] == full.mult(i, j)
        assert perm_mul(G.perms[G.inv(i)], G.perms[i]) == ident
        assert G.inv(i) == full.inv(i)
    assert G.perms[G.identity] == ident
    assert closure(gens, cap=G.order).perms == G.perms
    with pytest.raises(CapExceeded):
        closure(gens, cap=G.order - 1)


DIFFERENTIAL_GROUPS = ["gamma2", "gamma3", "gamma5", "gamma7", "O48", "chain5", "torus3",
                       "torus3full"]


@pytest.mark.parametrize("name", DIFFERENTIAL_GROUPS)
def test_cayley_rows_match_products(name):
    """The Cayley graph the closure keeps: cayley[k][x] is x times
    generator k, as mult computes it, and right_mult reads it back."""
    G = closure(differential_generators(name))
    assert len(G.cayley) == len(G.generator_indices)
    for k, g in enumerate(G.generator_indices):
        assert G.cayley[k] == [G.mult(x, g) for x in range(G.order)]
        step = G.right_mult(g)
        assert [step(x) for x in range(G.order)] == G.cayley[k]


def _propagate_by_mult(G, H, gen_idx, img_idx):
    """propagate_hom's BFS with every step x*g taken by G.mult: the oracle
    for the steps read from the Cayley graph."""
    images = {G.identity: H.identity}
    frontier = [G.identity]
    pairs = list(zip(gen_idx, img_idx))
    while frontier:
        new = []
        for x in frontier:
            fx = images[x]
            for g, fg in pairs:
                y = G.mult(x, g)
                fy = H.mult(fx, fg)
                old = images.get(y)
                if old is None:
                    images[y] = fy
                    new.append(y)
                elif old != fy:
                    return None
        frontier = new
    return images


@pytest.mark.parametrize("name", DIFFERENTIAL_GROUPS)
def test_propagate_hom_on_cayley_rows_matches_mult_bfs(name):
    G = closure(differential_generators(name))
    gens = G.generator_indices
    rng = random.Random(20261020)
    cases = []
    for _ in range(3):
        # conjugation by c, a homomorphism G -> G
        c = rng.randrange(G.order)
        cases.append((G, gens, [G.conjugate(c, g) for g in gens]))
    # random generator images, nearly always no homomorphism
    cases.append((G, gens, [rng.randrange(G.order) for _ in gens]))
    # elements that are not closure generators step by mult
    others = [rng.randrange(G.order) for _ in range(2)]
    cases.append((G, others, others))
    # an image whose order does not divide the generator's order: a
    # relation of G fails in the image, so there is no homomorphism
    n = G.element_order(gens[0])
    q = next(q for q in (3, 5, 7) if n % q)
    Cq = cyclic_group(q)
    cases.append((Cq, gens, [1] + [0] * (len(gens) - 1)))
    _assert_propagates_as_mult_bfs(G, cases)
    assert propagate_hom(G, cases[-1][0], gens, cases[-1][2]) is None
    assert all(propagate_hom(G, G, gens, imgs) is not None for _, _, imgs in cases[:3])


def _assert_propagates_as_mult_bfs(G, cases):
    for H, gen_idx, img_idx in cases:
        got = propagate_hom(G, H, gen_idx, img_idx)
        want = _propagate_by_mult(G, H, gen_idx, img_idx)
        assert got == want
        # the same discovery order as well as the same map
        assert (got is None) or list(got) == list(want)


@pytest.mark.parametrize("p", [3, 5])
def test_propagate_hom_into_semidirect_matches_mult_bfs(p):
    """The chain embedding propagated over the whole chain normalizer (the
    enumerated route that cases.chain_certificate replaced), whose target
    steps are SemidirectGroup.right_mult: the same map in the same order as the
    mult BFS, and the same verdict for a wrong image (a*z, 1)."""
    cfg = CaseConfig("sup", p)
    A, B = gamma_matrices(cfg)
    k = smallest_primitive_root(p)
    n_chain = closure([A, B, std_matrix(p, "D", conductor=cfg.conductor),
                       std_matrix(p, "sigma", k=k, conductor=cfg.conductor)])
    n_full = heisenberg_semidirect(p, "SL")
    hberg, sl = n_full.N, n_full.H
    imgs = [n_full.encode(hberg.a_index, sl.identity), n_full.encode(hberg.b_index, sl.identity)]
    imgs += [n_full.encode(hberg.identity, sl.index[M]) for M in d_sigma_matrices(p, k)]
    az = hberg.mult(hberg.a_index, hberg.encode(1, 0, 0))
    wrong = [n_full.encode(az, sl.identity)] + imgs[1:]
    gens = n_chain.generator_indices
    _assert_propagates_as_mult_bfs(n_chain, [(n_full, gens, imgs), (n_full, gens, wrong)])
    assert len(propagate_hom(n_chain, n_full, gens, imgs)) == n_chain.order
    assert propagate_hom(n_chain, n_full, gens, wrong) is None


def _dense_mul(A: CycMatrix, B: CycMatrix) -> tuple:
    """Schoolbook product rows: every term summed into CycNum.zero."""
    n, zero = A.dim, CycNum.zero(A.m)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            s = zero
            for k in range(n):
                s = s + A.rows[i][k] * B.rows[k][j]
            row.append(s)
        rows.append(tuple(row))
    return tuple(rows)


def _dense_apply(A: CycMatrix, v: tuple) -> tuple:
    out = []
    for row in A.rows:
        s = CycNum.zero(A.m)
        for x, y in zip(row, v):
            s = s + x * y
        out.append(s)
    return tuple(out)


def _dense_vector(v: tuple, dim: int, m: int) -> tuple:
    """The full vector of a sparse one, zeros filled in."""
    return tuple(dict(v).get(r, CycNum.zero(m)) for r in range(dim))


def _canonical_vector(v: tuple, dim: int) -> bool:
    """A tuple of (row, value) pairs, rows in range and strictly
    increasing, and no stored value zero."""
    return (type(v) is tuple and [r for r, _ in v] == sorted({r for r, _ in v})
            and all(0 <= r < dim and not x.is_zero for r, x in v))


def _dense_det(A: CycMatrix) -> CycNum:
    """The Leibniz sum over all n! permutations, zero terms included."""
    n, total = A.dim, CycNum.zero(A.m)
    for perm in itertools.permutations(range(n)):
        term = CycNum.one(A.m)
        for i in range(n):
            term = term * A.rows[i][perm[i]]
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total = total + (-term if inversions % 2 else term)
    return total


def _dense_trace(A: CycMatrix) -> CycNum:
    s = CycNum.zero(A.m)
    for i in range(A.dim):
        s = s + A.rows[i][i]
    return s


def _dense_conj_transpose(A: CycMatrix) -> tuple:
    n = A.dim
    return tuple(tuple(A.rows[j][i].conjugate() for j in range(n)) for i in range(n))


def _dense_scalar_mul(A: CycMatrix, c: CycNum) -> tuple:
    return tuple(tuple(c * x for x in row) for row in A.rows)


def _dense_is_scalar(A: CycMatrix) -> bool:
    zero, d = CycNum.zero(A.m), A.rows[0][0]
    return all(A.rows[i][j] == (d if i == j else zero)
               for i in range(A.dim) for j in range(A.dim))


def _dense_is_identity(A: CycMatrix) -> bool:
    one, zero = CycNum.one(A.m), CycNum.zero(A.m)
    return all(A.rows[i][j] == (one if i == j else zero)
               for i in range(A.dim) for j in range(A.dim))


def _dense_permutation_part(A: CycMatrix):
    perm = []
    for row in A.rows:
        cols = [j for j, x in enumerate(row) if x != CycNum.zero(A.m)]
        if len(cols) != 1:
            return None
        perm.append(cols[0])
    return tuple(perm) if sorted(perm) == list(range(A.dim)) else None


def _canonical(A: CycMatrix) -> bool:
    """One tuple per row of (column, value) pairs, columns in range and
    strictly increasing, and no stored value zero."""
    return len(A.nz) == A.dim and all(
        [j for j, _ in r] == sorted({j for j, _ in r})
        and all(0 <= j < A.dim and not x.is_zero for j, x in r)
        for r in A.nz
    )


def _random_entry(rng: random.Random, m: int) -> CycNum:
    kind = rng.randrange(3)
    if kind == 0:  # a signed root of unity
        return CycNum.zeta(m, rng.randrange(m)) * CycNum.rational(m, rng.choice((1, -1)))
    if kind == 1:  # a rational
        return CycNum.rational(m, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return CycNum.from_coeffs(m, [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                                  for _ in range(rng.randint(1, m))])


def _random_matrix(rng: random.Random, n: int, m: int, shape: str) -> CycMatrix:
    zero = CycNum.zero(m)
    if shape == "monomial":
        perm = rng.sample(range(n), n)
        rows = [[_random_entry(rng, m) if j == perm[i] else zero for j in range(n)]
                for i in range(n)]
    elif shape == "scalar":
        c = rng.choice((CycNum.one(m), zero, _random_entry(rng, m)))
        rows = [[c if i == j else zero for j in range(n)] for i in range(n)]
    else:
        density = 0.3 if shape == "sparse" else 1.0
        rows = [[_random_entry(rng, m) if rng.random() < density else zero for _ in range(n)]
                for _ in range(n)]
    if n > 1 and rng.random() < 0.3:
        rows[rng.randrange(n)] = [zero] * n
    return CycMatrix.from_rows(n, m, rows)


@pytest.mark.parametrize("m", [3, 5, 8, 9])
def test_sparse_product_matches_dense_schoolbook(m):
    """Every operation of the exact layer against its dense schoolbook
    oracle, on monomial, scalar, sparse and dense matrices with zero rows
    and rational entries: products, the closure's sparse matrix-vector
    step, det, trace, conj_transpose, scalar_mul, is_scalar, is_identity
    and permutation_part.  Every result is canonical, so equal values
    compare equal, and the same matrix read back from its dense rows has
    the same hash."""
    rng = random.Random(20261020 + m)
    shapes = ("monomial", "scalar", "sparse", "dense")
    verdicts = set()
    for _ in range(60):
        n = rng.randint(1, 5)
        A = _random_matrix(rng, n, m, rng.choice(shapes))
        B = _random_matrix(rng, n, m, rng.choice(shapes))
        assert _canonical(A) and _canonical(B)
        prod = A * B
        assert _canonical(prod)
        assert prod.rows == _dense_mul(A, B)
        assert prod == CycMatrix.from_rows(n, m, _dense_mul(A, B))
        assert hash(CycMatrix.from_rows(n, m, A.rows)) == hash(A)
        v = _random_matrix(rng, n, m, rng.choice(shapes)).nz[0]
        Av = _combine(v, _transpose(n, A.nz))
        assert _canonical_vector(Av, n)
        assert _dense_vector(Av, n, m) == _dense_apply(A, _dense_vector(v, n, m))
        assert _combine((), _transpose(n, A.nz)) == ()
        assert A.det() == _dense_det(A)
        assert prod.det() == A.det() * B.det()
        assert A.trace() == _dense_trace(A)
        star = A.conj_transpose()
        assert _canonical(star) and star.rows == _dense_conj_transpose(A)
        c = rng.choice((CycNum.zero(m), _random_entry(rng, m)))
        scaled = A.scalar_mul(c)
        assert _canonical(scaled) and scaled.rows == _dense_scalar_mul(A, c)
        for M in (A, prod, scaled):
            verdict = (M.is_scalar(), M.is_identity(), M.permutation_part() is not None)
            assert verdict == (_dense_is_scalar(M), _dense_is_identity(M),
                               _dense_permutation_part(M) is not None)
            assert M.permutation_part() == _dense_permutation_part(M)
            verdicts.add(verdict)
    # each predicate is seen both true and false
    assert all({v[k] for v in verdicts} == {True, False} for k in range(3))


@pytest.mark.parametrize("m", [3, 5, 8, 9])
def test_sparse_product_drops_cancelled_sums(m):
    """Products whose sums cancel: column 1 of the left factor repeats
    column 0 and row 1 of the right factor negates row 0, so the k = 0 and
    k = 1 terms of every entry cancel, and entries with no other term
    vanish.  Each vanished entry is dropped, never stored as zero."""
    rng = random.Random(20261021 + m)
    zero = CycNum.zero(m)
    dropped = 0
    for _ in range(30):
        n = rng.randint(2, 5)
        left = [(r[0], r[0]) + r[2:] for r in _random_matrix(rng, n, m, "dense").rows]
        right = list(_random_matrix(rng, n, m, "dense").rows)
        right[1] = tuple(-y for y in right[0])
        right[2:] = [r if rng.random() < 0.5 else (zero,) * n for r in right[2:]]
        A, B = CycMatrix.from_rows(n, m, left), CycMatrix.from_rows(n, m, right)
        prod = A * B
        assert _canonical(prod)
        assert prod.rows == _dense_mul(A, B)
        dropped += sum(n - len(r) for r in prod.nz)
    assert dropped > 0


def test_rotation_powers_cancel_to_the_identity():
    """H, the rotation by pi/4 at conductor 8, is the one dense catalog
    matrix: its square cancels to the monomial rotation by pi/2 and its
    eighth power to the identity, by repeated products and by __pow__."""
    H = std_matrix(2, "H")
    one = CycNum.one(8)
    assert (H * H).nz == (((1, -one),), ((0, one),))
    ident = CycMatrix.identity(2, 8)
    acc = ident
    for k in range(1, 9):
        acc = acc * H
        assert _canonical(acc)
        assert acc.is_identity() == (k == 8)
    assert acc == H ** 8 == ident
    assert hash(acc) == hash(H ** 8) == hash(ident)
    assert H.det() == one


def test_matrix_power_squares_no_further_than_the_top_bit(monkeypatch):
    """x ** n multiplies once per set bit of n and squares once per bit
    below the top one: at most 2 n.bit_length() - 1 products, so x ** 1
    costs one.  The powers equal repeated products."""
    for M in (std_matrix(5, "A"), std_matrix(2, "H"), std_matrix(7, "D")):
        powers = [CycMatrix.identity(M.dim, M.m)]
        for _ in range(40):
            powers.append(powers[-1] * M)
        real, products = CycMatrix.__mul__, []

        def counted(a, b):
            products.append(1)
            return real(a, b)

        monkeypatch.setattr(CycMatrix, "__mul__", counted)
        for n, want in enumerate(powers):
            products.clear()
            assert M ** n == want
            assert len(products) <= 2 * n.bit_length() - 1 if n else not products
        products.clear()
        assert (M ** 1, len(products)) == (M, 1)
        monkeypatch.undo()


def test_equal_matrices_hash_equal_by_every_route():
    """The same matrix built by products, powers, scalars, transposes, the
    dense constructor and a closure is equal and hashes equal."""
    p = 5
    A, B = std_matrix(p, "A"), std_matrix(p, "B")
    z = CycNum.zeta(p)
    G = closure([A, B])
    routes = [
        (B * A, (A * B).scalar_mul(z)),
        (A ** p, CycMatrix.identity(p, p)),
        (B.conj_transpose(), B ** (p - 1)),
        ((A * B).conj_transpose().conj_transpose(), A * B),
        (CycMatrix.from_rows(p, p, (A * B * B).rows),
         G.matrix(G.mult(G.index_of(A * B), G.index_of(B)))),
        (std_matrix(p, "sigma", k=p - 1), std_matrix(p, "tau").scalar_mul(
            CycNum.one(p) if legendre_symbol(p - 1, p) == 1 else -CycNum.one(p))),
    ]
    for x, y in routes:
        assert x is not y
        assert x == y and hash(x) == hash(y)
    assert len({x for x, _ in routes} | {y for _, y in routes}) == len(routes)


def test_exact_layer_checks_raise_value_error():
    """Shape and generator checks raise ValueError, which python -O keeps,
    not a bare assert, which it skips."""
    m = 3
    one, zero = CycNum.one(m), CycNum.zero(m)
    with pytest.raises(ValueError, match="2 rows given for a 3x3 matrix"):
        CycMatrix(3, m, [((0, one),), ((1, one),)])
    with pytest.raises(ValueError, match="rows of length 2"):
        CycMatrix.from_rows(2, m, [(one, zero), (one,)])
    with pytest.raises(ValueError, match="dimensions differ"):
        _ = CycMatrix.identity(2, m) * CycMatrix.identity(3, m)
    with pytest.raises(ValueError, match="at least one generator"):
        closure([])
    with pytest.raises(ValueError, match="lacks p\\^level torsion"):
        torus_extension_generators(3, 2, conductor=3)


def test_group_inverse_and_negative_power_policy():
    A = std_matrix(3, "A")
    with pytest.raises(ValueError):
        _ = A ** -1
    G = closure([A], expected=3)
    i = G.index_of(A)
    inv = G.matrix(G.inv(i))
    assert inv * A == CycMatrix.identity(3, A.m)


def test_torus_truncation_orders():
    # det-one torus at level n has order p^(n(p-1)); full torus p^(np)
    assert torus_extension_group(3, 1).order == 9 * 3
    assert torus_extension_group(3, 1, det_one=False).order == 27 * 3
    assert torus_extension_group(2, 2).order == 2 ** 2 * 2
    assert torus_extension_group(2, 2, det_one=False).order == 2 ** 4 * 2
    assert torus_extension_group(2, 3).order == 2 ** 3 * 2
    assert torus_extension_group(5, 1).order == 5 ** 4 * 5
    # 7 * 7^6 elements: refused from the order formula, before any closure
    with pytest.raises(CapExceeded, match="exceeds cap 20000"):
        torus_extension_group(7, 1)


def test_torus_membership_predicate():
    p, level = 3, 1
    gens = torus_extension_generators(p, level)
    for g in gens:
        assert in_truncated_torus_extension(g, p, level)
    A = std_matrix(p, "A")
    assert in_truncated_torus_extension(A, p, level)
    D = std_matrix(p, "D")
    # D is diagonal but not determinant-one, so it fails the det-one predicate
    assert not in_truncated_torus_extension(D, p, level)
    assert in_truncated_torus_extension(D, p, level, det_one=False)


def shift_stripping_membership(mat: CycMatrix, p: int, level: int, det_one: bool) -> bool:
    """The torus-extension predicate computed independently: strip the
    shift with a matrix power of B, then test the diagonal that is left."""
    perm = mat.permutation_part()
    if perm is None:
        return False
    shift = perm[0]
    if any(perm[i] != (i + shift) % p for i in range(p)):
        return False
    diag = mat * (std_matrix(p, "B", conductor=mat.m) ** ((p - shift) % p))
    if any(not diag.rows[i][j].is_zero for i in range(p) for j in range(p) if i != j):
        return False
    one = CycNum.one(mat.m)
    if any(diag.rows[i][i] ** (p ** level) != one for i in range(p)):
        return False
    return not det_one or mat.det() == one


@pytest.mark.parametrize("p,level", [(2, 2), (3, 1), (3, 2), (5, 1), (7, 1)])
def test_torus_membership_matches_shift_stripping(p, level):
    m = max(8, 2 ** level) if p == 2 else p ** level
    gam = closure([std_matrix(p, "A", conductor=m, det_one=(p == 2)),
                   std_matrix(p, "B", conductor=m, det_one=(p == 2))])
    mats = [gam.matrix(i) for i in range(gam.order)]
    mats += torus_extension_generators(p, level, conductor=m)
    mats += torus_extension_generators(p, level, det_one=False, conductor=m)
    if p == 2:
        mats += [std_matrix(2, "F", conductor=m), std_matrix(2, "H", conductor=m)]
    else:
        mats += [std_matrix(p, "D", conductor=m), std_matrix(p, "tau", conductor=m)]
    verdicts = set()
    for mat in mats:
        for det_one in (True, False):
            got = in_truncated_torus_extension(mat, p, level, det_one=det_one)
            assert got == shift_stripping_membership(mat, p, level, det_one)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_min_level():
    assert min_level(2) == 2
    assert min_level(3) == 1
    assert min_level(5) == 1
