"""Coordinate model of the extraspecial group and its automorphisms.

The pairwise composition law of the linear-substitution sections is the
load-bearing fact: it makes the section a genuine homomorphism from the
2x2 matrix group into the automorphism group, which the semidirect
constructions and the counting certificate both rest on.
"""

from __future__ import annotations

import random
from dataclasses import fields

import pytest

from fusionkit import extraspecial
from fusionkit.cases import AZ_PRIME_OF_INDEX, CaseConfig, d_sigma_matrices, run_suite
from fusionkit.extraspecial import (
    AutCertificate,
    HeisenbergGroup,
    aut_certificate,
    commuting_pair_scan,
    half_inverse,
    heisenberg_semidirect,
    inner_pair,
    pair_compose,
    pair_image,
    primitive_scaling_matrix,
    section_pair,
    section_perm,
    section_perms,
    section_walk,
)
from fusionkit.fingroup import (
    PermGroup,
    automorphism_group,
    center,
    cyclic_group,
    greedy_generators,
    hom_by_generators,
    mat2_group,
    perm_closure,
    sesverify,
    smallest_primitive_root,
    spot_check_associativity,
    symmetric_group,
)
from fusionkit.matgroup import closure, std_matrix
from test_acceptance import inner_perms


def test_heisenberg_structure():
    for p in (3, 5, 7):
        G = HeisenbergGroup(p)
        assert G.order == p ** 3
        assert spot_check_associativity(G)
        assert center(G) == tuple(sorted(G.central_indices()))
        assert all(G.element_order(x) == p for x in range(1, G.order))
        # defining commutator: [a, b] is the central generator
        a, b = G.a_index, G.b_index
        comm = G.mult(G.mult(a, b), G.mult(G.inv(a), G.inv(b)))
        assert comm in G.central_indices() and comm != G.identity


@pytest.mark.parametrize("p", [3, 5, 7])
def test_coordinate_table_matches_defining_formula(p):
    G = HeisenbergGroup(p)

    def coords(x):  # the encoding (c*p + i)*p + j, undone by divmod
        rest, j = divmod(x, p)
        c, i = divmod(rest, p)
        return c, i, j

    for x in range(G.order):
        c, i, j = coords(x)
        assert G.decode(x) == (c, i, j)
        assert G.encode(*G.decode(x)) == x
        assert coords(G.inv(x)) == ((i * j - c) % p, -i % p, -j % p)
        for y in range(G.order):
            c2, i2, j2 = coords(y)
            assert coords(G.mult(x, y)) == ((c + c2 + j * i2) % p, (i + i2) % p, (j + j2) % p)


def test_half_inverse():
    for p in (3, 5, 7, 11):
        assert (2 * half_inverse(p)) % p == 1


def test_section_composition_law():
    # f_M o f_N = f_{M N}, checked for every ordered pair in SL2(F3)
    gam = HeisenbergGroup(3)
    H = mat2_group(3, "SL")
    perms = section_perms(gam, H)
    for x in range(H.order):
        for y in range(H.order):
            comp = tuple(perms[x][perms[y][i]] for i in range(gam.order))
            assert comp == perms[H.mult(x, y)]


def test_section_identity_and_bijectivity():
    gam = HeisenbergGroup(5)
    ident = section_perm(gam, (1, 0, 0, 1))
    assert ident == tuple(range(gam.order))
    f = section_perm(gam, (2, 0, 0, 3))
    assert sorted(f) == list(range(gam.order))


def _section_perm_per_element(gam, M):
    """f_M evaluated element by element from the defining formula."""
    p = gam.p
    m00, m01, m10, m11 = M
    det = (m00 * m11 - m01 * m10) % p
    h = half_inverse(p)
    out = []
    for x in range(gam.order):
        c, i, j = gam.decode(x)
        s = h * (m00 * m10 * i * i + m01 * m11 * j * j) + m10 * m01 * i * j
        out.append(gam.encode(det * c + s, m00 * i + m01 * j, m10 * i + m11 * j))
    return tuple(out)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_section_perm_matches_per_element_formula(p):
    gam = HeisenbergGroup(p)
    for M in mat2_group(p, "GL").elements:
        assert section_perm(gam, M) == _section_perm_per_element(gam, M)


def test_section_rejects_singular_matrices():
    gam = HeisenbergGroup(3)
    with pytest.raises(AssertionError):
        section_perm(gam, (1, 2, 2, 4))


def test_sections_are_automorphisms():
    gam = HeisenbergGroup(3)
    for M in ((1, 1, 0, 1), (0, 2, 1, 0), (2, 0, 0, 2)):
        f = section_perm(gam, M)
        for x in range(gam.order):
            for y in range(gam.order):
                assert f[gam.mult(x, y)] == gam.mult(f[x], f[y])


def test_inner_perms_form_a_subgroup_of_size_p_squared():
    for p in (3, 5):
        gam = HeisenbergGroup(p)
        perms = inner_perms(gam)
        assert len(set(perms)) == p * p
        G = perm_closure(perms)
        assert G.order == p * p
        # each inner pair evaluates to the conjugation multiplied out
        assert perms == [_pair_perm(gam, inner_pair(p, u, v)) for u in range(p) for v in range(p)]


def test_commuting_pair_scan_matches_formulas():
    for p in (3, 5):
        gam = HeisenbergGroup(p)
        scan = commuting_pair_scan(gam)
        assert scan == p ** 3 * (p - 1) * (p * p - 1)
        assert scan == (p ** 3 - p) * (p ** 3 - p * p)


def noncommuting_ordered_pairs(G) -> int:
    """#{(a, b) : [a, b] != e}, forming every commutator."""
    count = 0
    for a in range(G.order):
        ai = G.inv(a)
        for b in range(G.order):
            if G.mult(G.mult(a, b), G.mult(ai, G.inv(b))) != G.identity:
                count += 1
    return count


@pytest.mark.parametrize("name", ["Heis3", "Heis5", "Heis7", "S4", "Q8", "C12"])
def test_commuting_pair_scan_matches_every_commutator(name):
    if name.startswith("Heis"):
        G = HeisenbergGroup(int(name[-1]))
    elif name == "S4":
        G = symmetric_group(4)
    elif name == "C12":
        G = cyclic_group(12)
    else:
        G = closure([std_matrix(2, "A", det_one=True), std_matrix(2, "B", det_one=True)],
                    expected=8)
    # |G|^2 - |G| * (number of conjugacy classes)
    expect = {"Heis3": 432, "Heis5": 12000, "Heis7": 98784, "S4": 456, "Q8": 24,
              "C12": 0}[name]
    assert noncommuting_ordered_pairs(G) == expect
    assert commuting_pair_scan(G) == expect


def test_aut_certificate_odd_primes():
    for p, expect in ((3, 432), (5, 12000)):
        cert = aut_certificate(p)
        assert cert.ok
        assert cert.scan_count == expect
        assert cert.closed_formula == expect == cert.factored_formula
        assert cert.inner_order == p * p
        assert cert.section_order == p * (p * p - 1) * (p - 1)
        assert cert.intersection_trivial and cert.closure_matches
        assert cert.section_is_gl2_image and cert.product_equals_scan


def _two_pass_certificate(p: int) -> dict:
    """The certificate's fields by the earlier route: the sections of the
    greedy generators closed with perm_closure, and a hom_by_generators
    check onto the PermGroup of all sections.  A corrupted section that
    breaks either construction counts as a failed check.  The automorphism
    test multiplies out every pair of Gamma for each generator's section,
    and the permutation that each inner pair evaluates to is compared with
    its conjugation multiplied out."""
    gam = HeisenbergGroup(p)
    H = mat2_group(p, "GL")
    perms = extraspecial.section_perms(gam, H)
    distinct = len(set(perms)) == H.order
    gl_gens = greedy_generators(H)
    try:
        closure_set = set(map(tuple, perm_closure([perms[g] for g in gl_gens], cap=H.order).perms))
        closure_matches = distinct and closure_set == set(perms)
    except RuntimeError:  # more than |H| elements
        closure_matches = False
    try:
        iso = hom_by_generators(H, PermGroup(perms), gl_gens, gl_gens)
        section_is_gl2_image = iso is not None and len(set(iso)) == len(iso)
    except (AssertionError, KeyError):  # duplicate section, or product missing
        section_is_gl2_image = False
    automorphic = all(
        sorted(f) == list(range(gam.order))
        and all(f[gam.mult(x, y)] == gam.mult(f[x], f[y])
                for x in range(gam.order) for y in range(gam.order))
        for f in (perms[g] for g in gl_gens)
    )
    inner = [_pair_perm(gam, extraspecial.inner_pair(p, u, v)) for u in range(p) for v in range(p)]
    conjugations = inner_perms(gam)
    scan = noncommuting_ordered_pairs(gam)
    return {
        "p": p,
        "scan_count": scan,
        "closed_formula": p ** 3 * (p - 1) * (p * p - 1),
        "factored_formula": (p ** 3 - p) * (p ** 3 - p * p),
        "inner_order": len(set(inner)),
        "section_order": H.order,
        "intersection_trivial": set(perms) & set(inner) == {tuple(range(gam.order))},
        "closure_matches": closure_matches,
        "section_is_gl2_image": section_is_gl2_image,
        "product_equals_scan": len(set(inner)) * H.order == scan,
        "sections_are_automorphisms": automorphic,
        "inner_are_conjugations": inner == conjugations,
    }


def _certificate_fields(cert: AutCertificate) -> dict:
    return {f.name: getattr(cert, f.name) for f in fields(cert) if f.compare}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_aut_certificate_matches_two_pass_route(p):
    cert = aut_certificate(p)
    old = _two_pass_certificate(p)
    assert _certificate_fields(cert) == old
    assert cert.ok and AutCertificate(**old).ok


def _failed_fields(cert: AutCertificate) -> list[str]:
    return [f.name for f in fields(cert) if getattr(cert, f.name) is False]


def _walk_generators(p: int) -> list[tuple[int, int, int, int]]:
    """The matrices aut_certificate walks GL2(F_p) from."""
    return [primitive_scaling_matrix(p), (p - 1, 1, p - 1, 0)]


def _pair_perm(gam, pair):
    """The map pair_image evaluates from a pair, on every index."""
    return tuple(gam.encode(*pair_image(gam.p, pair, w)) for w in gam.coords)


# the automorphism that swaps a and b (z to z^-1), as its pair
SWAP_AB = ((0, 0, 1), (0, 1, 0))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("corruption", ["swap", "copy", "twist"])
def test_corrupted_section_fails_both_routes(p, corruption, monkeypatch):
    H = mat2_group(p, "GL")
    gens = _walk_generators(p)
    # the pair of one matrix that is neither I nor a walk generator, so the
    # walk still reaches every matrix: its two images swapped, or a
    # generator's pair, or z times its image of a.  The twist is an inner
    # automorphism after f_M: no section's pair, so only the composition
    # law can catch it.  The two-pass route sees the map that the
    # corrupted pair evaluates to.
    k = next(x for x in range(H.order) if x != H.identity and H.elements[x] not in gens)
    target = H.elements[k]
    real_pair, build_perms = extraspecial.section_pair, extraspecial.section_perms

    def corrupted_pair(q, M):
        if M != target:
            return real_pair(q, M)
        (c, i, j), v = real_pair(q, M)
        return {"swap": (v, (c, i, j)), "copy": real_pair(q, gens[0]),
                "twist": (((c + 1) % q, i, j), v)}[corruption]

    def corrupted_perms(gam, H):
        perms = build_perms(gam, H)
        perms[k] = _pair_perm(gam, corrupted_pair(gam.p, target))
        return perms

    assert corrupted_pair(p, target) != real_pair(p, target)
    monkeypatch.setattr(extraspecial, "section_pair", corrupted_pair)
    monkeypatch.setattr(extraspecial, "section_perms", corrupted_perms)
    cert = aut_certificate(p)
    assert _failed_fields(cert) == ["closure_matches", "section_is_gl2_image"] and not cert.ok
    assert not AutCertificate(**_two_pass_certificate(p)).ok


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("uv", [(0, 0), (1, 0), (0, 1), (2, 1), "column"])
def test_corrupted_inner_permutation_fails_both_routes(p, uv, monkeypatch):
    # the inner pair of (u, v) with its two images swapped: the identity,
    # whose swap is the section of [[0, 1], [1, 0]], a generating
    # conjugation, or one that only the edge equations reach.  "column"
    # puts the automorphism swapping a and b after every inner(u, 2) at
    # once, which keeps inner(u+1, 2) = inner(u, 2) o inner(1, 0) and breaks
    # only the equations inner(0, v+1) = inner(0, v) o inner(0, 1) at v = 1
    # and 2.  The two-pass route sees the maps the pairs evaluate to.
    real = extraspecial.inner_pair

    def corrupted(q, u, v):
        f = real(q, u, v)
        if uv == "column":
            return pair_compose(q, SWAP_AB, f) if v == 2 else f
        return f[::-1] if (u, v) == uv else f

    monkeypatch.setattr(extraspecial, "inner_pair", corrupted)
    cert = aut_certificate(p)
    want = ["intersection_trivial"] if uv == (0, 0) else []
    assert _failed_fields(cert) == want + ["inner_are_conjugations"] and not cert.ok
    assert not AutCertificate(**_two_pass_certificate(p)).ok


@pytest.mark.parametrize("p", [3, 5])
def test_inner_permutation_equal_to_a_section_breaks_the_intersection(p, monkeypatch):
    # inner(1, 1) replaced by the section of a transvection, which the
    # sections' pairs then meet outside the identity
    real = extraspecial.inner_pair
    monkeypatch.setattr(extraspecial, "inner_pair", lambda q, u, v: (
        section_pair(q, (1, 1, 0, 1)) if (u, v) == (1, 1) else real(q, u, v)))
    cert, old = aut_certificate(p), _two_pass_certificate(p)
    assert not cert.intersection_trivial and not old["intersection_trivial"]
    assert _failed_fields(cert) == ["intersection_trivial", "inner_are_conjugations"]
    assert not cert.ok and not AutCertificate(**old).ok


def test_inner_permutations_must_be_conjugations(monkeypatch):
    # the inner pairs with (u, v) read as (v, u): Inn(Gamma) is abelian, so
    # these p^2 pairs pass the edge equations and meet the sections only in
    # the identity, but (1, 0) is conjugation by b, not by a
    real = extraspecial.inner_pair
    monkeypatch.setattr(extraspecial, "inner_pair", lambda q, u, v: real(q, v, u))
    cert = aut_certificate(3)
    assert cert.inner_order == 9 and cert.intersection_trivial and cert.product_equals_scan
    assert _failed_fields(cert) == ["inner_are_conjugations"] and not cert.ok
    assert not AutCertificate(**_two_pass_certificate(3)).ok


def test_non_automorphic_generator_section_fails(monkeypatch):
    # the walk generator diag(xi, 1) gets the pair (u, z*u): its images are
    # dependent modulo Z(Gamma), so the homomorphism they extend to is no
    # bijection
    real, g = extraspecial.section_pair, primitive_scaling_matrix(3)

    def corrupted(p, M):
        u, v = real(p, M)
        return (u, ((u[0] + 1) % p, u[1], u[2])) if M == g else (u, v)

    monkeypatch.setattr(extraspecial, "section_pair", corrupted)
    cert = aut_certificate(3)
    assert _failed_fields(cert) == ["closure_matches", "section_is_gl2_image",
                                    "sections_are_automorphisms"]
    assert not cert.sections_are_automorphisms and not cert.ok


@pytest.mark.parametrize("p", [3, 5, 7])
def test_walk_generator_short_of_gl2_fails(p, monkeypatch):
    # diag(xi^2, 1) in place of diag(xi, 1): every determinant the walk
    # reaches is a square, so it stops short of GL2(F_p), and its pairs
    # still compose as the matrices do
    real = extraspecial.primitive_scaling_matrix
    monkeypatch.setattr(extraspecial, "primitive_scaling_matrix",
                        lambda q: (real(q)[0] ** 2 % q, 0, 0, 1))
    cert = aut_certificate(p)
    assert _failed_fields(cert) == ["closure_matches", "section_is_gl2_image"]
    assert not cert.split and not cert.ok


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("kind", ["GL", "SL", "USL", "UGL"])
def test_section_walk_reaches_the_group_with_its_section_pairs(p, kind):
    """The walk from generators of each 2x2 group: it reaches exactly the
    elements of mat2_group, each with its section_pair, and certifies the
    composition law, which test_section_composition_law checks in full.
    From generators of a proper subgroup it reaches that subgroup and
    certifies nothing."""
    xi = smallest_primitive_root(p)
    usl = list(d_sigma_matrices(p, xi))
    gens = {"GL": _walk_generators(p), "SL": [(1, 1, 0, 1), (1, 0, 1, 1)], "USL": usl,
            "UGL": usl + [primitive_scaling_matrix(p)]}[kind]
    H = mat2_group(p, kind)
    pairs, certified = section_walk(H, gens)
    assert certified and list(pairs)[0] == (1, 0, 0, 1)
    assert sorted(pairs) == H.elements
    assert all(pair == section_pair(p, M) for M, pair in pairs.items())
    pairs, certified = section_walk(H, gens[1:])
    assert not certified and len(pairs) < H.order


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pair_evaluation_matches_section_perm(p):
    gam = HeisenbergGroup(p)
    for M in mat2_group(p, "GL").elements:
        assert _pair_perm(gam, section_pair(p, M)) == section_perm(gam, M)


def test_az_suite_builds_the_sections_once(monkeypatch):
    # the certificate holds pairs, and az.chain_order reads |Gamma| |UGL2|
    # without building the chain product, so no section is built in full
    calls = []
    build = extraspecial.section_perms

    def counted(gam, H):
        calls.append(H.kind)
        return build(gam, H)

    monkeypatch.setattr(extraspecial, "section_perms", counted)
    assert run_suite(CaseConfig("az", 5, az_index=29)).all_ok
    assert calls == []


def test_aut_certificate_memory_at_p7():
    import tracemalloc

    # the groups it reads are built first, so only the certificate counts
    mat2_group(7, "GL")
    HeisenbergGroup(7)
    tracemalloc.start()
    try:
        cert = aut_certificate(7)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.ok
    assert kept <= 0.5e6 and peak < 1.5e6, (kept, peak)


def test_aut_group_materialized_at_p3():
    gam = HeisenbergGroup(3)
    A = automorphism_group(gam)
    assert A.order == 432


def _aut_ses(p: int):
    """The az.aut_ses check of the az suite at p."""
    index = min(i for i, q in AZ_PRIME_OF_INDEX.items() if q == p)
    rep = run_suite(CaseConfig("az", p, az_index=index))
    return next(c for c in rep.checks if c.check_id == "az.aut_ses")


def test_aut_ses_matches_the_materialized_group_at_p3():
    """The route az.aut_ses took at p = 3 before the certificate: Aut(Gamma)
    by backtracking, and sesverify of GL2(F3) over the inner
    automorphisms, with the sections of GL2's generators as hint."""
    gam, gl = HeisenbergGroup(3), mat2_group(3, "GL")
    aut = automorphism_group(gam)
    inner = sorted({aut.index[aut.key(f)] for f in inner_perms(gam)})
    hint = [aut.index[aut.key(section_perm(gam, gl.elements[h]))] for h in greedy_generators(gl)]
    ses = sesverify(aut, tuple(inner), Q_expected=gl, hint_lifts=hint)
    check = _aut_ses(3)
    assert ses.split is True and ses.quotient_iso is not None
    assert check.status == "pass" and aut_certificate(3).split
    assert check.witness == {"aut_order": aut.order} == {"aut_order": 432}


def test_aut_ses_order_is_the_closure_of_inner_and_sections_at_p5():
    # Inn(Gamma) x| GL2(F5), closed from the inner automorphisms by a and b
    # and the sections of GL2's generators
    gam, gl = HeisenbergGroup(5), mat2_group(5, "GL")
    inner = inner_perms(gam)
    gens = [inner[5], inner[1]]  # conjugation by a and by b: (u, v) = (1, 0) and (0, 1)
    gens += [section_perm(gam, gl.elements[h]) for h in greedy_generators(gl)]
    check = _aut_ses(5)
    assert check.status == "pass"
    assert perm_closure(gens).order == check.witness["aut_order"] == 12000


def test_semidirect_orders():
    p = 3
    assert heisenberg_semidirect(p, "SL").order == 27 * 24
    assert heisenberg_semidirect(p, "USL").order == 27 * 6
    assert heisenberg_semidirect(p, "GL").order == 27 * 48
    assert heisenberg_semidirect(p, "UGL").order == 27 * 12


def test_semidirect_is_a_group_with_normal_core():
    from fusionkit.fingroup import generated_subgroup, quotient

    G = heisenberg_semidirect(3, "USL")
    assert spot_check_associativity(G)
    core = [G.encode(n, G.H.identity) for n in range(27)]
    # quotient raises ValueError unless the core is normal
    assert quotient(G, generated_subgroup(G, core))[0].order == 6


@pytest.mark.parametrize("p", [3, 5])
def test_heisenberg_right_mult_matches_mult(p):
    G = HeisenbergGroup(p)
    for g in range(G.order):
        step = G.right_mult(g)
        assert [step(x) for x in range(G.order)] == [G.mult(x, g) for x in range(G.order)]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("kind", ["SL", "GL", "USL"])
def test_semidirect_right_mult_matches_mult(p, kind):
    """Every x against mult, for g over the chain embedding's four images,
    the identity and 20 seeded random elements."""
    G = heisenberg_semidirect(p, kind)
    N, H = G.N, G.H
    gs = [G.encode(N.a_index, H.identity), G.encode(N.b_index, H.identity)]
    gs += [G.encode(N.identity, H.index[M]) for M in d_sigma_matrices(p, smallest_primitive_root(p))]
    rng = random.Random(20261018)
    gs += [G.identity] + [rng.randrange(G.order) for _ in range(20)]
    for g in gs:
        step = G.right_mult(g)
        assert [step(x) for x in range(G.order)] == [G.mult(x, g) for x in range(G.order)]


def test_primitive_scaling_matrix():
    for p in (3, 5, 7):
        M = primitive_scaling_matrix(p)
        xi = M[0]
        assert M == (xi, 0, 0, 1)
        H = mat2_group(p, "GL")
        i = H.index[M]
        assert H.element_order(i) == p - 1
