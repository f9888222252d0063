"""Coordinate model of the extraspecial group and its automorphisms.

The pairwise composition law of the linear-substitution sections is the
load-bearing fact: it makes the section a genuine homomorphism from the
2x2 matrix group into the automorphism group, which the semidirect
constructions and the counting certificate both rest on.
"""

from __future__ import annotations

import pytest

from fusionkit.extraspecial import (
    HeisenbergGroup,
    aut_certificate,
    commuting_pair_scan,
    half_inverse,
    heisenberg_semidirect,
    inner_perm,
    inner_perms,
    primitive_scaling_matrix,
    section_perm,
    section_perms,
)
from fusionkit.fingroup import (
    automorphism_group,
    center,
    mat2_group,
    perm_closure,
    spot_check_associativity,
    symmetric_group,
)
from fusionkit.matgroup import closure, std_matrix


def test_heisenberg_structure():
    for p in (3, 5, 7):
        G = HeisenbergGroup(p)
        assert G.order == p ** 3
        assert spot_check_associativity(G)
        assert center(G).members == tuple(sorted(G.central_indices()))
        assert all(G.element_order(x) == p for x in range(1, G.order))
        # defining commutator: [a, b] is the central generator
        a, b = G.a_index, G.b_index
        comm = G.mult(G.mult(a, b), G.mult(G.inv(a), G.inv(b)))
        assert comm in G.central_indices() and comm != G.identity


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
        # conjugation by the generator with coordinates (1, 0) is one of them
        a = gam.a_index
        conj = tuple(gam.mult(gam.mult(a, x), gam.inv(a)) for x in range(gam.order))
        assert conj == inner_perm(gam, 1, 0)


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


@pytest.mark.parametrize("name", ["Heis3", "Heis5", "S4", "Q8"])
def test_commuting_pair_scan_matches_every_commutator(name):
    if name.startswith("Heis"):
        G = HeisenbergGroup(int(name[-1]))
    elif name == "S4":
        G = symmetric_group(4)
    else:
        G = closure([std_matrix(2, "A", det_one=True), std_matrix(2, "B", det_one=True)],
                    expected=8)
    # |G|^2 - |G| * (number of conjugacy classes)
    expect = {"Heis3": 432, "Heis5": 12000, "S4": 456, "Q8": 24}[name]
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


def test_aut_group_materialized_at_p3():
    gam = HeisenbergGroup(3)
    A = automorphism_group(gam)
    assert A.order == 432


def test_semidirect_orders():
    p = 3
    assert heisenberg_semidirect(p, "SL").order == 27 * 24
    assert heisenberg_semidirect(p, "USL").order == 27 * 6
    assert heisenberg_semidirect(p, "GL").order == 27 * 48
    assert heisenberg_semidirect(p, "UGL").order == 27 * 12


def test_semidirect_is_a_group_with_normal_core():
    from fusionkit.fingroup import is_normal, subgroup

    G = heisenberg_semidirect(3, "USL")
    assert spot_check_associativity(G)
    core = [G.encode(n, G.H.identity) for n in range(27)]
    assert is_normal(G, subgroup(G, core))


def test_primitive_scaling_matrix():
    for p in (3, 5, 7):
        M = primitive_scaling_matrix(p)
        xi = M[0]
        assert M == (xi, 0, 0, 1)
        H = mat2_group(p, "GL")
        i = H.index[M]
        assert H.element_order(i) == p - 1
