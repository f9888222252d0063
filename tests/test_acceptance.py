"""Acceptance suite: ten criteria, one test and one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each criterion is an exact integer or structural identity; the only
tolerance anywhere in the package is the 1e-10 complex-embedding
cross-check inside the cyclotomic layer's own tests.  Runtime bounds are
asserted with wall-clock measurements around the bounded computation.
"""

from __future__ import annotations

import time

from fusionkit.cases import (
    AZ_PRIME_OF_INDEX,
    CaseConfig,
    VerificationReport,
    build_quaternion_normalizers,
    chain_classes,
    emit_decomposition,
    verify_az,
    verify_gamma,
    verify_rho,
)
from fusionkit.cyclo import CycNum
from fusionkit.extraspecial import (
    HeisenbergGroup,
    aut_certificate,
    commuting_pair_scan,
    heisenberg_semidirect,
    section_perms,
    smallest_primitive_root,
)
from fusionkit.fingroup import (
    automorphism_group,
    cyclic_group,
    generated_subgroup,
    group_from_json_dict,
    group_to_json_dict,
    hom_by_generators,
    mat2_group,
    sesverify,
    symmetric_group,
)
from fusionkit.matgroup import closure, std_matrix

def inner_perms(gam: HeisenbergGroup) -> list[tuple[int, ...]]:
    """Inn(Gamma) as permutations of Gamma's indices: conjugation by
    a^u b^v at u*p + v, multiplied out in Gamma."""
    out = []
    for g in (gam.encode(0, u, v) for u in range(gam.p) for v in range(gam.p)):
        g_inv = gam.inv(g)
        out.append(tuple(gam.mult(gam.mult(g, x), g_inv) for x in range(gam.order)))
    return out


def verdict(num: int, message: str) -> None:
    print("criterion %02d: PASS - %s" % (num, message))


def passed_ids(rep: VerificationReport) -> set[str]:
    return {c.check_id for c in rep.checks if c.status == "pass"}


def test_criterion_01_gamma_structure():
    timings = {}
    for p in (2, 3, 5, 7):
        start = time.perf_counter()
        det_one = p == 2
        A = std_matrix(p, "A", det_one=det_one)
        B = std_matrix(p, "B", det_one=det_one)
        G = closure([A, B], cap=4 * p ** 3)
        assert G.order == p ** 3
        m = A.m
        z = CycNum.zeta(m, m // p)
        # commutator convention: B A = zeta (A B), i.e. [A, B] = zeta^{-1} I
        assert B * A == (A * B).scalar_mul(z)
        timings[p] = time.perf_counter() - start
        assert timings[p] < 1.0, "p = %d took %.2fs" % (p, timings[p])
    verdict(1, "closure order p^3 and commutator form at p = 2, 3, 5, 7 "
               "(max %.2fs)" % max(timings.values()))


def test_criterion_02_rho_splitting():
    relation_ids = {
        "rho.d_power",
        "rho.d_fixes_clock",
        "rho.d_shift",
        "rho.sigma_clock",
        "rho.sigma_shift",
        "rho.sigma_d",
        "rho.sigma_multiplicative",
    }
    for p in (3, 5, 7):
        start = time.perf_counter()
        cfg = CaseConfig("sup", p)
        rep = VerificationReport(cfg)
        gam, _, coords = verify_gamma(cfg, rep)
        verify_rho(cfg, rep, gam, coords)
        ok = passed_ids(rep)
        assert relation_ids <= ok, relation_ids - ok
        assert "rho.image_order" in ok
        assert "rho.induced_coordinates" in ok
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, "p = %d took %.2fs" % (p, elapsed)
        # the image order witness is p(p-1)
        chk = next(c for c in rep.checks if c.check_id == "rho.image_order")
        assert chk.witness["order"] == p * (p - 1)
    verdict(2, "seven relations, image order p(p-1), induced matrices at "
               "p = 3, 5, 7")


def _chain_normalizer_group(p: int):
    A = std_matrix(p, "A")
    B = std_matrix(p, "B")
    D = std_matrix(p, "D")
    S = std_matrix(p, "sigma", k=smallest_primitive_root(p))
    return closure([A, B, D, S], expected=p ** 4 * (p - 1)), (A, B)


def test_criterion_03_chain_normalizer():
    for p, expect in ((3, 162), (5, 2500)):
        n_chain, (A, B) = _chain_normalizer_group(p)
        assert n_chain.order == expect
        gam = closure([A, B], expected=p ** 3)
        members = sorted(n_chain.index_of(gam.matrix(i)) for i in range(gam.order))
        ses = sesverify(n_chain, generated_subgroup(n_chain, members),
                        Q_expected=mat2_group(p, "USL"))
        assert ses.is_normal
        assert ses.quotient_iso is not None
        assert ses.split is True and ses.complement is not None
    verdict(3, "order 162 and 2500, core normal, quotient U(SL2), split "
               "complement found")


def test_criterion_03_extended_p7():
    start = time.perf_counter()
    n_chain, (A, B) = _chain_normalizer_group(7)
    assert n_chain.order == 7 ** 4 * 6
    gam = closure([A, B], expected=343)
    members = sorted(n_chain.index_of(gam.matrix(i)) for i in range(gam.order))
    ses = sesverify(n_chain, generated_subgroup(n_chain, members),
                    Q_expected=mat2_group(7, "USL"))
    assert ses.split is True
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    verdict(3, "extended: p = 7 chain normalizer in %.1fs" % elapsed)


def primitive_scaling(p: int) -> tuple[int, int, int, int]:
    g = smallest_primitive_root(p)
    return (g, 0, 0, pow(g, -1, p))


def test_criterion_04_full_normalizer():
    for p in (3, 5):
        full = heisenberg_semidirect(p, "SL")
        assert full.order == p ** 4 * (p * p - 1)
        chain = heisenberg_semidirect(p, "USL")
        gam = HeisenbergGroup(p)
        usl = mat2_group(p, "USL")
        sl = mat2_group(p, "SL")
        gens = [chain.encode(gam.a_index, usl.identity),
                chain.encode(gam.b_index, usl.identity)]
        imgs = [full.encode(gam.a_index, sl.identity),
                full.encode(gam.b_index, sl.identity)]
        for M in ((1, 2, 0, 1), primitive_scaling(p)):
            gens.append(chain.encode(gam.identity, usl.index[M]))
            imgs.append(full.encode(gam.identity, sl.index[M]))
        f = hom_by_generators(chain, full, gens, imgs)
        assert f is not None
        assert len(set(f)) == chain.order
        assert full.order == (p + 1) * chain.order
    assert heisenberg_semidirect(3, "SL").order == 648
    verdict(4, "orders p^4(p^2-1) with the chain normalizer at index p+1 "
               "(648 at p = 3)")


def test_criterion_05_p2_suite():
    start = time.perf_counter()
    A = std_matrix(2, "A", det_one=True)
    B = std_matrix(2, "B", det_one=True)
    F = std_matrix(2, "F")
    H = std_matrix(2, "H")
    q16 = closure([A, B, F], expected=16)
    assert q16.order == 16
    q8 = closure([A, B], expected=8)
    members = sorted(q16.index_of(q8.matrix(i)) for i in range(q8.order))
    ses = sesverify(q16, generated_subgroup(q16, members), Q_expected=cyclic_group(2))
    assert ses.split is False and ses.exhausted
    o48 = closure([A, B, F, H], expected=48)
    assert o48.order == 48
    cfg = CaseConfig("sup", 2)
    rep = VerificationReport(cfg)
    build_quaternion_normalizers(cfg, rep)
    ok = passed_ids(rep)
    assert {"normalizer.q16_recognize", "normalizer.o48_recognize"} <= ok
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "took %.2fs" % elapsed
    verdict(5, "Q16 with no complement, O48 of order 48 (%.2fs)" % elapsed)


def test_criterion_06_aut_oracle():
    expected = {2: 24, 3: 432, 5: 12000, 7: 98784}
    for p, count in expected.items():
        assert count == p ** 3 * (p - 1) * (p * p - 1)
        assert count == (p - 1) * p ** 3 * (p * p - 1)

    # p = 2: brute-force backtracking over generator images of Q8
    A = std_matrix(2, "A", det_one=True)
    B = std_matrix(2, "B", det_one=True)
    q8 = closure([A, B], expected=8)
    assert commuting_pair_scan(q8) == 24
    aut2 = automorphism_group(q8)
    assert aut2.order == 24
    inner2 = {
        aut2.index[aut2.key([q8.mult(q8.mult(g, x), q8.inv(g)) for x in range(8)])]
        for g in range(8)
    }
    ses2 = sesverify(aut2, generated_subgroup(aut2, sorted(inner2)),
                     Q_expected=mat2_group(2, "SL"))
    assert ses2.split is True

    # p = 3: materialized automorphism group with an explicit GL2 complement
    gam3 = HeisenbergGroup(3)
    aut3 = automorphism_group(gam3)
    assert aut3.order == 432
    gl3 = mat2_group(3, "GL")
    section = {aut3.index[aut3.key(q)] for q in section_perms(gam3, gl3)}
    inner = {aut3.index[aut3.key(q)] for q in inner_perms(gam3)}
    assert len(section) == 48 and aut3.identity in section
    assert section & inner == {aut3.identity}
    ses3 = sesverify(aut3, generated_subgroup(aut3, sorted(inner)), Q_expected=gl3)
    assert ses3.is_normal and ses3.quotient_iso is not None
    assert ses3.split is True

    # p = 5, 7: the coordinate-section certificate is the complement witness
    start7 = time.perf_counter()
    for p in (5, 7):
        cert = aut_certificate(p)
        assert cert.ok
        assert cert.scan_count == expected[p]
        assert cert.intersection_trivial and cert.section_is_gl2_image
        assert cert.product_equals_scan
    elapsed7 = time.perf_counter() - start7
    assert elapsed7 < 60.0, "p = 5 and 7 certificates took %.1fs" % elapsed7
    verdict(6, "counts 24/432/12000/98784 equal both formulas; split onto "
               "GL2 witnessed (p = 5, 7 in %.1fs)" % elapsed7)


def test_criterion_07_adams_matrix():
    for index, p in sorted(AZ_PRIME_OF_INDEX.items()):
        cfg = CaseConfig("az", p, az_index=index)
        rep = VerificationReport(cfg)
        gam, _, coords = verify_gamma(cfg, rep)
        verify_rho(cfg, rep, gam, coords)
        verify_az(cfg, rep)
        ok = passed_ids(rep)
        need = {"az.adams_shape", "az.adams_automorphism", "az.adams_extends"}
        assert need <= ok, (index, need - ok)
    verdict(7, "the power map extends to an automorphism with "
               "upper-triangular image of determinant xi in all four cases")


def test_criterion_08_az_products():
    for p in (3, 5):
        assert heisenberg_semidirect(p, "UGL").order == p ** 4 * (p - 1) ** 2
        assert heisenberg_semidirect(p, "GL").order == p ** 4 * (p - 1) * (p * p - 1)
    for index in (12, 29, 31):
        p = AZ_PRIME_OF_INDEX[index]
        cfg = CaseConfig("az", p, az_index=index)
        rep = VerificationReport(cfg)
        out = emit_decomposition(cfg, rep)
        col = out["collapsed"]
        assert sorted(col.nodes) == ["gamma", "gamma_s", "t"]
        assert sorted((s, t) for s, t, _ in col.edges) == [
            ("gamma_s", "gamma"),
            ("gamma_s", "t"),
        ]
        assert rep.all_ok
    verdict(8, "semidirect orders p^4(p-1)^2 and p^4(p-1)(p^2-1); "
               "three-node pushout emitted")


def test_criterion_09_fusion_engine_on_s4():
    from test_fusion import oracle_poset
    from fusionkit.fusion import FusionData

    start = time.perf_counter()
    # table input: round-trip the group through its serialized table
    doc = group_to_json_dict(symmetric_group(4), prime=2)
    G, p = group_from_json_dict(doc)
    assert p == 2
    fd = FusionData(G, p)
    poset = fd.sd_poset()
    classes, edges = oracle_poset(fd)
    assert len(poset.rows) == len(classes) == 3
    # row i is oracle class i, which oracle_poset numbers as the engine does
    for i, (row, cls) in enumerate(zip(poset.rows, classes)):
        assert row["id"] == "c%d" % i
        assert row["class_size"] == len(cls)
        assert row["chain_orders"] == [len(m) for m in min(cls)]
    lib_edges = {(int(s[1:]), int(t[1:])) for s, t, _ in poset.edges}
    assert lib_edges == edges

    for chain in fd.chains():
        rep = fd.chain_aut(chain)
        assert rep.aut_l_order == rep.z_order * rep.aut_f_order
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, "took %.2fs" % elapsed
    verdict(9, "poset matches the exhaustive oracle and the order identity "
               "holds on every chain (%.2fs)" % elapsed)


def test_criterion_10_poset_shape():
    for p in (5, 7):
        cfg = CaseConfig("sup", p)
        rows, _ = chain_classes(cfg)
        assert len(rows) == 5
        rep = VerificationReport(cfg)
        out = emit_decomposition(cfg, rep)
        w = out["poset"]
        assert sorted(w.nodes) == ["gamma", "gamma_s", "s", "t", "t_s"]
        iso = [(s, t) for s, t, a in w.edges if a.get("iso")]
        assert iso == [("t_s", "s")]
        col = out["collapsed"]
        assert sorted(col.nodes) == ["gamma", "gamma_s", "t"]
        assert rep.all_ok
    for p in (2, 3):
        cfg = CaseConfig("sup", p)
        assert len(chain_classes(cfg)[0]) == 3
        rep = VerificationReport(cfg)
        out = emit_decomposition(cfg, rep)
        assert out["poset"] is None
        assert sorted(out["collapsed"].nodes) == ["gamma", "gamma_s", "t"]
        assert rep.all_ok
    verdict(10, "five classes in a W at p >= 5 collapsing to three; three "
                "classes directly at p = 2, 3")
