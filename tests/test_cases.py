"""End-to-end verification suites for the bundled case studies.

Frozen orders used here were first computed independently (BFS closures of
the generator matrices, semidirect products over the coordinate model) and
are re-derivable from the formulas in the module docstrings: chain
normalizer p^4(p-1), full normalizer p^4(p^2-1), and at p = 2 the orders
16 and 48.
"""

from __future__ import annotations

import pytest
from test_acceptance import _chain_normalizer_group

from fusionkit import cases, extraspecial, fingroup
from fusionkit.cases import (
    AZ_PRIME_OF_INDEX,
    CaseConfig,
    VerificationReport,
    all_configs,
    build_normalizers,
    chain_certificate,
    chain_classes,
    conjugation_by,
    d_sigma_matrices,
    emit_decomposition,
    gamma_matrices,
    run_suite,
    verify_gamma,
    verify_rho,
    weyl_op_trivial,
)
from fusionkit.cyclo import CycNum
from fusionkit.extraspecial import heisenberg_semidirect
from fusionkit.fingroup import (
    FiniteGroup,
    Mat2Group,
    SemidirectGroup,
    generated_subgroup,
    hom_by_generators,
    mat2_group,
    sesverify,
    smallest_primitive_root,
    symmetric_group,
)
from fusionkit.matgroup import CycMatrix, closure, in_truncated_torus_extension, std_matrix


def suite_ids(rep: VerificationReport) -> list[str]:
    return [c.check_id for c in rep.checks]


@pytest.mark.parametrize("cfg", all_configs(), ids=lambda c: "%s-%d-%s" % (c.case, c.prime, c.az_index))
def test_torus_extension_decided_on_generators(cfg):
    # gamma.in_torus_extension tests only A and B; S_level is a group, so
    # the verdict must be the one over every element of Gamma, on both
    # sides of the determinant condition
    A, B = gamma_matrices(cfg)
    gam = closure([A, B])
    assert len(all_configs()) == 12
    for det_one in (True, False):
        def member(x):
            return in_truncated_torus_extension(x, cfg.prime, cfg.level, det_one=det_one)

        on_gens = member(A) and member(B)
        assert on_gens == all(member(gam.matrix(i)) for i in range(gam.order))
        assert on_gens


def test_config_validation():
    with pytest.raises(ValueError):
        CaseConfig("sup", 11)
    with pytest.raises(ValueError):
        CaseConfig("az", 2)
    with pytest.raises(ValueError):
        CaseConfig("az", 5, az_index=12)  # index 12 belongs to p = 3
    with pytest.raises(ValueError):
        CaseConfig("sup", 3, az_index=12)
    with pytest.raises(ValueError):
        CaseConfig("sup", 3, level=5)
    with pytest.raises(ValueError):
        CaseConfig("sup", 2, level=1)  # p = 2 needs level >= 2
    with pytest.raises(ValueError):
        CaseConfig("az", 3)  # index is mandatory for az
    assert CaseConfig("az", 3, az_index=12).az_index == 12
    assert CaseConfig("sup", 2).conductor == 8
    assert CaseConfig("sup", 3, level=2).conductor == 9
    assert CaseConfig("up", 3).torus_det_one is False


def test_all_configs_cover_every_family():
    cfgs = all_configs()
    assert len(cfgs) == 12
    assert sum(1 for c in cfgs if c.case == "az") == 4
    assert {c.az_index for c in cfgs if c.case == "az"} == set(AZ_PRIME_OF_INDEX)


@pytest.mark.parametrize("case,p", [("sup", 2), ("sup", 3), ("up", 2), ("up", 3)])
def test_suite_small_primes(case, p):
    rep = run_suite(CaseConfig(case, p))
    assert rep.all_ok, rep.failed_ids()
    assert rep.counts()["fail"] == 0
    assert rep.counts()["skipped"] == 0


@pytest.mark.parametrize("case,p", [("sup", 5), ("up", 5)])
def test_suite_p5(case, p):
    rep = run_suite(CaseConfig(case, p))
    assert rep.all_ok, rep.failed_ids()


@pytest.mark.parametrize("case", ["sup", "up"])
def test_suite_p7_runs_the_tower(case):
    # the chain and full normalizer tower runs at p = 7 with no option
    rep = run_suite(CaseConfig(case, 7))
    assert rep.all_ok, rep.failed_ids()
    tower = [c.status for c in rep.checks
             if c.check_id.startswith(("normalizer.chain_", "normalizer.full_"))]
    assert tower == ["pass"] * 7
    assert rep.counts()["skipped"] == 0


@pytest.mark.parametrize("index", sorted(AZ_PRIME_OF_INDEX))
def test_suite_az(index):
    rep = run_suite(CaseConfig("az", AZ_PRIME_OF_INDEX[index], az_index=index))
    assert rep.all_ok, rep.failed_ids()


@pytest.mark.parametrize("case,p,level", [("sup", 3, 2), ("up", 2, 3), ("up", 3, 2), ("up", 5, 2),
                                          ("up", 7, 2)])
def test_suite_other_levels(case, p, level):
    rep = run_suite(CaseConfig(case, p, level=level))
    assert rep.all_ok, rep.failed_ids()
    if case == "up" and p != 2:
        # the scalar-extended core and chain normalizer are certified from
        # generators at every odd p: 81 and 486 at p = 3
        witness = {c.check_id: c.witness for c in rep.checks}
        assert [witness["normalizer.u_core_order"], witness["normalizer.u_chain_order"]] == [
            {"order": p ** (level + 2)}, {"order": p ** (level + 2) * p * (p - 1)}]


@pytest.mark.parametrize("p", [3, 5])
def test_scalar_extended_orders_match_the_closures(p):
    """The certified orders against the closures that the suite made at
    p = 3 before: <A, B, zI> (81 at p = 3, 625 at p = 5), and at p = 3
    <A, B, zI, D, sigma_g> (486)."""
    cfg = CaseConfig("up", p, level=2)
    A, B = gamma_matrices(cfg)
    zI = cases.scalar_matrix(cfg, p ** 2)
    witness = {c.check_id: c.witness for c in run_suite(cfg).checks}
    assert closure([A, B, zI]).order == witness["normalizer.u_core_order"]["order"] == p ** 4
    if p == 3:
        k_gens = [std_matrix(p, "D", conductor=cfg.conductor),
                  std_matrix(p, "sigma", k=smallest_primitive_root(p), conductor=cfg.conductor)]
        chain = closure([A, B, zI] + k_gens)
        assert chain.order == witness["normalizer.u_chain_order"]["order"] == 486


def _forbid_the_full_store(monkeypatch):
    """Make building a semidirect product or a p^3-point section tuple
    raise: the verify path reads each section as its generator pair."""
    def refuse(*args, **kwargs):
        raise AssertionError("the verify path builds no Gamma x| H and no section tuple")

    monkeypatch.setattr(SemidirectGroup, "__init__", refuse)
    monkeypatch.setattr(extraspecial, "section_perm", refuse)


@pytest.mark.parametrize("case,level", [("sup", 1), ("up", 1), ("up", 2)])
@pytest.mark.parametrize("p", [11, 13])
def test_suite_at_p11(monkeypatch, p, case, level):
    # every odd prime takes the one certified path; only the prime list of
    # the configurations stops at 7
    _forbid_the_full_store(monkeypatch)
    monkeypatch.setattr(cases, "SUPPORTED_PRIMES", cases.SUPPORTED_PRIMES + (p,))
    rep = run_suite(CaseConfig(case, p, level=level))
    assert rep.all_ok, rep.failed_ids()
    assert rep.counts() == {"pass": len(rep.checks), "fail": 0, "skipped": 0}


def test_chain_normalizer_orders_frozen():
    # p^4(p-1): 162 at p = 3 and 2500 at p = 5
    for p, expect in ((3, 162), (5, 2500)):
        A = std_matrix(p, "A")
        B = std_matrix(p, "B")
        D = std_matrix(p, "D")
        from fusionkit.fingroup import smallest_primitive_root

        S = std_matrix(p, "sigma", k=smallest_primitive_root(p))
        G = closure([A, B, D, S], expected=expect)
        assert G.order == expect == p ** 4 * (p - 1)


CHAIN_IDS = ("normalizer.chain_order", "normalizer.chain_normal", "normalizer.chain_quotient",
             "normalizer.chain_split", "normalizer.chain_embedding")


def _chain_inputs(p: int):
    """Gamma and its coords, verify_rho's K = <D, sigma_g> with its USL2
    verdict and the conjugates of Gamma's generators by K's, and the USL2
    matrices of K's generators, as build_normalizers passes them to
    chain_certificate at level 1."""
    cfg = CaseConfig("sup", p)
    rep = VerificationReport(cfg)
    gam, _, coords = verify_gamma(cfg, rep)
    rho = verify_rho(cfg, rep, gam, coords)
    k_usl = d_sigma_matrices(p, smallest_primitive_root(p))
    return gam, coords, rho, k_usl


@pytest.mark.parametrize("p", [3, 5, 7])
def test_chain_certificate_matches_the_enumerated_route(p):
    """The certificate against the route it replaced: close N, sesverify
    over it, and propagate the embedding over all of N.  Same order,
    verdicts, complement order and index; at p in {3, 5} f is the
    enumerated embedding element by element, into the semidirect product
    that the certificate reads through section pairs and never builds."""
    gam, coords, rho, k_usl = _chain_inputs(p)
    cert = chain_certificate(gam, coords, rho, k_usl)
    n_full = heisenberg_semidirect(p, "SL")

    n_chain, (A, B) = _chain_normalizer_group(p)
    a_i, b_i, d_i, sg_i = n_chain.generator_indices
    ses = sesverify(n_chain, generated_subgroup(n_chain, [a_i, b_i]),
                    Q_expected=mat2_group(p, "USL"), hint_lifts=[d_i, sg_i])
    hberg, sl = n_full.N, n_full.H
    emb = hom_by_generators(
        n_chain, n_full, n_chain.generator_indices,
        [n_full.encode(hberg.a_index, sl.identity), n_full.encode(hberg.b_index, sl.identity)]
        + [n_full.encode(hberg.identity, sl.index[M]) for M in k_usl],
    )
    embedded = emb is not None and len(set(emb)) == n_chain.order

    assert cert.order == n_chain.order == p ** 4 * (p - 1)
    verdicts = (cert.normal, cert.quotient, cert.complement_order > 0, cert.embedded)
    assert verdicts == (ses.is_normal, ses.quotient_iso is not None, ses.split is True, embedded)
    assert all(verdicts)
    assert cert.complement_order == len(ses.complement) == p * (p - 1)
    assert n_full.order // cert.order == n_full.order // n_chain.order == p + 1
    if p == 7:
        return
    K = cert.K
    seen = set()
    for x in range(gam.order):
        for k in range(K.order):
            i = n_chain.index_of(gam.matrix(x) * K.matrix(k))
            assert emb[i] == n_full.mult(n_full.encode(hberg.encode(*coords[x]), sl.identity),
                                         n_full.encode(hberg.identity, cert.f_k[k]))
            seen.add(i)
    assert len(seen) == n_chain.order


def _chain_statuses(monkeypatch, p, mutate):
    """The chain checks of run_suite when chain_certificate gets, in place
    of verify_rho's K = <D, sigma_g> and the USL2 matrices of D and
    sigma_g, the closure of k_gens and k_usl = mutate(K's generators,
    their USL2 matrices), with the conjugates of Gamma's generators by
    k_gens; the USL2 verdict is verify_rho's."""
    real = cases.chain_certificate

    def mutated(gam, coords, rho, k_usl):
        K, usl_ok, _ = rho
        k_gens, k_usl = mutate([K.matrix(k) for k in K.generator_indices], list(k_usl))
        gam_gens = [gam.matrix(i) for i in gam.generator_indices]
        k_conj = [[gam.index_of(c(x)) for x in gam_gens] for c in map(conjugation_by, k_gens)]
        return real(gam, coords, (closure(k_gens), usl_ok, k_conj), k_usl)

    monkeypatch.setattr(cases, "chain_certificate", mutated)
    rep = run_suite(CaseConfig("sup", p))
    status = {c.check_id: c.status for c in rep.checks}
    witness = {c.check_id: c.witness for c in rep.checks}
    return [status[i] for i in CHAIN_IDS], witness


def test_chain_certificate_unmutated_passes(monkeypatch):
    got, witness = _chain_statuses(monkeypatch, 5, lambda k, u: (k, u))
    assert got == ["pass"] * 5
    assert witness["normalizer.chain_order"] == {"order": 2500, "expected": 2500}
    assert witness["normalizer.chain_split"] == {"complement_order": 20}
    assert witness["normalizer.chain_embedding"] == {"index": 6}


def _swap12(p: int) -> CycMatrix:
    """The permutation matrix of the transposition (1 2) of the basis."""
    one, zero = CycNum.one(p), CycNum.zero(p)
    perm = [1, 0] + list(range(2, p))
    return CycMatrix.from_rows(p, p, [[one if j == perm[i] else zero for j in range(p)]
                                      for i in range(p)])


def test_chain_certificate_rejects_a_non_normalizing_generator(monkeypatch):
    # the transposition (1 2) conjugates A to diag(z, 1, ...), which lies
    # outside Gamma
    got, witness = _chain_statuses(monkeypatch, 5, lambda k, u: ([k[0], _swap12(5)], u))
    status = dict(zip(CHAIN_IDS, got))
    assert status["normalizer.chain_normal"] == "fail"
    assert status["normalizer.chain_order"] == "fail"
    assert status["normalizer.chain_embedding"] == "fail"
    assert witness["normalizer.chain_order"]["order"] is None
    assert witness["normalizer.chain_embedding"]["index"] is None


def test_chain_certificate_rejects_a_conjugate_of_k(monkeypatch):
    # K conjugated by (1 2) is still USL2, but it does not normalize
    # Gamma, so Gamma K is no group and N/Gamma is not K
    s = _swap12(5)
    got, _ = _chain_statuses(monkeypatch, 5, lambda k, u: ([s * x * s for x in k], u))
    assert got == ["fail"] * 5


def test_chain_certificate_rejects_a_complement_meeting_gamma(monkeypatch):
    # K = <D, sigma_g, A> holds A, so it meets Gamma and is no complement
    A = std_matrix(5, "A")
    got, witness = _chain_statuses(monkeypatch, 5, lambda k, u: (k + [A], u + [(1, 0, 0, 1)]))
    status = dict(zip(CHAIN_IDS, got))
    assert status["normalizer.chain_normal"] == "pass"
    assert status["normalizer.chain_split"] == "fail"
    assert witness["normalizer.chain_split"]["complement_order"] == 0
    assert witness["normalizer.chain_order"]["order"] is None


def test_chain_certificate_rejects_a_wrong_sl2_image(monkeypatch):
    # [[1,1],[0,1]] in place of D's [[1,2],[0,1]]: K is still USL2, but
    # conjugation by D is not the action of that matrix on Gamma
    got, witness = _chain_statuses(monkeypatch, 5, lambda k, u: (k, [(1, 1, 0, 1)] + u[1:]))
    assert got == ["pass", "pass", "pass", "pass", "fail"]
    assert witness["normalizer.chain_embedding"]["index"] is None


def test_chain_certificate_takes_the_usl2_verdict(monkeypatch):
    # a failed USL2 -> K certificate fails the quotient alone: K is still a
    # complement of Gamma, and N still embeds
    real = cases.chain_certificate
    monkeypatch.setattr(cases, "chain_certificate",
                        lambda gam, coords, rho, k_usl:
                        real(gam, coords, (rho[0], False, rho[2]), k_usl))
    assert run_suite(CaseConfig("sup", 5)).failed_ids() == ["normalizer.chain_quotient"]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_odd_tower_closes_nothing_past_gamma(monkeypatch, p):
    """The odd-p tower never closes the chain normalizer: build_normalizers
    takes Gamma and K from verify_gamma and verify_rho, and makes no
    closure at all and no sesverify call.  No step builds a semidirect
    product or a section tuple."""
    _forbid_the_full_store(monkeypatch)
    cfg = CaseConfig("sup", p)
    rep = VerificationReport(cfg)
    gam, _, coords = verify_gamma(cfg, rep)
    rho = verify_rho(cfg, rep, gam, coords)
    sizes, ses_calls = [], []
    real_closure = cases.closure

    def counted_closure(*args, **kwargs):
        G = real_closure(*args, **kwargs)
        sizes.append(G.order)
        return G

    monkeypatch.setattr(cases, "closure", counted_closure)
    monkeypatch.setattr(cases, "sesverify", lambda *a, **k: ses_calls.append(a))
    build_normalizers(cfg, rep, gam, coords, rho)
    assert rep.all_ok, rep.failed_ids()
    assert sizes == []
    assert ses_calls == []


@pytest.mark.parametrize("case", ["sup", "up"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_suite_builds_each_odd_p_object_once(monkeypatch, case, p):
    """Over one run_suite: one closure of <D, sigma_g>, one USL2 -> K
    certificate, and one centralizer scan of Gamma's generators (recognize
    scans its own center inside fingroup, which cases does not see)."""
    cfg = CaseConfig(case, p)
    k_gens = [std_matrix(p, "D", conductor=cfg.conductor),
              std_matrix(p, "sigma", k=smallest_primitive_root(p), conductor=cfg.conductor)]
    real_closure, real_hom, real_centralizer = cases.closure, cases.hom_by_generators, cases.centralizer
    k_closures, usl_homs, gen_scans = [], [], []

    def counted_closure(gens, *args, **kwargs):
        G = real_closure(gens, *args, **kwargs)
        if list(gens) == k_gens:
            k_closures.append(G.order)
        return G

    def counted_hom(G, H, gen_idx, img_idx):
        if getattr(G, "kind", None) == "USL":
            usl_homs.append(H.order)
        return real_hom(G, H, gen_idx, img_idx)

    def counted_centralizer(G, members, within=None):
        if list(members) == G.generator_indices:
            gen_scans.append(G.order)
        return real_centralizer(G, members, within)

    monkeypatch.setattr(cases, "closure", counted_closure)
    monkeypatch.setattr(cases, "hom_by_generators", counted_hom)
    monkeypatch.setattr(cases, "centralizer", counted_centralizer)
    rep = run_suite(cfg)
    assert rep.all_ok, rep.failed_ids()
    assert k_closures == usl_homs == [p * (p - 1)]
    assert gen_scans == [p ** 3]


def test_tau_dichotomy_in_reports():
    # tau itself is in the determinant-one group iff p = 1 mod 4
    for p in (3, 5, 7):
        rep = run_suite(CaseConfig("sup", p)) if p != 7 else None
        if rep is None:
            continue
        chk = next(c for c in rep.checks if c.check_id == "tau.su_dichotomy")
        assert chk.status == "pass"
        assert chk.witness["tau_has_det_one"] == (p % 4 == 1)


def test_q16_nonsplit_profile():
    from fusionkit.fingroup import cyclic_group, sesverify

    A = std_matrix(2, "A", det_one=True)
    B = std_matrix(2, "B", det_one=True)
    F = std_matrix(2, "F")
    q16 = closure([A, B, F], expected=16)
    q8 = closure([A, B], expected=8)
    members = sorted(q16.index_of(q8.matrix(i)) for i in range(q8.order))
    ses = sesverify(q16, generated_subgroup(q16, members), Q_expected=cyclic_group(2))
    assert ses.is_normal and ses.split is False and ses.exhausted
    # every lift of the nontrivial coset has order 4 or 8: no involution
    assert ses.lift_order_profiles == [{4: 4, 8: 4}]


def test_o48_order():
    A = std_matrix(2, "A", det_one=True)
    B = std_matrix(2, "B", det_one=True)
    F = std_matrix(2, "F")
    H = std_matrix(2, "H")
    assert closure([A, B, F, H], expected=48).order == 48


def test_encoded_classes_frozen():
    def orders(cfg):
        return [r["autL_order"] for r in chain_classes(cfg)[0]]

    assert orders(CaseConfig("sup", 2)) == [48, 16, 8]
    assert orders(CaseConfig("sup", 3)) == [648, 162, 54]
    rows5, edges5 = chain_classes(CaseConfig("sup", 5))
    assert [r["id"] for r in rows5] == ["gamma", "gamma_s", "s", "t_s", "t"]
    assert [r["chain"] for r in rows5] == [["Gamma"], ["Gamma", "S"], ["S"], ["T", "S"], ["T"]]
    assert orders(CaseConfig("sup", 5)) == [15000, 2500, 12500, 12500, 75000]
    assert [(s, t) for s, t, a in edges5 if a.get("iso")] == [("t_s", "s")]
    assert orders(CaseConfig("sup", 7)) == [
        115248, 14406, 4941258, 4941258, 592950960]
    # the table is what the diagrams carry
    for cfg in (CaseConfig("up", 3), CaseConfig("sup", 5), CaseConfig("az", 5, az_index=29)):
        out = emit_decomposition(cfg, VerificationReport(cfg))
        d = out["poset"] or out["collapsed"]
        for row in chain_classes(cfg)[0]:
            assert d.nodes[row["id"]].attrs["chain"] == row["chain"]
            assert d.nodes[row["id"]].attrs.get("autL_order") == row.get("autL_order")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_class_count_follows_the_weyl_group(p):
    # a Sylow p-subgroup of Sigma_p has order p, so O_p(Sigma_p) = 1 exactly
    # when there is more than one, that is more than p - 1 elements of order p
    W = symmetric_group(p)
    of_order_p = sum(1 for x in range(W.order) if W.element_order(x) == p)
    assert weyl_op_trivial(p) == (of_order_p > p - 1) == (p >= 5)
    assert len(chain_classes(CaseConfig("sup", p))[0]) == (5 if weyl_op_trivial(p) else 3)


def test_decomposition_w_collapse_p5():
    cfg = CaseConfig("sup", 5)
    rep = VerificationReport(cfg)
    out = emit_decomposition(cfg, rep)
    assert rep.all_ok
    w = out["poset"]
    assert sorted(w.nodes) == ["gamma", "gamma_s", "s", "t", "t_s"]
    iso_edges = [(s, t) for s, t, a in w.edges if a.get("iso")]
    assert iso_edges == [("t_s", "s")]
    col = out["collapsed"]
    assert sorted(col.nodes) == ["gamma", "gamma_s", "t"]
    assert sorted((s, t) for s, t, _ in col.edges) == [
        ("gamma_s", "gamma"),
        ("gamma_s", "t"),
    ]


def test_decomposition_direct_shape_small_p():
    for case, p in (("sup", 2), ("sup", 3), ("up", 2), ("up", 3)):
        cfg = CaseConfig(case, p)
        rep = VerificationReport(cfg)
        out = emit_decomposition(cfg, rep)
        assert rep.all_ok, (case, p, rep.failed_ids())
        assert out["poset"] is None
        col = out["collapsed"]
        assert sorted(col.nodes) == ["gamma", "gamma_s", "t"]


def test_decomposition_corner_index_identity():
    # the corner node order is always (p + 1) times the chain node order
    for case, p in (("sup", 2), ("sup", 3), ("sup", 5), ("up", 3)):
        cfg = CaseConfig(case, p)
        rep = VerificationReport(cfg)
        out = emit_decomposition(cfg, rep)
        col = out["collapsed"]
        gamma = col.nodes["gamma"].attrs["autL_order"]
        chain = col.nodes["gamma_s"].attrs["autL_order"]
        assert gamma == (p + 1) * chain


def test_az_decomposition_symbolic_torus():
    cfg = CaseConfig("az", 5, az_index=31)
    rep = VerificationReport(cfg)
    out = emit_decomposition(cfg, rep)
    col = out["collapsed"]
    assert col.nodes["t"].attrs.get("symbolic") is True
    assert col.nodes["t"].attrs["weyl_center_order"] == 4
    assert "G31" in col.nodes["t"].label


def test_up_diagram_orders_match_concrete_closures():
    # level-2 full-unitary models at p = 2: core 16 with F gives 32, with
    # F and H gives 96; the diagram encodes exactly these
    cfg = CaseConfig("up", 2)
    rep = VerificationReport(cfg)
    out = emit_decomposition(cfg, rep)
    col = out["collapsed"]
    assert col.nodes["gamma"].attrs["autL_order"] == 96
    assert col.nodes["gamma_s"].attrs["autL_order"] == 32
    assert col.nodes["t"].attrs["autL_order"] == 32


def test_report_serialization_round_trip():
    import json

    rep = run_suite(CaseConfig("sup", 3))
    doc = json.loads(rep.to_json())
    assert doc["kind"] == "verification_report"
    assert doc["all_ok"] is True
    assert doc["case"] == "sup" and doc["prime"] == 3
    ids = [c["id"] for c in doc["checks"]]
    assert ids == suite_ids(rep)
    text = rep.to_text()
    assert "PASS" in text and "summary:" in text


def test_gamma_matrices_unitary():
    for case, p in (("sup", 3), ("sup", 2), ("az", 5)):
        cfg = CaseConfig(case, p, az_index=29 if case == "az" else None)
        A, B = gamma_matrices(cfg)
        from fusionkit.matgroup import CycMatrix

        ident = CycMatrix.identity(A.dim, A.m)
        assert A * A.conj_transpose() == ident
        assert B * B.conj_transpose() == ident


def test_p7_tower_work_counts(monkeypatch):
    """Upper bounds on the exact-layer work of one sup p = 7 suite, read
    off the sparse orbit walk: zero tests of field numbers, matrix
    products and element orders, each at most its count when the bound
    was set.  Gamma's order histogram and its center are each computed
    once, for gamma.exponent, gamma.center and recognize."""
    calls = {"is_zero": 0, "matmul": 0, "element_order": 0}
    histograms, centralizers = [], []

    def count(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    is_zero = CycNum.is_zero.fget
    monkeypatch.setattr(CycNum, "is_zero", property(count("is_zero", is_zero)))
    monkeypatch.setattr(CycMatrix, "__mul__", count("matmul", CycMatrix.__mul__))
    monkeypatch.setattr(FiniteGroup, "element_order",
                        count("element_order", FiniteGroup.element_order))
    real_histogram = FiniteGroup.orders_histogram

    def histogram(G):
        histograms.append((type(G).__name__, G.order))
        return real_histogram(G)

    monkeypatch.setattr(FiniteGroup, "orders_histogram", histogram)
    real_centralizer = fingroup.centralizer

    def centralizer(G, *args, **kwargs):
        centralizers.append((type(G).__name__, G.order))
        return real_centralizer(G, *args, **kwargs)

    # fingroup.center calls the module's centralizer, cases its own import
    monkeypatch.setattr(fingroup, "centralizer", centralizer)
    monkeypatch.setattr(cases, "centralizer", centralizer)
    rep = run_suite(CaseConfig("sup", 7))
    assert rep.all_ok, rep.failed_ids()
    assert calls["is_zero"] <= 3
    assert calls["matmul"] <= 292
    assert calls["element_order"] <= 343
    assert histograms == [("MatrixGroup", 343)]
    assert centralizers.count(("MatrixGroup", 343)) == 1


def test_az_certificate_walks_gl2_once(monkeypatch):
    """The az suite at p = 7 certifies GL2(F_7)'s section by one walk from
    two generators: no generating set of a 2x2 matrix group is grown, and
    the only sections built whole are the two generators' automorphism
    checks."""
    real_grow = fingroup.grow_generators

    def grow(G, candidates, target):
        if isinstance(G, Mat2Group):
            raise AssertionError("generators grown on %s" % G.kind)
        return real_grow(G, candidates, target)

    perms = []
    real_perm = extraspecial.section_perm

    def section_perm(gam, M):
        perms.append(M)
        return real_perm(gam, M)

    monkeypatch.setattr(fingroup, "grow_generators", grow)
    monkeypatch.setattr(extraspecial, "section_perm", section_perm)
    rep = run_suite(CaseConfig("az", 7, az_index=34))
    assert rep.all_ok, rep.failed_ids()
    assert len(perms) <= 2
