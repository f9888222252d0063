"""Negative controls: a suite on mutated generators ends in failed checks.

Each mutation replaces a generator builder of fusionkit.cases through
monkeypatch, so nothing in src/ knows of it, and runs `verify` through
cli.main in process.  The run must exit 1 with a report that fails
exactly the pinned check ids, never raise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

from fusionkit import cases, cli, extraspecial
from fusionkit.cyclo import CycNum
from fusionkit.fingroup import smallest_primitive_root
from fusionkit.matgroup import CycMatrix, torus_extension_generators


@pytest.fixture(autouse=True)
def no_env(monkeypatch):
    for key in [k for k in os.environ if k.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(key)


def verify_report(case: str, p: int | None, *extra: str) -> dict:
    out = io.StringIO()
    prime = [] if p is None else ["--prime", str(p)]
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--case", case, *prime, *extra, "--format", "json"])
    assert code == 1
    return json.loads(out.getvalue())


def failed(doc: dict) -> dict:
    """The failed checks of a report, id -> witness, in report order."""
    return {c["id"]: c["witness"] for c in doc["checks"] if c["status"] == "fail"}


# (A, B) -> the generators put in the place of the clock and the shift
GAMMA_MUTATIONS = {
    "A,A": lambda A, B: (A, A),
    "A,AB": lambda A, B: (A, A * B),
    "B,A": lambda A, B: (B, A),
    "A,B2": lambda A, B: (A, B * B),
    "-A,B": lambda A, B: (A.scalar_mul(-CycNum.one(A.m)), B),
}

GAMMA_FAILED = {
    "A,A": ("gamma.order", "gamma.commutator", "gamma.exponent", "gamma.center",
            "gamma.recognize", "gamma.coordinates", "tau.centralizer_in_gamma",
            "tau.free_on_central_quotient", "rho.d_shift", "rho.sigma_shift",
            "rho.induced_coordinates", "normalizer.chain_order", "normalizer.chain_embedding"),
    "A,AB": ("tau.inverts_generators", "rho.sigma_shift", "rho.induced_coordinates",
             "normalizer.chain_embedding"),
    "B,A": ("gamma.commutator", "rho.d_fixes_clock", "rho.d_shift", "rho.sigma_clock",
            "rho.sigma_shift", "rho.induced_coordinates", "normalizer.chain_embedding"),
    "A,B2": ("gamma.commutator", "rho.d_shift", "rho.induced_coordinates",
             "normalizer.chain_embedding"),
    "-A,B": ("gamma.order", "gamma.det", "gamma.generator_powers", "gamma.exponent",
             "gamma.center", "gamma.in_torus_extension", "gamma.recognize", "gamma.coordinates",
             "tau.inverts_generators", "tau.centralizer_in_gamma", "tau.free_on_central_quotient",
             "rho.sigma_clock", "rho.induced_coordinates", "normalizer.chain_order",
             "normalizer.chain_embedding", "poset.containments"),
}

# at p = 3 every k is its own inverse mod p, so sigma_k raises a clock in
# the shift's place (and a shift in the clock's) to the power it should
PASS_AT_3 = {"A,A": {"rho.sigma_shift"}, "B,A": {"rho.sigma_clock", "rho.sigma_shift"}}

CONFIGS = [("sup", 3), ("sup", 5), ("sup", 7), ("up", 5), ("up", 7)]


@pytest.mark.parametrize("case, p", CONFIGS, ids=["%s-%d" % c for c in CONFIGS])
@pytest.mark.parametrize("mutation", list(GAMMA_MUTATIONS))
def test_mutated_gamma_fails_its_checks(monkeypatch, mutation, case, p):
    real = cases.gamma_matrices
    monkeypatch.setattr(cases, "gamma_matrices",
                        lambda cfg: GAMMA_MUTATIONS[mutation](*real(cfg)))
    want = [i for i in GAMMA_FAILED[mutation] if p != 3 or i not in PASS_AT_3.get(mutation, ())]
    if mutation in ("A,A", "-A,B") and case == "up":
        # the level-1 core <Gamma, zeta_p I> has order |Gamma| k for the
        # least k with (zeta_p I)^k in Gamma: p * p for <A>, which holds no
        # scalar matrix, and 2p^3 * 1 for the doubled Gamma
        want.insert(want.index("normalizer.chain_embedding") + 1, "normalizer.u_core_order")
    got = failed(verify_report(case, p))
    assert list(got) == want
    if mutation == "A,A":
        # Gamma is <A>, of order p; K still normalizes it and meets it trivially
        assert got["gamma.order"] == {"order": p, "expected": p ** 3}
        assert got["normalizer.chain_order"] == {"order": p * p * (p - 1),
                                                 "expected": p ** 4 * (p - 1)}
    if mutation == "-A,B":
        # -A has determinant -1 and (-A)^p = -I: Gamma doubles to <-I> x Gamma
        assert got["gamma.order"] == {"order": 2 * p ** 3, "expected": p ** 3}
        assert got["normalizer.chain_order"] == {"order": 2 * p ** 4 * (p - 1),
                                                 "expected": p ** 4 * (p - 1)}


SIGMA_FAILED = ("rho.sigma_clock", "rho.sigma_shift", "rho.sigma_d", "rho.sigma_multiplicative",
                "rho.image_order", "rho.usl_iso", "rho.induced_coordinates",
                "normalizer.chain_order", "normalizer.chain_normal", "normalizer.chain_quotient",
                "normalizer.chain_split", "normalizer.chain_embedding")


@pytest.mark.parametrize("case, p, level", [("sup", 3, 1), ("sup", 5, 1), ("sup", 7, 1),
                                            ("up", 3, 2)])
def test_k_past_its_cap_fails_rho_and_the_chain(monkeypatch, case, p, level):
    # sigma_g replaced by the shift B: <D, B> holds the commutator
    # D B D^-1 B^-1 = zeta A^2, passes 4p(p-1) elements, and verify_rho's
    # closure of K stops at that cap
    real = cases.std_matrix
    g = smallest_primitive_root(p)
    monkeypatch.setattr(cases, "std_matrix", lambda q, which, k=None, **kw: real(
        q, "B" if (which, k) == ("sigma", g) else which, k=k, **kw))
    got = failed(verify_report(case, p, "--level", str(level)))
    want = list(SIGMA_FAILED)
    if case == "up":
        # the level-2 chain normalizer adjoins K's generators, and there is no K
        want.append("normalizer.u_chain_order")
        assert got["normalizer.u_chain_order"] == {"order": None}
    assert list(got) == want
    assert got["rho.image_order"] == {"order": None, "expected": p * (p - 1)}
    assert got["normalizer.chain_order"] == {"order": None, "expected": p ** 4 * (p - 1)}
    assert got["normalizer.chain_split"] == {"complement_order": 0}
    assert got["normalizer.chain_embedding"] == {"index": None}


def transposition(p: int, m: int) -> CycMatrix:
    """The permutation matrix swapping the first two basis vectors."""
    one = CycNum.one(m)
    return CycMatrix(p, m, [((1, one),), ((0, one),)] + [((i, one),) for i in range(2, p)])


# catalog matrix -> its replacement, from the real matrix, p and the conductor
STD_MUTATIONS = {
    "tau,-tau": ("tau", lambda tau, p, m: tau.scalar_mul(-CycNum.one(m))),
    "tau,B": ("tau", lambda tau, p, m: CycMatrix(p, m, [(((i + 1) % p, CycNum.one(m)),)
                                                        for i in range(p)])),
    "D,transposition": ("D", lambda D, p, m: transposition(p, m)),
}

TAU_B_FAILED = ("tau.involution", "tau.inverts_generators", "tau.trace", "tau.det",
                "tau.su_dichotomy", "tau.centralizer_in_gamma", "tau.free_on_central_quotient")
D_SWAP_FAILED = ("rho.d_power", "rho.d_fixes_clock", "rho.d_shift", "rho.sigma_d",
                 "rho.image_order", "rho.usl_iso", "rho.normalizes_gamma",
                 "rho.normalizes_torus_extension", "rho.induced_coordinates",
                 "normalizer.chain_order", "normalizer.chain_normal", "normalizer.chain_quotient",
                 "normalizer.chain_split", "normalizer.chain_embedding")


def std_failed(mutation: str, p: int) -> list[str]:
    """The failed ids of a catalog mutation at p, in report order."""
    if mutation == "tau,-tau":
        # -tau is still an involution normalizing Gamma; det and trace flip
        return ["tau.trace", "tau.det", "tau.su_dichotomy"]
    if mutation == "tau,B":
        # det(B) = 1, which det(tau) is at p = 1 mod 4
        return [i for i in TAU_B_FAILED
                if p % 4 == 3 or i not in ("tau.det", "tau.su_dichotomy")]
    # at p = 3 every permutation of the basis is affine, so the swap
    # normalizes Gamma and the torus extension, and <swap, sigma_2> has
    # order 12, under K's cap
    return [i for i in D_SWAP_FAILED if p != 3 or i not in (
        "rho.normalizes_gamma", "rho.normalizes_torus_extension", "normalizer.chain_normal")]


@pytest.mark.parametrize("case, p", CONFIGS, ids=["%s-%d" % c for c in CONFIGS])
@pytest.mark.parametrize("mutation", list(STD_MUTATIONS))
def test_mutated_catalog_matrix_fails_its_checks(monkeypatch, mutation, case, p):
    which, replace = STD_MUTATIONS[mutation]
    real = cases.std_matrix

    def mutated(q, name, k=None, conductor=None, **kw):
        mat = real(q, name, k=k, conductor=conductor, **kw)
        return replace(mat, q, mat.m) if name == which else mat

    monkeypatch.setattr(cases, "std_matrix", mutated)
    got = failed(verify_report(case, p))
    assert list(got) == std_failed(mutation, p)
    if mutation == "tau,-tau":
        assert got["tau.su_dichotomy"] == {"tau_has_det_one": p % 4 == 3}
    if mutation == "D,transposition":
        assert got["rho.image_order"] == {"order": 12 if p == 3 else None,
                                          "expected": p * (p - 1)}


GAMMA_PAST_CAP = {
    "D,B": lambda cfg, A, B: (cases.std_matrix(cfg.prime, "D", conductor=cfg.conductor), B),
    "diag,B": lambda cfg, A, B: (
        torus_extension_generators(cfg.prime, 1, det_one=False, conductor=cfg.conductor)[0], B),
}


@pytest.mark.parametrize("case, p", [c for c in CONFIGS if c[1] != 3],
                         ids=["%s-%d" % c for c in CONFIGS if c[1] != 3])
@pytest.mark.parametrize("mutation", list(GAMMA_PAST_CAP))
def test_gamma_past_its_cap_ends_the_suite(monkeypatch, mutation, case, p):
    # <D, B> has order p^4 (its diagonal part has the exponents 1, i and
    # i^2) and <diag(zeta, 1, ..., 1), B> order p^(p+1): both pass Gamma's
    # cap of 4p^3 from p = 5 on.  gamma.order fails with no order, and
    # nothing after it runs
    real = cases.gamma_matrices
    monkeypatch.setattr(cases, "gamma_matrices",
                        lambda cfg: GAMMA_PAST_CAP[mutation](cfg, *real(cfg)))
    doc = verify_report(case, p)
    assert [c["id"] for c in doc["checks"]] == ["gamma.order"]
    assert failed(doc) == {"gamma.order": {"order": None, "expected": p ** 3}}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_scalar_of_the_wrong_order_fails_the_scalar_extended_orders(monkeypatch, p):
    # zeta_p I in place of zeta_(p^2) I at level 2: a scalar of Gamma, so
    # the core is Gamma and the chain normalizer Gamma x| K
    real = cases.scalar_matrix
    monkeypatch.setattr(cases, "scalar_matrix", lambda cfg, order: real(cfg, order // cfg.prime))
    got = failed(verify_report("up", p, "--level", "2"))
    assert got == {"normalizer.u_core_order": {"order": p ** 3},
                   "normalizer.u_chain_order": {"order": p ** 4 * (p - 1)}}


@pytest.mark.parametrize("index", sorted(cases.AZ_PRIME_OF_INDEX))
def test_uncorrected_section_pairs_fail_the_aut_certificate(monkeypatch, index):
    # (f_M(a), f_M(b)) without the central corrections s_M(1, 0) and
    # s_M(0, 1): these pairs do not compose as GL2 does
    monkeypatch.setattr(extraspecial, "section_pair",
                        lambda p, M: ((0, M[0], M[2]), (0, M[1], M[3])))
    got = failed(verify_report("az", None, "--index", str(index)))
    assert list(got) == ["az.aut_certificate", "az.aut_ses"]


@pytest.mark.parametrize("case", ["sup", "up"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_uncorrected_section_pairs_fail_the_coordinate_and_full_checks(monkeypatch, case, p):
    # the same pairs where cases reads section_pair and where section_walk
    # does: D's pair loses its central correction, so conjugation by D is
    # not its section, and the pairs of SL2 do not compose as SL2 does
    def uncorrected(q, M):
        return (0, M[0], M[2]), (0, M[1], M[3])

    monkeypatch.setattr(cases, "section_pair", uncorrected)
    monkeypatch.setattr(extraspecial, "section_pair", uncorrected)
    got = failed(verify_report(case, p))
    assert list(got) == ["rho.induced_coordinates", "normalizer.full_split",
                         "normalizer.chain_embedding"]
    assert got["normalizer.chain_embedding"] == {"index": None}


@pytest.mark.parametrize("index", sorted(cases.AZ_PRIME_OF_INDEX))
def test_walk_generator_short_of_gl2_fails_the_aut_certificate(monkeypatch, index):
    # diag(xi^2, 1) in place of the walk generator diag(xi, 1): the walk
    # reaches only matrices of square determinant, short of GL2(F_p).  The
    # adams checks read cases' own primitive_scaling_matrix and still pass
    real = extraspecial.primitive_scaling_matrix
    monkeypatch.setattr(extraspecial, "primitive_scaling_matrix",
                        lambda p: (real(p)[0] ** 2 % p, 0, 0, 1))
    got = failed(verify_report("az", None, "--index", str(index)))
    assert list(got) == ["az.aut_certificate", "az.aut_ses"]
    p = cases.AZ_PRIME_OF_INDEX[index]
    assert got["az.aut_ses"] == {"aut_order": p ** 3 * (p - 1) * (p * p - 1)}


# az builder in cases -> (real builder -> its replacement)
AZ_MUTATIONS = {
    # diag(1, xi): of determinant xi and upper triangular, so it still
    # extends USL2 to UGL2, but it fixes a and raises b
    "scaling,diag(1,xi)": ("primitive_scaling_matrix",
                           lambda real: lambda p: (1, 0, 0, real(p)[0])),
    # diag(xi^2, 1): only square determinants, half of UGL2
    "scaling,xi^2": ("primitive_scaling_matrix",
                     lambda real: lambda p: (real(p)[0] ** 2 % p, 0, 0, 1)),
    # sigma_g standing for diag(g^2, g^-2): no map from USL2 sends it to
    # sigma_g, and the scaling matrix then extends only half of USL2's
    # diagonal
    "sigma,squared": ("d_sigma_matrices", lambda real: lambda p, k: real(p, k * k % p)),
    # D standing for the identity: USL2's diagonal alone
    "D,identity": ("d_sigma_matrices", lambda real: lambda p, k: ((1, 0, 0, 1), real(p, k)[1])),
}
AZ_FAILED = {
    "scaling,diag(1,xi)": ("az.adams_shape", "az.adams_automorphism"),
    "scaling,xi^2": ("az.adams_shape", "az.adams_automorphism", "az.adams_extends"),
    "sigma,squared": ("rho.usl_iso", "rho.induced_coordinates", "az.adams_extends"),
    "D,identity": ("rho.usl_iso", "rho.induced_coordinates", "az.adams_extends"),
}


@pytest.mark.parametrize("index", sorted(cases.AZ_PRIME_OF_INDEX))
@pytest.mark.parametrize("mutation", list(AZ_MUTATIONS))
def test_mutated_scaling_fails_the_adams_checks(monkeypatch, mutation, index):
    """The az scaling checks on a mutated scaling matrix or on mutated
    upper-triangular matrices for D and sigma_g: each run exits 1 with the
    pinned failed ids."""
    builder, replace = AZ_MUTATIONS[mutation]
    monkeypatch.setattr(cases, builder, replace(getattr(cases, builder)))
    got = failed(verify_report("az", None, "--index", str(index)))
    assert list(got) == list(AZ_FAILED[mutation])
    p = cases.AZ_PRIME_OF_INDEX[index]
    xi = smallest_primitive_root(p)
    if mutation.startswith("scaling"):
        M = [1, 0, 0, xi] if mutation == "scaling,diag(1,xi)" else [xi * xi % p, 0, 0, 1]
        assert got["az.adams_shape"] == {"matrix": M, "xi": xi}
    if "az.adams_extends" in got:
        ugl = p * (p - 1) ** 2
        generated = (p - 1) ** 2 if mutation == "D,identity" else ugl // 2
        assert got["az.adams_extends"] == {"generated": generated, "expected": ugl}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_minus_identity_fails_the_level_one_core(monkeypatch, p):
    # -I in place of zeta_p I: (-I)^2 is the least power in Gamma, so the
    # core <Gamma, -I> has order 2p^3
    monkeypatch.setattr(cases, "scalar_matrix", lambda cfg, order: CycMatrix.identity(
        cfg.prime, cfg.conductor).scalar_mul(-CycNum.one(cfg.conductor)))
    assert failed(verify_report("up", p)) == {"normalizer.u_core_order": {}}



def _swap_rows(mat: CycMatrix) -> CycMatrix:
    return CycMatrix(mat.dim, mat.m, mat.nz[::-1])


# the p = 2 tower: (builder in cases, real builder -> its replacement)
P2_MUTATIONS = {
    # F^2 is the clock A: the chain is Gamma, and <Gamma, F^2, H> is Q16
    "F,F2": ("std_matrix", lambda real: lambda q, which, **kw: (
        real(q, which, **kw) ** 2 if which == "F" else real(q, which, **kw))),
    # H with its rows swapped stays dense, every entry +-1/sqrt2: the full
    # group has order 96
    "H,swapped": ("std_matrix", lambda real: lambda q, which, **kw: (
        _swap_rows(real(q, which, **kw)) if which == "H" else real(q, which, **kw))),
    # F in H's place: the full group is the chain's Q16
    "H,F": ("std_matrix", lambda real: lambda q, which, **kw: real(
        q, "F" if which == "H" else which, **kw)),
    # -I, which lies in Q8, in place of the 2^level-torsion scalar
    "zI,-I": ("scalar_matrix", lambda real: lambda cfg, order: real(
        cfg, 2 if order == 2 ** cfg.level else order)),
    # the determinant-one torus extension in place of the full one
    "torus,det_one": ("torus_extension_group", lambda real: lambda p, n, det_one, conductor: real(
        p, n, det_one=True, conductor=conductor)),
}
Q16_FAILED = ("normalizer.q16_order", "normalizer.q16_recognize", "normalizer.q16_nonsplit")
O48_FAILED = ("normalizer.o48_order", "normalizer.o48_recognize", "normalizer.o48_quotient")
# mutation -> case -> the failed ids, in report order (the sup suite
# builds no scalar or full torus, so those mutations run in up alone)
P2_FAILED = {
    "F,F2": {"sup": Q16_FAILED + O48_FAILED,
             "up": Q16_FAILED + O48_FAILED + (
                 "normalizer.u2_chain_order", "normalizer.u2_chain_split",
                 "normalizer.u2_full_order", "normalizer.u2_full_quotient")},
    "H,swapped": {"sup": O48_FAILED, "up": O48_FAILED},
    "H,F": {"sup": O48_FAILED,
            "up": O48_FAILED + ("normalizer.u2_full_order", "normalizer.u2_full_quotient")},
    "zI,-I": {"up": ("normalizer.u2_core_order", "normalizer.u2_chain_order",
                     "normalizer.u2_chain_split", "normalizer.u2_full_order")},
    "torus,det_one": {"up": ("normalizer.u2_torus_order",)},
}
P2_WITNESS = {
    "F,F2": {"normalizer.q16_order": {"order": 8}, "normalizer.q16_recognize": {"tag": "Q8"},
             "normalizer.o48_order": {"order": 16}},
    "H,swapped": {"normalizer.o48_order": {"order": 96},
                  "normalizer.o48_recognize": {"tag": "unknown(order 96)"}},
    "H,F": {"normalizer.o48_order": {"order": 16}, "normalizer.o48_recognize": {"tag": "Q16"}},
    "zI,-I": {"normalizer.u2_core_order": {"order": 8}, "normalizer.u2_full_order": {"order": 48}},
    "torus,det_one": {},
}
P2_RUNS = [(mutation, case, level) for mutation in P2_MUTATIONS
           for case, level in (("sup", 2), ("up", 2), ("up", 3)) if case in P2_FAILED[mutation]]


@pytest.mark.parametrize("mutation, case, level", P2_RUNS, ids=["%s-%s-%d" % r for r in P2_RUNS])
def test_mutated_p2_tower_fails_its_checks(monkeypatch, mutation, case, level):
    """The Q16, O48 and scalar-extended checks of the p = 2 tower on a
    mutated F, H, scalar or torus extension: each run exits 1 with the
    pinned failed ids."""
    builder, replace = P2_MUTATIONS[mutation]
    monkeypatch.setattr(cases, builder, replace(getattr(cases, builder)))
    got = failed(verify_report(case, 2, "--level", str(level)))
    assert list(got) == list(P2_FAILED[mutation][case])
    for check_id, witness in P2_WITNESS[mutation].items():
        assert got[check_id] == witness
    if mutation == "torus,det_one":
        # 2^level-torsion on the diagonal of determinant one, and the swap
        assert got["normalizer.u2_torus_order"] == {"order": 2 ** (level + 1)}


def _zeta8_times(mat: CycMatrix) -> CycMatrix:
    return mat.scalar_mul(CycNum.zeta(mat.m, mat.m // 8))


def _diag_zeta8(mat: CycMatrix) -> CycMatrix:
    return CycMatrix(2, mat.m, [((0, CycNum.zeta(mat.m, mat.m // 8)),), ((1, CycNum.one(mat.m)),)])


# mutation -> (catalog matrix, its replacement from the real one)
P2_CAP_MUTATIONS = {
    "F,zeta8F": ("F", _zeta8_times),
    "H,zeta8H": ("H", _zeta8_times),
    # diag(zeta_8, 1): of determinant zeta_8, so <A, B, F> is the monomial
    # group of 8th roots, order 128, past Q16's cap of 64 as well
    "F,diag(zeta8,1)": ("F", _diag_zeta8),
}
U2_FULL = ("normalizer.u2_full_order", "normalizer.u2_full_quotient")
# (mutation, case, level) -> the failed ids, in report order
P2_CAP_FAILED = {
    ("F,zeta8F", "sup", 2): Q16_FAILED + O48_FAILED,
    ("F,zeta8F", "up", 2): Q16_FAILED + O48_FAILED + ("normalizer.u2_chain_split",) + U2_FULL,
    ("F,zeta8F", "up", 3): Q16_FAILED + O48_FAILED + ("normalizer.u2_chain_split",),
    ("H,zeta8H", "sup", 2): O48_FAILED,
    ("H,zeta8H", "up", 2): O48_FAILED + U2_FULL,
    ("H,zeta8H", "up", 3): O48_FAILED,
    ("F,diag(zeta8,1)", "sup", 2): Q16_FAILED + O48_FAILED,
    ("F,diag(zeta8,1)", "up", 2): Q16_FAILED + O48_FAILED + (
        "normalizer.u2_chain_order", "normalizer.u2_chain_split") + U2_FULL,
    ("F,diag(zeta8,1)", "up", 3): Q16_FAILED + O48_FAILED + (
        "normalizer.u2_chain_order", "normalizer.u2_chain_split") + U2_FULL,
}


@pytest.mark.parametrize("mutation, case, level", list(P2_CAP_FAILED),
                         ids=["%s-%s-%d" % run for run in P2_CAP_FAILED])
def test_p2_tower_past_its_cap_fails_its_checks(monkeypatch, mutation, case, level):
    """zeta_8 F, zeta_8 H or diag(zeta_8, 1) in the p = 2 tower: each takes
    <A, B, F, H> past its cap of 128, so normalizer.o48_order fails with
    order null and the O48 checks that read the group fail with it.
    zeta_8 F gives an order-32 chain; diag(zeta_8, 1) takes the chain past
    its cap of 64 too, and with it the checks that read Q16.  At level 3
    the scalar zeta_8 I lies in the scalar-extended models, so zeta_8 F and
    zeta_8 H close there as before, apart from the split witness i*F*(AB),
    whose determinant changes."""
    which, replace = P2_CAP_MUTATIONS[mutation]
    real = cases.std_matrix

    def mutated(q, name, **kw):
        mat = real(q, name, **kw)
        return replace(mat) if name == which else mat

    monkeypatch.setattr(cases, "std_matrix", mutated)
    got = failed(verify_report(case, 2, "--level", str(level)))
    assert list(got) == list(P2_CAP_FAILED[mutation, case, level])
    assert got["normalizer.o48_order"] == {"order": None}
    assert got["normalizer.o48_recognize"] == {"tag": None}
    if mutation == "F,zeta8F":
        assert got["normalizer.q16_order"] == {"order": 32}
    if mutation == "F,diag(zeta8,1)":
        assert got["normalizer.q16_order"] == {"order": None}
        assert got["normalizer.q16_nonsplit"] == {"coset_profile": {}, "tuples_checked": None}
    if "normalizer.u2_full_order" in got:
        assert got["normalizer.u2_full_order"] == {
            "order": None if mutation == "F,diag(zeta8,1)" else 192}
