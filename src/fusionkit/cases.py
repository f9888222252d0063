"""Bundled case studies: torus-normalizer decompositions at a prime.

Three families are covered, selected by CaseConfig:

  * "sup": the determinant-one unitary family at p in {2, 3, 5, 7};
  * "up":  the full unitary family (same finite p-group core; the central
    circle is tracked symbolically and through scalar-extended models);
  * "az":  exotic variants indexed by a complex reflection group in the
    Shephard-Todd numbering (12 at p = 3, 29 and 31 at p = 5, 34 at p = 7).

The centerpiece is the extraspecial group of order p^3 generated by the
clock matrix A and the shift matrix B (at p = 2 their determinant-one
scalings, giving the quaternion group).  The suites certify its structure,
the diagonal/scaling normalizer pieces D and sigma_k, the reflection tau,
the chain and full normalizer extensions with their splitting or
non-splitting, the automorphism-group counts, and finally emit the chain
poset diagrams with their collapse.

Each automorphism f_M of the coordinate model is read as its pair
(f_M(a), f_M(b)) (extraspecial.section_pair): a and b generate, so
homomorphisms agreeing on them are equal.  Nothing builds Gamma x| SL2.

Every check is an exact computation; failures become report entries, never
exceptions.  Checks run and are reported in declaration order, so reruns
produce byte-identical artifacts.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from . import SCHEMA_VERSION, canonical_json
from .cyclo import CycNum
from .diagram import chain_diagram, contract_iso_edges
from .extraspecial import (
    HeisenbergGroup,
    aut_certificate,
    pair_image,
    primitive_scaling_matrix,
    section_pair,
    section_walk,
)
from .fingroup import (
    centralizer,
    cyclic_group,
    generated_subgroup,
    hom_by_generators,
    isomorphism,
    mat2_group,
    propagate_hom,
    quotient,
    recognize,
    sesverify,
    smallest_primitive_root,
    symmetric_group,
)
from .matgroup import (
    CapExceeded,
    CycMatrix,
    MatrixGroup,
    closure,
    default_conductor,
    in_truncated_torus_extension,
    min_level,
    scalar_indices,
    std_matrix,
    torus_extension_generators,
    torus_extension_group,
    torus_order,
)

CASES = ("up", "sup", "az")
SUPPORTED_PRIMES = (2, 3, 5, 7)
AZ_PRIME_OF_INDEX = {12: 3, 29: 5, 31: 5, 34: 7}


@dataclass
class CaseConfig:
    """One (family, prime, truncation level, optional index) selection."""

    case: str
    prime: int
    level: int | None = None
    az_index: int | None = None

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError("case must be one of %s, got %r" % (", ".join(CASES), self.case))
        if self.prime not in SUPPORTED_PRIMES:
            raise ValueError("prime must be in %s, got %r" % (SUPPORTED_PRIMES, self.prime))
        if self.level is None:
            self.level = min_level(self.prime)
        allowed = (2, 3) if self.prime == 2 else (1, 2)
        if self.level not in allowed:
            raise ValueError(
                "level %d unsupported at p = %d (allowed: %s)"
                % (self.level, self.prime, allowed)
            )
        if self.case == "az":
            if self.prime == 2:
                raise ValueError("the az family has no p = 2 member")
            if self.az_index is None:
                raise ValueError("the az family requires an index in %s"
                                 % sorted(AZ_PRIME_OF_INDEX))
            want = AZ_PRIME_OF_INDEX.get(self.az_index)
            if want is None:
                raise ValueError("unknown az index %r" % (self.az_index,))
            if want != self.prime:
                raise ValueError(
                    "az index %d belongs to p = %d, not p = %d"
                    % (self.az_index, want, self.prime)
                )
        elif self.az_index is not None:
            raise ValueError("an index applies to the az family only")

    @property
    def conductor(self) -> int:
        return default_conductor(self.prime, self.level)

    @property
    def torus_det_one(self) -> bool:
        # the ambient torus is determinant-one except in the full unitary family
        return self.case != "up"

    def describe(self) -> str:
        bits = ["case %s" % self.case, "p = %d" % self.prime, "level %d" % self.level]
        if self.az_index is not None:
            bits.append("index %d" % self.az_index)
        return ", ".join(bits)


# -- reports ----------------------------------------------------------------


@dataclass
class Check:
    check_id: str
    claim: str
    status: str  # pass / fail; counts() keeps a "skipped" key, always 0
    witness: dict = field(default_factory=dict)


class VerificationReport:
    def __init__(self, config: CaseConfig):
        self.config = config
        self.checks: list[Check] = []

    def add(self, check_id: str, claim: str, ok: bool, **witness) -> bool:
        self.checks.append(Check(check_id, claim, "pass" if ok else "fail", witness))
        return ok

    @property
    def all_ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def failed_ids(self) -> list[str]:
        return [c.check_id for c in self.checks if c.status == "fail"]

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "verification_report",
            "case": cfg.case,
            "prime": cfg.prime,
            "level": cfg.level,
            "az_index": cfg.az_index,
            "all_ok": self.all_ok,
            "counts": self.counts(),
            "checks": [
                {
                    "id": c.check_id,
                    "claim": c.claim,
                    "status": c.status,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    def to_text(self) -> str:
        cfg = self.config
        lines = ["verification: %s" % cfg.describe()]
        for c in self.checks:
            line = "%s %-28s %s" % (c.status.upper(), c.check_id, c.claim)
            if c.status == "fail" and c.witness:
                line += "  [%s]" % _witness_brief(c.witness)
            lines.append(line)
        n = self.counts()
        lines.append(
            "summary: %d pass, %d fail, %d skipped -> %s"
            % (n["pass"], n["fail"], n["skipped"], "OK" if self.all_ok else "FAILED")
        )
        return "\n".join(lines) + "\n"


def _witness_brief(w: dict) -> str:
    return ", ".join("%s=%r" % (k, w[k]) for k in sorted(w))


# -- matrix bundles ---------------------------------------------------------


def gamma_matrices(cfg: CaseConfig) -> tuple[CycMatrix, CycMatrix]:
    """The extraspecial generators at the configured conductor.

    At p = 2 the determinant-one scalings are used in every family: the
    p-group core is the quaternion group also inside the full unitary
    family, where the plain clock and shift only differ by central scalars.
    """
    p, m = cfg.prime, cfg.conductor
    A = std_matrix(p, "A", conductor=m, det_one=(p == 2))
    B = std_matrix(p, "B", conductor=m, det_one=(p == 2))
    return A, B


def d_sigma_matrices(p: int, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """The upper-triangular 2x2 matrices, as (a, b, c, d), that D and
    sigma_k stand for: [[1,2],[0,1]] and diag(k, k^-1)."""
    return (1, 2, 0, 1), (k, 0, 0, pow(k, -1, p))


def conjugation_by(g: CycMatrix) -> Callable[[CycMatrix], CycMatrix]:
    """The map x -> g x g^-1, g inverted once as its conjugate transpose:
    g is checked unitary, as the whole standard catalog is."""
    gi = g.conj_transpose()
    if not (g * gi).is_identity():
        raise ValueError("matrix is not unitary")
    return lambda x: g * x * gi


def conjugation_on(G: MatrixGroup, conj: Callable[[CycMatrix], CycMatrix]) -> list[int] | None:
    """A conjugation map on the indices of G, or None if it leaves G.

    Only G's generators are conjugated as matrices.  propagate_hom extends
    their images to a certified homomorphism, and that is the conjugation
    itself: both are homomorphisms and they agree on the generators.
    """
    gens = G.generator_indices
    imgs = [G.index_of(conj(G.matrix(i))) for i in gens]
    if None in imgs:
        return None
    images = propagate_hom(G, G, gens, imgs)
    return None if images is None else [images[i] for i in range(G.order)]


def scalar_matrix(cfg: CaseConfig, order: int) -> CycMatrix:
    """zeta_order * identity at the configured conductor."""
    m = cfg.conductor
    assert m % order == 0
    z = CycNum.zeta(m, m // order)
    return CycMatrix.identity(cfg.prime, m).scalar_mul(z)


def capped_closure(gens: list[CycMatrix], cap: int) -> MatrixGroup | None:
    """closure(gens), or None past cap elements (CapExceeded)."""
    try:
        return closure(gens, cap=cap)
    except CapExceeded:
        return None


# -- gamma ------------------------------------------------------------------


def verify_gamma(cfg: CaseConfig,
                 rep: VerificationReport) -> tuple[MatrixGroup | None, list[int], list | None]:
    """Gamma, the indices of its scalar matrices (read off the one scan of
    its generators' centralizer), and at odd p its coordinates: the
    inverse of the certified isomorphism from the coordinate model, as the
    (c, i, j) of each element of Gamma (None at p = 2, or when
    gamma.coordinates fails).  One order histogram serves gamma.exponent
    and recognize.  Past 4p^3 elements there is no Gamma: gamma.order
    fails and Gamma is None."""
    p, m = cfg.prime, cfg.conductor
    A, B = gamma_matrices(cfg)
    z = CycNum.zeta(m, m // p)
    gam = capped_closure([A, B], 4 * p ** 3)

    rep.add(
        "gamma.order",
        "the clock and shift matrices generate a group of order p^3",
        gam is not None and gam.order == p ** 3,
        order=None if gam is None else gam.order,
        expected=p ** 3,
    )
    if gam is None:
        return None, [], None
    one = CycNum.one(m)
    rep.add(
        "gamma.det",
        "both generators have determinant 1",
        A.det() == one and B.det() == one,
    )
    # [A, B] = zeta^-1 * I, equivalently B*A = zeta * (A*B)
    rep.add(
        "gamma.commutator",
        "the commutator of the generators is the scalar zeta^-1",
        B * A == (A * B).scalar_mul(z),
    )
    hist = gam.orders_histogram()
    if p != 2:
        rep.add(
            "gamma.generator_powers",
            "both generators have order p",
            (A ** p).is_identity() and (B ** p).is_identity(),
        )
        rep.add(
            "gamma.exponent",
            "every nonidentity element has order p",
            hist == {1: 1, p: p ** 3 - 1},
            histogram={str(k): v for k, v in sorted(hist.items())},
        )
    else:
        minus = scalar_matrix(cfg, 2)
        rep.add(
            "gamma.generator_powers",
            "the squares of the generators and of their product all equal -I",
            (A * A) == minus and (B * B) == minus and ((A * B) ** 2) == minus,
        )
    cent = centralizer(gam, gam.generator_indices)
    scal = scalar_indices(gam, cent)
    rep.add(
        "gamma.center",
        "the center consists of the p scalar matrices of p-power order",
        list(cent) == scal and len(scal) == p,
        center_size=len(cent),
        scalars=len(scal),
    )
    # S_level is a group, so it contains every element of <A, B> iff it
    # contains A and B
    rep.add(
        "gamma.in_torus_extension",
        "every element is monomial with a shift permutation part and "
        "p^level-torsion diagonal inside the ambient torus extension",
        all(
            in_truncated_torus_extension(x, p, cfg.level, det_one=cfg.torus_det_one)
            for x in (A, B)
        ),
    )
    tag = recognize(gam, hist, cent)
    want_tag = "Q8" if p == 2 else "extraspecial(%d^3, exp p)" % p
    rep.add(
        "gamma.recognize",
        "the group is recognized as %s" % want_tag,
        tag == want_tag,
        tag=tag,
    )
    coords = None
    if p != 2:
        hberg = HeisenbergGroup(p)
        iso = hom_by_generators(hberg, gam, [hberg.a_index, hberg.b_index], gam.generator_indices)
        if rep.add(
            "gamma.coordinates",
            "central/row/column coordinates give a certified isomorphism "
            "onto the matrix group",
            iso is not None and len(set(iso)) == len(iso) == gam.order,
        ):
            # iso is a bijection, so sorting Heis by iso inverts it
            coords = [hberg.decode(h) for h in sorted(range(gam.order), key=iso.__getitem__)]
    return gam, scal, coords


# -- tau --------------------------------------------------------------------


def verify_tau(cfg: CaseConfig, rep: VerificationReport, gam: MatrixGroup,
               scalars: list[int]) -> None:
    p, m = cfg.prime, cfg.conductor
    assert p != 2
    A, B = gamma_matrices(cfg)
    tau = std_matrix(p, "tau", conductor=m)
    one = CycNum.one(m)

    rep.add("tau.involution", "tau squares to the identity", (tau * tau).is_identity())
    rep.add(
        "tau.inverts_generators",
        "conjugation by tau inverts both generators",
        tau * A == (A ** (p - 1)) * tau and tau * B == (B ** (p - 1)) * tau,
    )
    rep.add("tau.trace", "tau has trace 1", tau.trace() == one)
    want_det = one if (p - 1) // 2 % 2 == 0 else -one
    det = tau.det()
    rep.add(
        "tau.det",
        "det(tau) = (-1)^((p-1)/2)",
        det == want_det,
    )
    minus_tau = tau.scalar_mul(-one)
    tau_in = det == one
    alt_in = minus_tau.det() == one
    rep.add(
        "tau.su_dichotomy",
        "exactly one of tau, (-I)tau has determinant 1: tau itself "
        "iff p = 1 mod 4",
        (tau_in != alt_in) and tau_in == (p % 4 == 1),
        tau_has_det_one=tau_in,
    )
    # no map when tau does not normalize the p-group: both checks then fail
    by_tau = conjugation_on(gam, conjugation_by(tau)) or []
    fixed = [i for i, c in enumerate(by_tau) if c == i]
    central_fixed = [i for i, c in enumerate(by_tau) if gam.mult(c, gam.inv(i)) in scalars]
    rep.add(
        "tau.centralizer_in_gamma",
        "the only elements of the p-group fixed by tau-conjugation are "
        "the central scalars",
        all(i in scalars for i in fixed) and len(fixed) == p,
        fixed=len(fixed),
    )
    rep.add(
        "tau.free_on_central_quotient",
        "tau-conjugation moves every noncentral coset of the central "
        "quotient (a free action away from the identity)",
        len(central_fixed) == p,
        cosets_fixed=len(central_fixed) // p,
    )


# -- rho --------------------------------------------------------------------


def verify_rho(cfg: CaseConfig, rep: VerificationReport, gam: MatrixGroup,
               coords: list | None) -> tuple[MatrixGroup | None, bool, list[list[int | None]]]:
    """The diagonal/scaling normalizer piece at odd p: relations, image
    order, the certified isomorphism from the upper-triangular group, and
    the induced coordinate matrices.  Only Gamma's two generators are
    conjugated by D and each sigma_k.  Read through verify_gamma's coords,
    a conjugation is a homomorphism of the coordinate model, and so is the
    map that section_pair(p, M) defines, so they are equal when they agree
    on a and b.  Returns the suite's one K = <D, sigma_g> (None past
    4p(p-1) elements), the verdict that USL2 -> K is a certified
    bijection, and for D and sigma_g the indices in Gamma of their
    conjugates of Gamma's generators (None outside Gamma)."""
    p, m = cfg.prime, cfg.conductor
    assert p != 2
    A, B = gamma_matrices(cfg)
    z = CycNum.zeta(m, m // p)
    D = std_matrix(p, "D", conductor=m)
    sigma = {k: std_matrix(p, "sigma", k=k, conductor=m) for k in range(1, p)}
    g = smallest_primitive_root(p)

    rep.add("rho.d_power", "D has order dividing p", (D ** p).is_identity())
    rep.add("rho.d_fixes_clock", "D commutes with the clock matrix", D * A == A * D)
    rep.add(
        "rho.d_shift",
        "conjugation by D sends the shift matrix to zeta * clock^2 * shift",
        D * B == ((A * A) * B).scalar_mul(z) * D,
    )
    rep.add(
        "rho.sigma_clock",
        "conjugation by sigma_k raises the clock matrix to the k-th power",
        all(sigma[k] * A == (A ** k) * sigma[k] for k in range(1, p)),
    )
    rep.add(
        "rho.sigma_shift",
        "conjugation by sigma_k raises the shift matrix to the power "
        "k^-1 mod p",
        all(sigma[k] * B == (B ** pow(k, -1, p)) * sigma[k] for k in range(1, p)),
    )
    rep.add(
        "rho.sigma_d",
        "conjugation by sigma_k raises D to the power k^2 mod p",
        all(sigma[k] * D == (D ** (k * k % p)) * sigma[k] for k in range(1, p)),
    )
    rep.add(
        "rho.sigma_multiplicative",
        "the sign-corrected scaling matrices multiply as sigma_k sigma_l "
        "= sigma_kl",
        all(
            sigma[k] * sigma[l] == sigma[k * l % p]
            for k in range(1, p)
            for l in range(1, p)
        ),
    )

    K = capped_closure([D, sigma[g]], 4 * p * (p - 1))
    rep.add(
        "rho.image_order",
        "D and a primitive scaling matrix generate a group of order p(p-1)",
        K is not None and K.order == p * (p - 1),
        order=None if K is None else K.order,
        expected=p * (p - 1),
    )
    usl = mat2_group(p, "USL")
    iso = None if K is None else hom_by_generators(
        usl, K, [usl.index[M] for M in d_sigma_matrices(p, g)], K.generator_indices
    )
    usl_ok = rep.add(
        "rho.usl_iso",
        "the image is certified isomorphic to the upper-triangular "
        "determinant-one group, by D <-> [[1,2],[0,1]] and "
        "sigma_g <-> diag(g, g^-1)",
        iso is not None and len(set(iso)) == len(iso) == K.order,
    )

    # conj[0] is conjugation by D and conj[k] by sigma_k; on_gens[k] holds
    # the indices in Gamma (None outside it) of conj[k] of Gamma's generators
    conj = [conjugation_by(c) for c in [D] + [sigma[k] for k in range(1, p)]]
    gam_gens = [gam.matrix(i) for i in gam.generator_indices]
    on_gens = [[gam.index_of(c(x)) for x in gam_gens] for c in conj]
    normal = all(None not in row for row in on_gens)
    rep.add(
        "rho.normalizes_gamma",
        "conjugation by D and every sigma_k maps the p-group into itself",
        normal,
    )
    tgens = torus_extension_generators(p, cfg.level, cfg.torus_det_one, cfg.conductor)
    rep.add(
        "rho.normalizes_torus_extension",
        "conjugation by D and every sigma_k keeps the torus-extension "
        "generators inside the torus extension",
        all(
            in_truncated_torus_extension(c(t), p, cfg.level, det_one=cfg.torus_det_one)
            for c in conj
            for t in tgens
        ),
    )

    ok_induced = coords is not None and normal
    if ok_induced:
        # coords sends Gamma's generators to a and b
        want = [d_sigma_matrices(p, g)[0]] + [d_sigma_matrices(p, k)[1] for k in range(1, p)]
        ok_induced = all(
            tuple(coords[y] for y in row) == section_pair(p, M)
            for row, M in zip(on_gens, want)
        )
    rep.add(
        "rho.induced_coordinates",
        "in the central/row/column coordinates, conjugation by D acts as "
        "the canonical section of [[1,2],[0,1]] and sigma_k as that of "
        "diag(k, k^-1)",
        ok_induced,
    )
    return K, usl_ok, [on_gens[0], on_gens[g]]


# -- normalizers ------------------------------------------------------------


@dataclass
class ChainCertificate:
    """What chain_certificate certified of N = <Gamma, K>.

    order is |Gamma| |K|, and None unless Gamma is normal in N and meets K
    trivially; f_k is the certified map of K into SL2(F_p), None where
    there is none.  Without K every verdict fails.
    """

    K: MatrixGroup | None
    normal: bool
    order: int | None
    quotient: bool
    f_k: list[int] | None
    embedded: bool

    @property
    def complement_order(self) -> int:
        """|K| when K is a complement of Gamma in N, else 0."""
        return 0 if self.order is None else self.K.order


def chain_certificate(gam: MatrixGroup, coords: list | None, rho,
                      k_usl: Sequence[tuple[int, int, int, int]]) -> ChainCertificate:
    """The chain normalizer N = <Gamma, K> certified as Gamma x| K from
    generators, so that N itself is never closed (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, 2005).

    gam is Gamma, certified of order p^3 with generators A and B, and
    coords is verify_gamma's isomorphism f_gam: Gamma -> Heis (A and B to
    a and b), or None.  rho is verify_rho's (K, usl_ok, k_conj): K is the
    closure of its generators k_gens (D and sigma_g), None past its cap;
    they stand for the upper-triangular 2x2 matrices k_usl over F_p, and
    usl_ok is the verdict that hom_by_generators(USL2 -> K), k_usl to
    k_gens, is a bijection.  k_conj[j][i] is the index in Gamma of
    k x k^-1, for k = k_gens[j] and x Gamma's i-th generator, None outside
    Gamma.  Only the p(p-1) elements of K are enumerated:

    1. Normal: conjugation by each generator of K sends A and B into
       Gamma.  Conjugation is injective, so it maps Gamma onto itself.
       Then Gamma is normal in N, and Gamma K is a subgroup that holds
       every generator: N = Gamma K.
    2. Gamma meets K trivially: no nonidentity element of K is a matrix
       of Gamma.
    3. Order: by 1 and 2, |N| = |Gamma| |K|.
    4. Quotient: N/Gamma = Gamma K/Gamma is K, and K is USL2 by usl_ok.
    5. Split: K is a complement of Gamma, with k_gens as the witness.
    6. Embedding in Heis x| SL2(F_p), M acting as f_M: hom_by_generators
       certifies f_k: K -> SL2 (k_gens to k_usl).  For k in k_gens and x
       in {A, B}, f_gam(k x k^-1) = f_{f_k(k)}(f_gam(x)), f_M evaluated
       from section_pair by pair_image: the semidirect law, written out.
       Both sides are homomorphisms in x, and once M -> f_M is one
       (normalizer.full_split) the k for which they agree on Gamma form
       a subgroup, so the law holds on Gamma and K.  Then
       f(x k) = (f_gam(x), f_k(k)), well defined by 2, is a homomorphism
       N -> Heis x| SL2, injective when f_gam and f_k are.
    """
    K, usl_ok, k_conj = rho
    if K is None:
        return ChainCertificate(None, False, None, False, None, False)
    normal = all(None not in row for row in k_conj)
    meet = all(gam.index_of(K.matrix(k)) is None for k in range(K.order) if k != K.identity)
    order = gam.order * K.order if normal and meet else None
    quotient = order is not None and usl_ok

    p = gam.dim  # Gamma acts on C^p
    sl = mat2_group(p, "SL")
    f_k = hom_by_generators(K, sl, K.generator_indices, [sl.index[M] for M in k_usl])
    embedded = (
        order is not None and coords is not None and f_k is not None
        and all(coords[row[i]] == pair_image(p, section_pair(p, sl.elements[f_k[k]]), coords[x])
                for k, row in zip(K.generator_indices, k_conj)
                for i, x in enumerate(gam.generator_indices))
        and len(set(f_k)) == K.order
    )
    return ChainCertificate(K, normal, order, quotient, f_k, embedded)


def build_normalizers(cfg: CaseConfig, rep: VerificationReport, gam: MatrixGroup,
                      coords: list | None, rho) -> ChainCertificate:
    """The chain-level and full normalizer models at odd p, with their
    extension certificates.  The chain normalizer is certified from
    generators by chain_certificate as Gamma x| K, with Gamma and its
    coords from verify_gamma, and rho, verify_rho's K = <D, sigma_g>, its
    USL2 verdict and the conjugates of Gamma's generators, split by
    the upper-triangular group and embedded in Heis x| SL2(F_p), which is
    never built: its order is p^3 |SL2| from mat2_group, and it is a group
    with complement {identity} x SL2 when M -> (f_M(a), f_M(b)) is
    injective and multiplicative: one section_walk from two transvections
    certifies that law and that they generate SL2.  Nothing is closed.
    Returns the chain certificate, for the scalar-extended models."""
    p = cfg.prime
    cert = chain_certificate(gam, coords, rho, d_sigma_matrices(p, smallest_primitive_root(p)))
    rep.add(
        "normalizer.chain_order",
        "the p-group together with the diagonal/scaling piece closes "
        "to a group of order p^4(p-1)",
        cert.order == p ** 4 * (p - 1),
        order=cert.order,
        expected=p ** 4 * (p - 1),
    )
    rep.add(
        "normalizer.chain_normal",
        "the p-group is normal in the chain-level normalizer",
        cert.normal,
    )
    rep.add(
        "normalizer.chain_quotient",
        "the quotient is certified isomorphic to the upper-triangular "
        "determinant-one group",
        cert.quotient,
    )
    rep.add(
        "normalizer.chain_split",
        "a complement exists (the extension splits), with the "
        "diagonal/scaling lift as witness",
        cert.complement_order > 0,
        complement_order=cert.complement_order,
    )

    sl = mat2_group(p, "SL")
    full_order = p ** 3 * sl.order
    rep.add(
        "normalizer.full_order",
        "the semidirect product with the special linear group, built "
        "from the certified coordinate section of the automorphism "
        "group, has order p^4(p^2-1)",
        full_order == p ** 4 * (p * p - 1),
        order=full_order,
        expected=p ** 4 * (p * p - 1),
    )
    _, split = section_walk(sl, [(1, 1, 0, 1), (1, 0, 1, 1)])
    rep.add(
        "normalizer.full_split",
        "the section {identity} x SL2 is a complement by construction",
        split,
    )
    rep.add(
        "normalizer.chain_embedding",
        "the chain-level normalizer embeds in the full model with "
        "index p+1",
        cert.embedded and split and full_order == (p + 1) * cert.order,
        index=(full_order // cert.order) if cert.embedded else None,
    )
    return cert


def _s3_over_core(G: MatrixGroup | None, k: int) -> bool:
    """Whether G exists and its quotient by <its first k generators> is S3."""
    if G is None:
        return False
    Q, _ = quotient(G, generated_subgroup(G, G.generator_indices[:k]))
    return isomorphism(Q, symmetric_group(3)) is not None


def build_quaternion_normalizers(cfg: CaseConfig, rep: VerificationReport) -> None:
    """The p = 2 tower, closed whole: Q16, its non-split extension of the
    quaternion core, and the binary octahedral group O48.  A closure past
    its cap fails its order check with order null, and the checks that
    read that group fail with it."""
    m = cfg.conductor
    A, B = gamma_matrices(cfg)
    F = std_matrix(2, "F", conductor=m)
    H = std_matrix(2, "H", conductor=m)
    chain2 = capped_closure([A, B, F], 64)
    rep.add(
        "normalizer.q16_order",
        "adjoining the eighth-root diagonal matrix F gives a group of "
        "order 16",
        chain2 is not None and chain2.order == 16,
        order=None if chain2 is None else chain2.order,
    )
    tag = None if chain2 is None else recognize(chain2)
    rep.add(
        "normalizer.q16_recognize",
        "that group is generalized quaternion (unique involution)",
        tag == "Q16",
        tag=tag,
    )
    ses = None if chain2 is None else sesverify(
        chain2, generated_subgroup(chain2, chain2.generator_indices[:2]),
        Q_expected=cyclic_group(2))
    profile = ses.lift_order_profiles[0] if ses and ses.lift_order_profiles else {}
    rep.add(
        "normalizer.q16_nonsplit",
        "no complement of the quaternion core exists: the nontrivial coset "
        "has element orders 4 and 8 only, so the extension by Z/2 is "
        "provably non-split",
        ses is not None and ses.split is False and sorted(profile) == [4, 8],
        coset_profile={str(k): v for k, v in sorted(profile.items())},
        tuples_checked=None if ses is None else ses.tuples_checked,
    )
    full2 = capped_closure([A, B, F, H], 128)
    rep.add(
        "normalizer.o48_order",
        "adjoining the Fourier-type matrix H as well gives a group of "
        "order 48",
        full2 is not None and full2.order == 48,
        order=None if full2 is None else full2.order,
    )
    tag = None if full2 is None else recognize(full2)
    rep.add(
        "normalizer.o48_recognize",
        "that group is the binary octahedral group (unique involution, "
        "central quotient the symmetric group on 4 letters)",
        tag == "O48",
        tag=tag,
    )
    rep.add(
        "normalizer.o48_quotient",
        "the quotient by the quaternion core is the symmetric group on "
        "3 letters",
        _s3_over_core(full2, 2),
    )


def _verify_u_odd_models(cfg: CaseConfig, rep: VerificationReport,
                         gam: MatrixGroup, cert: ChainCertificate) -> None:
    """Scalar-extended models for the full unitary family at odd p, from
    generators: nothing is closed.

    zI = zeta_(p^level) * I is central, so the core <Gamma, zI> is
    Gamma <zI>, of order |Gamma| k for the least k > 0 with zI^k in Gamma,
    to be p^(level+2): at level 1, k = 1 and the core is Gamma itself.  At
    higher levels the chain normalizer adjoins the generators of the
    certificate's K: K normalizes Gamma and commutes with zI, so the core
    is normal in it, of order |core| |K| / |core meet K|, where x in K lies
    in the core when zI^-j x is in Gamma for some j < k.  Without K, or
    when K does not normalize Gamma, there is no order.
    """
    p, n = cfg.prime, cfg.level
    zI = scalar_matrix(cfg, p ** n)
    # zI^m is the identity at conductor m, so k <= m
    k = next((j for j in range(1, cfg.conductor + 1) if gam.contains_matrix(zI ** j)),
             None) if zI.is_scalar() else None
    core = None if k is None else gam.order * k
    if n == 1:
        rep.add(
            "normalizer.u_core_order",
            "the p-torsion scalars lie inside the p-group, so the "
            "scalar-extended core at level 1 is the p-group itself",
            core == p ** (n + 2),
        )
        return
    rep.add(
        "normalizer.u_core_order",
        "the scalar-extended core has order p^(level+2)",
        core == p ** (n + 2),
        order=core,
    )
    K, order = cert.K, None
    if core is not None and cert.normal:
        # zI has finite order, so its powers are unitary: zI^-j is the
        # conjugate transpose of zI^j
        back = [(zI ** j).conj_transpose() for j in range(k)]
        meet = sum(1 for x in map(K.matrix, range(K.order))
                   if any(gam.contains_matrix(z * x) for z in back))
        order = core * K.order // meet
    rep.add(
        "normalizer.u_chain_order",
        "the scalar-extended chain normalizer has the encoded order "
        "p^(level+2) * p(p-1)",
        order == p ** (n + 2) * p * (p - 1),
        order=order,
    )


def _verify_u2_models(cfg: CaseConfig, rep: VerificationReport) -> None:
    """Scalar-extended p = 2 models for the full unitary family: the
    quaternion core gains the 2^level-torsion scalars, the chain extension
    now splits (witnessed by an explicit involution), and the torus side
    matches the encoded orders.  A model past its cap fails as in
    build_quaternion_normalizers."""
    m = cfg.conductor
    n = cfg.level
    A, B = gamma_matrices(cfg)
    F = std_matrix(2, "F", conductor=m)
    H = std_matrix(2, "H", conductor=m)
    zI = scalar_matrix(cfg, 2 ** n)
    gam_bar = capped_closure([A, B, zI], 4 * 2 ** (n + 2))
    rep.add(
        "normalizer.u2_core_order",
        "the scalar-extended quaternion core has order 2^(level+2)",
        gam_bar is not None and gam_bar.order == 2 ** (n + 2),
        order=None if gam_bar is None else gam_bar.order,
    )
    chain_u = capped_closure([A, B, zI, F], 8 * 2 ** (n + 2))
    rep.add(
        "normalizer.u2_chain_order",
        "adjoining F doubles the scalar-extended core",
        chain_u is not None and chain_u.order == 2 ** (n + 3),
        order=None if chain_u is None else chain_u.order,
    )
    iI = scalar_matrix(cfg, 4)
    x = iI * F * (A * B)
    witness_ok = (
        (x * x).is_identity()
        and gam_bar is not None and not gam_bar.contains_matrix(x)
        and chain_u is not None and chain_u.contains_matrix(x)
    )
    split = chain_u is not None and sesverify(
        chain_u, generated_subgroup(chain_u, chain_u.generator_indices[:3]),
        Q_expected=cyclic_group(2), hint_lifts=[chain_u.index_of(x)] if witness_ok else None,
    ).split is True
    rep.add(
        "normalizer.u2_chain_split",
        "unlike the determinant-one family, the scalar-extended chain "
        "extension splits: i*F*(AB) is an involution outside the core",
        witness_ok and split and x.det() == -CycNum.one(m),
        witness_det_minus_one=(x.det() == -CycNum.one(m)),
    )
    full_u = capped_closure([A, B, zI, F, H], 16 * 2 ** (n + 2))
    rep.add(
        "normalizer.u2_full_order",
        "adjoining H as well gives six times the scalar-extended core",
        full_u is not None and full_u.order == 6 * 2 ** (n + 2),
        order=None if full_u is None else full_u.order,
    )
    rep.add(
        "normalizer.u2_full_quotient",
        "its quotient by the scalar-extended core is the symmetric group "
        "on 3 letters",
        _s3_over_core(full_u, 3),
    )
    tor = torus_extension_group(2, n, det_one=False, conductor=m)
    rep.add(
        "normalizer.u2_torus_order",
        "the full-torus extension has order 2^(2*level+1), the encoded "
        "torus-times-swap order",
        tor.order == 2 ** (2 * n + 1),
        order=tor.order,
    )


# -- the az family ----------------------------------------------------------


def verify_az(cfg: CaseConfig, rep: VerificationReport) -> None:
    p = cfg.prime

    cert = aut_certificate(p)
    hberg, gl = HeisenbergGroup(p), mat2_group(p, "GL")
    full_order = hberg.order * gl.order
    rep.add(
        "az.aut_count",
        "the noncommuting generator-pair scan counts the automorphism "
        "group: p^3(p-1)(p^2-1) = (p^3-p)(p^3-p^2)",
        cert.scan_count == cert.closed_formula == cert.factored_formula,
        scan=cert.scan_count,
        closed=cert.closed_formula,
        factored=cert.factored_formula,
    )
    rep.add(
        "az.aut_certificate",
        "inner automorphisms and the certified coordinate section of the "
        "general linear group intersect trivially and account for the "
        "whole automorphism group",
        cert.ok,
        inner=cert.inner_order,
        section=cert.section_order,
    )

    rep.add(
        "az.aut_ses",
        "the inner automorphisms, normal in the automorphism group, and "
        "the certified coordinate section, a subgroup isomorphic to the "
        "general linear group, meet trivially and have the scan count as "
        "product: the extension splits, with the section as complement",
        cert.split,
        aut_order=cert.inner_order * cert.section_order,
    )

    xi = smallest_primitive_root(p)
    M = primitive_scaling_matrix(p)
    rep.add(
        "az.adams_shape",
        "the scaling automorphism acts on the coordinate quotient as an "
        "upper-triangular matrix of determinant xi",
        M == (xi, 0, 0, 1) and M[2] == 0 and (M[0] * M[3] - M[1] * M[2]) % p == xi,
        matrix=list(M),
        xi=xi,
    )
    a_idx, b_idx = hberg.a_index, hberg.b_index
    phi = propagate_hom(hberg, hberg, [a_idx, b_idx],
                        [hberg.encode(*w) for w in section_pair(p, M)])
    rep.add(
        "az.adams_automorphism",
        "that scaling map is a certified automorphism sending the first "
        "generator to its xi-th power and fixing the second",
        phi is not None
        and len(set(phi.values())) == hberg.order
        and phi[a_idx] == hberg.encode(0, xi, 0)  # a^xi
        and phi[b_idx] == b_idx,
    )

    usl = mat2_group(p, "USL")
    ugl = mat2_group(p, "UGL")
    gens = [ugl.index[mat] for mat in (*d_sigma_matrices(p, xi), M)]
    gen_span = generated_subgroup(ugl, gens)
    rep.add(
        "az.adams_extends",
        "the determinant-one upper-triangular matrices together with the "
        "scaling matrix generate the full upper-triangular group",
        len(gen_span) == ugl.order == p * (p - 1) ** 2,
        generated=len(gen_span),
        expected=ugl.order,
    )

    chain_order = hberg.order * ugl.order
    rep.add(
        "az.chain_order",
        "the semidirect product with the upper-triangular group has order "
        "p^4(p-1)^2",
        chain_order == p ** 4 * (p - 1) ** 2,
        order=chain_order,
    )
    rep.add(
        "az.full_order",
        "the semidirect product with the general linear group has order "
        "p^4(p-1)(p^2-1)",
        full_order == p ** 4 * (p - 1) * (p * p - 1),
        order=full_order,
    )
    rep.add(
        "az.index",
        "the chain product sits in the full product with index p+1",
        full_order == (p + 1) * chain_order,
        index=full_order // chain_order,
    )
    rep.add(
        "az.usl_in_ugl",
        "the determinant-one upper-triangular group is a subgroup of the "
        "full upper-triangular group of index p-1",
        ugl.order == (p - 1) * usl.order,
    )


# -- decomposition diagrams -------------------------------------------------


def chain_classes(cfg: CaseConfig) -> tuple[list[dict], list[tuple[str, str, dict]]]:
    """The chain-class poset of the configured family as one node/edge table.

    Each node carries its diagram key ("id"), the chain member names, the
    structural tag, and |Aut_L| ("autL_order") from the verified finite
    models and the torus truncation level; the torus-normalizer node of
    the az family is symbolic instead.  Each edge is (source, target,
    attrs), attrs marking an aut isomorphism with iso=True.  The unitary
    families have five classes in a W for p >= 5 and three for p in
    {2, 3}; the az family has three.
    """
    p, n = cfg.prime, cfg.level
    pushout = [("gamma_s", "gamma", {}), ("gamma_s", "t", {})]
    if cfg.case == "az":
        return [
            {"id": "gamma", "chain": ["Gamma"], "tag": "Gamma:GL2(F%d)" % p,
             "autL_order": p ** 4 * (p - 1) * (p * p - 1),
             "autF_order": p ** 3 * (p - 1) * (p * p - 1)},
            {"id": "gamma_s", "chain": ["Gamma", "S"], "tag": "Gamma:U(GL2(F%d))" % p,
             "autL_order": p ** 4 * (p - 1) ** 2, "autF_order": p ** 3 * (p - 1) ** 2},
            {"id": "t", "chain": ["S"] if p == 3 else ["T"], "tag": "T:G%d" % cfg.az_index,
             "symbolic": True, "torus_order": torus_order(p, n, det_one=True),
             "weyl_center_order": p - 1},
        ], pushout

    det_one = cfg.case == "sup"
    circle = "" if det_one else " x S1"
    tor = torus_order(p, n, det_one)
    # scalar-extended core order: p^(level+2) in the full unitary family,
    # plain p^3 on the determinant-one side
    core = p ** 3 if det_one else p ** (n + 2)
    if p == 2:
        gamma_tag = ("Gamma:O48" if det_one else "Gamma.Sigma3") + circle
        chain_tag = ("Gamma:Q16" if det_one else "Gamma.Sigma2") + circle
        gamma_order, chain_order = 6 * core, 2 * core
        t_tag, t_order = "T:Sigma2", tor * 2
    else:
        gamma_tag = "Gamma:SL2(F%d)%s" % (p, circle)
        chain_tag = "Gamma:U(SL2(F%d))%s" % (p, circle)
        gamma_order, chain_order = core * p * (p * p - 1), core * p * (p - 1)
        t_tag, t_order = "T:Sigma%d" % p, tor * math.factorial(p)
    nodes = [
        {"id": "gamma", "chain": ["Gamma"], "tag": gamma_tag, "autL_order": gamma_order},
        {"id": "gamma_s", "chain": ["Gamma", "S"], "tag": chain_tag, "autL_order": chain_order},
    ]
    if p < 5:
        nodes.append({"id": "t", "chain": ["S"], "tag": t_tag, "autL_order": t_order})
        return nodes, pushout
    s_tag, s_order = "T:AGL1(F%d)" % p, tor * p * (p - 1)
    nodes += [
        {"id": "s", "chain": ["S"], "tag": s_tag, "autL_order": s_order},
        {"id": "t_s", "chain": ["T", "S"], "tag": s_tag, "autL_order": s_order},
        {"id": "t", "chain": ["T"], "tag": t_tag, "autL_order": t_order},
    ]
    return nodes, [("gamma_s", "gamma", {}), ("gamma_s", "s", {}),
                   ("t_s", "s", {"iso": True}), ("t_s", "t", {})]


def emit_decomposition(cfg: CaseConfig, rep: VerificationReport) -> dict:
    """The chain-class poset of chain_classes and its collapse.

    A poset with an iso edge (the five-class W at p >= 5) is emitted and
    collapsed through that edge; the three-class posets are the pushout
    shape already and are emitted directly.
    """
    p = cfg.prime
    nodes, edges = chain_classes(cfg)
    if cfg.case == "az":
        name = "az_%d_G%d" % (p, cfg.az_index)
    else:
        name = "%s_%d_level%d" % (cfg.case, p, cfg.level)
    has_iso = any(a.get("iso") for _, _, a in edges)
    d = chain_diagram(name + "_chains" if has_iso else name, nodes, edges)

    collapsed = d
    if has_iso:
        rep.add(
            "diagram.w_shape",
            "the five chain classes form the W-shaped poset with the "
            "torus-chain leg marked as an aut isomorphism",
            len(d.nodes) == 5 and len(d.edges) == 4
            and sum(1 for _, _, a in d.edges if a.get("iso")) == 1,
        )
        collapsed = contract_iso_edges(d)
        collapsed.name = name
    rep.add(
        "diagram.pushout_shape",
        "the %s diagram is the three-node pushout: corner <- chain -> "
        "torus-normalizer" % ("emitted" if cfg.case == "az" else "final"),
        sorted(collapsed.nodes) == ["gamma", "gamma_s", "t"]
        and sorted((s, t) for s, t, _ in collapsed.edges)
        == [("gamma_s", "gamma"), ("gamma_s", "t")],
    )
    if cfg.case != "az":
        gamma_order, chain_order = nodes[0]["autL_order"], nodes[1]["autL_order"]
        rep.add(
            "diagram.corner_index",
            "the corner aut order is p+1 times the chain aut order",
            gamma_order == (p + 1) * chain_order,
            corner=gamma_order,
            chain=chain_order,
        )
    return {"poset": d if has_iso else None, "collapsed": collapsed}


def weyl_op_trivial(p: int) -> bool:
    """Whether O_p(Sigma_p) = 1, for the Weyl group Sigma_p of U(p).

    p divides p! exactly once, so the p-cycle c generates a Sylow
    p-subgroup of order p, and O_p(Sigma_p), the intersection of the Sylow
    p-subgroups, is trivial unless <c> is normal.  Sigma_p is generated by
    c and the transposition t = (0 1), and c normalizes <c>, so <c> is
    normal exactly when t c t is a power of c, a shift i -> i + k mod p.
    """
    c = [(i + 1) % p for i in range(p)]
    t = [1, 0] + list(range(2, p))
    shifts = {(t[c[t[i]]] - i) % p for i in range(p)}
    return len(shifts) > 1


def verify_encoded_poset(cfg: CaseConfig, rep: VerificationReport,
                         gam: MatrixGroup) -> None:
    """Cross-checks between the chain-class table and the concrete matrix
    models: class count, member containments, and the non-isomorphism of
    the core gam and the torus at the truncation level.

    The class count is computed, not encoded.  C(T) = T, so Out(T) is the
    Weyl group W = Sigma_p, and T is radical exactly when O_p(W) = 1
    (weyl_op_trivial).  A radical T adds the torus chains T and T < S to
    the classes Gamma, Gamma < S and S: five classes in a W.  Otherwise
    the torus side is the one class S: three classes.
    """
    p, n = cfg.prime, cfg.level
    classes, _ = chain_classes(cfg)
    want = 5 if weyl_op_trivial(p) else 3
    rep.add(
        "poset.class_count",
        "there are %d chain classes at p = %d" % (want, p),
        len(classes) == want,
        classes=len(classes),
    )
    A, B = gamma_matrices(cfg)
    ok_gamma_in_s = all(
        in_truncated_torus_extension(x, p, n, det_one=True) for x in (A, B)
    )
    tgens = torus_extension_generators(p, n, det_one=True, conductor=cfg.conductor)
    ok_t_in_s = all(
        in_truncated_torus_extension(t, p, n, det_one=True) for t in tgens[:-1]
    )
    rep.add(
        "poset.containments",
        "the p-group core and the torus both sit inside the torus "
        "extension at the truncation level",
        ok_gamma_in_s and ok_t_in_s,
    )
    tor = torus_order(p, n, det_one=True)
    if tor == p ** 3:
        tor_group = closure(tgens[:-1], cap=4 * tor)
        noniso = isomorphism(gam, tor_group) is None
        rep.add(
            "poset.core_vs_torus",
            "even at equal order the core is not isomorphic to the "
            "(abelian) torus",
            noniso,
            order=tor,
        )
    else:
        rep.add(
            "poset.core_vs_torus",
            "the core and the torus have different orders at this level",
            tor != p ** 3,
            core=p ** 3,
            torus=tor,
        )


# -- suite driver -----------------------------------------------------------


def run_suite(cfg: CaseConfig) -> VerificationReport:
    """The full verification suite for one configuration.

    At odd p every object of the tower is built once and passed on:
    verify_gamma's Gamma with its scalars and coordinates, and verify_rho's
    K = <D, sigma_g> with its USL2 verdict and the conjugates of Gamma's
    generators by D and sigma_g, from which build_normalizers certifies
    the chain normalizer (14406 elements at p = 7) as Gamma x| K without
    closing it and embeds it in Heis x| SL2(F_p), read through the
    section pairs and never built.
    Without Gamma (gamma.order failed past its cap) the suite ends there.
    """
    rep = VerificationReport(cfg)
    gam, scalars, coords = verify_gamma(cfg, rep)
    if gam is None:
        # every later check reads Gamma
        return rep
    if cfg.case == "az":
        verify_rho(cfg, rep, gam, coords)
        verify_az(cfg, rep)
        emit_decomposition(cfg, rep)
        return rep

    if cfg.prime == 2:
        build_quaternion_normalizers(cfg, rep)
        if cfg.case == "up":
            _verify_u2_models(cfg, rep)
    else:
        verify_tau(cfg, rep, gam, scalars)
        rho = verify_rho(cfg, rep, gam, coords)
        cert = build_normalizers(cfg, rep, gam, coords, rho)
        if cfg.case == "up":
            _verify_u_odd_models(cfg, rep, gam, cert)
    verify_encoded_poset(cfg, rep, gam)
    emit_decomposition(cfg, rep)
    return rep


def all_configs() -> list[CaseConfig]:
    """Every supported (case, prime[, index]) pair at default level."""
    out = []
    for p in SUPPORTED_PRIMES:
        out.append(CaseConfig("sup", p))
    for p in SUPPORTED_PRIMES:
        out.append(CaseConfig("up", p))
    for idx in sorted(AZ_PRIME_OF_INDEX):
        out.append(CaseConfig("az", AZ_PRIME_OF_INDEX[idx], az_index=idx))
    return out
