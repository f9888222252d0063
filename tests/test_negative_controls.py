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

from fusionkit import cases, cli
from fusionkit.fingroup import smallest_primitive_root


@pytest.fixture(autouse=True)
def no_env(monkeypatch):
    for key in [k for k in os.environ if k.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(key)


def verify_report(case: str, p: int, *extra: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--case", case, "--prime", str(p), *extra, "--format", "json"])
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
    if mutation == "A,A" and case == "up":
        # <A> holds no scalar matrix
        want.append("normalizer.u_core_order")
    got = failed(verify_report(case, p))
    assert list(got) == want
    if mutation == "A,A":
        # Gamma is <A>, of order p; K still normalizes it and meets it trivially
        assert got["gamma.order"] == {"order": p, "expected": p ** 3}
        assert got["normalizer.chain_order"] == {"order": p * p * (p - 1),
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
