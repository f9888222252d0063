"""Chain-class posets, checked against an exhaustive oracle on S4 at p = 2.

The oracle re-derives the poset with none of the library's shortcuts: it
enumerates every chain as an ordered subset of the centric-radical list,
quotients by simultaneous conjugacy through a full scan over group
elements (no canonical keys), and reads off refinement edges directly.
Agreement pins down the canonical-key quotient and the edge construction.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fusionkit import cli, fusion
from fusionkit.extraspecial import heisenberg_semidirect
from fusionkit.fingroup import (
    TableGroup,
    all_subgroups,
    center,
    generated_subgroup,
    group_to_json,
    normalizer,
    recognize,
    subgroup_as_group,
    symmetric_group,
)
from fusionkit.matgroup import closure, std_matrix
from fusionkit.fusion import (
    ChainPoset,
    ConjugationAction,
    FusionData,
    _induced_perms,
    is_p_power,
    p_part,
    proper_subchains,
    sylow_members,
)
from test_cli import ORDER_6_LOOP, ORDER_8_LOOPS


def test_p_part_and_is_p_power():
    assert p_part(24, 2) == 8
    assert p_part(24, 3) == 3
    assert is_p_power(8, 2) and not is_p_power(24, 2)
    assert is_p_power(1, 5)


def test_sylow_members_s4():
    S4 = symmetric_group(4)
    S = sylow_members(S4, 2)
    assert len(S) == 8
    assert recognize(subgroup_as_group(S4, S)) == "D8"
    S3part = sylow_members(S4, 3)
    assert len(S3part) == 3


def conjugate_members(G, g: int, members) -> tuple[int, ...]:
    """The sorted members of g H g^-1, multiplied out."""
    gi = G.inv(g)
    return tuple(sorted(G.mult(G.mult(g, x), gi) for x in members))


def oracle_poset(fd: FusionData):
    """Exhaustive no-merging poset: all chains, full conjugacy scan."""
    G = fd.G
    crs = sorted(fd.cr_subgroups, key=lambda m: (len(m), m))
    sets = [frozenset(m) for m in crs]

    chains = []
    for r in range(1, len(crs) + 1):
        for combo in itertools.combinations(range(len(crs)), r):
            if all(sets[combo[i]] < sets[combo[i + 1]] for i in range(r - 1)):
                chains.append(tuple(crs[i] for i in combo))

    # quotient by simultaneous conjugacy, brute force
    classes: list[list[tuple]] = []
    for c in chains:
        placed = False
        for cls in classes:
            rep = cls[0]
            if len(rep) != len(c):
                continue
            for g in range(G.order):
                if all(
                    conjugate_members(G, g, c[i]) == rep[i] for i in range(len(c))
                ):
                    cls.append(c)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            classes.append([c])

    # number the classes as the engine does, by (length, member orders,
    # chain) of each class's least chain
    classes.sort(key=lambda cls: (len(min(cls)), [len(m) for m in min(cls)], min(cls)))

    # refinement edges between classes
    idx_of = {}
    for i, cls in enumerate(classes):
        for c in cls:
            idx_of[c] = i
    edges = set()
    for c in chains:
        for r in range(1, len(c)):
            for keep in itertools.combinations(range(len(c)), r):
                sub = tuple(c[i] for i in keep)
                edges.add((idx_of[c], idx_of[sub]))
    return classes, edges


def test_s4_poset_matches_exhaustive_oracle():
    S4 = symmetric_group(4)
    fd = FusionData(S4, 2)
    poset = fd.sd_poset()
    classes, edges = oracle_poset(fd)

    assert len(poset.rows) == len(classes) == 3

    # row i is oracle class i: the same size and member orders
    for i, (row, cls) in enumerate(zip(poset.rows, classes)):
        assert row["id"] == "c%d" % i
        assert row["class_size"] == len(cls)
        assert row["chain_orders"] == [len(m) for m in min(cls)]

    lib_edges = {(int(s[1:]), int(t[1:])) for s, t, _ in poset.edges}
    assert lib_edges == edges


def test_s4_class_data_frozen():
    S4 = symmetric_group(4)
    poset = FusionData(S4, 2).sd_poset()
    rows = [
        (
            row["chain"],
            row["autF_order"],
            row["autL_order"],
            row["tag"],
        )
        for row in poset.rows
    ]
    assert rows == [
        (["C2xC2"], 6, 24, "S4"),
        (["D8"], 4, 8, "D8"),
        (["C2xC2", "D8"], 4, 8, "D8"),
    ]
    assert poset.edges == [
        ("c2", "c0", {}),
        ("c2", "c1", {"iso": True}),
    ]


def test_s4_order_identity_every_chain():
    # |Aut_L| = |Z(top)| * |Aut_F| holds chain by chain
    S4 = symmetric_group(4)
    fd = FusionData(S4, 2)
    for chain in fd.chains():
        rep = fd.chain_aut(chain)
        assert rep.centralizer_splits
        assert rep.aut_l_order == rep.z_order * rep.aut_f_order
        assert rep.aut_l_order * rep.nu_prime_order == len(fd.inter_norm(chain))


def test_s4_collapse_to_two_classes():
    S4 = symmetric_group(4)
    poset = FusionData(S4, 2).sd_poset()
    d = poset.collapsed_diagram()
    assert sorted(d.nodes) == ["c0", "c2"]
    assert [(s, t) for s, t, _ in d.edges] == [("c2", "c0")]


def test_s3_single_class_at_p3():
    S3 = symmetric_group(3)
    fd = FusionData(S3, 3)
    poset = fd.sd_poset()
    assert len(poset.rows) == 1
    row = poset.rows[0]
    assert row["autF_order"] == 2
    assert row["autL_order"] == 6
    (chain,) = fd.chains()
    assert fd.chain_aut(chain).z_order == 3
    assert poset.edges == []


def test_centric_and_radical_filters():
    S4 = symmetric_group(4)
    fd = FusionData(S4, 2)
    crs = fd.cr_subgroups
    assert sorted(len(m) for m in crs) == [4, 8]
    # the Sylow subgroup itself is always centric and radical here
    assert tuple(sorted(fd.S)) in crs


def test_proper_subchains():
    chain = ("a", "b", "c")
    subs = proper_subchains(chain)
    assert ("a",) in subs and ("a", "c") in subs and ("b", "c") in subs
    assert len(subs) == 6
    assert chain not in subs


def test_chain_key_constant_on_conjugates():
    S4 = symmetric_group(4)
    fd = FusionData(S4, 2)
    chain = (tuple(sorted(fd.S)),)
    key = fd.chain_key(chain)
    for g in range(0, 24, 5):
        conj = (conjugate_members(S4, g, chain[0]),)
        assert fd.chain_key(conj) == key


def test_chain_aut_rejects_an_order_mismatch(monkeypatch, tmp_path, capsys):
    # when the top centralizer splits, |Aut_L| = |Z(top)| * |Aut_F| holds in
    # every group; an Aut_L taken over all of S4 instead of the common
    # normalizer breaks it (24 != 2 * 4 at the Sylow D8), and the check
    # reports a non-group: fusion exits 2 with one line and no traceback.
    # Only chain_aut's quotient is made faulty: S/Z(S) and the subgroup
    # names go through quotient too
    S4 = symmetric_group(4)
    quotient = fusion.quotient

    def faulty_quotient(G, members, within=None):
        if sys._getframe(1).f_code.co_name == "chain_aut":
            within = None
        return quotient(G, members, within)

    monkeypatch.setattr(fusion, "quotient", faulty_quotient)
    fd = FusionData(S4, 2)
    with pytest.raises(ValueError, match="the input is not a group"):
        fd.chain_aut((fd.S,))
    path = tmp_path / "s4.json"
    path.write_text(group_to_json(S4))
    assert cli.main(["fusion", "--input", str(path), "--prime", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fusionkit: error: |Aut_L| = 24 is not |Z(top)| * |Aut_F|")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_stabilizer_rejects_a_non_group():
    # a Latin square with an identity, not associative: the orbit of {1}
    # under its conjugation maps has 4 points, which do not divide |G| = 5,
    # so no closure of Schreier generators has |G|/|orbit| elements
    rows = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    action = ConjugationAction(TableGroup([x for row in rows for x in row], len(rows)))
    assert len(action.orbit(((1,),))[0]) == 4
    with pytest.raises(ValueError, match="not a group"):
        action.stabilizer(((1,),))


def _intercalate_switches(t, rng, k=20):
    """k random intercalate switches away from row and column 0: each swaps
    a and b in a 2x2 Latin subsquare, so the table stays a Latin square
    whose row and column 0 are the identity's."""
    t = [row[:] for row in t]
    n = len(t)
    for _ in range(k):
        cands = [(r1, r2, c1, c2)
                 for r1, r2 in itertools.combinations(range(1, n), 2)
                 for c1, c2 in itertools.combinations(range(1, n), 2)
                 if t[r1][c1] == t[r2][c2] and t[r1][c2] == t[r2][c1]]
        if not cands:
            break
        r1, r2, c1, c2 = rng.choice(cands)
        a, b = t[r1][c1], t[r1][c2]
        t[r1][c1] = t[r2][c2] = b
        t[r1][c2] = t[r2][c1] = a
    return t


@st.composite
def non_associative_loops(draw):
    """(table, p): a switched cyclic table that is not associative, and a
    prime dividing its order.  Of the orders 4-9 only 6 and 8 give one: a
    cyclic table of odd order has no intercalate, and a loop of order 4 is
    a group."""
    n = draw(st.sampled_from((6, 8)))
    t = _intercalate_switches([[(i + j) % n for j in range(n)] for i in range(n)],
                              random.Random(draw(st.integers(0, 2 ** 32))))
    assume(any(t[t[a][b]][c] != t[a][t[b][c]] for a, b, c in itertools.product(range(n), repeat=3)))
    return t, draw(st.sampled_from([p for p in (2, 3) if n % p == 0]))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(non_associative_loops())
@example((ORDER_6_LOOP, 3))
@example((ORDER_8_LOOPS["center-not-normal"], 2))
@example((ORDER_8_LOOPS["conjugate-leaves"], 2))
def test_fusion_on_a_loop_returns_or_rejects_it(loop):
    # the engine either finishes or raises ValueError, which fusion reports
    # as a usage error; no other exception escapes on a non-group
    t, p = loop
    try:
        FusionData(TableGroup([x for row in t for x in row], len(t)), p).sd_poset()
    except ValueError:
        pass


@functools.cache
def _fusion_model(name):
    """(G, p) for the differential tests of the orbit search, built once
    per model: no test changes a group."""
    from test_golden import relabeled

    if name == "S4":
        return symmetric_group(4), 2
    if name == "O48":
        gens = [std_matrix(2, "A", det_one=True), std_matrix(2, "B", det_one=True),
                std_matrix(2, "F"), std_matrix(2, "H")]
        return closure(gens, expected=48), 2
    return relabeled(heisenberg_semidirect(3, "SL"), random.Random(1)), 3


MODELS = ["S4", "O48", "Heis3:SL2(F3)"]


def _subgroups_of_S(fd: FusionData) -> list[tuple[int, ...]]:
    """Every subgroup of S in G's indexing, also those without Z(S)."""
    subs = all_subgroups(subgroup_as_group(fd.G, fd.S))
    return sorted(tuple(sorted(fd.S[i] for i in sub)) for sub in subs)


def _pairs(subs):
    return [(P, Q) for P in subs for Q in subs if len(P) < len(Q) and set(P) < set(Q)]


def _conjugation_table(G):
    return [[G.conjugate(g, x) for x in range(G.order)] for g in range(G.order)]


def _orbit_by_while_loop(action: ConjugationAction, chain):
    """ConjugationAction.orbit as a queue walked by a while loop, the
    transversal and the non-tree arcs recorded as each image is found: the
    oracle for the orbit read off the walk's Schreier graph."""
    G = action.G
    orbit = [tuple(tuple(sorted(m)) for m in chain)]
    where = {orbit[0]: 0}
    transversal = [G.identity]
    arcs = []
    i = 0
    while i < len(orbit):
        for k, perm in enumerate(action.maps):
            d = tuple(tuple(sorted(perm[x] for x in m)) for m in orbit[i])
            j = where.get(d)
            if j is None:
                where[d] = len(orbit)
                orbit.append(d)
                transversal.append(G.mult(action.gens[k], transversal[i]))
            else:
                arcs.append((i, k, j))
        i += 1
    return orbit, transversal, arcs


@pytest.mark.parametrize("name", MODELS)
def test_orbit_search_matches_full_scan(name):
    # the conjugation orbit and chain_key against a scan over every g in G,
    # for every subgroup of S, every pair P < Q of them and every chain;
    # the orbit, transversal and arcs against the while-loop oracle
    G, p = _fusion_model(name)
    fd = FusionData(G, p)
    conj = _conjugation_table(G)

    def scan(chain):
        return {tuple(tuple(sorted(c[x] for x in m)) for m in chain) for c in conj}

    subs = _subgroups_of_S(fd)
    for P in subs:
        assert set(fd.action.orbit((P,))[0]) == scan((P,))
    pairs = _pairs(subs)
    chains = fd.chains()
    assert len(pairs) > 10 and len(chains) >= 2
    for chain in pairs + chains:
        assert fd.chain_key(chain) == min(scan(chain))
    for chain in [(P,) for P in subs] + chains:
        orbit, transversal, arcs = fd.action.orbit(chain)
        assert (orbit, transversal, arcs) == _orbit_by_while_loop(fd.action, chain)
        # transversal[i] conjugates the chain onto orbit[i]
        assert [tuple(tuple(sorted(conj[u][x] for x in m)) for m in orbit[0])
                for u in transversal] == orbit
        # one tree arc into each point after the first, the rest are arcs
        assert len(arcs) == len(orbit) * len(fd.action.gens) - (len(orbit) - 1)


@pytest.mark.parametrize("name", MODELS)
def test_stabilizers_match_full_scan(name):
    # inter_norm (Schreier generators of the chain's stabilizer) against
    # the elements of G that map every member set of the chain to itself,
    # for every subgroup of S, every pair P < Q and every chain; and the
    # kept generators generate it
    G, p = _fusion_model(name)
    fd = FusionData(G, p)
    conj = _conjugation_table(G)
    subs = _subgroups_of_S(fd)
    for chain in [(P,) for P in subs] + _pairs(subs) + fd.chains():
        sets = [set(m) for m in chain]
        want = tuple(g for g in range(G.order)
                     if all(sets[i] == {conj[g][x] for x in m} for i, m in enumerate(chain)))
        assert fd.inter_norm(chain) == want
        members, gens = fd.action.stabilizer(chain)
        assert members == want and generated_subgroup(G, gens) == want


def _conjugation_perm(G, g, members):
    """Conjugation by g, as a permutation of members' positions."""
    pos = {m: i for i, m in enumerate(members)}
    return tuple(pos[G.conjugate(g, x)] for x in members)


def _centric_by_scan(fd: FusionData, members) -> bool:
    G = fd.G
    for g in range(G.order):
        c = set(G.conjugate(g, x) for x in members)
        if not c <= set(fd.S):
            continue
        for s in fd.S:
            if s not in c and all(G.mult(s, x) == G.mult(x, s) for x in c):
                return False
    return True


@pytest.mark.parametrize("name", MODELS)
def test_aut_f_and_centric_match_full_scan(name):
    # aut_f_of against conjugation by every element of the scanned
    # normalizer, and is_centric against the definition over every g in G
    # and every member of the conjugate, on every subgroup of S; the
    # subgroups without Z(S) are never centric
    G, p = _fusion_model(name)
    fd = FusionData(G, p)
    zset = set(center(subgroup_as_group(G, fd.S)))
    zS = {fd.S[i] for i in zset}
    subs = _subgroups_of_S(fd)
    assert fd.sylow_subgroups == [P for P in subs if zS <= set(P)]
    assert len(fd.sylow_subgroups) < len(subs)
    verdicts = []
    for P in subs:
        N = normalizer(G, P)
        assert sorted(map(tuple, fd.aut_f_of(P).perms)) == sorted({_conjugation_perm(G, g, P) for g in N})
        centric = _centric_by_scan(fd, P)
        assert fd.is_centric(P) == centric
        assert not centric or zS <= set(P)
        verdicts.append(centric)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("name", MODELS)
def test_chain_aut_matches_full_scan(name):
    # Aut_F, |Z(top)| and |C_G(top)| of chain_aut against scans:
    # conjugation by every element of the scanned common normalizer, and
    # centralizers over every element of G and of top
    G, p = _fusion_model(name)
    fd = FusionData(G, p)
    S = tuple(sorted(fd.S))
    chains = fd.chains() + [(P, S) for P in fd.sylow_subgroups if P != S]
    for chain in chains:
        rep = fd.chain_aut(chain)
        top = chain[-1]
        N = [g for g in range(G.order)
             if all(set(m) == {G.conjugate(g, x) for x in m} for m in chain)]
        on_top = {_conjugation_perm(G, g, top) for g in N}
        aut_f = _induced_perms(G, fd.action.stabilizer(chain)[1], top)
        assert sorted(map(tuple, aut_f.perms)) == sorted(on_top)
        assert rep.aut_f_order == len(on_top)
        C = [g for g in range(G.order) if all(G.mult(g, x) == G.mult(x, g) for x in top)]
        Z = [x for x in top if all(G.mult(x, y) == G.mult(y, x) for y in top)]
        assert rep.centralizer_order == len(C)
        assert rep.z_order == len(Z)


def test_p5_sl_model_poset_pinned():
    # the order-15000 model Heis(5) x| SL2(F5), run on the SemidirectGroup
    # with no table: Gamma, S and Gamma < S, with |Aut_L| = p^3 p(p^2-1) at
    # Gamma and p^3 p(p-1) at S and at Gamma < S
    fd = FusionData(heisenberg_semidirect(5, "SL"), 5)
    poset = fd.sd_poset()
    assert len(fd.sylow_subgroups) == 39
    assert sum(map(fd.is_centric, fd.sylow_subgroups)) == 27
    assert len(fd.cr_subgroups) == 2
    rows = [(row["chain"], row["chain_orders"], row["class_size"],
             row["autF_order"], row["autL_order"]) for row in poset.rows]
    assert rows == [
        (["extraspecial(5^3, exp p)"], [125], 1, 3000, 15000),
        (["unknown(order 625)"], [625], 1, 500, 2500),
        (["extraspecial(5^3, exp p)", "unknown(order 625)"], [125, 625], 1, 500, 2500),
    ]
    assert poset.edges == [("c2", "c0", {}), ("c2", "c1", {"iso": True})]
    text = json.dumps(poset.to_json_dict(), sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "49675224f56378595686f4e16e970eb2f06dde860683802a1dcb9bf20f46c020")
