"""Finite group machinery: subgroup lattice, homomorphism propagation,
extension verification, and structure recognition.

Frozen names and orders below are classical facts (orders of symmetric and
2x2 matrix groups, the subgroup structure of S4) checked once by hand.
"""

from __future__ import annotations

import io
import json
import random

import pytest

from fusionkit import fingroup
from fusionkit.fingroup import (
    CapExceeded,
    PermGroup,
    TableGroup,
    abelian_factor_orders,
    all_subgroups,
    automorphism_group,
    bfs_closure,
    center,
    centralizer,
    cyclic_group,
    generated_subgroup,
    greedy_generators,
    group_from_json,
    group_from_json_dict,
    group_to_json,
    group_to_json_dict,
    grow_generators,
    hom_by_generators,
    is_prime,
    isomorphic,
    isomorphism,
    left_cosets,
    mat2_group,
    normal_closure,
    normalizer,
    perm_closure,
    perm_mul,
    perm_store,
    propagate_hom,
    quotient,
    recognize,
    right_mul_by,
    sesverify,
    smallest_primitive_root,
    spot_check_associativity,
    subgroup_as_group,
    subgroup_generators,
    symmetric_group,
)


def direct_product(A: TableGroup, B: TableGroup) -> TableGroup:
    n, m = A.order, B.order
    table = [A.mult(i // m, j // m) * m + B.mult(i % m, j % m)
             for i in range(n * m) for j in range(n * m)]
    return TableGroup(table, n * m)


def test_cyclic_group_basics():
    G = cyclic_group(6)
    assert G.order == 6
    assert G.element_order(1) == 6
    assert G.inv(1) == 5
    assert spot_check_associativity(G)


def test_table_group_rejects_a_malformed_table():
    with pytest.raises(ValueError, match="3 entries, expected 4"):
        TableGroup([0, 1, 1], 2)
    with pytest.raises(ValueError, match="no identity"):
        TableGroup([1, 1, 1, 1], 2)
    with pytest.raises(ValueError, match="element 1 has no inverse"):
        TableGroup([0, 1, 1, 1], 2)


def _named_group(name):
    from fusionkit.extraspecial import HeisenbergGroup, heisenberg_semidirect
    from fusionkit.matgroup import closure, std_matrix

    if name == "S4":
        return symmetric_group(4)
    if name == "Heis3":
        return HeisenbergGroup(3)
    if name == "O48":
        return closure([std_matrix(2, "A", det_one=True), std_matrix(2, "B", det_one=True),
                        std_matrix(2, "F"), std_matrix(2, "H")], expected=48)
    assert name == "Heis3:USL2(F3)"
    return heisenberg_semidirect(3, "USL")


@pytest.mark.parametrize("name", ["S4", "O48", "Heis3:USL2(F3)"])
def test_group_table_json_round_trip(name):
    # read back from the document and from its text, the table is G's
    G = _named_group(name)
    n = G.order
    for H, p in (group_from_json_dict(group_to_json_dict(G, 5)),
                 group_from_json(group_to_json(G, 5))):
        assert (H.order, H.identity, p) == (n, G.identity, 5)
        assert list(H.table) == [G.mult(i, j) for i in range(n) for j in range(n)]
        assert [H.inv(i) for i in range(n)] == [G.inv(i) for i in range(n)]
        assert [H.label(i) for i in range(n)] == [G.label(i) for i in range(n)]


def test_json_table_is_one_two_byte_store():
    # the reader packs the mult array into 2-byte entries chunk by chunk,
    # so it keeps about 2 bytes an entry and never holds a list of them,
    # which alone would take 2.9 MB of pointers here
    import sys
    import tracemalloc

    from test_golden import relabeled

    text = group_to_json(relabeled(cyclic_group(600), random.Random(3)))
    tracemalloc.start()
    try:
        G, _ = group_from_json(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.table.itemsize == 2
    assert list(G.table) == json.loads(text)["mult"]
    labels = sys.getsizeof(G.labels) + sum(map(sys.getsizeof, G.labels))
    assert kept <= 2.2 * 600 ** 2 + labels
    assert peak < 2_000_000


C3 = '"kind":"group_table","order":3'
C3_MULT = "[0,1,2,1,2,0,2,0,1]"
READER_DOCS = {
    "whitespace": ' \n{ "kind" : "group_table" ,\n "order" : 3 , "mult" :\n [ 0 ,1,\n2 , 1,2,'
                  '0 ,\t2,0,1\r\n ] }\n',
    "mult-first": '{"mult":%s,%s}' % (C3_MULT, C3),
    "mult-last": '{%s,"mult":%s}' % (C3, C3_MULT),
    "escaped-key": '{%s,"\\u006dult":%s}' % (C3, C3_MULT),
    "repeated-good-last": '{%s,"mult":[],"mult":%s}' % (C3, C3_MULT),
    "repeated-good-first": '{%s,"mult":%s,"mult":[]}' % (C3, C3_MULT),
    "repeated-escaped-last": '{%s,"mult":%s,"\\u006dult":[]}' % (C3, C3_MULT),
    "repeated-escaped-first": '{%s,"\\u006dult":[],"mult":%s}' % (C3, C3_MULT),
    "repeated-not-a-list": '{%s,"mult":%s,"mult":7}' % (C3, C3_MULT),
    "repeated-empty-entry-first": '{%s,"mult":[0,,1],"mult":%s}' % (C3, C3_MULT),
    "nested-mult-before": '{%s,"x":{"mult":[5]},"mult":%s}' % (C3, C3_MULT),
    "nested-mult-after": '{%s,"mult":%s,"x":{"mult":[0,0]}}' % (C3, C3_MULT),
    "labels-spell-mult": '{%s,"labels":["\\"mult\\":[","]",","],"mult":%s}' % (C3, C3_MULT),
    "labels-after": '{%s,"mult":%s,"labels":["\\"mult\\":[5]","]",","]}' % (C3, C3_MULT),
    "string-entry-with-bracket": '{%s,"mult":[0,1,2,1,2,0,2,0,"]"]}' % C3,
    "nested-entry": '{%s,"mult":[0,1,2,1,2,0,2,0,[1]]}' % C3,
    "bool-entry": '{%s,"mult":[0,1,2,1,2,0,2,0,true]}' % C3,
    "object-entry": '{%s,"mult":[0,1,2,1,2,0,2,0,{}]}' % C3,
    "trailing-comma": '{%s,"mult":[0,1,2,1,2,0,2,0,1,]}' % C3,
    "empty-entry": '{%s,"mult":[0,1,2,1,,2,0,2,0,1]}' % C3,
    "unclosed-array": '{%s,"mult":[0,1,2,1,2,0,2,0,1}' % C3,
    "unclosed-at-end": '{%s,"mult":[0,1,2' % C3,
    "unclosed-object": '{%s,"mult":%s' % (C3, C3_MULT),
    "extra-data": '{%s,"mult":%s} 5' % (C3, C3_MULT),
    "not-an-object": "[%s]" % C3_MULT,
}


def _outcome(source):
    """group_from_json(source): the table, labels and prime, or the type
    and message of the ValueError raised."""
    try:
        G, p = group_from_json(source)
        return list(G.table), G.labels, p
    except ValueError as exc:  # json.JSONDecodeError included
        return type(exc), str(exc)


def _outcome_from_file(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        return _outcome(fh)


def _read_both(text):
    """group_from_json(text) and the reference group_from_json_dict of
    json.loads(text): the table, labels and prime, or the ValueError
    raised."""
    out = []
    for read in (group_from_json, lambda t: group_from_json_dict(json.loads(t))):
        try:
            G, p = read(text)
            out.append((list(G.table), G.labels, p))
        except ValueError as exc:  # json.JSONDecodeError included
            out.append(exc)
    return out


@pytest.mark.parametrize("name", list(READER_DOCS))
def test_text_reader_agrees_with_the_reference(name, tmp_path):
    text = READER_DOCS[name]
    got, want = _read_both(text)
    if isinstance(want, json.JSONDecodeError):
        # the same message and position in the document as json.loads
        assert type(got) is json.JSONDecodeError and str(got) == str(want)
    elif isinstance(want, ValueError):
        assert isinstance(got, ValueError)
    else:
        assert got == want
    # read from a real file, and with each character of the document in
    # turn at the edge of the first MULT_CHUNK characters read, so that
    # every token is cut by a refill somewhere
    assert _outcome_from_file(tmp_path, text) == _outcome(text)
    for q in range(len(text) + 1):
        padded = " " * (fingroup.MULT_CHUNK - q) + text
        assert _outcome(io.StringIO(padded)) == _outcome(padded)


MALFORMED_MULTS = ["[0,,1]", "[0,1.5]", '[0,"a"]']


@pytest.mark.parametrize("mult", MALFORMED_MULTS)
@pytest.mark.parametrize("mult_first", [True, False], ids=["mult-first", "mult-last"])
@pytest.mark.parametrize("head, verdict", [
    ('"kind":"group_table","order":5', (CapExceeded, "input group order 5 exceeds cap 2")),
    ('"kind":"other","order":1', (ValueError, "not a group_table document")),
], ids=["over-cap", "wrong-kind"])
def test_document_checks_win_over_a_malformed_mult(mult, mult_first, head, verdict, tmp_path):
    # a wrong kind or an order over the cap is reported, not the array,
    # wherever the array stands, from a str and from a file alike
    body = ['"mult":' + mult, head]
    text = "{%s}" % ",".join(body if mult_first else body[::-1])
    path = tmp_path / "doc.json"
    path.write_text(text)
    with open(path, encoding="utf-8") as fh:
        for source in (text, fh):
            with pytest.raises(verdict[0]) as exc:
                group_from_json(source, 2)
            assert type(exc.value) is verdict[0] and str(exc.value) == verdict[1]


def test_order_over_cap_leaves_the_array_unpacked(tmp_path):
    # with an order over the cap before it, the array is read to its end
    # but not packed into a store, which alone would take 600 KB here; an
    # order under the cap that comes later still wins
    import tracemalloc

    path = tmp_path / "big.json"
    entries = ",".join(["7"] * 300000)
    path.write_text('{"kind":"group_table","order":1000000,"mult":[%s]}' % entries)
    with open(path, encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="^input group order 1000000 exceeds cap 10$"):
                group_from_json(fh, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 300_000
    later = '{"kind":"group_table","order":5,"mult":%s,"order":3}' % C3_MULT
    G, _ = group_from_json(io.StringIO(later), 3)
    assert list(G.table) == json.loads(C3_MULT)


def test_file_reader_refills_and_reads_a_pipe_whole(tmp_path):
    # a mult array many refills long keeps its verdicts, a syntax error
    # past the first refills included, and a pipe, which cannot seek back
    # to the start for the reference parse, is read whole
    from test_golden import relabeled

    text = group_to_json(relabeled(cyclic_group(300), random.Random(5)), prime=3)
    good = _outcome(text)
    assert _outcome_from_file(tmp_path, text) == good
    late = text.index(",", 5 * fingroup.MULT_CHUNK)
    bad = text[:late] + "," + text[late:]
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(bad)
    assert _outcome_from_file(tmp_path, bad) == (json.JSONDecodeError, str(want.value))

    class Pipe(io.StringIO):
        def seekable(self):
            return False

        def seek(self, *args):
            raise io.UnsupportedOperation("seek")

    assert _outcome(Pipe(text)) == good
    assert _outcome(Pipe(bad)) == (json.JSONDecodeError, str(want.value))


@pytest.mark.parametrize("entry", ["1", "299", "300", "-1", "1.5", "true", "NaN", "null", "", "7 "])
@pytest.mark.parametrize("side", [-1, 1])
def test_text_reader_entry_at_a_chunk_cut(entry, side, tmp_path):
    # C300's table spans several chunks; the entry just before (-1) or
    # just after (+1) the first cut is replaced, padded with spaces so
    # that the cut stays beside it
    from test_golden import relabeled

    text = group_to_json(relabeled(cyclic_group(300), random.Random(5)))
    start = text.index('"mult":[') + len('"mult":[')
    assert len(text) - start > 4 * fingroup.MULT_CHUNK
    cut = text.index(",", start + fingroup.MULT_CHUNK)
    a, b = (text.rindex(",", 0, cut) + 1, cut) if side < 0 else (cut + 1, text.index(",", cut + 1))
    entry = entry.rjust(b - a)
    text = text[:a] + entry + text[b:]
    assert text.index(",", start + fingroup.MULT_CHUNK) == (a + len(entry) if side < 0 else cut)
    got, want = _read_both(text)
    if isinstance(want, ValueError):
        assert isinstance(got, ValueError) and (str(got) == str(want) or "1.5" in entry)
    else:
        assert got == want
    assert _outcome_from_file(tmp_path, text) == _outcome(text)


def test_symmetric_group_basics():
    S4 = symmetric_group(4)
    assert S4.order == 24
    assert len(center(S4)) == 1


def test_perm_closure(monkeypatch):
    # a 4-cycle and a transposition generate all of S4; the group keeps the
    # walk's points, index and Cayley graph, so no dict is built twice
    gens = [(1, 2, 3, 0), (1, 0, 2, 3)]
    walks = []

    def recording_walk(*args, **kwargs):
        walks.append(bfs_closure(*args, **kwargs))
        return walks[-1]

    monkeypatch.setattr(fingroup, "bfs_closure", recording_walk)
    G = perm_closure(gens)
    assert G.order == 24 and len(walks) == 1
    points, index, graph = walks[0]
    assert G.perms is points and G.index is index and G.cayley is graph
    assert len(G.index) == G.order
    # the generators as the group stores them: with every point as base,
    # a permutation is its own key
    stored = [G.key(g) for g in gens]
    assert G.generator_indices == [G.index[g] for g in stored]
    for k, g in enumerate(G.generator_indices):
        assert G.cayley[k] == [G.index[perm_mul(q, stored[k])] for q in G.perms]
        step = G.right_mult(g)
        assert [step(x) for x in range(G.order)] == G.cayley[k]
        assert [G.mult(x, g) for x in range(G.order)] == G.cayley[k]
    ident = G.key(range(4))
    assert G.perms[G.identity] == ident and tuple(ident) == (0, 1, 2, 3)
    assert all(perm_mul(G.perms[G.inv(i)], G.perms[i]) == ident for i in range(G.order))
    # exactly cap elements are admitted, and one more raises
    assert perm_closure(gens, cap=24).order == 24
    with pytest.raises(CapExceeded):
        perm_closure(gens, cap=23)


def test_generated_subgroup_and_normalizer():
    S4 = symmetric_group(4)
    # the double transpositions with identity form the normal Klein subgroup
    v4 = [S4.identity] + [g for g in range(24) if S4.element_order(g) == 2
                          and all(S4.perms[g][i] != i for i in range(4))]
    H = generated_subgroup(S4, v4)
    assert len(H) == 4
    assert len(normalizer(S4, H)) == 24
    assert recognize(subgroup_as_group(S4, H)) == "C2xC2"


def test_quotient_s4_by_klein_is_s3():
    S4 = symmetric_group(4)
    v4 = [S4.identity] + [g for g in range(24) if S4.element_order(g) == 2
                          and all(S4.perms[g][i] != i for i in range(4))]
    Q, proj = quotient(S4, generated_subgroup(S4, v4))
    assert Q.order == 6
    assert isomorphic(Q, symmetric_group(3))
    assert proj[S4.identity] == Q.identity


def test_normal_closure():
    S4 = symmetric_group(4)
    t = next(g for g in range(24) if S4.element_order(g) == 2
             and sum(1 for i in range(4) if S4.perms[g][i] != i) == 2)
    assert len(normal_closure(S4, greedy_generators(S4), [t])) == 24


def _walk_case(name):
    """(starts, gens, image, key, the point's key) for test_bfs_closure."""
    S4 = symmetric_group(4)

    def conj(x, g):
        return S4.conjugate(g, x)

    def of_order(n):
        return next(g for g in range(24) if S4.element_order(g) == n)

    if name == "closure":  # S5 from the identity, under right multiplication
        return [tuple(range(5))], [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], perm_mul, None, None
    if name == "orbit":  # two starts in two conjugacy classes: 6 + 8 points
        return [of_order(2), of_order(3)], greedy_generators(S4), conj, None, None
    if name == "one-class orbit":  # two starts in the same class
        t = [g for g in range(24) if S4.element_order(g) == 3]
        return t[:2], greedy_generators(S4), conj, None, None
    # keyed: S5 again, each permutation named by its first four images
    assert name == "keyed"
    return ([tuple(range(5))], [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], perm_mul,
            ([tuple(range(4))], lambda x, g: perm_mul(x, g)[:4]), lambda x: x[:4])


@pytest.mark.parametrize("name", ["closure", "orbit", "one-class orbit", "keyed"])
def test_bfs_closure(name):
    # the walk's points, index and graph against image() itself, and the
    # cap boundary: exactly cap points are admitted, and one more is not
    starts, gens, image, key, name_of = _walk_case(name)
    name_of = name_of or (lambda x: x)
    points, index, graph = bfs_closure(starts, gens, image, key=key)
    assert points[:len(starts)] == starts
    assert len(set(points)) == len(points)
    assert index == {name_of(x): i for i, x in enumerate(points)}
    assert len(graph) == len(gens)
    for row, g in zip(graph, gens):
        assert [points[j] for j in row] == [image(x, g) for x in points]
    # breadth first: the first arc (i, k) into each later point leaves an
    # earlier point, and these first arcs come in the points' order
    first: dict[int, tuple[int, int]] = {}
    for i, k, j in sorted((i, k, j) for k, row in enumerate(graph) for i, j in enumerate(row)):
        first.setdefault(j, (i, k))
    found = [first[j] for j in range(len(starts), len(points))]
    assert found == sorted(found)
    assert all(i < j for j, (i, _) in enumerate(found, len(starts)))
    assert len(points) == {"closure": 120, "orbit": 14, "one-class orbit": 8, "keyed": 120}[name]
    assert bfs_closure(starts, gens, image, cap=len(points), key=key)[0] == points
    assert bfs_closure(starts, gens, image, cap=len(points) - 1, key=key) is None


def test_all_subgroups_of_s4():
    S4 = symmetric_group(4)
    subs = all_subgroups(S4)
    from collections import Counter
    by_order = Counter(len(s) for s in subs)
    # classical count: 30 subgroups total
    assert sum(by_order.values()) == 30
    assert by_order[1] == 1 and by_order[24] == 1
    assert by_order[8] == 3 and by_order[12] == 1
    # the coset-skipping enumeration finds what closing <H, x> for every
    # subgroup H and every x finds
    naive = {(S4.identity,)}
    queue = list(naive)
    while queue:
        h = queue.pop()
        for x in range(24):
            k = generated_subgroup(S4, list(h) + [x])
            if k not in naive:
                naive.add(k)
                queue.append(k)
    assert sorted(naive) == sorted(subs)


@pytest.mark.parametrize("degree", [0, 1, 2, 7, 98, 255, 256, 257, 343])
def test_perm_mul_matches_map_composition(degree):
    """perm_mul and a function built for a fixed right factor against
    composition by map, on whole permutations and on the first two
    images of the right factor (base images), in the store perm_store
    picks: bytes up to 256 points, including the one-point and empty
    permutations, and tuples above."""
    store = perm_store(degree)
    assert store is (bytes if degree <= 256 else tuple)
    rng = random.Random(4100 + degree)
    for _ in range(10):
        a = tuple(rng.sample(range(degree), degree))
        b = tuple(rng.sample(range(degree), degree))
        want = tuple(map(a.__getitem__, b))
        sa, sb = store(a), store(b)
        for got in (perm_mul(sa, sb), right_mul_by(sb, degree)(sa)):
            assert type(got) is store and tuple(got) == want
        if degree >= 2:
            for got in (perm_mul(sa, sb[:2]), right_mul_by(sb[:2], degree)(sa)):
                assert type(got) is store and tuple(got) == want[:2]


@pytest.mark.parametrize("pad", [256, 257])
def test_perm_closure_on_either_side_of_the_byte_store(pad):
    """S4's generators fixing every point from 4 on: at 256 points they
    are stored as bytes, at 257 as tuples, and both close to the same
    group with the same Cayley graph, products and inverses."""
    s4 = perm_closure([(1, 2, 3, 0), (1, 0, 2, 3)])
    G = perm_closure([g + tuple(range(4, pad)) for g in [(1, 2, 3, 0), (1, 0, 2, 3)]])
    assert G.order == 24 and type(G.perms[0]) is perm_store(pad)
    assert G.cayley == s4.cayley
    assert [tuple(q[:4]) for q in G.perms] == [tuple(q) for q in s4.perms]
    assert all(G.mult(i, j) == s4.mult(i, j) for i in range(24) for j in range(24))
    assert [G.inv(i) for i in range(24)] == [s4.inv(i) for i in range(24)]
    assert G.perms[G.identity] == G.key(range(pad))


def test_propagate_hom_builds_full_certificate():
    C6, C3 = cyclic_group(6), cyclic_group(3)
    images = propagate_hom(C6, C3, [1], [1])
    assert images is not None and len(images) == 6
    for a in range(6):
        for b in range(6):
            assert images[C6.mult(a, b)] == C3.mult(images[a], images[b])


def test_propagate_hom_rejects_non_homomorphism():
    C2, C3 = cyclic_group(2), cyclic_group(3)
    assert propagate_hom(C2, C3, [1], [1]) is None


def test_hom_by_generators_surjective_and_kernel():
    C6, C2 = cyclic_group(6), cyclic_group(2)
    f = hom_by_generators(C6, C2, [1], [1])
    assert f is not None
    assert set(f) == {0, 1}


def test_isomorphism_and_refutation():
    assert isomorphic(cyclic_group(6), direct_product(cyclic_group(2), cyclic_group(3)))
    assert not isomorphic(cyclic_group(4), direct_product(cyclic_group(2), cyclic_group(2)))
    iso = isomorphism(symmetric_group(3), mat2_group(2, "SL"))
    assert iso is not None


def test_sesverify_split_case():
    S3 = symmetric_group(3)
    c3 = generated_subgroup(S3, [next(g for g in range(6) if S3.element_order(g) == 3)])
    rep = sesverify(S3, c3, Q_expected=cyclic_group(2))
    assert rep.is_normal
    assert rep.quotient_iso is not None
    assert rep.split is True
    assert len(rep.complement) == 2


def test_sesverify_nonsplit_case():
    # center of Q8: no complement exists, and the search proves it
    from test_matgroup import quaternion_oracle

    Q8 = quaternion_oracle()
    z = generated_subgroup(Q8, [0, 1])
    rep = sesverify(Q8, z, Q_expected=direct_product(cyclic_group(2), cyclic_group(2)))
    assert rep.is_normal
    assert rep.split is False
    assert rep.exhausted
    # every nontrivial coset lift has order 4: that is the obstruction
    for prof in rep.lift_order_profiles:
        assert set(prof) == {4}


def _first_complement_by_nested_loops(G, members):
    """(complement, tuples tried) of the lift tuples of the quotient's
    greedy generators, order-matched, in nested-loop order: the oracle for
    sesverify's search without a hint."""
    Q, proj = quotient(G, members)
    qgens = greedy_generators(Q)
    lifts = [[x for x in range(G.order)
              if proj[x] == qg and G.element_order(x) == Q.element_order(qg)]
             for qg in qgens]
    tried = 0

    def search(chosen):
        nonlocal tried
        if len(chosen) < len(qgens):
            for x in lifts[len(chosen)]:
                found = search(chosen + [x])
                if found is not None:
                    return found
            return None
        tried += 1
        K = generated_subgroup(G, chosen)
        return K if len(K) == Q.order and set(K) & set(members) == {G.identity} else None

    return search([]), tried


def _ses_case(name):
    from test_matgroup import quaternion_oracle

    if name == "S3>C3":
        S3 = symmetric_group(3)
        return S3, generated_subgroup(S3, [g for g in range(6) if S3.element_order(g) == 3])
    if name == "S4>V4":
        S4 = symmetric_group(4)
        return S4, generated_subgroup(S4, [g for g in range(24) if S4.element_order(g) == 2
                                           and all(S4.perms[g][i] != i for i in range(4))])
    if name == "Q8>Z":
        Q8 = quaternion_oracle()
        return Q8, generated_subgroup(Q8, [0, 1])
    # direct products index (a, b) as a * |B| + b
    if name == "Q8xC2>((-1,c))":
        return direct_product(quaternion_oracle(), cyclic_group(2)), (0, 1 * 2 + 1)
    assert name == "C4xC4>((2,2))"
    return direct_product(cyclic_group(4), cyclic_group(4)), (0, 2 * 4 + 2)


# (splits, lift tuples tried): the last two search past a failed tuple
SES_CASES = {"S3>C3": (True, 1), "S4>V4": (True, 1), "Q8>Z": (False, 0),
             "Q8xC2>((-1,c))": (True, 5), "C4xC4>((2,2))": (False, 4)}


@pytest.mark.parametrize("name", SES_CASES)
def test_complement_search_matches_nested_loop_oracle(name):
    G, N = _ses_case(name)
    rep = sesverify(G, N)
    want, tried = _first_complement_by_nested_loops(G, N)
    assert (rep.complement, rep.tuples_checked) == (want, tried)
    assert rep.exhausted == (want is None)
    assert (want is not None, tried) == SES_CASES[name]


def brute_force_normal(G, members) -> bool:
    """N is normal iff g x g^-1 lies in N for every g in G and x in N."""
    nset = set(members)
    return all(G.conjugate(g, x) in nset for g in range(G.order) for x in members)


def normal_by_quotient(G, members) -> bool:
    """Whether quotient accepts the subgroup with the given members as
    normal in G: it raises ValueError on a non-normal one."""
    try:
        quotient(G, members)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", ["S4", "USL2(F3)", "Heis3:USL2(F3)"])
def test_is_normal_matches_brute_force(name):
    from fusionkit.extraspecial import heisenberg_semidirect

    G = {
        "S4": symmetric_group(4),
        "USL2(F3)": mat2_group(3, "USL"),
        "Heis3:USL2(F3)": heisenberg_semidirect(3, "USL"),
    }[name]
    subs = all_subgroups(G)
    verdicts = [normal_by_quotient(G, h) for h in subs]
    assert verdicts == [brute_force_normal(G, h) for h in subs]
    # USL2(F3) is cyclic of order 6; in the other two both verdicts occur,
    # so neither side can pass by a constant answer
    assert True in verdicts and (False in verdicts) != G.is_abelian()


def test_quotient_rejects_non_normal_subgroup():
    S3 = symmetric_group(3)
    t = next(g for g in range(6) if S3.element_order(g) == 2)
    with pytest.raises(ValueError, match="normal"):
        quotient(S3, generated_subgroup(S3, [t]))


def test_sesverify_reports_non_normal_subgroup():
    S3 = symmetric_group(3)
    t = S3.index[S3.key((1, 0, 2))]  # the transposition (0 1)
    rep = sesverify(S3, generated_subgroup(S3, [t]), Q_expected=cyclic_group(3))
    assert rep.is_normal is False
    assert rep.complement is None
    assert rep.tuples_checked == 0


def test_sesverify_hint_short_circuit():
    S3 = symmetric_group(3)
    c3 = generated_subgroup(S3, [next(g for g in range(6) if S3.element_order(g) == 3)])
    t = next(g for g in range(6) if S3.element_order(g) == 2)
    rep = sesverify(S3, c3, hint_lifts=[t])
    assert rep.split is True and rep.tuples_checked == 1


def test_sesverify_rejects_lifts_whose_span_meets_the_kernel():
    # in V4 = C2 x C2 (x * y = x xor y) with N = {0, 1}, the hint 1 spans N
    # itself, so it is no complement; the search then finds {0, 2}
    V4 = TableGroup([i ^ j for i in range(4) for j in range(4)], 4)
    rep = sesverify(V4, (0, 1), Q_expected=cyclic_group(2), hint_lifts=[1])
    assert rep.complement == (0, 2)
    assert rep.tuples_checked == 2 and rep.exhausted is False


def test_recognize_frozen_names():
    assert recognize(cyclic_group(12)) == "C12"
    assert recognize(direct_product(cyclic_group(2), cyclic_group(2))) == "C2xC2"
    assert recognize(direct_product(cyclic_group(2), cyclic_group(6))) == "C2xC2xC3"
    assert recognize(symmetric_group(4)) == "S4"
    # S3 is isomorphic to SL2(F2); the matrix name wins in dispatch order
    assert recognize(symmetric_group(3)) == "SL2(F2)"
    assert recognize(mat2_group(3, "SL")) == "SL2(F3)"
    assert recognize(mat2_group(5, "USL")) == "U(SL2(F5))"
    S4 = symmetric_group(4)
    eight = next(s for s in all_subgroups(S4) if len(s) == 8)
    assert recognize(subgroup_as_group(S4, eight)) == "D8"


def test_recognize_reads_primes_off_the_order():
    # extraspecial at an odd prime r from |G| = r^3 and |Z(G)| = r, and the
    # 2x2 linear groups from their order formulas, at primes past 7; D8
    # (r = 2) and S3 keep their names (test_recognize_frozen_names)
    from fusionkit.extraspecial import HeisenbergGroup

    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert recognize(HeisenbergGroup(11)) == "extraspecial(11^3, exp p)"
    assert recognize(mat2_group(11, "SL")) == "SL2(F11)"
    assert recognize(mat2_group(11, "USL")) == "U(SL2(F11))"


def test_abelian_factor_orders():
    assert abelian_factor_orders(cyclic_group(12)) == [3, 4]
    assert abelian_factor_orders(direct_product(cyclic_group(2), cyclic_group(6))) == [2, 2, 3]
    assert abelian_factor_orders(direct_product(cyclic_group(4), cyclic_group(4))) == [4, 4]


def test_mat2_group_orders():
    # |SL2(Fp)| = p(p^2-1); |GL2(Fp)| = p(p-1)(p^2-1); upper triangular
    # subgroups have orders p(p-1) and p(p-1)^2
    for p in (3, 5, 7):
        assert mat2_group(p, "SL").order == p * (p * p - 1)
        assert mat2_group(p, "GL").order == p * (p - 1) * (p * p - 1)
        assert mat2_group(p, "USL").order == p * (p - 1)
        assert mat2_group(p, "UGL").order == p * (p - 1) ** 2


def test_smallest_primitive_root():
    assert smallest_primitive_root(3) == 2
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3


def test_automorphism_groups():
    assert automorphism_group(cyclic_group(6)).order == 2
    assert automorphism_group(direct_product(cyclic_group(2), cyclic_group(2))).order == 6
    from test_matgroup import quaternion_oracle

    assert automorphism_group(quaternion_oracle()).order == 24


def test_greedy_generators_generate():
    S4 = symmetric_group(4)
    gens = greedy_generators(S4)
    assert len(generated_subgroup(S4, gens)) == 24
    assert len(gens) <= 3


def test_group_map_is_checked():
    # the image list is a homomorphism: f(xy) = f(x)f(y) on every pair
    C4, C2 = cyclic_group(4), cyclic_group(2)
    f = hom_by_generators(C4, C2, [1], [1])
    assert len(f) == C4.order and f[C4.identity] == C2.identity
    assert all(f[C4.mult(x, y)] == C2.mult(f[x], f[y]) for x in range(4) for y in range(4))


def test_hom_by_generators_rejects_non_generating_set():
    # 2 generates the order-3 subgroup of C6 only
    C6 = cyclic_group(6)
    with pytest.raises(ValueError, match="do not generate"):
        hom_by_generators(C6, C6, [2], [2])


def _greedy_oracle(G) -> list[int]:
    """Adjoin the smallest index outside the closure until it is G."""
    gens: list[int] = []
    members = {G.identity}
    while len(members) < G.order:
        gens.append(min(x for x in range(G.order) if x not in members))
        members = set(generated_subgroup(G, gens))
    return gens


@pytest.mark.parametrize("name", ["S4", "GL2(F3)", "Heis5", "C1"])
def test_greedy_generators_match_oracle(name):
    from fusionkit.extraspecial import HeisenbergGroup

    G = {
        "S4": lambda: symmetric_group(4),
        "GL2(F3)": lambda: mat2_group(3, "GL"),
        "Heis5": lambda: HeisenbergGroup(5),
        "C1": lambda: cyclic_group(1),
    }[name]()
    assert greedy_generators(G) == _greedy_oracle(G)


def test_grow_generators_draws_nothing_past_the_target():
    # every subgroup of S4 from its own members: the generators generate
    # it, and the candidates drawn end at the last generator
    S4 = symmetric_group(4)
    for h in all_subgroups(S4):
        drawn = []

        def candidates():
            for x in h:
                drawn.append(x)
                yield x

        gens, members = grow_generators(S4, candidates(), len(h))
        assert tuple(sorted(members)) == h and gens == subgroup_generators(S4, h)
        assert drawn == list(h[:h.index(gens[-1]) + 1] if gens else [])


def test_centralizer_in_s4():
    S4 = symmetric_group(4)
    t = next(g for g in range(24) if S4.element_order(g) == 4)
    assert len(centralizer(S4, [t])) == 4


def brute_force_center(G) -> tuple[int, ...]:
    return tuple(g for g in range(G.order)
                 if all(G.mult(g, x) == G.mult(x, g) for x in range(G.order)))


@pytest.mark.parametrize("name", ["S4", "Heis3", "O48"])
def test_center_matches_brute_force(name):
    G = _named_group(name)
    want = brute_force_center(G)
    assert center(G) == want
    assert len(want) == {"S4": 1, "Heis3": 3, "O48": 2}[name]


def _same_quotient(G, N, H):
    """quotient(G, N, H) against the quotient of subgroup_as_group(G, H),
    built as an explicit table on its left cosets."""
    Q, proj = quotient(G, N, H[::-1])
    K = subgroup_as_group(G, H)
    pos = {m: i for i, m in enumerate(H)}
    rproj, reps = left_cosets(K, [pos[x] for x in N])
    R = TableGroup([rproj[K.mult(a, b)] for a in reps for b in reps], len(reps),
                   [K.label(r) + "N" for r in reps])
    assert (Q.order, Q.identity) == (R.order, R.identity)
    for a in range(Q.order):
        assert (Q.inv(a), Q.label(a)) == (R.inv(a), R.label(a))
        assert [Q.mult(a, b) for b in range(Q.order)] == [R.mult(a, b) for b in range(R.order)]
    hset = set(H)
    assert [proj[x] for x in H] == rproj
    assert all(proj[x] == -1 for x in range(G.order) if x not in hset)


def test_quotient_on_a_subgroup_matches_the_subgroup_table():
    import random

    from fusionkit.extraspecial import heisenberg_semidirect
    from fusionkit.fusion import FusionData
    from test_golden import relabeled

    # every normal pair N <= H of S4; a non-normal N raises on both sides
    S4 = symmetric_group(4)
    subs = all_subgroups(S4)
    checked = 0
    for H in subs:
        K = subgroup_as_group(S4, H)
        pos = {m: i for i, m in enumerate(H)}
        for N in subs:
            if not set(N) <= set(H):
                continue
            if normal_by_quotient(K, tuple(sorted(pos[x] for x in N))):
                _same_quotient(S4, N, H)
                checked += 1
            else:
                with pytest.raises(ValueError):
                    quotient(S4, N, H)
    assert checked > len(subs)
    # the common normalizer of each chain of the p = 3 model, by each
    # chain member (normal there) and by the trivial group
    G = relabeled(heisenberg_semidirect(3, "SL"), random.Random(1))
    fd = FusionData(G, 3)
    for chain in fd.chains():
        H = fd.inter_norm(chain)
        for N in ((G.identity,), chain[0], chain[-1]):
            _same_quotient(G, N, H)


@pytest.mark.parametrize("degree", [255, 256, 257])
@pytest.mark.parametrize("base", [None, 2])
def test_perm_inverse_matches_the_list_preimage(degree, base):
    """PermGroup.inv against the list preimage q[p[x]] = x, keyed by its
    base images, on either side of the byte store, with every point as
    base and with a short one: the dihedral group of the degree-gon with
    its points relabeled at random."""
    rng = random.Random(3200 + degree)
    label = rng.sample(range(degree), degree)
    rotate = [0] * degree
    reflect = [0] * degree
    for x in range(degree):
        rotate[label[x]] = label[(x + 1) % degree]
        reflect[label[x]] = label[-x % degree]
    G = perm_closure([rotate, reflect], base=base)
    assert G.order == 2 * degree and type(G.perms[0]) is perm_store(degree)
    for i in range(G.order):
        p = G.perms[i]
        q = [0] * degree
        for x, y in enumerate(p):
            q[y] = x
        assert G.inv(i) == G.index[G.key(q)]
        assert G.mult(i, G.inv(i)) == G.identity


def _without_cayley(G: PermGroup) -> PermGroup:
    """The same group, numbered the same, built from its permutations alone."""
    H = PermGroup(G.perms, G.base)
    assert G.generator_indices and H.generator_indices == []
    assert H.bases == G.bases
    return H


@pytest.mark.parametrize("name", ["Q8", "Q16", "O48", "gamma3", "zI,gamma3", "gamma5", "torus3",
                                  "S4"])
def test_generators_of_a_closure_answer_as_a_scan_does(name):
    """recognize, center and is_abelian read a closure's own generators
    when the group carries its Cayley graph; the same group built without
    it (generator_indices == []) takes greedy_generators and the pair
    scan.  Both give the same answers, and the brute-force ones.  In
    zI,gamma3 the first generator is central, and only the later two fail
    to commute."""
    from fusionkit.cyclo import CycNum
    from fusionkit.matgroup import CycMatrix, closure, std_matrix, torus_extension_generators

    gens = {
        "Q8": lambda: [std_matrix(2, "A", det_one=True), std_matrix(2, "B", det_one=True)],
        "Q16": lambda: [std_matrix(2, "A", det_one=True), std_matrix(2, "B", det_one=True),
                        std_matrix(2, "F")],
        "O48": lambda: [std_matrix(2, "A", det_one=True), std_matrix(2, "B", det_one=True),
                        std_matrix(2, "F"), std_matrix(2, "H")],
        "gamma3": lambda: [std_matrix(3, "A"), std_matrix(3, "B")],
        "zI,gamma3": lambda: [CycMatrix.identity(3, 3).scalar_mul(CycNum.zeta(3)),
                              std_matrix(3, "A"), std_matrix(3, "B")],
        "gamma5": lambda: [std_matrix(5, "A"), std_matrix(5, "B")],
        "torus3": lambda: torus_extension_generators(3, 1)[:-1],
    }
    G = perm_closure([(1, 2, 3, 0), (1, 0, 2, 3)]) if name == "S4" else closure(gens[name]())
    H = _without_cayley(G)
    abelian = all(G.mult(x, y) == G.mult(y, x) for x in range(G.order) for y in range(G.order))
    assert G.is_abelian() == H.is_abelian() == abelian == (name == "torus3")
    assert center(G) == center(H) == brute_force_center(G)
    assert recognize(G) == recognize(H) == recognize(G, G.orders_histogram())
    assert recognize(G) == {"Q8": "Q8", "Q16": "Q16", "O48": "O48",
                            "gamma3": "extraspecial(3^3, exp p)",
                            "zI,gamma3": "extraspecial(3^3, exp p)",
                            "gamma5": "extraspecial(5^3, exp p)", "torus3": "C3xC3",
                            "S4": "S4"}[name]
