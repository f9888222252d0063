"""Conjugation fusion of a finite group at a prime.

Everything here works with a finite group G on element indices and a fixed
Sylow p-subgroup S.  Fusion data of a subgroup P of S means the maps P -> S
induced by conjugation in G.  The objects of interest are:

  * subgroups P that are centric (every G-conjugate of P landing in S
    contains its S-centralizer) and radical (the conjugation outer
    automorphism group O_p(Out) is trivial);
  * chains P_0 < P_1 < ... < P_k of such subgroups, up to simultaneous
    conjugacy in G;
  * for each chain class, the automorphisms induced by the common
    normalizer, both as permutations of the top subgroup (Aut_F) and as
    the quotient of the common normalizer by the p'-part of the top
    centralizer (Aut_L).  A chain class's report keeps the two orders and
    Aut_L's tag, which is all the decomposition diagrams need; the groups
    are built, measured and dropped.

Nothing scans G.  Conjugation acts on chains through one generating set
of G: fingroup's breadth-first walk finds a chain's orbit and its Schreier
graph, the graph gives a transversal, and Schreier's lemma turns the
transversal into generators of the stabilizer, the common normalizer of
the chain's subgroups.  Aut_F is the closure of those generators' images
on the top subgroup, and centralizers (fingroup.centralizer, within S or
within the common normalizer) are tested against generators of the
centralized subgroup.  A centric subgroup contains Z(S), so only the
preimages of the subgroups of S/Z(S) are enumerated, with no table of S.

The poset of chain classes, ordered by "contains a conjugate as a proper
subchain", drives the decomposition diagrams.  Its one record per class is
a row in the schema of the encoded chain classes, built in the same pass
as the class's edges.  An edge is marked iso when the subchain keeps the
top subgroup and already has the same common normalizer, in which case
the two Aut_L groups are literally equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import SCHEMA_VERSION
from .diagram import Diagram, chain_diagram, contract_iso_edges, json_edges
from .fingroup import (
    FiniteGroup,
    PermGroup,
    all_subgroups,
    bfs_closure,
    centralizer,
    generated_subgroup,
    greedy_generators,
    grow_generators,
    is_p_power,
    normal_closure,
    perm_closure,
    quotient,
    recognize,
    subgroup_as_group,
    subgroup_generators,
)


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def _chain(chain) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(m)) for m in chain)


class ConjugationAction:
    """Conjugation by G on chains of subgroups, through one generating set.

    A chain is a tuple of sorted member tuples.  Its orbit is found by
    breadth-first search under conjugation by the generators g_k of G (in
    a finite group they generate G as a monoid), and each orbit point c
    records an element u_c with c = u_c start u_c^-1: a new point
    d = g_k c g_k^-1 gets u_d = g_k u_c.  By Schreier's lemma the elements
    u_d^-1 g_k u_c over every point c and generator g_k generate the
    stabilizer of the chain, the common normalizer of its subgroups.
    """

    def __init__(self, G: FiniteGroup):
        self.G = G
        self.gens = greedy_generators(G)
        # x -> g x g^-1 for each generator g, as lists over G's indices
        self.maps = [[G.conjugate(g, x) for x in range(G.order)] for g in self.gens]
        self._stabilizer: dict[tuple, tuple[tuple[int, ...], list[int]]] = {}

    def orbit(self, chain):
        """(orbit, transversal, arcs) of the chain's conjugation orbit.

        orbit[0] is the chain itself, transversal[i] conjugates it onto
        orbit[i], and each (i, k, j) in arcs records that g_k conjugates
        orbit[i] onto the earlier-found orbit[j]; the search tree's own
        arcs give trivial Schreier generators and are left out.
        """
        G = self.G
        orbit, _, graph = bfs_closure([_chain(chain)], self.maps,
                                      lambda c, perm: _chain(map(perm.__getitem__, m) for m in c))
        transversal = [G.identity]
        arcs = []
        for i in range(len(orbit)):
            for k, row in enumerate(graph):
                # the walk numbers new points in this same order, so an arc
                # finds a new point when it points at the next position
                if row[i] == len(transversal):
                    transversal.append(G.mult(self.gens[k], transversal[i]))
                else:
                    arcs.append((i, k, row[i]))
        return orbit, transversal, arcs

    def stabilizer(self, chain) -> tuple[tuple[int, ...], list[int]]:
        """Sorted members and generators of the chain's stabilizer,
        memoised per chain.

        Schreier generators are computed one at a time and adjoined only
        when they lie outside the closure so far, and the search stops once
        the closure has |G|/|orbit| elements: it lies inside the stabilizer
        and has its order, so the two are equal.  Raises ValueError if the
        generators run out short of that order, which only happens when G
        is not a group.
        """
        chain = _chain(chain)
        out = self._stabilizer.get(chain)
        if out is None:
            G = self.G
            orbit, transversal, arcs = self.orbit(chain)
            schreier = (G.mult(G.inv(transversal[j]), G.mult(self.gens[k], transversal[i]))
                        for i, k, j in arcs)
            gens, members = grow_generators(G, schreier, G.order // len(orbit))
            if len(members) * len(orbit) != G.order:
                raise ValueError(
                    "Schreier generators close to %d elements, not |G|/|orbit| = %d/%d: "
                    "the input is not a group" % (len(members), G.order, len(orbit))
                )
            out = (tuple(sorted(members)), gens)
            self._stabilizer[chain] = out
        return out


def sylow_members(G: FiniteGroup, p: int,
                  action: ConjugationAction | None = None) -> tuple[int, ...]:
    """A Sylow p-subgroup, grown through normalizers.

    While P is smaller than the full p-part, p divides |N_G(P)/P|, so the
    normalizer contains an element of p-power order outside P; adjoining it
    keeps the subgroup a p-group (the quotient by P is cyclic of p-power
    order).  Scanning in index order makes the result deterministic.  Each
    normalizer is a stabilizer of the conjugation action.  Raises
    ValueError when no such element exists, which only happens when G is
    not a group.
    """
    action = action if action is not None else ConjugationAction(G)
    target = p_part(G.order, p)
    members = (G.identity,)
    while len(members) < target:
        mset = set(members)
        x = next(
            (y for y in action.stabilizer((members,))[0]
             if y not in mset and is_p_power(G.element_order(y), p)),
            None,
        )
        if x is None:
            raise ValueError(
                "no element of %d-power order extends a %d-subgroup of order %d: "
                "the input is not a group" % (p, p, len(members))
            )
        members = generated_subgroup(G, subgroup_generators(G, members) + [x])
    return members


def _induced_perms(G: FiniteGroup, gens, members: tuple[int, ...]) -> PermGroup:
    """The group of permutations of the positions of members induced by
    conjugation by <gens>: the closure of the generators' images (the
    trivial group when gens is empty).  <gens> must normalize the
    subgroup; raises ValueError when a conjugate leaves it, which happens
    only in a non-group."""
    pos = {m: i for i, m in enumerate(members)}
    images = []
    try:
        for g in gens:
            gi = G.inv(g)
            images.append(tuple(pos[G.mult(G.mult(g, x), gi)] for x in members))
    except KeyError:
        raise ValueError("a conjugate of a subgroup by its normalizer leaves it: "
                         "the input is not a group") from None
    return perm_closure(images or [tuple(range(len(members)))])


@dataclass
class ChainAutReport:
    """Automorphism data of one chain of subgroups, all certified on G.

    Aut_F is the permutation action of the common normalizer on the top
    subgroup; Aut_L is the quotient of the common normalizer by the p'-part
    of the top centralizer, built as an explicit group and tagged by
    recognize().  The report keeps their orders, not the groups.  The two
    order formulas |Aut_L| = |Z(top)| * |Aut_F| and
    |Aut_L| = |inter_norm| / |nu'| agree exactly when the top centralizer
    splits as Z(top) x nu'.
    """

    aut_f_order: int
    aut_l_order: int
    z_order: int
    nu_prime_order: int
    centralizer_order: int
    centralizer_splits: bool
    tag: str


class FusionData:
    """Fusion of G at p relative to a fixed Sylow subgroup.

    G-conjugacy of subgroups and chains is decided on orbits of one
    ConjugationAction, so the work per orbit scales with its size, not
    with |G|.  Common normalizers are its stabilizers, memoised per chain.
    """

    def __init__(self, G: FiniteGroup, p: int):
        self.G = G
        self.p = p
        self.action = ConjugationAction(G)
        self.S = sylow_members(G, p, self.action)
        self._sset = set(self.S)
        self._names: dict[tuple[int, ...], str] = {}

    # -- conjugation -------------------------------------------------------

    def inter_norm(self, chain) -> tuple[int, ...]:
        """Sorted members of the common normalizer of the chain's subgroups
        (the chain's stabilizer), memoised per chain."""
        return self.action.stabilizer(chain)[0]

    # -- single subgroups --------------------------------------------------

    def aut_f_of(self, members) -> PermGroup:
        """Conjugation action of N_G(P) on P, as permutations of P: the
        closure of the images of the stabilizer's generators."""
        members = tuple(sorted(members))
        gens = self.action.stabilizer((members,))[1]
        return _induced_perms(self.G, gens, members)

    def is_centric(self, members) -> bool:
        """Every conjugate inside S contains its own S-centralizer.

        An element centralizes u P u^-1 iff it commutes with the conjugates
        of P's generators.  A conjugate that misses Z(S) fails; otherwise it
        and its S-centralizer are unions of Z(S)-cosets: one element each."""
        G = self.G
        zset, Q, _ = self._center_quotient
        pgens = subgroup_generators(G, members)
        orbit, transversal, _ = self.action.orbit((members,))
        for (c,), u in zip(orbit, transversal):
            if not self._sset.issuperset(c):
                continue
            cset = set(c)
            if not cset >= zset:
                return False
            cgens = [G.conjugate(u, x) for x in pgens]
            for s in Q.reps:
                if s not in cset and all(G.mult(s, x) == G.mult(x, s) for x in cgens):
                    return False
        return True

    def is_radical(self, members) -> bool:
        """No nontrivial normal p-subgroup in Out = aut_f / inner.

        A nontrivial O_p(Out) contains an order-p element whose normal
        closure is a p-group, and conversely such a closure sits inside
        O_p(Out), so scanning order-p elements decides the condition.
        """
        G = self.G
        members = tuple(sorted(members))
        A = self.aut_f_of(members)
        inner = _induced_perms(G, subgroup_generators(G, members), members)
        Out, _ = quotient(A, tuple(sorted(A.index[q] for q in inner.perms)))
        gens = greedy_generators(Out)
        for x in range(Out.order):
            if Out.element_order(x) != self.p:
                continue
            cl = normal_closure(Out, gens, (x,))
            if is_p_power(len(cl), self.p):
                return False
        return True

    # -- the centric-radical collection ------------------------------------

    @cached_property
    def _center_quotient(self) -> tuple[set[int], FiniteGroup, list[int]]:
        """Z(S), the elements of S that commute with S's generators, and
        S/Z(S) with its projection (see quotient).  Raises ValueError when
        Z(S) is not normal in S, which happens only in a non-group."""
        G, S = self.G, self.S
        Z = centralizer(G, subgroup_generators(G, S), within=S)
        try:
            Q, proj = quotient(G, Z, within=S)
        except ValueError:
            raise ValueError("the center of the Sylow subgroup is not normal in it: "
                             "the input is not a group") from None
        return set(Z), Q, proj

    def subgroup_name(self, members) -> str:
        """recognize() of a subgroup of S as its trivial quotient, memoised."""
        members = tuple(sorted(members))
        out = self._names.get(members)
        if out is None:
            out = recognize(quotient(self.G, (self.G.identity,), within=members)[0])
            self._names[members] = out
        return out

    @cached_property
    def sylow_subgroups(self) -> list[tuple[int, ...]]:
        """The subgroups of S that contain Z(S), as sorted member tuples in
        G's indexing: the preimages of the subgroups of S/Z(S), found on a
        table of S/Z(S) built once (|S/Z(S)|^2 products in G, where the
        search forms many times more).  A centric subgroup contains its
        S-centralizer, hence Z(S) (Broto-Levi-Oliver), so no centric
        subgroup is left out.  Raises ValueError when the table is not a
        group's, which happens only when G is not a group."""
        _, Q, proj = self._center_quotient
        try:
            table = subgroup_as_group(Q, range(Q.order))
        except (KeyError, ValueError):  # a product outside S, or no identity or inverse
            raise ValueError("the Sylow subgroup modulo its center is not a group: "
                             "the input is not a group") from None
        subs = map(set, all_subgroups(table))
        return sorted(tuple(s for s in self.S if proj[s] in sub) for sub in subs)

    @cached_property
    def cr_subgroups(self) -> list[tuple[int, ...]]:
        """The centric-radical subgroups of S.  Raises ValueError when S is
        not one of them, which only happens when G is not a group."""
        out = [m for m in self.sylow_subgroups if self.is_centric(m) and self.is_radical(m)]
        if self.S not in out:
            raise ValueError("the Sylow subgroup is not centric-radical: the input is not a group")
        return out

    def chains(self) -> list[tuple[tuple[int, ...], ...]]:
        """All nonempty strictly increasing chains of centric-radical
        subgroups of S, ordered by proper inclusion."""
        crs = self.cr_subgroups
        sets = [set(m) for m in crs]
        out: list[tuple[tuple[int, ...], ...]] = []

        def extend(prefix: list[int]) -> None:
            out.append(tuple(crs[i] for i in prefix))
            last = prefix[-1]
            for j in range(len(crs)):
                if len(crs[j]) > len(crs[last]) and sets[last] < sets[j]:
                    extend(prefix + [j])

        for i in range(len(crs)):
            extend([i])
        return sorted(out, key=lambda c: (len(c), c))

    def chain_key(self, chain) -> tuple[tuple[int, ...], ...]:
        """Canonical form of a chain under simultaneous conjugacy: the
        lexicographic minimum of its G-orbit."""
        return min(self.action.orbit(chain)[0])

    # -- chain automorphisms -----------------------------------------------

    def chain_aut(self, chain) -> ChainAutReport:
        G, p = self.G, self.p
        chain = _chain(chain)
        inter_t, ngens = self.action.stabilizer(chain)
        top = chain[-1]
        aut_f_order = _induced_perms(G, ngens, top).order

        # C_G(top) centralizes every member of the chain, so it lies in
        # the common normalizer
        C = centralizer(G, subgroup_generators(G, top), within=inter_t)
        cset = set(C)
        Z = [x for x in top if x in cset]
        nu = tuple(
            x for x in C if G.element_order(x) % p != 0
        )
        nu = generated_subgroup(G, nu) if nu else (G.identity,)
        splits = (
            len(Z) * len(nu) == len(C)
            and set(Z) & set(nu) == {G.identity}
            and all(G.element_order(x) % p != 0 for x in nu)
        )

        aut_l, _ = quotient(G, nu, inter_t)
        if splits and aut_l.order != len(Z) * aut_f_order:
            raise ValueError(
                "|Aut_L| = %d is not |Z(top)| * |Aut_F| = %d * %d although the top "
                "centralizer splits: the input is not a group" % (aut_l.order, len(Z), aut_f_order)
            )

        return ChainAutReport(
            aut_f_order=aut_f_order,
            aut_l_order=aut_l.order,
            z_order=len(Z),
            nu_prime_order=len(nu),
            centralizer_order=len(C),
            centralizer_splits=splits,
            tag=recognize(aut_l),
        )

    # -- the chain-class poset ---------------------------------------------

    def sd_poset(self) -> "ChainPoset":
        return ChainPoset(self)


def proper_subchains(chain):
    """All nonempty proper subchains, by deleting entries."""
    n = len(chain)
    out = []
    for r in range(1, n):
        for keep in itertools.combinations(range(n), r):
            out.append(tuple(chain[i] for i in keep))
    return out


class ChainPoset:
    """Conjugacy classes of centric-radical chains and their refinements.

    rows holds the one record per class: a node row in the schema of
    cases.chain_classes plus chain_orders and class_size, ids numbered
    in order of (length, member orders, representative), the
    representative being the least chain of the class.  edges holds
    (src, dst, attrs) refinement edges, attrs marking iso=True where the
    two classes' Aut_L groups are equal.  A proper subchain is shorter,
    so its class has its id before the rows that need it: one pass builds
    each row and its edges.
    """

    def __init__(self, data: FusionData):
        self.data = data
        by_key: dict[tuple, list] = {}
        for c in data.chains():
            by_key.setdefault(data.chain_key(c), []).append(c)
        classes = sorted(((min(cs), len(cs), key) for key, cs in by_key.items()),
                         key=lambda t: (len(t[0]), [len(m) for m in t[0]], t[0]))
        ids: dict[tuple, str] = {}
        self.rows: list[dict] = []
        self.edges: list[tuple[str, str, dict]] = []
        for rep, size, key in classes:
            cid = ids[key] = "c%d" % len(self.rows)
            report = data.chain_aut(rep)
            self.rows.append({
                "id": cid,
                "chain": [data.subgroup_name(m) for m in rep],
                "chain_orders": [len(m) for m in rep],
                "class_size": size,
                "autF_order": report.aut_f_order,
                "autL_order": report.aut_l_order,
                "tag": report.tag,
            })
            iso_to: dict[str, bool] = {}
            for sub in proper_subchains(rep):
                dst = ids[data.chain_key(sub)]
                iso = sub[-1] == rep[-1] and data.inter_norm(sub) == data.inter_norm(rep)
                iso_to[dst] = iso_to.get(dst, False) or iso
            self.edges += [(cid, dst, {"iso": True} if iso else {}) for dst, iso in iso_to.items()]
        self.edges.sort(key=lambda e: e[:2])

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "chain_poset",
            "prime": self.data.p,
            "group_order": self.data.G.order,
            "nodes": self.rows,
            "edges": json_edges(self.edges),
        }

    def to_diagram(self, name: str = "chain_poset") -> Diagram:
        return chain_diagram(name, self.rows, self.edges)

    def collapsed_diagram(self) -> Diagram:
        return contract_iso_edges(self.to_diagram("chain_poset_collapsed"))
