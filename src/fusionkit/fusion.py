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
    normalizer, both as permutations of the top subgroup (aut_f) and as the
    quotient of the common normalizer by the p'-part of the top
    centralizer (aut_l).

The poset of chain classes, ordered by "contains a conjugate as a proper
subchain", drives the decomposition diagrams.  An edge is marked iso when
the subchain keeps the top subgroup and already has the same common
normalizer, in which case the two aut_l groups are literally equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .diagram import Diagram, contract_iso_edges
from .fingroup import (
    CosetGroup,
    FiniteGroup,
    PermGroup,
    Subgroup,
    all_subgroups,
    bfs_closure,
    centralizer,
    center_of_subgroup,
    generated_subgroup,
    greedy_generators,
    normal_closure,
    normalizer,
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


def is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def sylow_members(G: FiniteGroup, p: int) -> tuple[int, ...]:
    """A Sylow p-subgroup, grown through normalizers.

    While P is smaller than the full p-part, p divides |N_G(P)/P|, so the
    normalizer contains an element of p-power order outside P; adjoining it
    keeps the subgroup a p-group (the quotient by P is cyclic of p-power
    order).  Scanning in index order makes the result deterministic.
    """
    target = p_part(G.order, p)
    members = (G.identity,)
    while len(members) < target:
        mset = set(members)
        N = normalizer(G, Subgroup(G, members))
        x = next(
            y
            for y in N.members
            if y not in mset and is_p_power(G.element_order(y), p)
        )
        members = generated_subgroup(G, subgroup_generators(G, members) + [x])
    return members


@dataclass
class ChainAutReport:
    """Automorphism data of one chain of subgroups, all certified on G.

    aut_f is the permutation action of the common normalizer on the top
    subgroup; aut_l is the quotient of the common normalizer by the p'-part
    of the top centralizer, built as an explicit group.  The two order
    formulas |aut_l| = |Z(top)| * |aut_f| and |aut_l| = |inter_norm| / |nu'|
    agree exactly when the top centralizer splits as Z(top) x nu'.
    """

    chain: tuple[tuple[int, ...], ...]
    inter_norm: tuple[int, ...]
    aut_f: PermGroup
    aut_l: CosetGroup
    z_order: int
    nu_prime_order: int
    centralizer_order: int
    centralizer_splits: bool
    restriction_to_bottom_injective: bool
    tag: str

    @property
    def aut_f_order(self) -> int:
        return self.aut_f.order

    @property
    def aut_l_order(self) -> int:
        return self.aut_l.order


class FusionData:
    """Fusion of G at p relative to a fixed Sylow subgroup.

    G-conjugacy of subgroups and chains is decided on orbits, found by
    breadth-first search under conjugation by one generating set of G, so
    the work per orbit scales with its size, not with |G|.  Common
    normalizers are memoised per chain.
    """

    def __init__(self, G: FiniteGroup, p: int, sylow: tuple[int, ...] | None = None):
        self.G = G
        self.p = p
        self.S = tuple(sorted(sylow)) if sylow is not None else sylow_members(G, p)
        if len(self.S) != p_part(G.order, p):
            raise ValueError("given subgroup is not Sylow: order %d" % len(self.S))
        self._sset = set(self.S)
        # x -> g x g^-1 for each of one generating set of G, as lists over
        # G's indices
        self._conj = [[G.conjugate(g, x) for x in range(G.order)] for g in greedy_generators(G)]
        self._inter_norm: dict[tuple, tuple[int, ...]] = {}

    # -- conjugation -------------------------------------------------------

    def conjugation_orbit(self, chain) -> list[tuple[tuple[int, ...], ...]]:
        """The G-conjugates of a chain of subgroups, each a tuple of sorted
        member tuples, by breadth-first search under conjugation by the
        generators of G (in a finite group they generate G as a monoid)."""
        start = tuple(tuple(sorted(m)) for m in chain)

        def conj(c, perm):
            return tuple(tuple(sorted(map(perm.__getitem__, m))) for m in c)

        return bfs_closure(start, self._conj, conj)

    def inter_norm(self, chain) -> tuple[int, ...]:
        """Sorted members of the common normalizer of the chain's subgroups,
        memoised per chain, so each subgroup's normalizer is scanned once."""
        chain = tuple(tuple(sorted(m)) for m in chain)
        out = self._inter_norm.get(chain)
        if out is None:
            if len(chain) == 1:
                out = normalizer(self.G, Subgroup(self.G, chain[0])).members
            else:
                last = set(self.inter_norm(chain[-1:]))
                out = tuple(g for g in self.inter_norm(chain[:-1]) if g in last)
            self._inter_norm[chain] = out
        return out

    # -- single subgroups --------------------------------------------------

    def conjugates_in_sylow(self, members) -> list[tuple[int, ...]]:
        """Distinct G-conjugates of the subgroup that lie inside S, sorted."""
        sset = self._sset
        return sorted(c for (c,) in self.conjugation_orbit((members,)) if sset.issuperset(c))

    def aut_f_of(self, members) -> PermGroup:
        """Conjugation action of N_G(P) on P, as permutations of P."""
        G = self.G
        members = tuple(sorted(members))
        pos = {m: i for i, m in enumerate(members)}
        perms = set()
        for g in self.inter_norm((members,)):
            gi = G.inv(g)
            perms.add(tuple(pos[G.mult(G.mult(g, x), gi)] for x in members))
        return PermGroup(sorted(perms))

    def is_centric(self, members) -> bool:
        """Every conjugate inside S contains its own S-centralizer."""
        G = self.G
        for c in self.conjugates_in_sylow(members):
            cset = set(c)
            for s in self.S:
                if s in cset:
                    continue
                if all(G.mult(s, x) == G.mult(x, s) for x in c):
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
        pos = {m: i for i, m in enumerate(members)}
        A = self.aut_f_of(members)
        inner = set()
        for g in members:
            gi = G.inv(g)
            inner.add(tuple(pos[G.mult(G.mult(g, x), gi)] for x in members))
        inner_idx = tuple(sorted(A.index[q] for q in inner))
        Out, _ = quotient(A, Subgroup(A, inner_idx))
        gens = range(Out.order)
        for x in range(Out.order):
            if Out.element_order(x) != self.p:
                continue
            cl = normal_closure(Out, gens, (x,))
            if is_p_power(len(cl), self.p):
                return False
        return True

    # -- the centric-radical collection ------------------------------------

    @cached_property
    def sylow_subgroups(self) -> list[tuple[int, ...]]:
        """All subgroups of S, as sorted member tuples in G's indexing."""
        Sgrp = subgroup_as_group(self.G, self.S)
        subs = all_subgroups(Sgrp)
        return sorted(
            tuple(sorted(self.S[i] for i in sub)) for sub in subs
        )

    @cached_property
    def cr_subgroups(self) -> list[tuple[int, ...]]:
        return [
            m
            for m in self.sylow_subgroups
            if self.is_centric(m) and self.is_radical(m)
        ]

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
        return min(self.conjugation_orbit(chain))

    # -- chain automorphisms -----------------------------------------------

    def chain_aut(self, chain) -> ChainAutReport:
        G, p = self.G, self.p
        chain = tuple(tuple(sorted(m)) for m in chain)
        inter_t = self.inter_norm(chain)
        top = chain[-1]
        bottom = chain[0]
        pos_top = {m: i for i, m in enumerate(top)}
        pos_bot = {m: i for i, m in enumerate(bottom)}

        top_of = {}
        for g in inter_t:
            gi = G.inv(g)
            tp = tuple(pos_top[G.mult(G.mult(g, x), gi)] for x in top)
            top_of[tp] = g
        aut_f = PermGroup(sorted(top_of))
        bottoms = set()
        for tp in top_of:
            g = top_of[tp]
            gi = G.inv(g)
            bottoms.add(tuple(pos_bot[G.mult(G.mult(g, x), gi)] for x in bottom))
        restriction_injective = len(bottoms) == aut_f.order

        C = centralizer(G, top)
        Z = center_of_subgroup(G, Subgroup(G, top))
        nu = tuple(
            x for x in C.members if G.element_order(x) % p != 0
        )
        nu = generated_subgroup(G, nu) if nu else (G.identity,)
        splits = (
            len(Z) * len(nu) == C.order
            and set(Z) & set(nu) == {G.identity}
            and all(G.element_order(x) % p != 0 for x in nu)
        )

        aut_l, _ = quotient(G, Subgroup(G, nu), inter_t)
        if splits:
            assert aut_l.order == len(Z) * aut_f.order

        return ChainAutReport(
            chain=chain,
            inter_norm=inter_t,
            aut_f=aut_f,
            aut_l=aut_l,
            z_order=len(Z),
            nu_prime_order=len(nu),
            centralizer_order=C.order,
            centralizer_splits=splits,
            restriction_to_bottom_injective=restriction_injective,
            tag=recognize(aut_l),
        )

    # -- the chain-class poset ---------------------------------------------

    def sd_poset(self) -> "ChainPoset":
        return ChainPoset(self)


def proper_subchains(chain):
    """All nonempty proper subchains, by deleting entries."""
    import itertools

    n = len(chain)
    out = []
    for r in range(1, n):
        for keep in itertools.combinations(range(n), r):
            out.append(tuple(chain[i] for i in keep))
    return out


@dataclass
class ChainClass:
    id: str
    rep: tuple[tuple[int, ...], ...]
    key: tuple[tuple[int, ...], ...]
    size: int
    names: tuple[str, ...]
    report: ChainAutReport


class ChainPoset:
    """Conjugacy classes of centric-radical chains and their refinements."""

    def __init__(self, data: FusionData):
        self.data = data
        G = data.G
        chains = data.chains()
        by_key: dict[tuple, list] = {}
        for c in chains:
            by_key.setdefault(data.chain_key(c), []).append(c)
        classes = []
        for key in sorted(by_key):
            members = by_key[key]
            rep = min(members)
            classes.append((key, rep, len(members)))
        classes.sort(key=lambda t: (len(t[1]), [len(m) for m in t[1]], t[1]))
        self.classes: list[ChainClass] = []
        key_to_id: dict[tuple, str] = {}
        for i, (key, rep, size) in enumerate(classes):
            cid = "c%d" % i
            key_to_id[key] = cid
            names = tuple(
                recognize(subgroup_as_group(G, m)) for m in rep
            )
            self.classes.append(
                ChainClass(cid, rep, key, size, names, data.chain_aut(rep))
            )
        self._key_to_id = key_to_id

        self.edges: list[tuple[str, str, bool]] = []
        for cls in self.classes:
            if len(cls.rep) == 1:
                continue
            seen_dst = {}
            for sub in proper_subchains(cls.rep):
                dst = key_to_id[data.chain_key(sub)]
                iso = (
                    sub[-1] == cls.rep[-1]
                    and data.inter_norm(sub) == cls.report.inter_norm
                )
                seen_dst[dst] = seen_dst.get(dst, False) or iso
            for dst in sorted(seen_dst):
                assert dst != cls.id
                self.edges.append((cls.id, dst, seen_dst[dst]))
        self.edges.sort(key=lambda e: (e[0], e[1]))
        for src, dst, _ in self.edges:
            src_len = len(next(c.rep for c in self.classes if c.id == src))
            dst_len = len(next(c.rep for c in self.classes if c.id == dst))
            assert dst_len < src_len, "poset edges must shorten chains"

    def class_by_id(self, cid: str) -> ChainClass:
        return next(c for c in self.classes if c.id == cid)

    def to_json_dict(self) -> dict:
        from . import SCHEMA_VERSION

        nodes = []
        for cls in self.classes:
            nodes.append(
                {
                    "id": cls.id,
                    "chain": list(cls.names),
                    "chain_orders": [len(m) for m in cls.rep],
                    "class_size": cls.size,
                    "autF_order": cls.report.aut_f_order,
                    "autL_order": cls.report.aut_l_order,
                    "tag": cls.report.tag,
                }
            )
        edges = []
        for src, dst, iso in self.edges:
            edges.append([src, dst, {"iso": True}] if iso else [src, dst])
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "chain_poset",
            "prime": self.data.p,
            "group_order": self.data.G.order,
            "nodes": nodes,
            "edges": edges,
        }

    def to_diagram(self, name: str = "chain_poset") -> Diagram:
        d = Diagram(name)
        for cls in self.classes:
            label = "BAut_L(%s): %s (%d)" % (
                " < ".join(cls.names),
                cls.report.tag,
                cls.report.aut_l_order,
            )
            d.add_node(
                cls.id,
                label,
                chain=list(cls.names),
                autF_order=cls.report.aut_f_order,
                autL_order=cls.report.aut_l_order,
                tag=cls.report.tag,
            )
        for src, dst, iso in self.edges:
            if iso:
                d.add_edge(src, dst, iso=True)
            else:
                d.add_edge(src, dst)
        return d

    def collapsed_diagram(self, name: str = "chain_poset_collapsed") -> Diagram:
        return contract_iso_edges(self.to_diagram(name))
