"""Small directed diagrams with attributed nodes, JSON and DOT emission.

chain_diagram turns the rows of a chain-class poset, computed by fusion or
encoded by cases, into a diagram; it is the one place that writes a node's
BAut_L label.

Output is deterministic: nodes and edges are serialized in sorted order and
JSON uses sorted keys with fixed separators, so identical inputs give
byte-identical artifacts.

The one nontrivial operation is contract_iso_edges, the simplification used
by the chain posets: an edge marked iso=True joins a refinement node to one
carrying the same automorphism data, so the pair is merged; if the merged
node then sits strictly between others (at least one in-edge and one
out-edge), it is spliced out and the paths through it are composed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import SCHEMA_VERSION, canonical_json


@dataclass
class DiagramNode:
    key: str
    label: str
    attrs: dict = field(default_factory=dict)


class Diagram:
    def __init__(self, name: str = "diagram"):
        self.name = name
        self.nodes: dict[str, DiagramNode] = {}
        self.edges: list[tuple[str, str, dict]] = []

    def add_node(self, key: str, label: str, **attrs) -> DiagramNode:
        if key in self.nodes:
            raise ValueError("duplicate node key %r" % key)
        node = DiagramNode(key, label, dict(attrs))
        self.nodes[key] = node
        return node

    def add_edge(self, src: str, dst: str, **attrs) -> None:
        if src not in self.nodes or dst not in self.nodes:
            raise ValueError("edge endpoints must be nodes: %r -> %r" % (src, dst))
        if src == dst:
            raise ValueError("self-loops are not allowed")
        if any(s == src and d == dst for s, d, _ in self.edges):
            raise ValueError("duplicate edge %r -> %r" % (src, dst))
        self.edges.append((src, dst, dict(attrs)))

    def in_edges(self, key: str) -> list[tuple[str, str, dict]]:
        return [e for e in self.edges if e[1] == key]

    def out_edges(self, key: str) -> list[tuple[str, str, dict]]:
        return [e for e in self.edges if e[0] == key]

    def copy(self) -> "Diagram":
        d = Diagram(self.name)
        for key in self.nodes:
            n = self.nodes[key]
            d.nodes[key] = DiagramNode(n.key, n.label, dict(n.attrs))
        d.edges = [(s, t, dict(a)) for s, t, a in self.edges]
        return d

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = []
        for key in sorted(self.nodes):
            n = self.nodes[key]
            entry = {"id": n.key, "label": n.label}
            for k in sorted(n.attrs):
                entry[k] = n.attrs[k]
            nodes.append(entry)
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "diagram",
            "name": self.name,
            "nodes": nodes,
            "edges": json_edges(self.edges),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    def to_dot(self) -> str:
        def q(s: str) -> str:
            return '"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph %s {" % self.name.replace("-", "_")]
        for key in sorted(self.nodes):
            n = self.nodes[key]
            lines.append("  %s [label=%s];" % (q(key), q(n.label)))
        for s, t, a in sorted(self.edges, key=lambda e: (e[0], e[1])):
            if a.get("iso"):
                lines.append("  %s -> %s [label=%s];" % (q(s), q(t), q("iso")))
            else:
                lines.append("  %s -> %s;" % (q(s), q(t)))
        lines.append("}")
        return "\n".join(lines) + "\n"


def json_edges(edges) -> list[list]:
    """(src, dst, attrs) edges in their artifact form, sorted: [src, dst],
    or [src, dst, attrs] when attrs is not empty."""
    return [[s, t, dict(a)] if a else [s, t] for s, t, a in sorted(edges, key=lambda e: e[:2])]


def chain_diagram(name: str, rows: list[dict], edges) -> Diagram:
    """The diagram of a chain-class poset, computed or encoded.

    Each row becomes a node keyed by its "id" and carrying its other
    fields, labelled by its chain, its tag and its autL_order, or
    "symbolic" for a row with none; each (src, dst, attrs) edge becomes an
    edge.
    """
    d = Diagram(name)
    for row in rows:
        label = "BAut_L(%s): %s (%s)" % (
            " < ".join(row["chain"]), row["tag"], row.get("autL_order", "symbolic"))
        d.add_node(row["id"], label, **{k: v for k, v in row.items() if k != "id"})
    for s, t, a in edges:
        d.add_edge(s, t, **a)
    return d


def contract_iso_edges(d: Diagram) -> Diagram:
    """Collapse every edge carrying iso=True; see the module docstring.

    Each contraction merges the edge's endpoints into a node keyed by the
    source (refinement) key, recording merged_with; a merged node with both
    in- and out-edges is then removed and its through-paths composed.
    Iteration order is sorted, so the result is deterministic.
    """
    out = d.copy()
    while True:
        iso = sorted(
            ((s, t) for s, t, a in out.edges if a.get("iso")), key=lambda e: (e[0], e[1])
        )
        if not iso:
            return out
        x, y = iso[0]
        merged_key = x
        node = out.nodes[merged_key]
        node.attrs = dict(node.attrs)
        node.attrs["merged_with"] = out.nodes[y].key
        new_edges = []
        for s, t, a in out.edges:
            if (s, t) == (x, y):
                continue
            s2 = merged_key if s == y else s
            t2 = merged_key if t == y else t
            if s2 == t2:
                continue
            if any(es == s2 and et == t2 for es, et, _ in new_edges):
                continue
            new_edges.append((s2, t2, dict(a)))
        del out.nodes[y]
        out.edges = new_edges
        ins = out.in_edges(merged_key)
        outs = out.out_edges(merged_key)
        if ins and outs:
            spliced = [e for e in out.edges if e[0] != merged_key and e[1] != merged_key]
            for s, _, _ in ins:
                for _, t, _ in outs:
                    if s != t and not any(es == s and et == t for es, et, _ in spliced):
                        spliced.append((s, t, {}))
            del out.nodes[merged_key]
            out.edges = spliced
