"""Set-up for the fusion workloads: write relabeled group-table files.

Each reference group is built with fusionkit, then its elements are
relabeled by a permutation drawn from the seed, so that a lucky index
order cannot pass for speed.  The same seed gives byte-identical files;
their sha256 digests go into manifest.json so that runs of two commits can
be shown to have read identical inputs.

Usage: python3 perfbench/tables.py --seed N --out DIR NAME [NAME ...]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys


def reference_group(name: str):
    """(group, prime) for one of the workload's table names."""
    from fusionkit.extraspecial import heisenberg_semidirect
    from fusionkit.fingroup import symmetric_group
    from fusionkit.matgroup import closure, std_matrix

    if name == "S4":
        return symmetric_group(4), 2
    if name in ("Q8", "Q16", "O48"):
        gens = [std_matrix(2, "A", det_one=True), std_matrix(2, "B", det_one=True)]
        gens += {"Q8": [], "Q16": [std_matrix(2, "F")],
                 "O48": [std_matrix(2, "F"), std_matrix(2, "H")]}[name]
        order = {"Q8": 8, "Q16": 16, "O48": 48}[name]
        return closure(gens, expected=order), 2
    if name in ("USL", "UGL", "SL", "GL"):
        return heisenberg_semidirect(3, name), 3
    raise ValueError("unknown table %r" % name)


def relabeled_table(G, prime: int, rng: random.Random) -> dict:
    """The group-table document of G with element i renamed to perm[i]."""
    n = G.order
    perm = list(range(n))
    rng.shuffle(perm)
    mult = [0] * (n * n)
    labels = [""] * n
    for i in range(n):
        row = perm[i] * n
        labels[perm[i]] = G.label(i)
        for j in range(n):
            mult[row + perm[j]] = perm[G.mult(i, j)]
    return {"schema_version": 1, "kind": "group_table", "order": n, "mult": mult,
            "labels": labels, "prime": prime}


def write_tables(names, seed: int, out_dir: str) -> dict:
    """Write one file per table; return the manifest."""
    tables = {}
    for name in names:
        G, prime = reference_group(name)
        doc = relabeled_table(G, prime, random.Random("%d:%s" % (seed, name)))
        data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        path = os.path.join(out_dir, name + ".json")
        with open(path, "wb") as fh:
            fh.write(data)
        tables[name] = {"path": path, "order": G.order, "sha256": hashlib.sha256(data).hexdigest()}
    manifest = {"seed": seed, "tables": tables}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True)
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("names", nargs="*")
    args = ap.parse_args(argv)
    write_tables(args.names, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
