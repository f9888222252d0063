"""Golden artifacts: CLI outputs regenerated in-process and compared by sha256.

The artifacts reach every closure (matrix, permutation, subgroup and the
capped complement search in sesverify) and both generator-image search
callers (isomorphism and the backtracking automorphism group), so a
refactor of those layers that changes any number, order or label shows up
here.  After a deliberate output change, regenerate the digests with

    PYTHONPATH=src python tests/test_golden.py --update

and say why in the change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

from fusionkit import cli
from fusionkit.extraspecial import heisenberg_semidirect
from fusionkit.fingroup import TableGroup, group_to_json, symmetric_group

GOLDEN = Path(__file__).parent / "golden" / "sha256.json"

# name -> argv; "{s4}", "{q8}" and "{USL}" .. "{GL}" stand for the
# group-table files.  The Q8 table is the dump-group artifact itself, so it
# is generated first.
ARTIFACTS = {
    "dump-group-sup-2.json": ["dump-group", "--case", "sup", "--prime", "2"],
    "verify-sup-2.json": ["verify", "--case", "sup", "--prime", "2", "--format", "json"],
    "verify-sup-3.json": ["verify", "--case", "sup", "--prime", "3", "--format", "json"],
    "verify-up-2.json": ["verify", "--case", "up", "--prime", "2", "--format", "json"],
    "verify-up-3.json": ["verify", "--case", "up", "--prime", "3", "--format", "json"],
    "verify-az-12.json": ["verify", "--case", "az", "--index", "12", "--format", "json"],
    "aut-gamma-2.json": ["aut-gamma", "--prime", "2", "--format", "json"],
    "aut-gamma-3.json": ["aut-gamma", "--prime", "3", "--format", "json"],
    "fusion-s4.json": ["fusion", "--input", "{s4}", "--format", "json"],
    "fusion-q8.json": ["fusion", "--input", "{q8}", "--format", "json"],
}

# the slower configurations: verify at p in {5, 7} (with the p = 7
# tower), az 29/31/34, and aut-gamma at p in {5, 7}
ARTIFACTS.update({
    "verify-%s-%d.json" % (case, p): ["verify", "--case", case, "--prime", str(p), "--format", "json"]
    for case in ("sup", "up") for p in (5, 7)
})
# the full unitary family at level 2, where the scalar-extended core and
# chain normalizer are certified from generators
ARTIFACTS.update({
    "verify-up-%d-level2.json" % p: ["verify", "--case", "up", "--prime", str(p), "--level", "2",
                                     "--format", "json"]
    for p in (3, 5, 7)
})
ARTIFACTS.update({
    "verify-az-%d.json" % i: ["verify", "--case", "az", "--index", str(i), "--format", "json"]
    for i in (29, 31, 34)
})
ARTIFACTS.update({
    "aut-gamma-%d.json" % p: ["aut-gamma", "--prime", str(p), "--format", "json"] for p in (5, 7)
})

# fusion on the four p = 3 models Heis(3) x| H, as relabeled tables
HEISENBERG_KINDS = ("USL", "UGL", "SL", "GL")
ARTIFACTS.update({
    "fusion-heis3-%s.%s" % (kind, fmt): ["fusion", "--input", "{%s}" % kind, "--format", fmt]
    for kind in HEISENBERG_KINDS for fmt in ("json", "dot")
})

# fusion's text and collapsed outputs, on S4 and the p = 3 SL model
ARTIFACTS.update({
    "fusion-%s%s.%s" % (name, suffix, ext): ["fusion", "--input", "{%s}" % table, "--format", fmt, *extra]
    for name, table in (("s4", "s4"), ("heis3-SL", "SL"))
    for suffix, ext, fmt, extra in (("", "txt", "text", []),
                                    ("-collapse", "txt", "text", ["--collapse"]),
                                    ("-collapse", "dot", "dot", ["--collapse"]))
})

# decompose for all 12 default configurations, as json and dot, with and
# without --full-poset
DECOMPOSE = {"%s-%d" % (case, p): ["--case", case, "--prime", str(p)]
             for case in ("sup", "up") for p in (2, 3, 5, 7)}
DECOMPOSE.update({"az-%d" % i: ["--case", "az", "--index", str(i)] for i in (12, 29, 31, 34)})
ARTIFACTS.update({
    "decompose-%s%s.%s" % (sel, suffix, fmt): ["decompose", *flags, "--format", fmt, *extra]
    for sel, flags in DECOMPOSE.items()
    for fmt in ("json", "dot")
    for suffix, extra in (("", []), ("-full", ["--full-poset"]))
})
# decompose's text output: the five-class W at p = 5 and the symbolic az node
ARTIFACTS.update({
    "decompose-%s.txt" % sel: ["decompose", *DECOMPOSE[sel], "--format", "text"]
    for sel in ("sup-5", "az-34")
})


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, "%s exited %d" % (" ".join(argv), code)
    return out.getvalue()


def relabeled(G, rng: random.Random) -> TableGroup:
    """G with element i renamed to perm[i], for a permutation drawn from rng,
    so that a lucky index order cannot hide a change."""
    n = G.order
    perm = list(range(n))
    rng.shuffle(perm)
    table = [0] * (n * n)
    labels = [""] * n
    for i in range(n):
        labels[perm[i]] = G.label(i)
        for j in range(n):
            table[perm[i] * n + perm[j]] = perm[G.mult(i, j)]
    return TableGroup(table, n, labels)


def generate(workdir: Path) -> dict[str, str]:
    """sha256 of every artifact, generated with FUSIONKIT_* unset."""
    tables = {"s4": workdir / "s4.json", "q8": workdir / "q8.json"}
    tables["s4"].write_text(group_to_json(symmetric_group(4), prime=2))
    for kind in HEISENBERG_KINDS:
        tables[kind] = workdir / ("heis3-%s.json" % kind)
        G = relabeled(heisenberg_semidirect(3, kind), random.Random(0))
        tables[kind].write_text(group_to_json(G, prime=3))
    digests = {}
    for name, argv in ARTIFACTS.items():
        text = _run([a.format(**tables) for a in argv])
        if name == "dump-group-sup-2.json":
            tables["q8"].write_text(text)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_golden_artifacts(tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith(cli.ENV_PREFIX):
            monkeypatch.delenv(key)
    want = json.loads(GOLDEN.read_text())
    got = generate(tmp_path)
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, "artifacts differ from the goldens: %s" % changed


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    for key in list(os.environ):
        if key.startswith(cli.ENV_PREFIX):
            del os.environ[key]
    with tempfile.TemporaryDirectory() as tmp:
        digests = generate(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print("wrote %d digests to %s" % (len(digests), GOLDEN))
