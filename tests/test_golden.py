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
import sys
from pathlib import Path

from fusionkit import cli
from fusionkit.fingroup import group_to_json, symmetric_group

GOLDEN = Path(__file__).parent / "golden" / "sha256.json"

# name -> argv; "{s4}" and "{q8}" stand for the group-table files.  The Q8
# table is the dump-group artifact itself, so it is generated first.
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


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, "%s exited %d" % (" ".join(argv), code)
    return out.getvalue()


def generate(workdir: Path) -> dict[str, str]:
    """sha256 of every artifact, generated with FUSIONKIT_* unset."""
    tables = {"s4": workdir / "s4.json", "q8": workdir / "q8.json"}
    tables["s4"].write_text(group_to_json(symmetric_group(4), prime=2))
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
