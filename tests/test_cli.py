"""Command line behavior: exit codes, determinism, and file round trips.

Each invocation runs in a fresh interpreter so the determinism checks
cover the full path from argument parsing to serialized bytes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fusionkit.fingroup import cyclic_group, group_to_json, symmetric_group


def run_cli(*args: str, env_extra: dict | None = None, stdin: str | None = None):
    env = dict(os.environ)
    for key in list(env):
        if key.startswith("FUSIONKIT_"):
            del env[key]
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "fusionkit.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        input=stdin,
        timeout=300,
    )


def test_verify_text_exit_zero():
    res = run_cli("verify", "--case", "sup", "--prime", "3")
    assert res.returncode == 0, res.stderr
    assert "summary:" in res.stdout and "FAIL" not in res.stdout


def test_verify_json_document():
    res = run_cli("verify", "--case", "az", "--index", "12", "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["kind"] == "verification_report"
    assert doc["all_ok"] is True
    assert doc["prime"] == 3 and doc["az_index"] == 12


def test_verify_infers_prime_from_index():
    res = run_cli("verify", "--case", "az", "--index", "29", "--format", "json")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["prime"] == 5


def test_missing_selection_is_usage_error():
    res = run_cli("verify")
    assert res.returncode == 2
    assert "no case selected" in res.stderr


def test_bad_flag_choice_is_usage_error():
    res = run_cli("verify", "--case", "nope", "--prime", "3")
    assert res.returncode == 2


def test_format_rejected_per_command():
    res = run_cli("verify", "--case", "sup", "--prime", "3", "--format", "dot")
    assert res.returncode == 2
    assert "not valid here" in res.stderr


def test_decompose_dot_deterministic(tmp_path):
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    r1 = run_cli("decompose", "--case", "sup", "--prime", "3", "--format", "dot",
                 "--out", str(a))
    r2 = run_cli("decompose", "--case", "sup", "--prime", "3", "--format", "dot",
                 "--out", str(b))
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("digraph")


def test_decompose_json_shape():
    res = run_cli("decompose", "--case", "up", "--prime", "2", "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["kind"] == "decomposition"
    assert doc["poset"] is None
    ids = [n["id"] for n in doc["collapsed"]["nodes"]]
    assert ids == ["gamma", "gamma_s", "t"]


def test_aut_gamma_both_methods():
    res2 = run_cli("aut-gamma", "--prime", "2", "--format", "json")
    assert res2.returncode == 0, res2.stderr
    doc2 = json.loads(res2.stdout)
    assert doc2["method"] == "backtracking" and doc2["scan_count"] == 24
    res3 = run_cli("aut-gamma", "--prime", "3", "--format", "json")
    doc3 = json.loads(res3.stdout)
    assert doc3["method"] == "coordinate-section" and doc3["scan_count"] == 432


def test_env_fallback_and_flag_precedence():
    res = run_cli("aut-gamma", env_extra={"FUSIONKIT_PRIME": "2", "FUSIONKIT_FORMAT": "json"})
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["prime"] == 2
    res = run_cli("aut-gamma", "--prime", "3", "--format", "json",
                  env_extra={"FUSIONKIT_PRIME": "2"})
    assert json.loads(res.stdout)["prime"] == 3


@pytest.mark.parametrize("var", ["FUSIONKIT_PRIME", "FUSIONKIT_LEVEL"])
def test_malformed_integer_env_is_usage_error(var):
    res = run_cli("verify", "--case", "sup", env_extra={var: "abc"})
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert var in res.stderr


@pytest.mark.parametrize("var, value", [("FUSIONKIT_INDEX", "99")])
def test_env_value_its_flag_would_reject_is_usage_error(var, value):
    res = run_cli("verify", "--case", "sup", "--prime", "2", env_extra={var: value})
    assert res.returncode == 2
    assert res.stderr.startswith("fusionkit: error: ")
    assert res.stderr.count("\n") == 1 and var in res.stderr


@pytest.mark.parametrize("var, value, args, message", [
    ("FUSIONKIT_FORMAT", "xml", ("--prime", "2"), "format 'xml' not valid here"),
    ("FUSIONKIT_INDEX", "12", ("--prime", "3"), "an index applies to the az family only"),
])
def test_env_value_the_command_refuses_names_the_variable(var, value, args, message):
    # the option table accepts both values; the command refuses them later,
    # and the error names the variable only when the value came from it
    res = run_cli("verify", "--case", "sup", *args, env_extra={var: value})
    assert res.returncode == 2
    assert res.stderr.startswith("fusionkit: error: " + message)
    assert res.stderr.count("\n") == 1 and "%s=%s" % (var, value) in res.stderr
    flag = run_cli("verify", "--case", "sup", *args, "--" + var[10:].lower(), value)
    assert flag.returncode == 2
    assert flag.stderr.startswith("fusionkit: error: " + message)
    assert "FUSIONKIT_" not in flag.stderr


def test_verify_extended_is_usage_error():
    # the p = 7 tower always runs, and the flag that once enabled it is gone
    res = run_cli("verify", "--case", "sup", "--prime", "7", "--extended")
    assert res.returncode == 2
    assert "unrecognized arguments: --extended" in res.stderr
    assert "Traceback" not in res.stderr


def test_readme_names_exactly_the_env_variables():
    # the Configuration section of the README lists every variable that
    # stands in for a flag, and no other
    from fusionkit import cli

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"FUSIONKIT_[A-Z][A-Z_]*", section))
    assert named == {cli._var(name) for name, opt in cli.OPTIONS.items() if opt.env}


def test_dump_group_round_trip(tmp_path):
    path = tmp_path / "core.json"
    res = run_cli("dump-group", "--case", "sup", "--prime", "2", "--out", str(path))
    assert res.returncode == 0, res.stderr
    doc = json.loads(path.read_text())
    assert doc["kind"] == "group_table"
    assert doc["order"] == 8 and doc["prime"] == 2
    assert len(doc["mult"]) == 64 and len(doc["labels"]) == 8

    res = run_cli("fusion", "--input", str(path))
    assert res.returncode == 0, res.stderr
    assert "Q8" in res.stdout


def test_fusion_on_s4_table(tmp_path):
    path = tmp_path / "s4.json"
    path.write_text(group_to_json(symmetric_group(4), prime=2))
    res = run_cli("fusion", "--input", str(path), "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["kind"] == "chain_poset"
    assert len(doc["nodes"]) == 3
    tags = [n["tag"] for n in doc["nodes"]]
    assert tags == ["S4", "D8", "D8"]
    assert ["c2", "c1", {"iso": True}] in doc["edges"]


def test_fusion_prime_flag_overrides_file(tmp_path):
    path = tmp_path / "s4.json"
    path.write_text(group_to_json(symmetric_group(4), prime=2))
    res = run_cli("fusion", "--input", str(path), "--prime", "3", "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["prime"] == 3
    # at p = 3 the Sylow subgroup is C3 and there is a single class
    assert len(doc["nodes"]) == 1


def test_fusion_cap_enforced(tmp_path):
    path = tmp_path / "s4.json"
    path.write_text(group_to_json(symmetric_group(4), prime=2))
    res = run_cli("fusion", "--input", str(path), "--cap", "10")
    assert res.returncode == 2
    assert res.stderr == "fusionkit: error: input group order 24 exceeds cap 10\n"
    # a cap from the environment names its variable
    env = run_cli("fusion", "--input", str(path), env_extra={"FUSIONKIT_CAP": "5"})
    assert env.returncode == 2
    assert env.stderr == ("fusionkit: error: input group order 24 exceeds cap 5"
                          " (set by FUSIONKIT_CAP=5)\n")


def test_fusion_cap_checked_before_the_table_is_built(tmp_path):
    # the mult list is malformed too, but the order alone exceeds the cap
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "group_table", "order": 10 ** 6, "mult": [0]}))
    res = run_cli("fusion", "--input", str(path), "--cap", "10")
    assert res.returncode == 2
    assert "exceeds cap" in res.stderr


@pytest.mark.parametrize("prime", [4, "3", 1, 3.0, None], ids=["4", "str-3", "1", "float-3", "null"])
def test_fusion_unsupported_file_prime_is_usage_error(tmp_path, prime):
    # at p = 1 the Sylow search would never return, so it must not start
    doc = json.loads(group_to_json(symmetric_group(4)))
    doc["prime"] = prime
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(doc))
    res = run_cli("fusion", "--input", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("fusionkit: error: ")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr


def test_fusion_env_prime_must_be_supported(tmp_path):
    path = tmp_path / "s4.json"
    path.write_text(group_to_json(symmetric_group(4)))
    res = run_cli("fusion", "--input", str(path), env_extra={"FUSIONKIT_PRIME": "4"})
    assert res.returncode == 2
    assert "prime must be one of" in res.stderr


def test_fusion_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "something_else"}))
    res = run_cli("fusion", "--input", str(path))
    assert res.returncode == 2


# C3's table with its last entry (1) replaced: out of range, not a number,
# a float (refused even when integral, and NaN and the infinities, which
# json writes bare) or a bool (equal to 1 or 0)
BAD_ENTRIES = {"7": 7, "minus-1": -1, "str": "x", "float-1.5": 1.5, "float-1.0": 1.0,
               "true": True, "false": False, "null": None, "list": [], "nan": float("nan"),
               "inf": float("inf"), "minus-inf": float("-inf"), "2**70": 2 ** 70}


@pytest.mark.parametrize("doc", [
    {"kind": "group_table", "order": 2, "mult": [0, 0, 0, 0]},  # no identity
    {"kind": "group_table", "order": 2, "mult": [0, 1, 1, 1]},  # row 1 lacks it
    {"kind": "group_table", "mult": [0]},
    {"kind": "group_table", "order": 1},
    {"kind": "group_table", "order": True, "mult": [0]},
] + [{"kind": "group_table", "order": 3, "mult": [0, 1, 2, 1, 2, 0, 2, 0, x]}
     for x in BAD_ENTRIES.values()] + [
    # nested past the parser's recursion limit: labels 5000 lists deep in a
    # 10 KB document, and a bare list 200000 deep
    '{"kind": "group_table", "order": 3, "mult": [0, 1, 2, 1, 2, 0, 2, 0, 1], "labels": '
    + "[" * 5000 + "]" * 5000 + "}",
    "[" * 200000 + "]" * 200000,
],
    ids=["no-identity", "non-invertible", "no-order", "no-mult", "order-true"]
    + ["entry-" + k for k in BAD_ENTRIES] + ["deep-labels", "deep-bare"])
def test_fusion_malformed_table_is_usage_error(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    res = run_cli("fusion", "--input", str(path), "--prime", "2")
    assert res.returncode == 2
    assert res.stderr.startswith("fusionkit: error: ")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr


def test_fusion_reads_the_table_as_utf8_in_any_locale(tmp_path):
    # JSON text is UTF-8 (RFC 8259), whatever the locale's encoding
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"kind": "group_table", "order": 2, "mult": [0, 1, 1, 0],
                                "labels": ["e", "\u03c3"], "prime": 2}, ensure_ascii=False),
                    encoding="utf-8")
    res = run_cli("fusion", "--input", str(path), "--format", "json",
                  env_extra={"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["group_order"] == 2


def test_fusion_reads_the_table_without_holding_its_text(tmp_path, monkeypatch):
    # the 1.4 MB document of a relabeled C600 is read into the 2-byte
    # table store, 0.72 MB, and never held whole; the engine is stopped
    # before it starts
    import random
    import tracemalloc

    from fusionkit import cli
    from test_golden import relabeled

    path = tmp_path / "c600.json"
    path.write_text(group_to_json(relabeled(cyclic_group(600), random.Random(3)), prime=5))
    read = {}

    class Stop(Exception):
        pass

    def stop(G, p):
        read["G"] = G
        read["kept"], read["peak"] = tracemalloc.get_traced_memory()
        raise Stop

    monkeypatch.setattr(cli, "FusionData", stop)
    args = cli.build_parser().parse_args(["fusion", "--input", str(path)])
    cli._resolve(args)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            args.func(args)
    finally:
        tracemalloc.stop()
    G = read["G"]
    assert G.order == 600 and G.table.itemsize == 2
    labels = sys.getsizeof(G.labels) + sum(map(sys.getsizeof, G.labels))
    assert read["kept"] <= 2.2 * 600 ** 2 + labels
    assert read["peak"] < 1_000_000


EMPTY_ENTRY = '{"kind":"group_table","order":3,"mult":[0,1,2,1,,2,0,2,0,1]}'


def test_fusion_reads_a_piped_table(tmp_path):
    # a pipe cannot seek back for the reference parse, so it is read whole
    path = tmp_path / "s4.json"
    path.write_text(group_to_json(symmetric_group(4), prime=2))
    from_file = run_cli("fusion", "--input", str(path), "--format", "json")
    piped = run_cli("fusion", "--input", "/dev/stdin", "--format", "json", stdin=path.read_text())
    assert from_file.returncode == piped.returncode == 0, piped.stderr
    assert piped.stdout == from_file.stdout
    bad = run_cli("fusion", "--input", "/dev/stdin", stdin=EMPTY_ENTRY)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(EMPTY_ENTRY)
    assert bad.returncode == 2
    assert bad.stderr == "fusionkit: error: %s\n" % want.value
    assert "Traceback" not in bad.stderr


@pytest.mark.parametrize("indent, message", [
    (None, "line 1 column 200003 (char 200002)"),
    (1, "line 60163 column 7 (char 400002)"),
], ids=["one-line", "indented"])
def test_fusion_reports_a_late_syntax_error_where_json_does(tmp_path, indent, message):
    # an empty entry far past the first chunk of a C300 table is reported
    # with the line, column and position that json.loads gives
    import random

    from test_golden import relabeled

    text = group_to_json(relabeled(cyclic_group(300), random.Random(5)), prime=3)
    if indent:
        text = json.dumps(json.loads(text), indent=indent)
    late = text.index(",", 400000 if indent else 200000)
    path = tmp_path / "late.json"
    path.write_text(text[:late] + "," + text[late:])
    res = run_cli("fusion", "--input", str(path))
    assert res.returncode == 2
    assert res.stderr == "fusionkit: error: Expecting value: %s\n" % message


@pytest.mark.parametrize("labels", [["e", "a"], "eab", None, ["e", "a", 2]],
                         ids=["too-short", "not-a-list", "null", "not-strings"])
def test_fusion_malformed_labels_is_usage_error(tmp_path, labels):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "group_table", "order": 3,
                                "mult": [0, 1, 2, 1, 2, 0, 2, 0, 1], "labels": labels}))
    res = run_cli("fusion", "--input", str(path), "--prime", "3")
    assert res.returncode == 2
    assert res.stderr.startswith("fusionkit: error: ")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr


def _assert_loop_is_usage_error(tmp_path, rows, p):
    n = len(rows)
    assert any(rows[rows[a][b]][c] != rows[a][rows[b][c]]
               for a in range(n) for b in range(n) for c in range(n))
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"kind": "group_table", "order": n,
                                "mult": [x for row in rows for x in row]}))
    res = run_cli("fusion", "--input", str(path), "--prime", str(p))
    assert res.returncode == 2
    assert res.stderr.startswith("fusionkit: error: ")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr
    return res


def test_fusion_on_a_non_associative_loop_is_usage_error(tmp_path):
    # a Latin square with an identity: every row and column is a
    # permutation, yet (a*b)*c != a*(b*c) for some triples; at p = 5 no
    # element of 5-power order exists, so no Sylow subgroup can be grown
    rows = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    _assert_loop_is_usage_error(tmp_path, rows, 5)


# at p = 3 the Sylow search grows a 3-element subset that is not closed
# under the product, and naming a subset of it meets an element with no order
ORDER_6_LOOP = [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 3, 1, 5, 0, 4],
                [3, 4, 5, 0, 1, 2], [4, 5, 3, 1, 2, 0], [5, 0, 4, 2, 3, 1]]

ORDER_8_LOOPS = {
    # the elements that commute with the Sylow subgroup's generators do
    # not form a normal subset of it
    "center-not-normal": [[0, 1, 2, 3, 4, 5, 6, 7], [1, 3, 4, 2, 7, 0, 5, 6],
                          [2, 6, 7, 5, 0, 3, 4, 1], [3, 4, 1, 0, 2, 6, 7, 5],
                          [4, 5, 6, 7, 3, 1, 2, 0], [5, 2, 3, 1, 6, 7, 0, 4],
                          [6, 7, 0, 4, 5, 2, 1, 3], [7, 0, 5, 6, 1, 4, 3, 2]],
    # a generator of a subgroup's stabilizer conjugates it out of itself
    "conjugate-leaves": [[0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 7, 4, 5, 6, 3, 2],
                         [2, 6, 4, 1, 7, 3, 0, 5], [3, 7, 5, 2, 6, 0, 4, 1],
                         [4, 3, 6, 7, 1, 2, 5, 0], [5, 4, 3, 0, 2, 1, 7, 6],
                         [6, 2, 0, 5, 3, 7, 1, 4], [7, 5, 1, 6, 0, 4, 2, 3]],
}


def test_fusion_on_a_loop_with_an_unclosed_sylow_is_usage_error(tmp_path):
    _assert_loop_is_usage_error(tmp_path, ORDER_6_LOOP, 3)


@pytest.mark.parametrize("rows", list(ORDER_8_LOOPS.values()), ids=list(ORDER_8_LOOPS))
def test_fusion_on_an_order_8_loop_says_it_is_not_a_group(tmp_path, rows):
    res = _assert_loop_is_usage_error(tmp_path, rows, 2)
    assert "the input is not a group" in res.stderr


def test_verify_json_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("verify", "--case", "sup", "--prime", "2", "--format", "json", "--out", str(a))
    run_cli("verify", "--case", "sup", "--prime", "2", "--format", "json", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_all_skips_nothing():
    res = run_cli("verify", "--all", "--format", "json")
    assert res.returncode == 0, res.stderr
    reports = json.loads(res.stdout)["reports"]
    assert len(reports) == 12
    assert [r["counts"]["skipped"] for r in reports] == [0] * 12
    assert sum(r["counts"]["pass"] for r in reports) == 417
