"""Smoke test of the benchmark harness on inputs that take seconds.

Run from the root of a checkout:  python3 perfbench/smoke.py

It checks that run.py prints a complete, correct result for the ``smoke``
workload (verify sup at p = 2, fusion on S4) with tracing off and on, that a
deliberately wrong expected poset and a changed verify artifact are each
counted as failed ops, and that run.py fails without printing a result when
the checkout holds no sources.  Exit status 0 means every check held.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import client  # noqa: E402
import tables  # noqa: E402


def run_harness(trace: int, cwd: str = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit("smoke: FAILED: " + what)
    print("smoke: ok: " + what)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        rc, out = run_harness(trace)
        check(rc == 0, "run.py --trace %d exits 0" % trace)
        result = json.loads(out.strip().splitlines()[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"], "result keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
              "trace %d: every op passes the gate" % trace)
        names = {m["name"] for m in bench[section]}
        check(names == set(result["metrics"]), "trace %d reports exactly the %s metrics" % (trace, section))
        if trace:
            m = {k: v["value"] for k, v in result["metrics"].items()}
            check(m["fusion.chain_aut.calls"] > 0 and m["matgroup.closure.calls"] > 0,
                  "traced run reaches both the fusion and the matrix layers")

    # The gate, in process: a wrong expected poset fails its op.
    scratch = os.path.join(HERE, "results")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="smoke-", dir=scratch)
    try:
        manifest = tables.write_tables(["S4"], 3, work)
        paths = {name: t["path"] for name, t in manifest["tables"].items()}
        expected = client.load_expected()
        wrong = copy.deepcopy(expected)
        wrong["S4"]["nodes"][0][3] += 1
        record = client.run_workload("smoke", 3, 0.0, False, paths, wrong)
        check(record["failed"] == 1 and record["attempted"] == 2,
              "a wrong expected poset counts as 1 failed op of 2 (fail_ratio 0.5)")
        ok = client.run_workload("smoke", 3, 0.0, False, paths, expected)
        check(ok["failed"] == 0, "the committed expectation passes")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    op = {"id": "verify:x", "kind": "verify"}
    artifacts: dict = {}
    text = json.dumps({"all_ok": True, "checks": [{"status": "pass"}]})
    check(client.judge(op, 0, text, {}, artifacts) == (None, 1), "a passing report counts its checks")
    reason, _ = client.judge(op, 0, text + " ", {}, artifacts)
    check(reason is not None, "a verify artifact that changes between repeats fails")

    # Without sources the harness must fail and print no result.
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        rc, out = run_harness(0, cwd=bare)
        check(rc != 0 and '"correct"' not in out, "a checkout without sources exits nonzero")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
