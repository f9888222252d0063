"""Closed-loop client: runs one workload's ops in this interpreter.

One op is one in-process call of ``fusionkit.cli.main(argv)``, exactly what
a user runs, with stdout captured as the op's artifact.  The client runs
passes over the op list at concurrency 1 until ``--seconds`` have elapsed
(at least one pass).  With ``--trace 1`` it runs one untraced pass, then
one pass under the tracer, and compares the two passes' artifacts.

An op fails, and counts in ``failed`` instead of stopping the client, on a
nonzero exit or an exception, a report with ``all_ok`` false, a verify
artifact that differs byte for byte from an earlier repeat in the same
run, or a chain poset that differs from ``expected_posets.json``.

Usage (normally started by run.py, with PYTHONPATH at the checkout's src):
    python3 perfbench/client.py --workload NAME --seed N --seconds S
        --trace 0|1 --inputs DIR --out RESULT.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# The twelve default configurations of the paper, as verify flags.  They
# are fixed here, not read from the package, so the workload stays the same
# traffic on every commit.
VERIFY_CONFIGS = (
    ("sup", "--prime", 2), ("sup", "--prime", 3), ("sup", "--prime", 5), ("sup", "--prime", 7),
    ("up", "--prime", 2), ("up", "--prime", 3), ("up", "--prime", 5), ("up", "--prime", 7),
    ("az", "--index", 12), ("az", "--index", 29), ("az", "--index", 31), ("az", "--index", 34),
)

# Group tables of the fusion-tables workload, in op order; tables.py makes them.
FUSION_TABLES = ("S4", "Q8", "Q16", "O48", "USL", "UGL", "SL", "GL")

WORKLOAD_TABLES = {"fusion-tables": FUSION_TABLES, "smoke": ("S4",)}


def verify_argv(case, flag, value, extended=False):
    argv = ["verify", "--case", case, flag, str(value), "--format", "json"]
    return argv + ["--extended"] if extended else argv


def parser_accepts_extended() -> bool:
    """Whether ``verify`` still takes --extended (it goes once the p = 7
    tower runs by default; the workload names the same work either way)."""
    from fusionkit import cli

    with contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.build_parser().parse_args(verify_argv("sup", "--prime", 7, extended=True))
        except SystemExit:
            return False
    return True


def build_ops(workload: str, seed: int, tables: dict) -> list[dict]:
    """The op list of one pass.  ``tables`` maps a table name to its path."""
    if workload == "verify-sweep":
        configs = list(VERIFY_CONFIGS)
        random.Random(seed).shuffle(configs)
        return [{"id": "verify:%s%s%d" % c, "kind": "verify", "argv": verify_argv(*c)} for c in configs]
    if workload == "tower-p7":
        argv = verify_argv("sup", "--prime", 7, extended=parser_accepts_extended())
        return [{"id": "verify:sup--prime7:tower", "kind": "verify", "argv": argv}]
    if workload == "smoke":
        ops = [{"id": "verify:sup--prime2", "kind": "verify", "argv": verify_argv("sup", "--prime", 2)}]
    elif workload == "fusion-tables":
        ops = []
    else:
        raise ValueError("unknown workload %r" % workload)
    for name in WORKLOAD_TABLES[workload]:
        ops.append({
            "id": "fusion:" + name,
            "kind": "fusion",
            "table": name,
            "argv": ["fusion", "--input", tables[name], "--format", "json"],
        })
    return ops


# -- correctness gate -------------------------------------------------------


def canonical_poset(doc: dict) -> dict:
    """The label-free content of a chain poset: node signatures (chain
    orders, class size, |Aut_F|, |Aut_L|) and edges between signatures with
    their iso flags.  Node ids and tags are not compared."""
    sig = {
        n["id"]: [n["chain_orders"], n["class_size"], n["autF_order"], n["autL_order"]]
        for n in doc["nodes"]
    }
    edges = []
    for e in doc["edges"]:
        iso = len(e) > 2 and bool(e[2].get("iso"))
        edges.append([sig[e[0]], sig[e[1]], iso])
    return {
        "prime": doc["prime"],
        "group_order": doc["group_order"],
        "nodes": sorted(sig.values()),
        "edges": sorted(edges),
    }


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected_posets.json")) as fh:
        return json.load(fh)


def judge(op: dict, rc, text: str, expected: dict, artifacts: dict) -> tuple[str | None, int]:
    """(failure reason or None, certified facts) for one finished op."""
    if rc != 0:
        return "exit %r" % (rc,), 0
    try:
        doc = json.loads(text)
    except ValueError:
        return "output is not JSON", 0
    if op["kind"] == "verify":
        earlier = artifacts.setdefault(op["id"], text)
        if earlier != text:
            return "artifact differs from an earlier repeat", 0
        if doc.get("all_ok") is not True:
            return "all_ok is not true", 0
        return None, sum(1 for c in doc["checks"] if c["status"] == "pass")
    if canonical_poset(doc) != expected[op["table"]]:
        return "poset differs from the expectation", 0
    return None, len(doc["nodes"])


# -- running ----------------------------------------------------------------


def run_op(op: dict) -> tuple[object, str, str, float, float]:
    """Run one op; returns (exit code or exception text, stdout, stderr,
    start, end)."""
    from fusionkit import cli

    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(op["argv"]))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the harness keeps running; the op fails
            rc = "%s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), t0, t1


def run_pass(ops: list[dict], expected: dict, artifacts: dict, tracer=None) -> dict:
    """One pass over the ops; ``artifacts`` carries verify outputs across
    passes for the byte-for-byte repeat check."""
    results = []
    first = last = None
    for op in ops:
        if tracer is not None:
            tracer.op = op["id"]
        rc, text, err, t0, t1 = run_op(op)
        first = t0 if first is None else first
        last = t1
        reason, checks = judge(op, rc, text, expected, artifacts)
        results.append({"id": op["id"], "s": t1 - t0, "failure": reason, "checks": checks,
                        "stderr": err[-2000:] if reason else ""})
    return {
        "wall_s": last - first,
        "slowest_op_s": max(r["s"] for r in results),
        "checks_passed": sum(r["checks"] for r in results),
        "failed": sum(1 for r in results if r["failure"]),
        "ops": results,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tables: dict,
                 expected: dict) -> dict:
    ops = build_ops(workload, seed, tables)
    artifacts: dict = {}
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, expected, artifacts))
        if trace or time.perf_counter() - start >= seconds:
            break
    # The op list with table paths cut to file names, for the input digest.
    op_list = [[os.path.basename(a) if a.endswith(".json") else a for a in op["argv"]] for op in ops]
    record = {"op_list": op_list, "passes": passes}
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, expected, artifacts, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        per_layer = tracer.metrics()
        per_layer["trace_overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
        per_layer["slowest_op_s"] = passes[0]["slowest_op_s"]
        record["trace"] = {
            "untraced_wall_s": passes[0]["wall_s"],
            "traced_wall_s": traced["wall_s"],
            "per_layer": per_layer,
            "missing_targets": tracer.missing,
            "spans": tracer.spans,
        }
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = passes[:-1] if trace else passes
    record.update({
        "attempted": attempted,
        "failed": failed,
        "passes_untraced": len(untraced),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "slowest_op_s": statistics.median(p["slowest_op_s"] for p in untraced),
        "checks_passed": min(p["checks_passed"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if trace:
        record["trace"]["per_layer"]["fail_ratio"] = failed / attempted
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inputs", required=True, help="directory holding manifest.json")
    ap.add_argument("--out", required=True, help="path of the JSON record to write")
    args = ap.parse_args(argv)
    with open(os.path.join(args.inputs, "manifest.json")) as fh:
        manifest = json.load(fh)
    tables = {name: entry["path"] for name, entry in manifest["tables"].items()}
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), tables,
                          load_expected())
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
