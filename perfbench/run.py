"""fusionkit benchmark: end-to-end and per-layer timings of the CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen):

  verify-sweep   ``verify --format json`` on the paper's 12 default
                 configurations, in an order shuffled by the seed
  tower-p7       ``verify --case sup --prime 7 --extended``: the p = 7
                 chain/full normalizer tower
  fusion-tables  ``fusion --format json`` on eight group tables (S4, Q8,
                 Q16, O48 at p = 2; the Heisenberg semidirect products
                 USL/UGL/SL/GL at p = 3), relabeled by the seed

``smoke`` is a seconds-long workload for smoke.py (sup at p = 2 and S4).

Set-up, outside the timed region: ``setup_s`` is the median time of several
fresh interpreters that only ``import fusionkit.cli``; the fusion tables are
generated by tables.py.  Then one fresh interpreter (client.py) runs the
workload's ops closed-loop at concurrency 1.

With ``--trace 0`` the metrics are wall_s (median over the run's passes),
setup_s, peak_rss_mb and checks_passed.  With ``--trace 1`` the client runs
one untraced and one traced pass, and the metrics are the per-layer
counters and times of the traced pass, its overhead, fail_ratio, and the
untraced pass's slowest_op_s.  slowest_op_s is not an end-to-end metric:
on verify-sweep it is one ~6 s op per run, which spreads by more than 25%
between runs on a noisy 2-core machine.  The last line of stdout is the result as one JSON object; the
full record (run conditions, input digests, every op, and for traced runs
every span) is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from client import WORKLOAD_TABLES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("verify-sweep", "tower-p7", "fusion-tables", "smoke")
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_passed": "count",
}
SETUP_SAMPLES = 11
CLIENT_DEADLINE_S = 170.0


def fail(message: str) -> int:
    sys.stderr.write("perfbench: error: %s\n" % message)
    return 2


def child_env() -> dict:
    """The environment of every child: the checkout's sources first, and no
    FUSIONKIT_* variable, which would change what the ops verify."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FUSIONKIT_")}
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import
    fusionkit.cli`` has finished, after one warm-up import."""
    argv = [sys.executable, "-c", "import fusionkit.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fusionkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository;
    git is kept from searching the directories above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def conditions() -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }


def prepare_inputs(workload: str, seed: int, work: str, env: dict) -> dict:
    """Write the workload's table files and their manifest into ``work``."""
    names = WORKLOAD_TABLES.get(workload, ())
    subprocess.run([sys.executable, os.path.join(HERE, "tables.py"), "--seed", str(seed),
                    "--out", work, *names], env=env, cwd=ROOT, check=True)
    with open(os.path.join(work, "manifest.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fusionkit", "cli.py")):
        return fail("no fusionkit sources at %s; run from the root of a checkout" % SRC)

    started = time.perf_counter()
    env = child_env()
    cond = conditions()
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=results_dir)
    try:
        setup = measure_setup(env)
        manifest = prepare_inputs(args.workload, args.seed, work, env)
        out_path = os.path.join(work, "client.json")
        deadline = CLIENT_DEADLINE_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "client.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--inputs", work, "--out", out_path],
                env=env, cwd=ROOT, timeout=deadline,
            )
        except subprocess.TimeoutExpired:
            return fail("client did not finish within %.0f s" % deadline)
        if proc.returncode != 0:
            return fail("client exited with %d" % proc.returncode)
        with open(out_path) as fh:
            record = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cond["loadavg_after"] = os.getloadavg()
    record["conditions"] = cond
    for table in manifest["tables"].values():
        del table["path"]  # a temporary path, not part of the input
    manifest["op_list_sha256"] = hashlib.sha256(json.dumps(record["op_list"]).encode()).hexdigest()
    record["inputs"] = manifest
    record["setup_s_samples"] = setup
    record["workload"], record["seed"], record["seconds"] = args.workload, args.seed, args.seconds

    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(record["trace"]["per_layer"].items())}
    else:
        values = {
            "wall_s": record["wall_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": record["peak_rss_mb"],
            "checks_passed": record["checks_passed"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    record["metrics"] = metrics

    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"conditions": cond, "inputs": manifest, "passes_untraced": record["passes_untraced"],
                      "record": "perfbench/results/" + name}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
