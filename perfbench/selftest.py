#!/usr/bin/env python3
"""Self-test of the perfbench benchmark at smoke scale (well under a minute).

Run from the repository root:

    python3 perfbench/selftest.py

It exits non-zero on the first failed check:
  * BENCHMARK.json names its metrics and workloads once each, with units, and
    every workload it names exists in perfbench/run.py;
  * the `smoke` (threads) and `attack-smoke` (fork-without-exec --procs)
    workloads run with --trace 0 and --trace 1, and each run's last line has
    exactly the contract's keys, is correct with no failed job, counts each
    job once (the run's own jobs plus the default-seed reference jobs), and
    carries exactly BENCHMARK.json's end-to-end or per-layer metrics with
    their units;
  * each traced run's span tree is well formed, and a corrupted copy of it is
    rejected (so the check can fail);
  * the workload seed reaches --procs workers: attack_smoke at a non-default
    seed gives the same records under --procs 2 as under --jobs 2, and other
    records than at the default seed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SELFTEST_SEED = 7


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_benchmark_json(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        fail("BENCHMARK.json repeats a metric name")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not m.get("unit"):
            fail(f"metric {m['name']} has no unit")
    for w in spec["workloads"]:
        if w["name"] not in bench.WORKLOADS or bench.WORKLOADS[w["name"]].selftest:
            fail(f"BENCHMARK.json workload {w['name']} is not a perfbench workload")


def run_workload(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SELFTEST_SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(workload, trace, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    jobs = (len(bench.load_reference()[workload]["digests"])
            + len(bench.WORKLOADS[workload].ref_points))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] != jobs:
        fail(f"{workload} --trace {trace}: correct={result['correct']} "
             f"failed={result['failed']} attempted={result['attempted']}, expected {jobs}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        fail(f"{workload} --trace {trace}: metrics/units {got} != BENCHMARK.json {want}")


def check_spans(workload, build_dir):
    path = os.path.join(build_dir, "runs", f"{workload}-seed{SELFTEST_SEED}", "spans.json")
    spans = bench.load_spans(path)
    if errors := bench.span_tree_errors(spans):
        fail(f"{workload}: span tree: {errors[:3]}")
    child = next(i for i, s in enumerate(spans) if s["parent"] >= 0)
    broken = [dict(s) for s in spans]
    broken[child]["end"] = spans[broken[child]["parent"]]["end"] + 1.0
    if not bench.span_tree_errors(broken):
        fail("a child ending after its parent passed the span-tree check")


def check_seed_reaches_workers(bngbench, run_dir):
    w = bench.WORKLOADS["attack-smoke"]

    def records(seed, *executor):
        return bngbench("sweep", "--scenario", w.scenario, "--seed", str(seed),
                        *executor, "--reps", "1", "--out", run_dir)["records"][0]

    procs = records(SELFTEST_SEED, "--procs", "2")
    if procs != records(SELFTEST_SEED, "--jobs", "2"):
        fail("--procs records differ from --jobs records at a non-default seed")
    if procs == records(0, "--procs", "2"):
        fail("the workload seed did not reach the --procs workers")


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_benchmark_json(spec)
    build_dir, bngbench = bench.build(root)
    for workload in ("smoke", "attack-smoke"):
        check_result(workload, 0, run_workload(workload, 0), spec["end_to_end"])
        check_result(workload, 1, run_workload(workload, 1), spec["per_layer"])
        check_spans(workload, build_dir)
    run_dir = os.path.join(build_dir, "runs", "selftest-seed")
    os.makedirs(run_dir, exist_ok=True)
    check_seed_reaches_workers(bngbench, run_dir)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
