#!/usr/bin/env python3
"""Sweep benchmark for libbng: paper workloads, timed end to end and split
by layer from outside `ngsim`.

Run from the repository root:

    python3 perfbench/run.py --workload fig8a-1k --seed 3 --seconds 30 --trace 0

It builds perfbench/bngbench against the repository's sources (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs each
measurement phase of the workload in a fresh process, checks every record the
program produced, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
perfbench/README.md describes the workloads, metrics and layer map.
"""
import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Repetition counts below are for this many --seconds; other values scale them
# (never below one), so a run's sample counts depend on --seconds alone.
NOMINAL_SECONDS = 30
SETUP_REPS = 7
# Every phase of a run after the build must end within this many seconds.
RUN_BUDGET_S = 170


@dataclass(frozen=True)
class Workload:
    scenario: str  # builtin scenario the wrapper seeds
    executor: tuple  # ("--jobs", n) or ("--procs", n)
    sweeps: int  # run_sweep repetitions per run, at NOMINAL_SECONDS
    passes: int  # serial run_job passes per run, at NOMINAL_SECONDS
    # Points re-run at the default seed for the digest gate, one per protocol
    # on the scenario's axes.
    ref_points: tuple
    selftest: bool = False  # smoke scale; not part of BENCHMARK.json


WORKLOADS = {
    # Two passes: its ten jobs are uneven, and the tail is one job's wall, so
    # each job's wall is a median. Reference points: Bitcoin at 0.33/s and NG
    # at 0.1/s, the cheapest job of each protocol.
    "fig8a-1k": Workload("fig8a", ("--jobs", "4"), 2, 2, (3, 7)),
    # Bitcoin, GHOST and NG at alpha 0.15, gamma 0.
    "selfish-60n-procs": Workload("selfish_threshold", ("--procs", "4"), 1, 1, (0, 15, 30)),
    "fig7-10k": Workload("fig7_10k", ("--jobs", "4"), 2, 1, (2,)),
    "smoke": Workload("smoke", ("--jobs", "2"), 2, 2, (0, 1), selftest=True),
    "attack-smoke": Workload("attack_smoke", ("--procs", "2"), 2, 2, (0, 1), selftest=True),
}


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --- Build -------------------------------------------------------------------


def build(root):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(root, "src", "runner", "sweep.hpp"))):
        raise BenchError("no repository sources here: run from the repository root")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", build_dir, "--target", "bngbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return build_dir, Bngbench(os.path.join(build_dir, "bngbench"))


class Bngbench:
    """Runs bngbench phases, each in a fresh process group, all of them
    within one deadline so the whole run ends in bounded time."""

    def __init__(self, path, budget_s=RUN_BUDGET_S):
        self.path = path
        self.deadline = time.monotonic() + budget_s

    def __call__(self, *args):
        """Run one phase; return the JSON object it prints last."""
        proc = subprocess.Popen([self.path, *args], stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(self.deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            raise BenchError(f"phase {args[0]} ran past the run's deadline")
        finally:
            if proc.poll() is None:
                # Timed out or interrupted: stop the phase and any worker it
                # forked, and wait for it.
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"phase {args[0]} exited with {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


# --- Statistics ----------------------------------------------------------------


def percentile(sorted_values, q):
    """Linear-interpolated percentile (the definition src/common/stats uses)."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(values):
    """The highest whole percentile from p50 up with at least ten samples
    beyond it, or the max when none has; returns (label, value)."""
    s = sorted(values)
    for q in range(99, 49, -1):
        if len(s) * (100 - q) / 100.0 >= 10:
            return f"p{q}", percentile(s, q)
    return "max", s[-1]


# --- Spans ---------------------------------------------------------------------


def load_spans(path):
    with open(path) as f:
        return [dict(zip(("name", "start", "end", "parent", "job", "probe"), s))
                for s in json.load(f)]


def span_tree_errors(spans):
    """Well-formedness: parents come first and belong to the same job, every
    child fits inside its parent, and no span's self time is negative.
    Returns (job, message) pairs; set-up spans have job -1."""
    errors = []
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        def error(msg):
            errors.append((s["job"], f"span {i} ({s['name']}) {msg}"))

        if s["end"] < s["start"]:
            error("ends before it starts")
        p = s["parent"]
        if p == -1:
            continue
        if not 0 <= p < i:
            error(f"has parent {p} out of order")
            continue
        parent = spans[p]
        if parent["job"] != s["job"]:
            error(f"is in job {s['job']}, its parent in job {parent['job']}")
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            error("does not fit inside its parent")
        child_time[p] += s["end"] - s["start"]
    for i, s in enumerate(spans):
        if s["end"] - s["start"] - child_time[i] < -1e-9:
            errors.append((s["job"], f"span {i} ({s['name']}) has negative self time"))
    return errors


def self_times(spans):
    self_t = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] != -1:
            self_t[s["parent"]] -= s["end"] - s["start"]
    return self_t


# --- Workload runs ---------------------------------------------------------------


def scaled(n, seconds):
    return max(1, round(n * seconds / NOMINAL_SECONDS))


class Checker:
    """Counts each distinct job once, however many checks it takes part in.
    A job is a (seed, point) pair. It fails when any of its checks fails: its
    record bytes differ between the sweep, the serial passes and the traced
    replica, a probe disagrees with the program, its spans are malformed, or
    its digest differs from the stored default-seed reference."""

    def __init__(self):
        self.jobs = set()
        self.failed_jobs = set()
        self.problems = []

    def check(self, seed, point, ok, problem):
        self.jobs.add((seed, point))
        if not ok:
            self.failed_jobs.add((seed, point))
            self.problems.append(f"seed {seed} point {point}: {problem}")

    def compare(self, what, seed, got, expected):
        """Compare per-point lists; a point missing from either side fails."""
        for p in range(max(len(got), len(expected))):
            g = got[p] if p < len(got) else None
            e = expected[p] if p < len(expected) else None
            self.check(seed, p, g == e, f"{what}: {g} != {e}")

    @property
    def attempted(self):
        return len(self.jobs)

    @property
    def failed(self):
        return len(self.failed_jobs)

    def failed_frac(self):
        return self.failed / max(self.attempted, 1)


def check_reference(checker, name, seed, jobs):
    ref = load_reference().get(name)
    if ref is None:
        raise BenchError(f"no reference digests for workload {name}")
    for p, got in zip(WORKLOADS[name].ref_points, jobs["ref_digests"]):
        checker.check(0, p, got == ref["digests"][p],
                      f"default-seed digest {got} != stored {ref['digests'][p]}")
    if seed == 0:
        checker.compare("default-seed digest vs stored", 0, jobs["digests"], ref["digests"])


def ref_points_arg(name):
    return ",".join(str(p) for p in WORKLOADS[name].ref_points)


def job_walls(passes):
    """Each job's wall: its median over the serial passes."""
    return [statistics.median(ws) for ws in zip(*passes)]


def load_reference():
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def run_e2e(name, w, seed, seconds, bngbench, run_dir):
    checker = Checker()
    common = ["--scenario", w.scenario, "--seed", str(seed)]
    setups = [bngbench("setup", *common)["setup_s"] for _ in range(SETUP_REPS)]
    sweep = bngbench("sweep", *common, *w.executor, "--reps",
                     str(scaled(w.sweeps, seconds)), "--out", run_dir)
    jobs = bngbench("jobs", *common, "--passes", str(scaled(w.passes, seconds)),
                    "--ref-points", ref_points_arg(name))

    expected = jobs["records"][0]
    for k, rep in enumerate(sweep["records"]):
        checker.compare(f"sweep rep {k} vs serial run_job", seed, rep, expected)
    for k, rec in enumerate(jobs["records"]):
        checker.compare(f"serial pass {k}", seed, rec, expected)
    check_reference(checker, name, seed, jobs)

    walls = job_walls(jobs["walls"])
    tail_label, tail_value = tail(walls)
    rss_kb = max(sweep["rss_self_kb"], sweep["rss_children_kb"])
    metrics = {
        "sweep_wall_s": (statistics.median(sweep["walls"]), "s"),
        "cpu_s": (statistics.median(sweep["cpu"]), "s"),
        "job_wall_p50_s": (statistics.median(walls), "s"),
        "job_wall_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "rss_peak_mb": (rss_kb / 1024.0, "MB"),
    }
    detail = {
        "sweep_samples": len(sweep["walls"]),
        "job_samples": len(walls),
        "job_passes": len(jobs["walls"]),
        "job_wall_tail_is": tail_label,
        "setup_samples": len(setups),
        "width": sweep["width"],
        "rss_from": "children" if sweep["rss_children_kb"] > sweep["rss_self_kb"] else "self",
        "jobs_failed_frac": checker.failed_frac(),
    }
    return checker, metrics, detail, True


def run_traced(name, w, seed, bngbench, run_dir):
    checker = Checker()
    common = ["--scenario", w.scenario, "--seed", str(seed)]
    sweep = bngbench("sweep", *common, *w.executor, "--reps", "1", "--out", run_dir)
    jobs = bngbench("jobs", *common, "--trace", "--out", run_dir,
                    "--ref-points", ref_points_arg(name))

    expected = jobs["records"][0]
    checker.compare("sweep vs serial run_job", seed, sweep["records"][0], expected)
    checker.compare("traced vs untraced record bytes", seed, jobs["traced"], expected)
    counts = jobs["counts"]
    for c in counts:
        checker.check(seed, c["job"], c["probe_failures"] == 0,
                      f"{c['probe_failures']} probe mismatches")
        checker.check(seed, c["job"], c["ng_microblocks"] == c["micro_blocks"],
                      f"crypto.sign_calls {c['ng_microblocks']} (NG microblocks built) != "
                      f"protocol.micro_blocks {c['micro_blocks']}")
    check_reference(checker, name, seed, jobs)

    spans = load_spans(os.path.join(run_dir, "spans.json"))
    errors = []  # malformed set-up spans, which belong to no job
    for job, msg in span_tree_errors(spans):
        if job >= 0:
            checker.check(seed, job, False, msg)
        else:
            errors.append(msg)

    self_t = self_times(spans)
    layer = {}  # non-probe span name -> summed self time
    probe = {}  # probe span name -> list of durations
    for s, st in zip(spans, self_t):
        if s["probe"]:
            probe.setdefault(s["name"], []).append(s["end"] - s["start"])
        else:
            layer[s["name"]] = layer.get(s["name"], 0.0) + st

    # A job's own wall excludes the probe calls made inside it.
    job_wall = {}
    for s in spans:
        if s["name"] == "job":
            job_wall[s["job"]] = s["end"] - s["start"]
    for s in spans:
        if s["probe"] and s["job"] in job_wall:
            job_wall[s["job"]] -= s["end"] - s["start"]
    traced_walls = sum(job_wall.values())
    untraced_walls = sum(jobs["walls"][0])
    ng_walls = sum(job_wall[c["job"]] for c in counts if c["ng_nodes"])

    def total(key):
        return sum(c[key] for c in counts)

    def median_us(name):
        return statistics.median(probe[name]) * 1e6 if name in probe else 0.0

    sweep_wall = sweep["walls"][0]
    width = sweep["width"]
    pubkey_us, sign_us = median_us("crypto.pubkey"), median_us("crypto.sign")
    crypto_s = (total("ng_nodes") * pubkey_us + total("ng_microblocks") * sign_us) * 1e-6
    metrics_s = layer.get("metrics.compute", 0.0) + layer.get("metrics.extra", 0.0)
    metrics = {
        "runner.expand_s": (layer.get("runner.expand", 0.0), "s"),
        "runner.extract_record_s": (layer.get("runner.extract_record", 0.0), "s"),
        "runner.record_encode_s": (layer.get("runner.record_encode", 0.0), "s"),
        "runner.record_bytes": (total("record_bytes"), "bytes"),
        "runner.emit_s": (layer.get("runner.emit", 0.0), "s"),
        "runner.jobs": (len(counts), "count"),
        "runner.dispatch_overhead_s": (sweep_wall - untraced_walls / width, "s"),
        "runner.parallel_efficiency": (untraced_walls / (width * sweep_wall), "ratio"),
        "sim.workload_build_s": (layer.get("sim.workload_build", 0.0), "s"),
        "sim.deploy_build_s": (layer.get("sim.deploy_build", 0.0), "s"),
        "sim.run_s": (layer.get("sim.run", 0.0), "s"),
        "sim.teardown_s": (layer.get("sim.teardown", 0.0), "s"),
        "sim.events": (total("events"), "count"),
        "sim.events_per_run_s": (total("events") / layer["sim.run"], "1/s"),
        "sim.blocks_generated": (total("blocks"), "count"),
        "net.messages_sent": (total("messages"), "count"),
        "net.bytes_sent": (total("bytes"), "bytes"),
        "net.messages_per_block": (total("messages") / max(total("blocks"), 1), "ratio"),
        "protocol.pow_blocks": (total("pow_blocks"), "count"),
        "protocol.micro_blocks": (total("micro_blocks"), "count"),
        "protocol.main_chain_frac": (
            statistics.fmean(c["main_chain_frac"] for c in counts), "ratio"),
        "crypto.pubkey_calls": (total("ng_nodes"), "count"),
        "crypto.sign_calls": (total("ng_microblocks"), "count"),
        "crypto.pubkey_us": (pubkey_us, "us"),
        "crypto.sign_us": (sign_us, "us"),
        "crypto.attributed_s": (crypto_s, "s"),
        "crypto.share_of_ng_jobs": (crypto_s / ng_walls if ng_walls else 0.0, "ratio"),
        "metrics.compute_s": (layer.get("metrics.compute", 0.0), "s"),
        "metrics.consensus_delay.wall_s": (sum(probe.get("metrics.consensus_delay", [])), "s"),
        "metrics.propagation_delays.wall_s": (
            sum(probe.get("metrics.propagation_delays", [])), "s"),
        "metrics.time_to_prune.wall_s": (sum(probe.get("metrics.time_to_prune", [])), "s"),
        "metrics.time_to_win.wall_s": (sum(probe.get("metrics.time_to_win", [])), "s"),
        "metrics.extra_s": (layer.get("metrics.extra", 0.0), "s"),
        "metrics.share_of_job": (metrics_s / traced_walls, "ratio"),
        "trace.overhead_frac": (traced_walls / untraced_walls - 1.0, "ratio"),
        "trace.unattributed_frac": (layer.get("job", 0.0) / traced_walls, "ratio"),
    }
    detail = {
        "spans": len(spans),
        "setup_span_errors": errors[:10],
        "traced_job_wall_s": traced_walls,
        "untraced_job_wall_s": untraced_walls,
        "sweep_wall_s": sweep_wall,
        "width": width,
        "jobs_failed_frac": checker.failed_frac(),
    }
    return checker, metrics, detail, not errors


def update_reference(name, w, bngbench):
    """Store the default-seed digests of every job of a workload."""
    jobs = bngbench("jobs", "--scenario", w.scenario, "--seed", "0", "--passes", "1")
    ref = load_reference() if os.path.isfile(REFERENCE_PATH) else {}
    ref[name] = {"scenario": w.scenario, "seed": 0, "digests": jobs["digests"]}
    with open(REFERENCE_PATH, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")
    log(f"stored {len(jobs['digests'])} reference digests for {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="store the workload's default-seed digests and exit")
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so a running phase is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    w = WORKLOADS[args.workload]
    root = os.getcwd()
    try:
        build_dir, bngbench = build(root)
        if args.update_reference:
            update_reference(args.workload, w, bngbench)
            return 0
        run_dir = os.path.join(build_dir, "runs", f"{args.workload}-seed{args.seed}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        if args.trace:
            checker, metrics, detail, ok = run_traced(args.workload, w, args.seed, bngbench,
                                                      run_dir)
        else:
            checker, metrics, detail, ok = run_e2e(args.workload, w, args.seed,
                                                   args.seconds, bngbench, run_dir)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    for p in checker.problems[:20]:
        log(p)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": ok and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
