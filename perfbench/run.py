#!/usr/bin/env python3
"""Repository benchmark: builds the harness, runs one workload, checks it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record    # refresh expected.json

Run from the repository root (any checkout holding src/ and perfbench/).
The harness is compiled from source into .bench_build/perfbench, inputs
and trace files go under .bench_build/work, and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones (see
README.md).  Build logs go to stderr.
"""
import argparse
import json
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
HARNESS = BUILD / "perfbench_harness"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("fig06_sweep", "plenary_sharded", "day_churn", "capture_replay")
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 170  # every harness process of one invocation, build excluded


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, capture=False):
    """Runs cmd to completion (subprocess.run kills and reaps on timeout)."""
    return subprocess.run(cmd, cwd=ROOT, timeout=timeout, check=True, text=True,
                          stdout=subprocess.PIPE if capture else sys.stderr)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise SystemExit(f"perfbench: {ROOT} holds no repository sources to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        run(["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run(["cmake", "--build", str(BUILD), "--target", "perfbench_harness",
         "-j", "3"], BUILD_TIMEOUT_S)


def harness(workload, seed, seconds, trace, deadline, extra=()):
    """Runs the harness in a fresh process; returns its JSON result line."""
    work = WORK / f"{workload}-seed{seed}"
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work), *extra]
    out = run(cmd, max(1.0, deadline - time.monotonic()), capture=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, shards=None):
    """Prepares inputs (capture_replay), then times the workload."""
    deadline = time.monotonic() + RUN_BUDGET_S
    pcap_digest = None
    if workload == "capture_replay":
        # A separate process, so pcap generation and the in-memory reference
        # analysis count toward neither the timings nor peak_rss_mb.
        prep = harness(workload, seed, seconds, trace, deadline, ["--prepare"])
        pcap_digest = prep["pcap_digest"]
        print(f"capture_replay seed {seed}: pcap digest {pcap_digest}, "
              f"{prep['records']} records")
    extra = ["--shards", str(shards)] if shards else []
    return harness(workload, seed, seconds, trace, deadline, extra), pcap_digest


def record():
    """Rewrites expected.json from single-shard runs of both recorded seeds."""
    expected = json.loads(EXPECTED.read_text())
    for workload in WORKLOADS:
        for seed in (expected["default_seed"], expected["held_out_seed"]):
            # Sharding must not change outputs, so the sharded workload is
            # recorded unsharded: a sharded run that drifts fails the check.
            result, pcap = measure(workload, seed, 0.01, 0, shards=1)
            entry = {"fingerprint": result["fingerprint"]}
            if pcap:
                entry["pcap_digest"] = pcap
            expected["outputs"][workload][str(seed)] = entry
    EXPECTED.write_text(json.dumps(expected, indent=2) + "\n")
    log(f"wrote {EXPECTED}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    args = p.parse_args()
    if not args.record and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    build()
    if args.record:
        record()
        return 0

    expected = json.loads(EXPECTED.read_text())
    seed = expected["default_seed"] if args.seed is None else args.seed
    result, pcap_digest = measure(args.workload, seed, args.seconds, args.trace)
    attempted, failed = result["attempted"], result["failed"]

    want = expected["outputs"][args.workload].get(str(seed))
    if want is not None:
        got = {"fingerprint": result["fingerprint"]}
        if pcap_digest:
            got["pcap_digest"] = pcap_digest
        if got != want:
            # Every iteration reproduced the same fingerprint, so a mismatch
            # with the recorded output fails them all.
            log(f"output differs from expected.json for seed {seed}:\n"
                f"  expected {want}\n  got      {got}")
            failed = attempted

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
