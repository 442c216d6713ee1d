#!/usr/bin/env python3
"""Perf guardrail: compare bench JSON runs against committed baselines and
fail on regression.

Usage: perf_guard.py CURRENT.json BASELINE.json [CURRENT2.json BASELINE2.json ...]
                     [--threshold PCT [PCT2 ...]]

Accepts one or more CURRENT/BASELINE pairs (e.g. the bench_micro_perf run
against bench/BENCH_micro_baseline.json and the bench_e2e_session run
against bench/BENCH_e2e_baseline.json); every pair is guarded in one
invocation and any regression in any pair fails the run.  --threshold takes
either one value applied to all pairs or one value per pair (the e2e rows
measure whole pipelines and warrant a wider margin than the micro ones).

Raw nanosecond baselines are machine-specific, so every benchmark is first
normalized by its own file's BM_RngNext time (a pure-ALU benchmark that
scales with single-core speed; both bench binaries emit it).  A benchmark
regresses when its normalized time exceeds the baseline's by more than
--threshold percent (default 25).  bench_e2e_session's BM_RngNext is the
median of five timings of the loop, taken twice before its first workload
row and once after each row: single readings range from 2.0 to 3.6 ns on a
shared host, enough on their own to trip the e2e threshold.

Rows may additionally carry throughput figures of merit (the e2e rows emit
sim_seconds_per_wall_second and records_per_second); those are
higher-is-better, get the mirror-image normalization (a slower machine is
forgiven a proportionally lower rate), and regress when the normalized rate
falls below the baseline's by more than the same threshold.  This guards the
engine's two headline numbers — how much simulated time and how many capture
records one wall-clock second buys — directly, not just via per-row ns.

Rows may also carry a "counters" object of deterministic work counters
(events executed, delivery RNG draws, frame-success cache misses, ...).
Unlike wall-clock, these are pure functions of (seed, config), so they are
compared EXACTLY — no normalization, no threshold: any drift is a behavior
change, and the failure names the counter.  A counter present on only one
side is reported but never fails (new instrumentation, or a -DWLAN_OBS=OFF
build, which emits no counters at all).

New benchmarks missing from the baseline
are reported but never fail the run; refresh the baselines with:

    ./build/bench_micro_perf --benchmark_format=json \
        --benchmark_min_time=0.5 > bench/BENCH_micro_baseline.json
    ./build/bench_e2e_session --out bench/BENCH_e2e_baseline.json
"""
import argparse
import json
import sys

REFERENCE = "BM_RngNext"
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
# Higher-is-better per-row keys (emitted by bench_e2e_session).
THROUGHPUT_KEYS = ("sim_seconds_per_wall_second", "records_per_second")


def load(path):
    """Returns ({name: cpu_ns}, {name: {throughput_key: rate}},
    {name: {counter_name: int}})."""
    with open(path) as f:
        data = json.load(f)
    times, rates, counters = {}, {}, {}
    for b in data.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        times[b["name"]] = b["cpu_time"] * UNIT_NS[b.get("time_unit", "ns")]
        row_rates = {k: b[k] for k in THROUGHPUT_KEYS if b.get(k, 0) > 0}
        if row_rates:
            rates[b["name"]] = row_rates
        if b.get("counters"):
            counters[b["name"]] = b["counters"]
    return times, rates, counters


def guard_counters(name, cur, base):
    """Exact-match comparison of one row's deterministic work counters.
    Returns the list of failed `row/counter` labels."""
    failures = []
    for key in sorted(set(cur) | set(base)):
        if key not in base:
            print(f"  NEW   {name}/{key}: {cur[key]} (not in baseline)")
        elif key not in cur:
            print(f"  GONE  {name}/{key}: in baseline but not in this run")
        elif cur[key] != base[key]:
            failures.append(f"{name}/{key}")
            print(f"  DRIFT      {name}/{key}: {cur[key]} != baseline "
                  f"{base[key]} (deterministic counter; exact match required)")
        else:
            print(f"  {'ok':10s} {name}/{key}: {cur[key]} (exact)")
    return failures


def guard_pair(current_path, baseline_path, threshold):
    """Returns the list of regressed benchmark names for one pair."""
    current, cur_rates, cur_counters = load(current_path)
    baseline, base_rates, base_counters = load(baseline_path)
    for name, data in ((current_path, current), (baseline_path, baseline)):
        if REFERENCE not in data:
            sys.exit(f"perf_guard: {name} lacks {REFERENCE}; cannot normalize")

    cur_ref, base_ref = current[REFERENCE], baseline[REFERENCE]
    print(f"== {current_path} vs {baseline_path}")
    print(f"machine-speed reference {REFERENCE}: "
          f"current {cur_ref:.2f} ns vs baseline {base_ref:.2f} ns")

    failures = []
    for name in sorted(current):
        if name == REFERENCE:
            continue
        if name not in baseline:
            print(f"  NEW   {name}: {current[name]:.0f} ns (not in baseline)")
            continue
        ratio = (current[name] / cur_ref) / (baseline[name] / base_ref)
        verdict = "ok"
        if ratio > 1.0 + threshold / 100.0:
            verdict = "REGRESSION"
            failures.append(name)
        print(f"  {verdict:10s} {name}: normalized x{ratio:.3f} "
              f"({current[name]:.0f} ns vs baseline {baseline[name]:.0f} ns)")

        # Throughput keys: normalized rate = rate * ref-ns (a slower machine
        # is expected to produce a proportionally lower rate); regression is
        # the mirror image, falling short of the baseline's normalized rate.
        for key in THROUGHPUT_KEYS:
            cur = cur_rates.get(name, {}).get(key)
            base = base_rates.get(name, {}).get(key)
            if cur is None or base is None:
                continue
            rratio = (cur * cur_ref) / (base * base_ref)
            verdict = "ok"
            if rratio < 1.0 / (1.0 + threshold / 100.0):
                verdict = "REGRESSION"
                failures.append(f"{name}/{key}")
            print(f"  {verdict:10s} {name}/{key}: normalized x{rratio:.3f} "
                  f"({cur:.1f}/s vs baseline {base:.1f}/s)")

        # Deterministic work counters: exact match, no normalization.  Only
        # rows carrying counters on both sides are guarded, so a
        # -DWLAN_OBS=OFF run (no counters emitted) degrades gracefully.
        if name in cur_counters and name in base_counters:
            failures += guard_counters(name, cur_counters[name],
                                       base_counters[name])
        elif name in cur_counters or name in base_counters:
            side = "current" if name in cur_counters else "baseline"
            print(f"  NOTE  {name}: counters only in {side}; not guarded")

    for name in sorted(set(baseline) - set(current) - {REFERENCE}):
        print(f"  GONE  {name}: in baseline but not in this run")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("pairs", nargs="+", metavar="JSON",
                    help="CURRENT BASELINE [CURRENT2 BASELINE2 ...]")
    ap.add_argument("--threshold", type=float, nargs="+", default=[25.0],
                    help="allowed normalized slowdown, percent: one value "
                         "for all pairs or one per pair (default 25)")
    args = ap.parse_args()
    if len(args.pairs) % 2 != 0:
        ap.error("expected an even number of files (CURRENT BASELINE pairs)")
    npairs = len(args.pairs) // 2
    if len(args.threshold) == 1:
        thresholds = args.threshold * npairs
    elif len(args.threshold) == npairs:
        thresholds = args.threshold
    else:
        ap.error(f"--threshold takes 1 or {npairs} values, "
                 f"got {len(args.threshold)}")

    failures = []
    for i in range(npairs):
        failures += guard_pair(args.pairs[2 * i], args.pairs[2 * i + 1],
                               thresholds[i])

    if failures:
        print(f"perf_guard: {len(failures)} regression(s): "
              f"{', '.join(failures)}")
        return 1
    print("perf_guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
