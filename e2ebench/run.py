#!/usr/bin/env python3
"""End-to-end benchmark for deslp: build, run one workload, check, report.

Usage (from the repository root):

    python3 e2ebench/run.py --workload pipeline_paper --seed 1 --seconds 30 --trace 0

Builds e2ebench_runner under .bench_build/e2ebench (Release; incremental
after the first build), runs it for --seconds on one thread, checks every
run's simulated fingerprint against fingerprints.json (when that file holds
the seed) and prints every metric by name with its unit and sample count.
The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
README.md in this directory describes the workloads and the metrics.

Developer modes:
    --record      store this run's fingerprints in fingerprints.json
    --selftest    run every workload briefly untraced and traced and check
                  that both give the same simulated fingerprints
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUNNER = os.path.join(BUILD, "e2ebench_runner")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ("pipeline_paper", "fleet_1024", "pipeline_faults")
RUNNER_TIMEOUT_S = 170

# Per-layer metrics: name -> unit. Order is the output order.
LAYER_UNITS = {
    "sim.events_fired": "count",
    "sim.ns_per_event": "ns",
    "sim.handler_ns_per_event": "ns",
    "sim.dispatch_ns_per_event": "ns",
    "sim.queue_depth_hwm": "count",
    "sim.cancel_ratio": "ratio",
    "sim.ns_per_event_scaling": "ratio",
    "battery.calls": "count",
    "battery.ns_per_call": "ns",
    "battery.busy_share": "ratio",
    "net.transactions": "count",
    "net.payload_bytes": "bytes",
    "net.drop_ratio": "ratio",
    "core.drains_per_event": "ratio",
    "core.frames_lost_ratio": "ratio",
    "core.rotations": "count",
    "core.migrations": "count",
    "fleet.elections": "count",
    "fleet.head_switch_ratio": "ratio",
    "obs.monitor_checks_per_event": "ratio",
    "obs.violations": "count",
    "obs.metered_cost_ratio": "ratio",
    "fault.injections": "count",
    "fault.detection_latency_s": "s",
    "fault.migration_retries": "count",
    "trace.overhead_ratio": "ratio",
}


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build incrementally; build logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "e2ebench_runner",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_describe():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else \
        "unknown (not a git checkout)"


def run_runner(workload, seed, seconds, trace):
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUNNER_TIMEOUT_S} s")
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        fail(f"runner exited with {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail("runner printed nothing")
    return json.loads(lines[-1])


def load_fingerprints():
    if not os.path.exists(FINGERPRINTS):
        return {}
    with open(FINGERPRINTS) as f:
        return json.load(f)


def check_fingerprints(raw):
    """Failed runs: every run of an input whose fingerprint differs from the
    committed one, plus the runs the runner itself failed.

    Returns (failed_runs, message)."""
    pinned = load_fingerprints().get(raw["workload"], {}).get(str(raw["seed"]))
    seen = raw["fingerprints"]
    if pinned is None:
        return raw["failed"], (
            f"fingerprints: seed {raw['seed']} not committed; {len(seen)} "
            f"inputs checked for repeat determinism only")
    bad = [label for label, fp in seen.items() if pinned.get(label) != fp]
    failed = raw["failed"] + sum(
        raw["runs_per_input"][label] - raw["failed_per_input"].get(label, 0)
        for label in bad)
    msg = (f"fingerprints: {len(seen) - len(bad)}/{len(seen)} inputs match "
           f"the committed seed-{raw['seed']} fingerprints")
    if bad:
        msg += " (mismatch: " + ", ".join(bad[:6]) + ")"
    return failed, msg


def tail(samples):
    """Highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], f"max of {n} (fewer than 11 samples)"
    pct = 100.0 * (n - 10) / n
    return s[n - 11], f"p{pct:.1f}, 10 of {n} samples beyond"


def at_reference_speed(samples, factors):
    """Host times divided by the host's slowdown measured right after each
    run (runner.cc, HostSpeed)."""
    return [t / f for t, f in zip(samples, factors)]


def end_to_end(raw):
    """The end-to-end metrics: name -> (value, unit, note). Host times are
    in seconds at the reference speed."""
    factors = raw["host_factor"]
    run_s = at_reference_speed(raw["run_s"], factors)
    setup_s = at_reference_speed(raw["setup_s"], factors)
    n = len(run_s)
    tail_value, tail_note = tail(run_s)
    # Per experiment, the median simulated life over the input seeds: the
    # jitter moves single runs by a few frames, and now and then one run
    # by a few dozen, which would swing a mean of such small errors.
    ids = sorted({h["id"] for h in raw["heldout"]})
    errors = []
    for i in ids:
        runs = [h for h in raw["heldout"] if h["id"] == i]
        life_h = statistics.median(h["sim_h"] for h in runs)
        errors.append(abs(life_h / runs[0]["paper_h"] - 1.0))
    heldout_note = (f"{' and '.join(ids)}, median life over "
                    f"{len(raw['heldout']) // len(ids)} input seeds")
    if raw["workload"] != "pipeline_paper":
        heldout_note += ("; paper pipeline run beside this workload: the "
                         f"{raw['workload']} model itself is unvalidated")
    return {
        "sim_s_per_host_s": (raw["sim_s"] / sum(run_s), "sim-s/host-s",
                             f"{n} runs"),
        "run_s_p50": (statistics.median(run_s), "s", f"n={n}"),
        "run_s_tail": (tail_value, "s", tail_note),
        "setup_s": (statistics.median(setup_s), "s",
                    f"median of {len(setup_s)} setups"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB", "whole process"),
        "paper_heldout_life_err": (statistics.fmean(errors), "ratio",
                                   heldout_note),
    }


def report(args, raw):
    failed, fp_msg = check_fingerprints(raw)
    attempted = raw["attempted"]
    print(f"e2ebench workload={raw['workload']} seed={raw['seed']} "
          f"trace={args.trace}")
    print(f"provenance: git={git_describe()} build={raw['build_type']} "
          f"compiler={raw['compiler']} nproc={os.cpu_count()} "
          f"seed={raw['seed']} runs={attempted} seconds={args.seconds} "
          f"inputs={raw['inputs']}")
    print(fp_msg)
    for reason in raw["failures"]:
        print(f"failure: {reason}")
    kd = raw["known_defect"]
    if kd["runs"]:
        print(f"known defect (not counted as failures): {kd['monitor']} "
              f"violated {kd['violations']} times on {kd['runs']} runs; "
              f"Rakhmatov state_of_charge() rises during rest")
    print(f"{'failed_frac':32s} {failed / attempted:<14.6g} ratio  "
          f"({failed} of {attempted} runs)")
    metrics = {}
    if args.trace:
        for name, unit in LAYER_UNITS.items():
            value = raw["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:32s} {value:<14.6g} {unit}")
        for name, why in raw["unmeasured"].items():
            print(f"unmeasured: {name} (reported as 0): {why}")
        drifted = any("drifted" in f or "differs" in f
                      for f in raw["failures"])
        print("self-test: traced, registry-only and untraced runs of every "
              "input gave " + ("DIFFERENT fingerprints; see failures"
                               if drifted else "the same fingerprint"))
    else:
        print(f"host speed: the reference ran "
              f"{statistics.median(raw['host_factor']):.3f}x its nominal time "
              f"(median of {len(raw['host_factor'])} samples); raw run() "
              f"median {statistics.median(raw['run_s']):.6g} s; host times "
              f"below are at the reference speed")
        for name, (value, unit, note) in end_to_end(raw).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:32s} {value:<14.6g} {unit:13s} ({note})")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def record(raw):
    if raw["failed"]:
        fail("not recording fingerprints of a run with failures")
    data = load_fingerprints()
    data.setdefault(raw["workload"], {})[str(raw["seed"])] = dict(
        sorted(raw["fingerprints"].items()))
    with open(FINGERPRINTS, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(raw['fingerprints'])} fingerprints for "
          f"{raw['workload']} seed {raw['seed']}", file=sys.stderr)


def selftest(seed):
    ok = True
    for workload in WORKLOADS:
        plain = run_runner(workload, seed, 1.0, 0)
        traced = run_runner(workload, seed, 1.0, 1)
        same = plain["fingerprints"] == traced["fingerprints"]
        clean = plain["failed"] == 0 and traced["failed"] == 0
        print(f"selftest {workload} seed {seed}: traced == untraced "
              f"{'yes' if same else 'NO'}, failures "
              f"{plain['failed']}+{traced['failed']}")
        ok = ok and same and clean
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None and not args.selftest:
        parser.error("--workload is required")
    build()
    if args.selftest:
        sys.exit(0 if selftest(args.seed) else 1)
    raw = run_runner(args.workload, args.seed, args.seconds, args.trace)
    report(args, raw)
    if args.record:
        record(raw)


if __name__ == "__main__":
    main()
