#!/usr/bin/env python3
"""Build and run the NeuPIMs benchmark on one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. The first call builds the simulator
library and the driver (Release) under .bench_build/perfbench; later
calls only check the build is current. Each driver process runs
pinned to the CPU that was idlest just before it started, and times
the run and the set-up in CPU time, so time spent waiting for a CPU
does not count. Untraced, PROCS driver processes share --seconds,
each repeating the workload in its share, since a process's speed on
a shared host varies from process to process; run_s takes each part
of the run at its fastest over all of them. Traced, the driver runs
once. Its stderr must hold no "warn:" line. The last line printed is
one JSON object with the keys correct, attempted, failed and metrics,
each metric with the unit BENCHMARK.json gives it. The lines before
it record the host, the build and any failed check.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
PROCS = 5
IDLE_WINDOW_S = 0.1
SETUP_TAIL_S = 0.6

# Per-layer metrics the traced run of each workload emits. The rest of
# BENCHMARK.json's per_layer list belongs to layers the workload never
# reaches and reads 0.
TRACED = ["bench.s", "runtime.self_s", "traffic.s", "pricing.s", "engine.s",
          "trace.run_s", "trace.overhead"]
SERVE = ["runtime.us_per_iter", "runtime.iterations", "runtime.mean_batch",
         "runtime.sim_queue_p50_ms", "kv.preemptions", "kv.restores",
         "kv.prefix_hit_rate", "kv.pages_published", "kv.pages_reclaimed",
         "kv.cow_copies", "pricing.calls", "pricing.us_per_call_p50",
         "pricing.us_per_call_p99", "pricing.mixed_share", "sim_ttft_p50_ms",
         "sim_ttft_p99_ms", "sim_tbt_p99_ms", "sim_slo_share",
         "failed_share", "requests.sent", "requests.completed",
         "requests.failed"]
ENGINE = ["engine.ms_per_run_p50", "engine.host_ns_per_sim_cycle",
          "dram.mem_cmds", "dram.pim_cmds", "dram.ns_per_cmd",
          "dram.mode_switches", "dram.pim_stall_cycles", "dram.row_hit_rate",
          "dram.data_bus_mb", "npu.util", "pim.util", "bw.util"]
PER_LAYER = {"serve_analytic": TRACED + SERVE,
             "serve_sessions": TRACED + SERVE,
             "engine_fig12": TRACED + ENGINE}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources next to {HERE.name}/ (run from a "
             "checkout of the repository)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
         "-j", jobs],
    ]
    if (BUILD / "CMakeCache.txt").is_file():
        steps = steps[1:]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def combine(runs):
    """One result from several driver processes: run_s sums the fastest
    CPU time of each part of the run over all processes, setup_s is
    the fastest set-up, peak RSS the largest. Everything simulated must
    agree exactly between processes."""
    out = dict(runs[0], errors=[e for r in runs for e in r["errors"]])
    if len({json.dumps([r["context"]["sim_checksum"], r["attempted"],
                        r["failed"], r["metrics"].get("sim_tokens_per_s")])
            for r in runs}) > 1:
        out["errors"].append("simulated outputs differ between processes")
    if len(runs) > 1:
        m = dict(runs[0]["metrics"])
        parts = [min(p) for p in zip(*(r["context"]["run_parts_s"]
                                       for r in runs))]
        m["run_s"] = sum(parts)
        m["setup_s"] = min(r["metrics"]["setup_s"] for r in runs)
        m["peak_rss_mb"] = max(r["metrics"]["peak_rss_mb"] for r in runs)
        out["metrics"] = m
        out["context"] = dict(runs[0]["context"], processes=len(runs),
                              run_parts_s=parts,
                              process_run_s=[r["metrics"]["run_s"]
                                             for r in runs],
                              process_run_wall_s=[r["context"]["run_wall_s"]
                                                  for r in runs],
                              process_run_reps=[r["context"]["run_reps"]
                                                for r in runs],
                              process_cpus=[r["context"]["pinned_cpu"]
                                            for r in runs])
    return out


def idle_ticks():
    """Idle + iowait ticks of each CPU, from /proc/stat."""
    ticks = {}
    with open("/proc/stat") as f:
        for line in f:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit():
                ticks[int(name[3:])] = int(fields[3]) + int(fields[4])
    return ticks


def idlest_cpu():
    """The CPU this process may use that was idlest over the last
    IDLE_WINDOW_S; the highest-numbered one among equals, or the
    highest-numbered one when /proc/stat cannot be read."""
    allowed = os.sched_getaffinity(0)
    try:
        before = idle_ticks()
        time.sleep(IDLE_WINDOW_S)
        after = idle_ticks()
    except OSError:
        return max(allowed)
    return max(allowed, key=lambda c: (after.get(c, 0) - before.get(c, 0),
                                       c))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    spans = BUILD / f"spans-{args.workload}-{args.seed}.tsv"

    def drive(seconds):
        cpu = idlest_cpu()
        res = subprocess.run(
            [str(DRIVER), "--workload", args.workload,
             "--seed", str(args.seed), "--trace", str(args.trace),
             "--seconds", f"{seconds:.3f}", "--spans", str(spans)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        sys.stderr.write(res.stderr)
        if res.returncode != 0 or not res.stdout.strip():
            fail(f"driver exited with code {res.returncode}")
        out = json.loads(res.stdout.strip().splitlines()[-1])
        out["context"]["pinned_cpu"] = cpu
        return out, res.stderr

    # Untraced, PROCS processes share --seconds; each times repetitions
    # while the next one fits in its share, less SETUP_TAIL_S for the
    # set-ups it makes after them.
    runs = []
    deadline = time.monotonic() + args.seconds
    for k in range(1 if args.trace else PROCS):
        share = (deadline - time.monotonic()) / (PROCS - k)
        runs.append(drive(share - IDLE_WINDOW_S - SETUP_TAIL_S))
    out = combine([r for r, _ in runs])
    stderr = "".join(e for _, e in runs)

    errors = list(out["errors"])
    warns = [ln for ln in stderr.splitlines() if ln.startswith("warn:")]
    if warns:
        errors.append(f"{len(warns)} warn: line(s) on stderr, first: "
                      f"{warns[0]}")
    expected = set(PER_LAYER[args.workload] if args.trace
                   else (m["name"] for m in wanted))
    extra = sorted(set(out["metrics"]) - expected)
    missing = sorted(expected - set(out["metrics"]))
    unnamed = sorted(expected - {m["name"] for m in wanted})
    if extra or missing or unnamed:
        errors.append("driver metrics differ from those expected: "
                      f"missing {missing}, extra {extra}, "
                      f"not in BENCHMARK.json {unnamed}")

    print("# context " + json.dumps(out["context"], sort_keys=True))
    if args.trace:
        print(f"# spans {spans.relative_to(ROOT)}")
    for e in errors:
        print(f"# check failed: {e}")
    metrics = {m["name"]: {"value": out["metrics"].get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not errors,
                      "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
