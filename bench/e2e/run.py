#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of it.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. The first run configures and builds
bench/e2e (the repository's library plus the benchmark) into
.bench_build/e2e; later runs only re-check the build. The benchmark's own
report goes to standard output, and the last line is one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics (taken from a traced run, whose span file
lands in .bench_build/e2e/trace-<workload>.json). The exit code is
non-zero, and no JSON line is printed, when the build fails, the load
generator fell behind its schedule, or an answer differs from the
Smith-Waterman reference.

Before it measures, it waits while the hypervisor steals CPU time: on a
shared virtual machine, phases of one to nine minutes with 10-35% steal
come every 10-30 minutes. The benchmark rescales its CPU times to a
reference core speed (host_speed.h), which follows the neighbours' load on
the cores; no steal phase came while that rescaling was measured, so the
wait stays. Each probe keeps every CPU busy for two seconds and reads the
steal from /proc/stat. A run waits at most WAIT_PER_RUN_S, and all runs
in one checkout together at most WAIT_BUDGET_S, so a host that never
quiets down costs bounded time and is then measured as it is.
"""

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2e")
QUIET_STEAL = 0.04  # probe steal below this share of CPU time is quiet
PROBE_S = 2.0
PROBE_EVERY_S = 6.0
WAIT_PER_RUN_S = 120.0
WAIT_BUDGET_S = 300.0
WAITED_FILE = os.path.join(BUILD_DIR, "host_wait_s")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def cpu_times():
    """(steal, total) jiffies over all CPUs; (0, 0) without /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0, 0
    # user nice system idle iowait irq softirq steal
    values = [int(v) for v in fields[1:9]]
    return (values[7], sum(values)) if len(values) == 8 else (0, 0)


def spin(until):
    while time.monotonic() < until:
        pass


def probe_steal():
    """Share of CPU time stolen while every CPU spins for PROBE_S."""
    until = time.monotonic() + PROBE_S
    spinners = [multiprocessing.Process(target=spin, args=(until,))
                for _ in range(os.cpu_count() or 1)]
    steal0, total0 = cpu_times()
    for p in spinners:
        p.start()
    for p in spinners:
        p.join()
    steal1, total1 = cpu_times()
    return (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0


def wait_for_quiet_host():
    """Returns (seconds waited after the first probe, last probe's steal)."""
    try:
        with open(WAITED_FILE) as f:
            spent = float(f.read())
    except (OSError, ValueError):
        spent = 0.0
    steal = probe_steal()
    start = time.monotonic()
    while steal >= QUIET_STEAL:
        waited = time.monotonic() - start
        if (waited + PROBE_EVERY_S > WAIT_PER_RUN_S or
                spent + waited + PROBE_EVERY_S > WAIT_BUDGET_S):
            break
        time.sleep(PROBE_EVERY_S - PROBE_S)
        steal = probe_steal()
    waited = time.monotonic() - start
    with open(WAITED_FILE, "w") as f:
        f.write(f"{spent + waited:.3f}\n")
    return waited, steal


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the repository root: the library sources are missing")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                  "-j", "4"])
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(BUILD_DIR,
                                                                "tmp")))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, env=env,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    waited, steal = wait_for_quiet_host()
    print(f"run.py: waited {waited:.1f} s for a quiet host; last probe "
          f"steal {100 * steal:.1f}% (quiet below {100 * QUIET_STEAL:g}%)")
    out_json = os.path.join(BUILD_DIR, f"result-{args.workload}.json")
    command = [binary, f"--seed={args.seed}", f"--workload={args.workload}",
               f"--seconds={args.seconds:g}", f"--json={out_json}"]
    if args.trace:
        command.append(f"--trace={BUILD_DIR}/trace-{args.workload}.json")
    if os.path.exists(out_json):
        os.remove(out_json)
    sys.stdout.flush()
    if subprocess.run(command).returncode != 0:
        fail("bench_e2e failed")

    with open(out_json) as f:
        result = json.load(f)["workloads"][args.workload]
    measured = dict(result["metrics"])
    measured.update(result["layers"])
    wrong = [m["name"] for m in wanted if m["name"] not in measured
             or measured[m["name"]]["unit"] != m["unit"]]
    if wrong:
        fail("bench_e2e did not report, or changed the unit of: " +
             ", ".join(wrong))
    metrics = {m["name"]: measured[m["name"]] for m in wanted}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
