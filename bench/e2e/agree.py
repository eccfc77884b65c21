#!/usr/bin/env python3
"""Compares sets of bench_e2e --json outputs against BENCHMARK.json bounds.

    python3 bench/e2e/agree.py --a RUN1.json RUN2.json ... [--b RUN.json ...]
    python3 bench/e2e/agree.py --self-test

Each file is one `bench_e2e --json=FILE` output (any subset of workloads).
For every workload x end-to-end metric of BENCHMARK.json it prints, per
set, the median, the first and third quartiles (statistics.quantiles,
n=4) and the spread, (Q3 - Q1) / median. The verdict:

  noisy      a set's spread exceeds the metric's bound (setup_s excepted:
             its spread is reported but not judged)
  regressed  set B's median is worse than set A's by more than the bound
  ok         neither; "ok (tight)" when some spread exceeds a third of the
             bound, the margin the benchmark aims to keep

With only --a, the regression check is skipped. The exit code is 1 when
any verdict is noisy or regressed.
"""

import argparse
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")
UNJUDGED_SPREAD = {"setup_s"}


def load_runs(paths):
    """{workload: {metric: [values]}} over the given result files."""
    values = {}
    for path in paths:
        with open(path) as f:
            workloads = json.load(f)["workloads"]
        for workload, result in workloads.items():
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    float(metric["value"]))
    return values


def summarise(samples):
    """(median, q1, q3, spread) of a list of values."""
    median = statistics.median(samples)
    if len(samples) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    spread = (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else
                                                     math.inf)
    return median, q1, q3, spread


def judge(spec, set_a, set_b=None):
    """Rows of (workload, metric, summary_a, summary_b, worse, verdict)."""
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in sorted(set_a):
            if name not in set_a[workload]:
                continue
            a = summarise(set_a[workload][name])
            b = None
            worse = None
            spreads = [a[3]]
            if set_b is not None and name in set_b.get(workload, {}):
                b = summarise(set_b[workload][name])
                spreads.append(b[3])
                worse = sign * (b[0] - a[0]) / abs(a[0]) if a[0] else 0.0
            if name not in UNJUDGED_SPREAD and max(spreads) > bound:
                verdict = "noisy"
            elif worse is not None and worse > bound:
                verdict = "regressed"
            elif name not in UNJUDGED_SPREAD and max(spreads) > bound / 3:
                verdict = "ok (tight)"
            else:
                verdict = "ok"
            rows.append((workload, name, a, b, worse, verdict))
    return rows


def render(rows, bounds):
    def cell(s):
        if s is None:
            return "-"
        return f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}] {100 * s[3]:.1f}%"

    lines = [f"{'workload':<16} {'metric':<22} {'bound':>6}  "
             f"{'A: median [Q1, Q3] spread':<38} "
             f"{'B: median [Q1, Q3] spread':<38} {'worse':>7}  verdict"]
    for workload, name, a, b, worse, verdict in rows:
        shift = "-" if worse is None else f"{100 * worse:+.1f}%"
        lines.append(f"{workload:<16} {name:<22} {100 * bounds[name]:>5.0f}%  "
                     f"{cell(a):<38} {cell(b):<38} {shift:>7}  {verdict}")
    return "\n".join(lines)


def self_test():
    spec = {"end_to_end": [
        {"name": "qps", "unit": "queries/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    steady = [100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100]
    a = {"w": {"qps": steady, "setup_s": [1, 2, 3, 4, 5]}}
    verdicts = lambda rows: {(r[0], r[1]): r[5] for r in rows}
    same = verdicts(judge(spec, a, a))
    assert same[("w", "qps")] == "ok", same
    # setup_s is wildly spread but its spread is not judged.
    assert same[("w", "setup_s")] == "ok", same
    slower = {"w": {"qps": [v * 0.8 for v in steady],
                    "setup_s": [1, 2, 3, 4, 5]}}
    assert verdicts(judge(spec, a, slower))[("w", "qps")] == "regressed"
    faster = {"w": {"qps": [v * 1.5 for v in steady],
                    "setup_s": [1, 2, 3, 4, 5]}}
    assert verdicts(judge(spec, a, faster))[("w", "qps")] == "ok"
    slow_setup = {"w": {"qps": steady, "setup_s": [2, 4, 6, 8, 10]}}
    assert verdicts(judge(spec, a, slow_setup))[("w", "setup_s")] == "regressed"
    noisy = {"w": {"qps": [50, 150, 80, 120, 100], "setup_s": [1]}}
    assert verdicts(judge(spec, noisy))[("w", "qps")] == "noisy"
    tight = {"w": {"qps": [96, 104, 98, 102, 100], "setup_s": [1]}}
    assert verdicts(judge(spec, tight))[("w", "qps")] == "ok (tight)"
    # The quartiles are Python's own, as the acceptance check computes them.
    med, q1, q3, spread = summarise([1, 2, 3, 4])
    assert (med, q1, q3) == (2.5, 1.25, 3.75) and spread == 1.0
    print("agree.py self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", nargs="+", metavar="JSON")
    parser.add_argument("--b", nargs="+", metavar="JSON")
    parser.add_argument("--benchmark", default=DEFAULT_SPEC)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not args.a:
        parser.error("--a is required")
    with open(args.benchmark) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = judge(spec, load_runs(args.a),
                 load_runs(args.b) if args.b else None)
    print(render(rows, bounds))
    return 1 if any(r[5] in ("noisy", "regressed") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
