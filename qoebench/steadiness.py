#!/usr/bin/env python3
"""Steadiness report over saved benchmark outputs.

    python3 qoebench/steadiness.py RUN... [--against RUN...]

Each RUN file holds the standard output of one untraced benchmark
invocation. For each workload and end-to-end metric the report prints
the median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median beside the metric's bound from BENCHMARK.json, and
the max/min ratio. Figures of the detail line (op p90, op CPU-time
p50) follow as ungated rows. With --against, it also prints each metric's median
change between the two sets and how many runs, paired in the order
given, the second set wins. It decides nothing; it refuses to mix
results from different hosts.
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("cores", "simd", "cpu", "profile", "rustc")
UNGATED = ("op_p90_ms", "op_cpu_p50_ms")


def load(path):
    lines = [l for l in open(path, encoding="utf-8").read().splitlines() if l.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    result = json.loads(lines[-1])
    detail = next((json.loads(l)["detail"] for l in lines if l.startswith('{"detail"')), None)
    if detail is None:
        raise ValueError(f"{path}: no detail line")
    return detail, result


def group(paths, hosts):
    runs = {}
    for p in paths:
        try:
            detail, result = load(p)
        except ValueError as e:
            print(f"skipping {e}", file=sys.stderr)
            continue
        if detail["trace"]:
            continue
        hosts.add(tuple(json.dumps(detail["host"].get(k)) for k in HOST_KEYS))
        # Detail figures ride along as ungated pseudo-metrics.
        for name in UNGATED:
            if name in detail:
                result["metrics"][name] = {"value": detail[name]}
        runs.setdefault(detail["workload"], []).append(result)
    return runs


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    lo = min(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf"), max(values) / lo if lo else float("inf")


def main(argv):
    if "--against" in argv:
        i = argv.index("--against")
        first, second = argv[:i], argv[i + 1:]
    else:
        first, second = argv, []
    if not first:
        print(__doc__, file=sys.stderr)
        return 2
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    spec = json.load(open(spec_path, encoding="utf-8"))
    hosts = set()
    a = group(first, hosts)
    b = group(second, hosts)
    if len(hosts) > 1:
        print("refusing to compare results from different hosts:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + " ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)), file=sys.stderr)
        return 2
    head = f"{'workload':<8} {'metric':<18} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} {'max/min':>7}"
    if b:
        head += f" {'median B':>12} {'change':>8} {'B wins':>7}"
    print(head)
    for workload in sorted(a):
        ungated = [{"name": n, "bound": float("nan"), "better": "lower"} for n in UNGATED]
        for m in spec["end_to_end"] + ungated:
            name, bound, better = m["name"], m["bound"], m["better"]
            va = [r["metrics"][name]["value"] for r in a[workload] if name in r["metrics"]]
            if not va:
                continue
            med, q1, q3, spread, ratio = stats(va)
            row = (f"{workload:<8} {name:<18} {len(va):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                   f" {spread:>7.3f} {bound:>6.3f} {ratio:>7.3f}")
            vb = [r["metrics"][name]["value"] for r in b.get(workload, []) if name in r["metrics"]]
            if vb:
                med_b = statistics.median(vb)
                change = (med_b - med) / med if med else 0.0
                sign = 1 if better == "lower" else -1
                wins = sum(1 for x, y in zip(va, vb) if sign * (y - x) < 0)
                row += f" {med_b:>12.6g} {change:>+8.3f} {wins:>3}/{min(len(va), len(vb))}"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
