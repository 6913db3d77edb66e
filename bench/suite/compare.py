#!/usr/bin/env python3
"""Compare two bench_suite results sets, or check one results file.

    compare.py --parent A.json [A2.json ...] --change B.json [B2.json ...]
        One row per workload x end-to-end metric: both medians and quartiles,
        the bound from BENCHMARK.json, the parent's spread and a verdict:
          ok          the change's median is within the bound of the parent's
          regressed   it is worse than the parent's median by more than the bound
          unresolved  the parent's spread is wider than the bound, and not
                      every change sample beats every parent sample
        Files of one set are pooled. Exits 1 if any row regressed, 2 if the
        machine fingerprints differ (results from different machines,
        compilers or build types are not comparable).

    compare.py --smoke BENCH_SUITE
        Run `BENCH_SUITE --smoke` in the working directory, then validate
        its results and require every correctness check to have passed.

The spread is the distance between the quartiles of 1000 bootstrap medians
of the parent's samples, as a share of its median: the uncertainty of the
parent's median, which shrinks as a workload gets more repetitions.
"""
import argparse
import json
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
FINGERPRINT_KEYS = ("nproc", "cpu_model", "compiler", "build_type")
SUMMARY_KEYS = ("unit", "median", "q1", "q3", "min", "max", "n", "samples")
BOOTSTRAP_ROUNDS = 1000


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def load_set(paths):
    """Pool the files of one results set: fingerprint, per-workload samples
    of each end-to-end metric, attempted and failed counts."""
    fingerprint = None
    workloads = {}
    for path in paths:
        with open(path) as f:
            results = json.load(f)
        fp = {k: results["fingerprint"][k] for k in FINGERPRINT_KEYS}
        if fingerprint is not None and fp != fingerprint:
            raise SystemExit("compare.py: %s was measured on another machine "
                             "than the rest of its set" % path)
        fingerprint = fp
        for name, w in results["workloads"].items():
            pooled = workloads.setdefault(
                name, {"samples": {}, "attempted": 0, "failed": 0})
            pooled["attempted"] += w["attempted"]
            pooled["failed"] += w["failed"]
            for metric, summary in w["end_to_end"].items():
                pooled["samples"].setdefault(metric, []).extend(
                    summary["samples"])
    return fingerprint, workloads


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def bootstrap_spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    rng = random.Random(0)
    medians = [statistics.median(rng.choices(values, k=len(values)))
               for _ in range(BOOTSTRAP_ROUNDS)]
    q1, q3 = quartiles(medians)
    return (q3 - q1) / abs(median)


def verdict(parent, change, bound, better):
    sign = 1 if better == "lower" else -1
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    spread = bootstrap_spread(parent)
    if spread > bound:
        beats = all(sign * c < sign * p for c in change for p in parent)
        return ("ok" if beats else "unresolved"), spread
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    return ("regressed" if worse > bound else "ok"), spread


def describe(values):
    q1, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g] n=%d" % (statistics.median(values), q1, q3,
                                       len(values))


def compare(parent_paths, change_paths):
    benchmark = load_benchmark()
    p_fp, parent = load_set(parent_paths)
    c_fp, change = load_set(change_paths)
    if p_fp != c_fp:
        print("compare.py: refusing to compare results from different "
              "machines:\n  parent %s\n  change %s" % (p_fp, c_fp),
              file=sys.stderr)
        return 2
    rows = []
    for name in sorted(set(parent) & set(change)):
        for metric in benchmark["end_to_end"]:
            p = parent[name]["samples"].get(metric["name"])
            c = change[name]["samples"].get(metric["name"])
            if not p or not c:
                continue
            v, spread = verdict(p, c, metric["bound"], metric["better"])
            rows.append((name, metric["name"], describe(p), describe(c),
                         "+%g%%" % (100 * metric["bound"]),
                         "%.2f%%" % (100 * spread), v))
        p_ratio = parent[name]["failed"] / max(1, parent[name]["attempted"])
        c_ratio = change[name]["failed"] / max(1, change[name]["attempted"])
        rows.append((name, "fail_ratio", "%.6g" % p_ratio, "%.6g" % c_ratio,
                     "any increase", "-",
                     "regressed" if c_ratio > p_ratio else "ok"))
    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "bound", "spread", "verdict")
    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 1 if any(r[-1] == "regressed" for r in rows) else 0


def number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def validate(path):
    """Problems with a results file's shape, as a list of strings."""
    benchmark = load_benchmark()
    with open(path) as f:
        results = json.load(f)
    problems = []
    fp = results.get("fingerprint", {})
    for key in FINGERPRINT_KEYS + ("git_rev",):
        if key not in fp:
            problems.append("fingerprint lacks " + key)
    workloads = results.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return problems + ["no workloads"]
    for name, w in workloads.items():
        where = "workload " + name
        missing = [key for key in ("script", "correct", "attempted", "failed",
                                   "fail_ratio", "end_to_end", "per_layer",
                                   "errors") if key not in w]
        if missing:
            problems.append(where + " lacks " + ", ".join(missing))
            continue
        if not isinstance(w["attempted"], int) or w["attempted"] < 1:
            problems.append(where + ": attempted must be a positive integer")
        for metric in benchmark["end_to_end"]:
            summary = w["end_to_end"].get(metric["name"])
            if summary is None:
                problems.append(where + " lacks end-to-end " + metric["name"])
                continue
            missing = [k for k in SUMMARY_KEYS if k not in summary]
            if missing:
                problems.append("%s %s lacks %s" % (where, metric["name"],
                                                    missing))
            elif len(summary["samples"]) != summary["n"] or not all(
                    number(x) for x in summary["samples"]):
                problems.append("%s %s: samples do not match n" %
                                (where, metric["name"]))
        for metric in benchmark["per_layer"]:
            entry = w["per_layer"].get(metric["name"])
            if not entry or not number(entry.get("value")) or \
                    entry.get("unit") != metric["unit"]:
                problems.append("%s per-layer %s missing or malformed" %
                                (where, metric["name"]))
    return problems


def smoke(binary):
    out = os.path.abspath("bench_suite_smoke.json")
    run = subprocess.run([binary, "--smoke", "--out", out], timeout=120)
    problems = []
    if run.returncode != 0:
        problems.append("bench_suite --smoke exited %d" % run.returncode)
    if not os.path.exists(out):
        problems.append("no results file written")
    else:
        problems += validate(out)
        with open(out) as f:
            workloads = json.load(f).get("workloads", {})
        for name in [w["name"] for w in load_benchmark()["workloads"]]:
            w = workloads.get(name)
            if w is None:
                problems.append("workload %s not run" % name)
            elif not w.get("correct") or w.get("failed") != 0:
                problems.append("workload %s failed: %s" %
                                (name, w.get("errors")))
    for problem in problems:
        print("bench_suite_smoke: " + problem, file=sys.stderr)
    print("bench_suite_smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", metavar="RESULTS")
    parser.add_argument("--change", nargs="+", metavar="RESULTS")
    parser.add_argument("--smoke", metavar="BENCH_SUITE")
    args = parser.parse_args()
    if args.smoke:
        return smoke(args.smoke)
    if args.parent and args.change:
        return compare(args.parent, args.change)
    parser.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
