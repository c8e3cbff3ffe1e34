#!/usr/bin/env python3
"""Record sets of benchmark runs and compare two of them.

    python3 perfbench/compare.py record OUT.jsonl --seeds 1,2,...,10 \\
        [--workloads paper-400,...] [--trace 0|1]

runs `perfbench/run.py` once per workload and seed (run length from
BENCHMARK.json) and appends one line per run to OUT.jsonl.

    python3 perfbench/compare.py diff A.jsonl B.jsonl

prints, per workload and metric, each set's median and quartiles
(statistics.quantiles, n=4), the spread (quartile distance over median),
the change of B's median against A's in the metric's worse direction, and
whether that change and B's spread are within the metric's bound in
BENCHMARK.json.  It also compares the share of failed operations.  Exits 1
when any bound is exceeded.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def record(args):
    bench = spec()
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    with open(args.out, "a") as out:
        for name in names:
            for seed in args.seeds.split(","):
                cmd = bench["command"] + [
                    "--workload", name, "--seed", seed,
                    "--seconds", str(bench["run_seconds"]),
                    "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stderr)
                    sys.exit("run failed: %s seed %s" % (name, seed))
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": name, "seed": int(seed),
                                      "trace": args.trace,
                                      "result": result}) + "\n")
                out.flush()
                print(name, seed, "attempted", result["attempted"],
                      "failed", result["failed"], file=sys.stderr)


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r["result"])
    return runs


def summary(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    spread = (q[2] - q[0]) / abs(med) if med else float("inf")
    return med, q[0], q[2], spread


def diff(args):
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    a, b = load(args.a), load(args.b)
    ok = True
    fmt = "%-12s %-22s %12s %25s %12s %25s %7s %8s %s"
    print(fmt % ("workload", "metric", "A median", "A q1..q3", "B median",
                 "B q1..q3", "spread", "change", "verdict"))
    for name in sorted(set(a) & set(b)):
        share = [sum(r["failed"] for r in s[name]) /
                 sum(r["attempted"] for r in s[name]) for s in (a, b)]
        if share[0] != share[1]:
            ok = False
            print("%-12s failed share differs: %r vs %r" % (name, *share))
        for metric in a[name][0]["metrics"]:
            va = [r["metrics"][metric]["value"] for r in a[name]]
            vb = [r["metrics"][metric]["value"] for r in b[name]
                  if metric in r["metrics"]]
            if not vb:
                continue
            ma, qa1, qa3, _ = summary(va)
            mb, qb1, qb3, sb = summary(vb)
            verdict = ""
            change = float("nan")
            if metric in bounds and ma:
                m = bounds[metric]
                sign = 1 if m["better"] == "lower" else -1
                change = sign * (mb - ma) / abs(ma)  # > 0: B is worse
                within = change <= m["bound"]
                steady = metric == "setup_s" or sb <= m["bound"]
                verdict = "ok" if within and steady else "OUT OF BOUND"
                ok = ok and within and steady
            print(fmt % (name, metric, "%.6g" % ma, "%.6g..%.6g" % (qa1, qa3),
                         "%.6g" % mb, "%.6g..%.6g" % (qb1, qb3),
                         "%.3f" % sb, "%+.3f" % change, verdict))
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("out")
    r.add_argument("--seeds", required=True)
    r.add_argument("--workloads")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    args = ap.parse_args()
    record(args) if args.cmd == "record" else diff(args)


if __name__ == "__main__":
    main()
