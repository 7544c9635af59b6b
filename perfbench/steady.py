#!/usr/bin/env python3
"""Steadiness check: runs every workload several times with different seeds
and compares each end-to-end metric's spread with its bound.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed 1]
                                [--seconds S] [--out FILE] [--baseline FILE]
                                [--trace]

Run from the repository root. For each workload and metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json, then the
medians of the unscaled figures the program prints on its stderr `raw:`
line. It exits non-zero when a run fails, reports incorrect outputs, or
reports a varying share of failed operations, or when a metric's spread
exceeds its bound. setup_s is one cold set-up per run, so its spread is
printed but not gated; what is gated for it, as for every metric, is the
median: --out saves the medians, and --baseline FILE fails when a median
is worse than the saved one by more than the bound. --trace
runs the traced variant and reports the per-layer medians plus the tracing
overhead (traced end-to-end figures against the untraced medians of
--baseline).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACED_PREFIX = "end-to-end figures of this traced run: "
RAW_PREFIX = "raw: "


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           "1" if trace else "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    err = done.stderr.decode()
    if done.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit("%s seed %d: exit code %d" % (workload, seed, done.returncode))
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    traced_e2e = None
    raw = {}
    for line in err.splitlines():
        if line.startswith(TRACED_PREFIX):
            traced_e2e = json.loads(line[len(TRACED_PREFIX):])
        elif line.startswith(RAW_PREFIX):
            # "raw: name=value ... samples: ..." -> {name: value}
            for field in line[len(RAW_PREFIX):].split(" samples:")[0].split():
                name, _, value = field.partition("=")
                raw[name] = float(value)
    return result, traced_e2e, raw


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed + i")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write the medians here (JSON)")
    ap.add_argument("--baseline", help="medians saved by an earlier --out")
    ap.add_argument("--trace", action="store_true", help="run the traced variant")
    args = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)

    e2e = {m["name"]: m for m in bench["end_to_end"]}
    baseline = json.load(open(args.baseline)) if args.baseline else {}
    ok = True
    medians = {}
    for w in args.workloads.split(","):
        results = []
        traced = []
        raws = []
        for i in range(args.runs):
            t0 = time.time()
            r, t, raw = run_once(w, args.seed + i, args.seconds, args.trace)
            results.append(r)
            raws.append(raw)
            if t:
                traced.append(t)
            sys.stderr.write("%s seed %d done in %.1f s\n" % (w, args.seed + i, time.time() - t0))
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print("== %s: %d runs, correct=%s, failed share %s" %
              (w, len(results), correct, sorted(shares)))
        if not correct or len(shares) != 1:
            ok = False
        medians[w] = {}
        print("%-38s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, sp = spread(values)
            medians[w][name] = med
            bound = e2e[name]["bound"] if name in e2e and not args.trace else None
            verdict = ""
            if bound is not None and sp > bound:
                if name == "setup_s":
                    verdict = "(spread not gated: one cold set-up per run)"
                else:
                    verdict = "SPREAD>BOUND"
                    ok = False
            base = baseline.get(w, {}).get(name)
            if bound is not None and base:
                worse = (med - base) / base if e2e[name]["better"] == "lower" else (base - med) / base
                if worse > bound:
                    verdict += " WORSE THAN BASELINE BY %.3f" % worse
                    ok = False
            print("%-38s %14.6g %14.6g %14.6g %8.3f %6s %s" %
                  (name, med, q1, q3, sp, "-" if bound is None else bound, verdict))
        medians[w]["raw"] = {}
        print("unscaled figures from stderr (median, spread):")
        for name in raws[0]:
            med, _, _, sp = spread([r[name] for r in raws])
            medians[w]["raw"][name] = med
            print("  %-30s %14.6g %8.3f" % (name, med, sp))
        if traced and baseline.get(w):
            print("tracing overhead (traced median vs untraced baseline median):")
            for name in traced[0]["metrics"]:
                med = statistics.median(t["metrics"][name]["value"] for t in traced)
                base = baseline[w].get(name)
                if base:
                    print("  %-30s %+.1f%%" % (name, 100.0 * (med - base) / base))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(medians, f, indent=1, sort_keys=True)
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
