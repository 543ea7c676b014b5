#!/usr/bin/env python3
"""Steadiness report: run each workload repeatedly, one seed per run, and
print every end-to-end metric's median and quartiles next to its bound.

Run from the repository root:

    python3 perfbench/steady.py                      # 2 sets of 10 runs per workload
    python3 perfbench/steady.py --sets 1 --runs 5 --workloads fleet-echo --seconds 5

Each set runs seeds seed-base .. seed-base+runs-1 once; a workload's sets
run back to back. Spread is (Q3 - Q1) / median with the quartiles of
Python's statistics.quantiles(values, n=4). Per set, a metric is

    steady   spread under a third of its bound
    within   spread within its bound
    NOISY    spread beyond its bound

and each later set's median must not be worse than the first set's by
more than the bound. The report passes if no metric is NOISY, every set
agrees with the first, every run reports correct=true with zero failed
ops, and vcycles_per_op is identical across runs of the same seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def worsening(metric, first, later):
    """The share by which later is worse than first (negative: better)."""
    if metric["better"] == "lower":
        return (later - first) / first
    return (first - later) / first


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for w in args.workloads:
        medians = []
        vcycles = {}
        for k in range(args.sets):
            values = {name: [] for name in metrics}
            ops = []
            for i in range(args.runs):
                seed = args.seed_base + i
                r = run_once(spec, w, seed, args.seconds)
                if not r["correct"] or r["failed"] != 0:
                    ok = False
                    print(f"{w} seed {seed}: correct={r['correct']} failed={r['failed']}")
                ops.append(r["attempted"])
                for name in metrics:
                    values[name].append(r["metrics"][name]["value"])
                vcycles.setdefault(seed, set()).add(r["metrics"]["vcycles_per_op"]["value"])
                print(f"  {w} set {k + 1} seed {seed}: " + " ".join(
                    f"{n}={r['metrics'][n]['value']:.6g}" for n in metrics), flush=True)
            if args.sets == 1:
                again = run_once(spec, w, args.seed_base, args.seconds)
                vcycles[args.seed_base].add(again["metrics"]["vcycles_per_op"]["value"])
            same = all(len(v) == 1 for v in vcycles.values())
            ok = ok and same
            print(f"{w} set {k + 1}: {args.runs} runs of {args.seconds} s, ops per run {min(ops)}..{max(ops)}; "
                  f"vcycles_per_op per seed {'identical' if same else 'DIFFERS'}")
            print(f"  {'metric':16} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>6}  verdict")
            med = {}
            for name, m in metrics.items():
                v = values[name]
                q1, med[name], q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med[name] if med[name] else float("inf")
                if spread < m["bound"] / 3:
                    verdict = "steady"
                elif spread <= m["bound"]:
                    verdict = "within"
                else:
                    verdict = "NOISY"
                    ok = False
                print(f"  {name:16} {med[name]:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {m['bound']:6.3f}  {verdict}")
            medians.append(med)
        for k in range(1, len(medians)):
            print(f"{w}: set {k + 1} median against set 1 (worse by, share; bound)")
            for name, m in metrics.items():
                d = worsening(m, medians[0][name], medians[k][name])
                agree = d <= m["bound"]
                ok = ok and agree
                print(f"  {name:16} {d:+8.4f} {m['bound']:6.3f}  {'agrees' if agree else 'WORSE'}")
        sys.stdout.flush()
    print("pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
