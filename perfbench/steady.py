#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload (or those named with --workload) over --runs seeds,
twice: set A and set B, alternated run by run (A1 B1 A2 B2 ...) so that
drift in host speed lands on both sets alike. For each end-to-end
metric it prints each set's median, the spread of each set (distance
between first and third quartile, as statistics.quantiles(n=4) gives
them, as a share of the median) and how far B's median is from A's,
against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--sets 2]
                                [--workload NAME ...] [--log FILE] [--show]

`--runs 1 --sets 1 --show` runs every workload once and prints each
run's metric table: every end-to-end metric with its unit and sample
count.

Run from the root of a checkout. Exits 1 if a run fails or reports an
incorrect result, or if a spread (`setup_s` included) or a median shift
exceeds its bound; a spread beyond its bound is marked with `!`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result, lines[:-1]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=2, choices=[1, 2])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--log")
    ap.add_argument("--show", action="store_true", help="print every run's metric table")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    log = open(args.log, "a") if args.log else None
    bad = False

    for workload in workloads:
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            seed = args.first_seed + i
            for s in range(args.sets):
                result, table = run_once(workload, seed, seconds)
                if args.show:
                    print("\n".join(table), flush=True)
                probe = [l for l in table if "host probe" in l]
                sets[s].append(result["metrics"])
                line = {"workload": workload, "set": "AB"[s], "seed": seed,
                        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                        "probe": probe}
                if log:
                    log.write(json.dumps(line) + "\n")
                    log.flush()
        print(f"\n{workload}: {args.runs} seeds x {args.sets} set(s), {seconds} s per run")
        print(f"  {'metric':<14} {'bound':>6} {'median A':>12} {'spread A':>9}"
              + (f" {'median B':>12} {'spread B':>9} {'B vs A':>8}" if args.sets == 2 else ""))
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            cols = []
            meds = []
            for s in sets:
                values = [r[name]["value"] for r in s]
                med = statistics.median(values)
                sp = spread(values)
                meds.append(med)
                cols.append(f"{med:>12.5g} {sp:>9.3%}")
                if sp > bound:
                    bad = True
                    cols[-1] += "!"
            line = f"  {name:<14} {bound:>6.2f} " + " ".join(cols)
            if args.sets == 2:
                shift = (meds[1] - meds[0]) / meds[0]
                worse = shift if better == "lower" else -shift
                line += f" {shift:>+8.2%}"
                if worse > bound:
                    bad = True
                    line += "  <-- beyond bound"
            print(line)
    if log:
        log.close()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
