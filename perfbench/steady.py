#!/usr/bin/env python3
"""Steadiness check: runs the same build in two sets and compares them.

Usage (from the root of the repository):

    python3 perfbench/steady.py

Each of the two sets runs every workload in BENCHMARK.json 10 times, each
run with its own seed (set s, run i uses seed 1000*s + i). For each
end-to-end metric it prints the median, the first and third quartiles
(Python's statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median; for each set, the share of the machine's CPU time that
was stolen by the hypervisor during each run (from /proc/stat), which
shows when load from outside the process moved the figures. The sets
agree when:

* every spread is within the metric's bound in BENCHMARK.json,
* the second set's median is not worse than the first's by more than the
  bound, and
* the share of failed operations is exactly the same in every run.

Exits 0 when they agree, 1 otherwise.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def cpu_ticks():
    """The machine's CPU time counters (the first line of /proc/stat)."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except OSError:
        return None


def run_once(cmd, workload, seed, seconds):
    """One run's result, with the share of the machine's CPU time that the
    hypervisor gave to other guests (steal) while it ran, or None."""
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    before = cpu_ticks()
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=False)
    after = cpu_ticks()
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    steal = None
    if before and after and len(before) > 7:
        spent = [b - a for a, b in zip(before, after)]
        steal = spent[7] / max(sum(spent), 1)
    return json.loads(lines[-1]), steal


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    ok = True
    for w in workloads:
        sets = []
        steals = []
        shares = set()
        for s in range(1, SETS + 1):
            runs = [run_once(bench["command"], w, 1000 * s + i, bench["run_seconds"])
                    for i in range(RUNS)]
            results = [r for r, _ in runs]
            for r in results:
                shares.add((r["failed"], r["attempted"]) if r["failed"] else (0, 1))
                ok &= r["correct"]
            sets.append(results)
            steals.append([st for _, st in runs])
        ratios = {f / a for f, a in shares}
        print(f"\n## {w}: {SETS} sets of {RUNS} runs, "
              f"failed share {sorted(ratios)} ({'same' if len(ratios) == 1 else 'DIFFERS'})")
        ok &= len(ratios) == 1
        print("| metric | set | median | q1 | q3 | spread | bound | verdict |")
        print("|---|---|---|---|---|---|---|---|")
        for name, m in metrics.items():
            first = None
            for s, results in enumerate(sets, 1):
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                verdicts = []
                if spread > m["bound"]:
                    verdicts.append("spread over bound")
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    if worse > m["bound"]:
                        verdicts.append(f"median worse by {worse:.1%}")
                ok &= not verdicts
                print(f"| {name} | {s} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.1%} "
                      f"| {m['bound']:.0%} | {', '.join(verdicts) or 'ok'} |")
        print()
        for s, st in enumerate(steals, 1):
            if None not in st:
                print(f"steal per run, set {s}: " + " ".join(f"{v:.1%}" for v in st) + "  ")
    print(f"\nverdict: {'the sets agree' if ok else 'the sets DO NOT agree'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
