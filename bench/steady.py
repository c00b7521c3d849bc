#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code.

    python3 bench/steady.py

For each workload in BENCHMARK.json it runs ``bench/run.py`` for the
configured ``run_seconds`` ten times with seeds 1..10, then ten more times
with seeds 11..20, one run at a time.  For every end-to-end metric it
prints each set's median and spread (interquartile distance over median, as
``statistics.quantiles(n=4)`` gives the quartiles) against the metric's
bound, and how far the second median moved from the first in the metric's
worse direction.  Every spread and every shift is judged against the bound.
The share of failed units must be the same in both sets.  Exits 1 if any
judgement fails.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    ok = True
    for workload in (w["name"] for w in config["workloads"]):
        sets = []
        for first in (1, 1 + RUNS):
            results = []
            for seed in range(first, first + RUNS):
                results.append(run_once(workload, seed, seconds))
                print(f"  {workload} seed {seed} done", file=sys.stderr, flush=True)
            sets.append(results)
        print(f"\n{workload}: {RUNS} runs per set, {seconds} s each")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if not all(r["correct"] for s in sets for r in s) or shares[0] != shares[1]:
            ok = False
        print(f"  failed share {shares[0]:.6g} / {shares[1]:.6g}, all correct: "
              f"{all(r['correct'] for s in sets for r in s)}")
        print(f"  {'metric':<14} {'median 1':>12} {'spread 1':>9} {'median 2':>12} "
              f"{'spread 2':>9} {'shift':>8} {'bound':>6}  verdict")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            sa, sb = spread(a), spread(b)
            ma, mb = statistics.median(a), statistics.median(b)
            shift = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            if max(sa, sb, shift) > bound:
                verdict, ok = "FAIL", False
            elif max(sa, sb) <= bound / 3:
                verdict = "steady"
            else:
                verdict = "within bound, spread over a third of it"
            print(f"  {name:<14} {ma:>12.6g} {sa:>9.4f} {mb:>12.6g} {sb:>9.4f} "
                  f"{shift:>+8.4f} {bound:>6.3f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
