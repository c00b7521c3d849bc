#!/usr/bin/env python3
"""Paired A/B study: momentum planner vs one-shot baseline on turns.

Runs both planners over the same seeded arc-turn scenarios (identical
proposal streams per seed) and reports per-seed trajectory consistency at
the longest horizon, the paired mean difference, and an exact sign test.

    python3 scripts/turning_suite.py --seeds 50 --out suite.csv
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from momentum_planning.simulator import RunSettings, ScenarioSpec, run_closed_loop


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided exact binomial tail for 'momentum wins' under the null."""
    n = wins + losses
    if n == 0:
        return 1.0
    return sum(math.comb(n, i) for i in range(wins, n + 1)) / 2.0**n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--speed", type=float, default=5.0)
    parser.add_argument("--radius", type=float, default=20.0)
    parser.add_argument("--depth", type=int, default=1, choices=[1, 2])
    parser.add_argument("--horizon", type=float, default=3.0)
    parser.add_argument("--out", default=None, help="optional per-seed CSV")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    momentum = RunSettings(planner="momentum", history_depth=args.depth)
    oneshot = RunSettings(planner="oneshot", history_depth=0)
    if args.horizon not in momentum.horizons_s:
        parser.error(f"--horizon must be one of {momentum.horizons_s}")

    rows = []
    start = time.perf_counter()
    for seed in range(args.seeds):
        spec = ScenarioSpec(
            "arc_turn", duration_s=args.duration, speed_mps=args.speed,
            radius_m=args.radius, angle_rad=math.pi / 2.0, seed=seed,
        )
        _, rep_m = run_closed_loop(spec, momentum)
        _, rep_o = run_closed_loop(spec, oneshot)
        rows.append((seed, rep_m.tpc[args.horizon], rep_o.tpc[args.horizon]))
    elapsed = time.perf_counter() - start

    wins = sum(m < o for _, m, o in rows)
    losses = sum(m > o for _, m, o in rows)
    mean_m = math.fsum(m for _, m, _ in rows) / len(rows)
    mean_o = math.fsum(o for _, _, o in rows) / len(rows)
    p = sign_test_p(wins, losses)

    print(f"seeds: {len(rows)}   horizon: {args.horizon} s   wall time: {elapsed:.1f} s")
    print(f"mean consistency error  momentum: {mean_m:.4f}   one-shot: {mean_o:.4f}")
    print(f"paired improvement: {mean_o - mean_m:+.4f} m")
    print(f"momentum wins {wins}/{wins + losses}   sign test p = {p:.3g}")

    if args.out:
        lines = ["seed,tpc_momentum,tpc_oneshot"]
        lines += [f"{s},{m!r},{o!r}" for s, m, o in rows]
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
