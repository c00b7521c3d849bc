#!/usr/bin/env python3
"""Paired A/B study: momentum planner vs one-shot baseline on turns.

Runs both planners over the same seeded arc-turn scenarios (identical
proposal streams per seed) at each query-noise level and reports, per
level, per-seed trajectory consistency at the chosen horizon, the paired
mean difference, and an exact sign test.

    python3 scripts/turning_suite.py --seeds 50 --out suite.csv
    python3 scripts/turning_suite.py --seeds 20 --ns 0.0 0.1 0.3 1.0 3.0
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from momentum_planning.errors import ConfigError
from momentum_planning.metrics import mean_reports
from momentum_planning.simulator import RunSettings, ScenarioSpec, paired_reports


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided exact binomial tail for 'momentum wins' under the null."""
    n = wins + losses
    if n == 0:
        return 1.0
    return sum(math.comb(n, i) for i in range(wins, n + 1)) / 2.0**n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--speed", type=float, default=5.0)
    parser.add_argument("--radius", type=float, default=20.0)
    parser.add_argument("--depth", type=int, default=1, choices=[1, 2])
    parser.add_argument("--horizon", type=float, default=3.0)
    parser.add_argument("--ns", type=float, nargs="+", default=[RunSettings.ns], metavar="LEVEL",
                        help="query noise scales, one paired study each")
    parser.add_argument("--out", default=None, help="optional per-seed CSV")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    try:
        levels = [RunSettings(planner="momentum", history_depth=args.depth, ns=ns) for ns in args.ns]
        spec = ScenarioSpec(
            "arc_turn", duration_s=args.duration, speed_mps=args.speed,
            radius_m=args.radius, angle_rad=math.pi / 2.0,
        )
    except ConfigError as exc:
        parser.error(str(exc))
    if args.horizon not in levels[0].horizons_s:
        parser.error(f"--horizon must be one of {levels[0].horizons_s}")

    lines = ["ns,seed,tpc_momentum,tpc_oneshot"]
    for settings in levels:
        start = time.perf_counter()
        pairs = paired_reports(spec, settings, range(args.seeds))
        elapsed = time.perf_counter() - start

        rows = [(seed, rep_m.tpc[args.horizon], rep_o.tpc[args.horizon]) for seed, rep_m, rep_o in pairs]
        wins = sum(m < o for _, m, o in rows)
        losses = sum(m > o for _, m, o in rows)
        mean_m, mean_o = (mean_reports(reps).tpc[args.horizon] for reps in list(zip(*pairs))[1:])
        p = sign_test_p(wins, losses)

        print(f"ns: {settings.ns}   seeds: {len(rows)}   horizon: {args.horizon} s   "
              f"wall time: {elapsed:.1f} s")
        print(f"mean consistency error  momentum: {mean_m:.4f}   one-shot: {mean_o:.4f}")
        print(f"paired improvement: {mean_o - mean_m:+.4f} m")
        print(f"momentum wins {wins}/{wins + losses}   sign test p = {p:.3g}")
        lines += [f"{settings.ns!r},{s},{m!r},{o!r}" for s, m, o in rows]

    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
