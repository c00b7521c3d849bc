#!/usr/bin/env python3
"""How query-feature noise degrades both planners.

Sweeps the noise scale applied to candidate query embeddings and reports
mean turn consistency for the momentum planner and the one-shot baseline
at each level, averaged over paired seeds.

    python3 scripts/noise_sweep.py --seeds 20
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dataclasses

from momentum_planning.simulator import RunSettings, ScenarioSpec, run_closed_loop


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument(
        "--levels", type=float, nargs="+", default=[0.0, 0.1, 0.3, 1.0, 3.0]
    )
    parser.add_argument("--horizon", type=float, default=3.0)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    base_m = RunSettings(planner="momentum", history_depth=1)
    base_o = RunSettings(planner="oneshot", history_depth=0)

    print(f"{'ns':>6}  {'momentum':>10}  {'one-shot':>10}  {'gap':>8}")
    for ns in args.levels:
        momentum = dataclasses.replace(base_m, ns=ns)
        oneshot = dataclasses.replace(base_o, ns=ns)
        m_sum = o_sum = 0.0
        for seed in range(args.seeds):
            spec = ScenarioSpec(
                "arc_turn", duration_s=4.0, speed_mps=5.0, radius_m=20.0,
                angle_rad=math.pi / 2.0, seed=seed,
            )
            _, rep_m = run_closed_loop(spec, momentum)
            _, rep_o = run_closed_loop(spec, oneshot)
            m_sum += rep_m.tpc[args.horizon]
            o_sum += rep_o.tpc[args.horizon]
        m, o = m_sum / args.seeds, o_sum / args.seeds
        print(f"{ns:6.2f}  {m:10.4f}  {o:10.4f}  {o - m:+8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
