#!/usr/bin/env python3
"""Closed-loop benchmark of the momentum-planning package.

    python3 bench/run.py --workload turn-compare --seed 1 --seconds 30 --trace 0

Runs one workload (turn-compare, obstacle-replay or mpi-grad) from the
package source under ``src/`` of the checkout this file sits in, in one
process with BLAS pinned to one thread.  Set-up makes the inputs from
``--seed`` and runs one warm-up unit.  ``setup_s`` is the median over
several fresh processes that each do only that.  The timed loop then runs
whole rounds over the same inputs, at least 100 of them per round, until
``--seconds`` have passed.  Every unit of the first round is checked
against the benchmark's own computations; every later round must
reproduce the first bit for bit.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
alternates traced and untraced rounds, reports the per-layer metrics of the
traced ones and writes their spans to ``.bench_out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os
import sys
import time

# one BLAS thread: the load comes from this process alone
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("turn-compare", "obstacle-replay", "mpi-grad")
COLD_SETUPS = 5
REF_REPEATS = 25
REF_WINDOW = 5
# the reference loop's time at the quick level of the machine this
# benchmark was written on (2-vCPU Xeon VM, Python 3.11, numpy 2.4)
REFERENCE_MS = 0.15

END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "unit_ms_p50": "ms",
    "unit_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "tpc_3s_m": "m",
    "l2_3s_m": "m",
}


def _import_package():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "momentum_planning" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {src / 'momentum_planning'}")
    sys.path[:0] = [str(src), str(BENCH)]
    import momentum_planning

    if Path(momentum_planning.__file__).resolve().parent != (src / "momentum_planning").resolve():
        raise SystemExit(f"imported momentum_planning from {momentum_planning.__file__}, not {src}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="make the inputs, run one warm-up unit, print 'ready', then the "
                             "reference loop's median time in ms, and exit; "
                             "the timed run starts such processes to time a cold set-up")
    return parser.parse_args(argv)


def _build(name: str):
    import workloads

    if name == "turn-compare":
        return workloads.TurnCompare()
    if name == "obstacle-replay":
        return workloads.ObstacleReplay(OUT / f"logs-{os.getpid()}")
    return workloads.MpiGrad()


_REF_MATRIX = np.linspace(-1.0, 1.0, 24 * 32).reshape(24, 32)
_REF_VECTOR = np.linspace(0.5, -0.5, 32)


def reference_ms() -> float:
    """Time a fixed loop of small numpy calls and interpreter work, the mix
    the package's units are made of, that no change to the package touches.

    Shared machines run this process at levels up to 1.7x apart for
    stretches of a fraction of a second to minutes.  Scaling each unit by
    REFERENCE_MS over the loop's time around it takes that out.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40):
        x = _REF_MATRIX @ _REF_VECTOR
        acc += float(np.tanh(x[:8]).sum())
        pair = {"i": i, "pair": (i, i + 1)}["pair"]
        acc += pair[1]
    return (time.perf_counter() - t0) * 1e3


class ColdSetups:
    """Times COLD_SETUPS fresh ``--setup-only`` processes, one at a time,
    from spawn until they print 'ready': interpreter start, imports, input
    generation and one warm-up unit, with nothing cached from an earlier
    set-up.  ``measure`` starts them between rounds, spread evenly over the
    timed window, so that their median samples the machine over the whole
    run rather than over one second of it.  Each is scaled like a unit, by
    the reference loop's time, here the median of REF_REPEATS loops that the
    child runs after 'ready', at the speed the set-up ran at.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        self.scaled, self.wall = [], []

    def due(self, elapsed_s: float, seconds: float) -> bool:
        return len(self.wall) < COLD_SETUPS and elapsed_s >= len(self.wall) * seconds / COLD_SETUPS

    def run_one(self) -> None:
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            ref = child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"cold set-up process exited {child.returncode} without 'ready'")
        self.wall.append(elapsed)
        self.scaled.append(elapsed * REFERENCE_MS / float(ref))


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def measure(workload, pool, seconds: float, tracer, cold=None):
    """Whole rounds over ``pool`` until ``seconds`` have passed.

    Unit times cover the program calls alone, not the checks.  The
    reference loop runs after every unit, and each unit's time is scaled by
    REFERENCE_MS over the median of the REF_WINDOW readings before it and
    the REF_WINDOW after it: one reading can be caught by a passing
    interrupt, the median of ten follows the machine's speed level.  Every
    round holds the same work, so each input's time is taken as its median
    over rounds, which a slow stretch of a few rounds does not move.
    ``cold`` set-ups, if given, run between rounds.

    With a tracer, even rounds are traced and odd ones are not, and the
    loop ends after an untraced round so both halves cover the same inputs.
    """
    stats = {
        "attempted": 0, "failed": 0, "rounds": 0,
        "timed": 0, "item_ms": [[] for _ in pool], "item_wall_ms": [[] for _ in pool],
        "item_frames": [0] * len(pool), "ms_traced": [], "ms_plain": [],
        "traced_frames": 0, "traced_rollouts": 0, "traced_log_bytes": 0,
    }
    reports = [None] * len(pool)
    digests = [None] * len(pool)
    timings = []  # (input index, wall ms, traced, index of the reading after it)
    refs = [reference_ms()]
    started = time.perf_counter()
    while True:
        traced = tracer is not None and stats["rounds"] % 2 == 0
        for i, item in enumerate(pool):
            stats["attempted"] += 1
            if traced:
                tracer.begin_unit(stats["attempted"])
            try:
                t0 = time.perf_counter()
                done = workload.unit(item)
                wall_ms = (time.perf_counter() - t0) * 1e3
            except Exception:
                stats["failed"] += 1
                print(f"unit {stats['attempted']} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                if traced:
                    tracer.end_unit()
            refs.append(reference_ms())
            if stats["rounds"] == 0:
                problems = workload.check(item, done.out)
                reports[i] = done.reports
                digests[i] = workload.digest(done.out)
            else:
                problems = [] if workload.digest(done.out) == digests[i] else ["output differs from round 1"]
            if problems:
                stats["failed"] += 1
                print(f"unit {stats['attempted']} wrong: " + "; ".join(problems), file=sys.stderr)
                continue
            stats["timed"] += 1
            timings.append((i, wall_ms, traced, len(refs) - 1))
            stats["item_frames"][i] = done.frames
            if traced:
                stats["traced_frames"] += done.frames
                stats["traced_rollouts"] += done.rollouts
                stats["traced_log_bytes"] += done.log_bytes
        stats["rounds"] += 1
        if stats["failed"]:
            break  # the run is already wrong; more rounds would only repeat it
        if cold is not None and cold.due(time.perf_counter() - started, seconds):
            cold.run_one()
            refs.append(reference_ms())
        if (time.perf_counter() - started >= seconds
                and (tracer is None or stats["rounds"] % 2 == 0)
                and (cold is None or len(cold.wall) == COLD_SETUPS)):
            break
    for i, wall_ms, traced, k in timings:
        elapsed_ms = wall_ms * REFERENCE_MS / statistics.median(refs[max(0, k - REF_WINDOW):k + REF_WINDOW])
        stats["item_ms"][i].append(elapsed_ms)
        stats["item_wall_ms"][i].append(wall_ms)
        if tracer is not None:
            stats["ms_traced" if traced else "ms_plain"].append(elapsed_ms)
    return stats, [r for r in reports if r is not None]


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    from momentum_planning import interactor, matching, metrics, simulator

    import tracing

    workload = _build(args.workload)
    try:
        pool = workload.make(args.seed)
        workload.unit(pool[0])
        if args.setup_only:
            print("ready", flush=True)
            print(statistics.median(reference_ms() for _ in range(REF_REPEATS)), flush=True)
            return 0
        tracer = cold = None
        if args.trace:
            tracer = tracing.Tracer({"simulator": simulator, "matching": matching,
                                   "metrics": metrics, "interactor": interactor})
        else:
            cold = ColdSetups(args)
        stats, reports = measure(workload, pool, args.seconds, tracer, cold)
        quality = workload.quality(reports) if reports else {}
    finally:
        workload.close()

    # one time per input: its median over the rounds
    times = [statistics.median(t) for t in stats["item_ms"] if t]
    print(f"workload {args.workload}  seed {args.seed}  rounds {stats['rounds']}  "
          f"units attempted {stats['attempted']}  failed {stats['failed']}  timed {stats['timed']}")
    if hasattr(workload, "oracle_counts"):
        print("collision oracle waypoint flags: " + ", ".join(f"{k} {v}" for k, v in workload.oracle_counts.items()))
    if tracer is None:
        metrics_out = {
            "setup_s": statistics.median(cold.scaled) if cold.scaled else 0.0,
            "frames_per_s": sum(stats["item_frames"]) / (sum(times) / 1e3) if times else 0.0,
            "unit_ms_p50": statistics.median(times) if times else 0.0,
            "unit_ms_p90": _percentile(times, 0.9) if times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tpc_3s_m": quality.get("tpc_3s_m", 0.0),
            "l2_3s_m": quality.get("l2_3s_m", 0.0),
        }
        units = END_TO_END_UNITS
        for name in ("oneshot_tpc_3s_m", "oneshot_l2_3s_m"):
            if name in quality:
                print(f"reference {name:<34} {quality[name]:.6f} m")
        if cold.wall:
            print(f"unscaled wall-clock setup {statistics.median(cold.wall):.4f} s "
                  f"(median of {len(cold.wall)} cold set-ups)")
        if times:
            wall = [statistics.median(t) for t in stats["item_wall_ms"] if t]
            print(f"p50/p90 over the median times of {len(times)} inputs; unscaled wall-clock unit "
                  f"p50 {statistics.median(wall):.4f} ms, p90 {_percentile(wall, 0.9):.4f} ms")
    else:
        overhead = _mean(stats["ms_traced"]) - _mean(stats["ms_plain"])
        metrics_out = tracer.layer_metrics(stats["traced_frames"], stats["traced_rollouts"],
                                           stats["traced_log_bytes"], overhead)
        units = tracing.PER_LAYER
        path = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write_csv(path)
        print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for name, value in metrics_out.items():
        print(f"{name:<40} {value:.6g} {units[name]}")
    correct = stats["failed"] == 0 and stats["timed"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics_out.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
