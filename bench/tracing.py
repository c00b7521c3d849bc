"""Spans around the package's public functions, recorded from outside it.

``Tracer`` replaces each traced function at the module where its caller
looks it up (``simulator.ttm_select``, ``interactor.mix_history``, ...)
with a wrapper that records one span: name, start, end, parent span and
unit id.  Spans stay in memory while the run lasts and are written as CSV
when it ends; ``layer_metrics`` derives the per-layer numbers from them.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name): one row per place a caller looks the
# function up, so a function reached from several modules is wrapped in each
TARGETS = (
    ("simulator", "run_closed_loop", "simulator.run_closed_loop"),
    ("simulator", "gen_scenario", "simulator.gen_scenario"),
    ("simulator", "propose", "simulator.propose"),
    ("simulator", "perturb_features", "simulator.perturb_features"),
    ("simulator", "step_momentum", "simulator.step_momentum"),
    ("simulator", "report_from_log", "simulator.report_from_log"),
    ("simulator", "save_log", "simulator.save_log"),
    ("simulator", "load_log", "simulator.load_log"),
    ("simulator", "ttm_select", "matching.ttm_select"),
    ("simulator", "mpi_forward", "interactor.mpi_forward"),
    ("simulator", "l2_error", "metrics.l2_error"),
    ("simulator", "collision_flags", "metrics.collision_flags"),
    ("simulator", "min_ade_fde", "metrics.min_ade_fde"),
    ("simulator", "tpc", "metrics.tpc"),
    ("simulator", "transform_to_frame", "trajectory.transform_to_frame"),
    ("matching", "trajectory_distance", "matching.trajectory_distance"),
    ("matching", "transform_to_frame", "trajectory.transform_to_frame"),
    ("metrics", "boxes_overlap", "metrics.boxes_overlap"),
    ("metrics", "transform_to_frame", "trajectory.transform_to_frame"),
    ("interactor", "mix_history", "interactor.mix_history"),
    ("interactor", "cross_attention", "interactor.cross_attention"),
    ("interactor", "plan_head", "interactor.plan_head"),
    ("interactor", "trajectory_sq_loss_and_grads", "interactor.backward"),
)

# the chosen index each of these returned, kept for the TTM agreement ratio
_KEEP = {
    "matching.ttm_select": int,
    "simulator.step_momentum": lambda out: int(out[0]),
}

# per-layer metric -> unit; layer_metrics derives the values
PER_LAYER = {
    "matching.ttm_select.us": "us",
    "matching.trajectory_distance.calls": "calls/frame",
    "interactor.mix_history.us": "us",
    "interactor.cross_attention.us": "us",
    "interactor.plan_head.us": "us",
    "interactor.mpi_forward.self_us": "us",
    "interactor.backward.us": "us",
    "interactor.ttm_agreement": "ratio",
    "simulator.propose.us": "us",
    "simulator.perturb_features.us": "us",
    "simulator.step_momentum.self_us": "us",
    "simulator.gen_scenario.calls": "calls/rollout",
    "simulator.gen_scenario.us": "us",
    "simulator.report_from_log.self_ms": "ms",
    "simulator.save_log.ms": "ms",
    "simulator.load_log.ms": "ms",
    "simulator.log_bytes_per_frame": "B/frame",
    "metrics.collision_flags.us": "us",
    "metrics.boxes_overlap.calls": "calls/frame",
    "metrics.tpc.us": "us",
    "metrics.l2_error.us": "us",
    "metrics.min_ade_fde.us": "us",
    "trajectory.transform_to_frame.calls": "calls/frame",
    "trace.overhead_ms_per_unit": "ms",
}

_NAME, _START, _END, _PARENT, _UNIT, _RESULT = range(6)


class Tracer:
    """Installs span-recording wrappers for the duration of a traced unit."""

    def __init__(self, modules: dict):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._unit = [0]
        self._patches = []
        for module_name, attr, span_name in TARGETS:
            module = modules[module_name]
            original = getattr(module, attr)
            wrapper = self._wrap(original, span_name, _KEEP.get(span_name))
            self._patches.append((module, attr, original, wrapper))

    def _wrap(self, fn, name, keep):
        spans, stack, unit, clock = self.spans, self._stack, self._unit, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1], unit[0], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            if keep is not None:
                rec[_RESULT] = keep(out)
            return out

        return traced

    def begin_unit(self, unit_id: int) -> None:
        """Open the unit's root span and install every wrapper."""
        self._unit[0] = unit_id
        self._stack.append(len(self.spans))
        self.spans.append(["unit", time.perf_counter_ns(), 0, -1, unit_id, None])
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def end_unit(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        root = self._stack.pop()
        self.spans[root][_END] = time.perf_counter_ns()

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,unit\n")
            for i, (name, start, end, parent, unit, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{unit}\n")

    def layer_metrics(self, frames: int, rollouts: int, log_bytes: int, overhead_ms: float) -> dict:
        """Per-layer metrics of the traced units.

        Times are medians per call (self times subtract the direct child
        spans); counts are per frame, except scenario generation, counted
        per rollout over the calls made inside ``run_closed_loop``.  A
        layer the workload never calls reads 0.
        """
        spans = self.spans
        child_ns = defaultdict(int)
        ttm_of = {}
        for rec in spans:
            parent = rec[_PARENT]
            if parent >= 0:
                child_ns[parent] += rec[_END] - rec[_START]
                if rec[_NAME] == "matching.ttm_select":
                    ttm_of[parent] = rec[_RESULT]
        total = defaultdict(list)
        own = defaultdict(list)
        for i, rec in enumerate(spans):
            dur = rec[_END] - rec[_START]
            total[rec[_NAME]].append(dur)
            own[rec[_NAME]].append(dur - child_ns[i])

        def med(table, name, scale):
            return statistics.median(table[name]) / scale if table[name] else 0.0

        def per(count, base):
            return count / base if base else 0.0

        def inside_rollout(i):
            while i >= 0:
                if spans[i][_NAME] == "simulator.run_closed_loop":
                    return True
                i = spans[i][_PARENT]
            return False

        rollout_scenarios = sum(
            1 for i, rec in enumerate(spans)
            if rec[_NAME] == "simulator.gen_scenario" and inside_rollout(rec[_PARENT])
        )
        momentum = [
            (spans[i][_RESULT], k_star) for i, k_star in ttm_of.items()
            if spans[i][_NAME] == "simulator.step_momentum"
        ]
        us, ms = 1e3, 1e6
        return {
            "matching.ttm_select.us": med(total, "matching.ttm_select", us),
            "matching.trajectory_distance.calls": per(len(total["matching.trajectory_distance"]), frames),
            "interactor.mix_history.us": med(total, "interactor.mix_history", us),
            "interactor.cross_attention.us": med(total, "interactor.cross_attention", us),
            "interactor.plan_head.us": med(total, "interactor.plan_head", us),
            "interactor.mpi_forward.self_us": med(own, "interactor.mpi_forward", us),
            "interactor.backward.us": med(total, "interactor.backward", us),
            "interactor.ttm_agreement": per(sum(a == b for a, b in momentum), len(momentum)),
            "simulator.propose.us": med(total, "simulator.propose", us),
            "simulator.perturb_features.us": med(total, "simulator.perturb_features", us),
            "simulator.step_momentum.self_us": med(own, "simulator.step_momentum", us),
            "simulator.gen_scenario.calls": per(rollout_scenarios, rollouts),
            "simulator.gen_scenario.us": med(total, "simulator.gen_scenario", us),
            "simulator.report_from_log.self_ms": med(own, "simulator.report_from_log", ms),
            "simulator.save_log.ms": med(total, "simulator.save_log", ms),
            "simulator.load_log.ms": med(total, "simulator.load_log", ms),
            "simulator.log_bytes_per_frame": per(log_bytes, frames) if total["simulator.save_log"] else 0.0,
            "metrics.collision_flags.us": med(total, "metrics.collision_flags", us),
            "metrics.boxes_overlap.calls": per(len(total["metrics.boxes_overlap"]), frames),
            "metrics.tpc.us": med(total, "metrics.tpc", us),
            "metrics.l2_error.us": med(total, "metrics.l2_error", us),
            "metrics.min_ade_fde.us": med(total, "metrics.min_ade_fde", us),
            "trajectory.transform_to_frame.calls": per(len(total["trajectory.transform_to_frame"]), frames),
            "trace.overhead_ms_per_unit": overhead_ms,
        }
