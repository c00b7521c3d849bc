"""Scene-level selection of turning-heavy evaluation data.

Benchmarks dominated by straight driving hide consistency regressions, so
evaluation pools are filtered to scenes that contain at least one turning
sample.  The turning test is deliberately crude and fast: how far the
x coordinate drifts across the first six future waypoints, in an ego frame
whose y axis points forward, so x drift is lateral.  Filtering is by
scene, not by sample, to keep each kept scene's frame sequence intact for
cross-frame metrics.  The simulator's ego frame points x forward;
``samples_from_log`` turns its futures into this frame.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, HorizonError, LogCorruptionError
from .fileio import write_in_place
from .simulator import SIM_DT, ScenarioLog, _json_objects, _known_keys, ground_truth_futures
from .trajectory import Trajectory, trajectory_from_dict, trajectory_to_dict

DEFAULT_TURN_EPSILON_M = 25.0
_TURN_WINDOW = 6


@dataclass(frozen=True)
class SampleRecord:
    """One evaluation sample: an id, its parent scene and the future path."""

    sample_id: str
    scene_id: str
    gt_future: Trajectory

    def __post_init__(self):
        # ids key the scene filter and the manifest, and are written back out
        for name in ("sample_id", "scene_id"):
            value = getattr(self, name)
            if not (isinstance(value, str) and value):
                raise ConfigError(f"{name} must be a non-empty string, got {value!r}")


def _check_threshold(epsilon_m: float) -> None:
    if not (epsilon_m > 0.0 and math.isfinite(epsilon_m)):
        raise ConfigError(f"turn threshold must be positive, got {epsilon_m}")


def is_turning(sample: SampleRecord, epsilon_m: float = DEFAULT_TURN_EPSILON_M) -> bool:
    """True when the x coordinate drifts by at least ``epsilon_m`` between
    the first and sixth future waypoints (the threshold is inclusive)."""
    _check_threshold(epsilon_m)
    pts = sample.gt_future.points
    if len(pts) < _TURN_WINDOW:
        raise HorizonError(
            f"sample {sample.sample_id!r} has {len(pts)} future waypoints, "
            f"needs {_TURN_WINDOW}"
        )
    return bool(abs(pts[_TURN_WINDOW - 1, 0] - pts[0, 0]) >= epsilon_m)


def samples_from_log(log: ScenarioLog, scene_id: str) -> list[SampleRecord]:
    """One sample per frame of a simulator log, ``<scene_id>/<frame>``: the
    frame's ground-truth future, turned from the simulator's ego frame
    (x forward, y left) into the one ``is_turning`` reads (x right,
    y forward)."""
    futures = ground_truth_futures(log)
    turned = np.stack((-futures[..., 1], futures[..., 0]), axis=-1)
    return [
        SampleRecord(f"{scene_id}/{j}", scene_id, Trajectory(future, dt=SIM_DT))
        for j, future in enumerate(turned)
    ]


def turning_scene_ids(
    samples: Iterable[SampleRecord], epsilon_m: float = DEFAULT_TURN_EPSILON_M
) -> set[str]:
    """The scenes with a turning sample; the threshold is checked first,
    so an empty pool refuses a bad one too."""
    _check_threshold(epsilon_m)
    return {s.scene_id for s in samples if is_turning(s, epsilon_m)}


def curate(
    samples: Sequence[SampleRecord], epsilon_m: float = DEFAULT_TURN_EPSILON_M
) -> list[SampleRecord]:
    """Keep every sample of every scene that has at least one turning
    sample, in the original order."""
    keep = turning_scene_ids(samples, epsilon_m)
    return [s for s in samples if s.scene_id in keep]


def scene_manifest(samples: Sequence[SampleRecord]) -> dict:
    """Scene ids in first-appearance order with their sample counts."""
    counts: dict[str, int] = {}
    for s in samples:
        counts[s.scene_id] = counts.get(s.scene_id, 0) + 1
    return {"scenes": list(counts), "sample_counts": counts}


# ---------------------------------------------------------------------------
# persistence


def _sample_to_dict(sample: SampleRecord) -> dict:
    return {
        "sample_id": sample.sample_id,
        "scene_id": sample.scene_id,
        "future": trajectory_to_dict(sample.gt_future),
    }


def save_samples_jsonl(path, samples: Iterable[SampleRecord]) -> None:
    # every line is formatted before the path is opened: a sample that
    # fails leaves no file behind, and an existing one as it was
    write_in_place(path, "".join(json.dumps(_sample_to_dict(sample)) + "\n" for sample in samples))


def load_samples_jsonl(path) -> list[SampleRecord]:
    """The samples of a JSON-lines file, read by the log reader's
    ``_json_objects``: one object per non-blank line, holding only
    sample_id, scene_id and future.  Any fault is a ``LogCorruptionError``
    on its line."""
    samples = []
    for line_no, obj in _json_objects(path):
        try:
            _known_keys(obj, {"sample_id", "scene_id", "future"}, "sample")
            samples.append(SampleRecord(obj["sample_id"], obj["scene_id"], trajectory_from_dict(obj["future"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise LogCorruptionError(f"bad sample record: {exc}", line_number=line_no) from exc
    return samples


def save_manifest_json(path, samples: Sequence[SampleRecord]) -> None:
    write_in_place(path, json.dumps(scene_manifest(samples), indent=2) + "\n")
