import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentum_planning.curation import (
    DEFAULT_TURN_EPSILON_M,
    SampleRecord,
    curate,
    is_turning,
    load_samples_jsonl,
    samples_from_log,
    save_manifest_json,
    save_samples_jsonl,
    scene_manifest,
    turning_scene_ids,
)
from momentum_planning.errors import ConfigError, HorizonError, LogCorruptionError
from momentum_planning.simulator import (
    SIM_DT,
    RunSettings,
    ScenarioSpec,
    gen_scenario,
    ground_truth_futures,
    run_closed_loop,
)
from momentum_planning.trajectory import Trajectory, transform_to_frame


def sample(sample_id, scene_id, x_drift, n=6):
    xs = np.linspace(0.0, x_drift, n)
    ys = np.linspace(0.0, 10.0, n)
    return SampleRecord(sample_id, scene_id, Trajectory(np.column_stack([xs, ys]), dt=0.5))


def test_threshold_is_inclusive():
    assert is_turning(sample("a", "s", 25.0))
    assert not is_turning(sample("b", "s", 24.999))
    assert is_turning(sample("c", "s", -25.0))


def test_drift_uses_first_and_sixth_waypoints_only():
    pts = np.zeros((8, 2))
    pts[:, 1] = np.arange(8.0)
    pts[5, 0] = 30.0
    pts[7, 0] = -100.0
    assert is_turning(SampleRecord("a", "s", Trajectory(pts, dt=0.5)))
    pts2 = pts.copy()
    pts2[5, 0] = 1.0
    assert not is_turning(SampleRecord("b", "s", Trajectory(pts2, dt=0.5)))


def test_short_future_rejected():
    with pytest.raises(HorizonError):
        is_turning(sample("a", "s", 30.0, n=5))


def test_bad_threshold_rejected():
    s = sample("a", "s", 30.0)
    for eps in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            is_turning(s, eps)


def test_empty_ids_rejected():
    with pytest.raises(ConfigError):
        sample("", "s", 1.0)
    with pytest.raises(ConfigError):
        sample("a", "", 1.0)


def test_curate_keeps_whole_scene_and_order():
    pool = [
        sample("a1", "A", 2.0),
        sample("b1", "B", 30.0),
        sample("a2", "A", 1.0),
        sample("b2", "B", 0.0),
        sample("c1", "C", 10.0),
    ]
    kept = curate(pool)
    assert [s.sample_id for s in kept] == ["b1", "b2"]


def test_curate_brute_force_oracle():
    rng = np.random.default_rng(42)
    pool = []
    for i in range(300):
        scene = f"scene{rng.integers(0, 40)}"
        drift = float(rng.uniform(0.0, 50.0))
        pool.append(sample(f"s{i}", scene, drift))
    for eps in (5.0, 15.0, 25.0, 40.0):
        turning_scenes = set()
        for s in pool:
            if abs(s.gt_future.points[5, 0] - s.gt_future.points[0, 0]) >= eps:
                turning_scenes.add(s.scene_id)
        expected = [s for s in pool if s.scene_id in turning_scenes]
        assert curate(pool, eps) == expected


def test_curate_idempotent():
    rng = np.random.default_rng(7)
    pool = [
        sample(f"s{i}", f"scene{rng.integers(0, 10)}", float(rng.uniform(0, 40)))
        for i in range(100)
    ]
    once = curate(pool)
    assert curate(once) == once


@settings(max_examples=50, deadline=None)
@given(
    drifts=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=40),
    scene_count=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_curate_monotone_in_threshold(drifts, scene_count, seed):
    rng = np.random.default_rng(seed)
    pool = [
        sample(f"s{i}", f"scene{rng.integers(0, scene_count)}", d)
        for i, d in enumerate(drifts)
    ]
    previous = None
    for eps in (5.0, 15.0, 25.0, 40.0):
        ids = {s.sample_id for s in curate(pool, eps)}
        if previous is not None:
            assert ids <= previous
        previous = ids


def test_default_threshold_value():
    assert DEFAULT_TURN_EPSILON_M == 25.0
    pool = [sample("a", "A", 25.0), sample("b", "B", 24.9)]
    assert [s.sample_id for s in curate(pool)] == ["a"]


def test_jsonl_round_trip(tmp_path):
    pool = [sample("a1", "A", 12.5), sample("b1", "B", 31.0, n=8)]
    path = tmp_path / "samples.jsonl"
    save_samples_jsonl(path, pool)
    loaded = load_samples_jsonl(path)
    assert [(s.sample_id, s.scene_id) for s in loaded] == [
        (s.sample_id, s.scene_id) for s in pool
    ]
    for a, b in zip(loaded, pool):
        np.testing.assert_array_equal(a.gt_future.points, b.gt_future.points)
        assert a.gt_future.dt == b.gt_future.dt


def test_samples_that_fail_midway_leave_an_existing_file_as_it_was(tmp_path):
    # every line is formatted before the path is opened, so an iterable that
    # raises after its first sample neither truncates nor half-writes the file
    path = tmp_path / "samples.jsonl"
    save_samples_jsonl(path, [sample("a1", "A", 12.5), sample("b1", "B", 31.0, n=8)])
    before = path.read_bytes()

    def failing():
        yield sample("c1", "C", 1.0)
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        save_samples_jsonl(path, failing())
    assert path.read_bytes() == before
    with pytest.raises(RuntimeError):
        save_samples_jsonl(tmp_path / "new.jsonl", failing())
    assert not (tmp_path / "new.jsonl").exists()


def test_jsonl_corruption_reports_line(tmp_path):
    pool = [sample("a1", "A", 12.5), sample("b1", "B", 31.0)]
    path = tmp_path / "samples.jsonl"
    save_samples_jsonl(path, pool)
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:10]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogCorruptionError) as err:
        load_samples_jsonl(path)
    assert err.value.line_number == 2


def test_scene_manifest_orders_by_first_appearance(tmp_path):
    pool = [
        sample("x1", "X", 1.0),
        sample("y1", "Y", 2.0),
        sample("x2", "X", 3.0),
    ]
    manifest = scene_manifest(pool)
    assert manifest == {"scenes": ["X", "Y"], "sample_counts": {"X": 2, "Y": 1}}
    out = tmp_path / "manifest.json"
    save_manifest_json(out, pool)
    import json

    assert json.loads(out.read_text()) == manifest


# ---------------------------------------------------------------------------
# samples from simulator logs, whose ego frame points x forward

ONESHOT = RunSettings(planner="oneshot", history_depth=0)


def test_log_samples_are_each_frames_future_turned_to_y_forward():
    spec = ScenarioSpec("s_curve", 4.0, 8.0, radius_m=25.0, seed=3)
    log, _ = run_closed_loop(spec, ONESHOT)
    samples = samples_from_log(log, "scene7")
    assert [s.sample_id for s in samples] == [f"scene7/{j}" for j in range(len(log.frames))]
    assert {s.scene_id for s in samples} == {"scene7"}
    path, _ = gen_scenario(spec, extra_steps=ONESHOT.horizon_steps)
    world = np.vstack([[0.0, 0.0], path.points])
    for j, (s, frame) in enumerate(zip(samples, log.frames)):
        future = transform_to_frame(Trajectory(world[j + 1 : j + 1 + ONESHOT.horizon_steps], dt=SIM_DT),
                                    frame.ego_pose).points
        # forward becomes +y and left becomes -x
        np.testing.assert_allclose(s.gt_future.points, np.column_stack([-future[:, 1], future[:, 0]]),
                                   rtol=0.0, atol=1e-12)
        assert s.gt_future.dt == SIM_DT


def test_straight_road_log_has_no_turning_sample():
    log, _ = run_closed_loop(ScenarioSpec("straight", 4.0, 12.0, seed=0), ONESHOT)
    samples = samples_from_log(log, "straight")
    assert len(samples) == 8
    assert sum(map(is_turning, samples)) == 0
    # the x-forward futures drift 30 m along x over six waypoints, which the
    # turning test would flag in every frame
    assert all(abs(f[5, 0] - f[0, 0]) >= DEFAULT_TURN_EPSILON_M for f in ground_truth_futures(log))


def test_sharp_turn_log_is_flagged():
    # a 20 m quarter turn at 20 m/s: the first frames' futures swing more
    # than 25 m sideways before the road runs straight again
    spec = ScenarioSpec("arc_turn", 4.0, 20.0, radius_m=20.0, angle_rad=math.pi / 2.0, seed=0)
    log, _ = run_closed_loop(spec, ONESHOT)
    flags = [is_turning(s) for s in samples_from_log(log, "turn")]
    assert flags[0] and not flags[-1]
    assert turning_scene_ids(samples_from_log(log, "turn")) == {"turn"}
