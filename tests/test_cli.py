import json
import logging
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from momentum_planning.cli import main
from momentum_planning.curation import SampleRecord, save_samples_jsonl
from momentum_planning.metrics import MAX_OBSTACLE_COORD_M
from momentum_planning.simulator import (
    MAX_D_Q,
    MAX_DURATION_S,
    MAX_HORIZON_STEPS,
    MAX_K,
    MAX_NOISE,
    MAX_SEED,
    MAX_SPEED_MPS,
    MIN_RADIUS_M,
    PLANNER_KINDS,
    SCENARIO_KINDS,
    RunSettings,
    ScenarioSpec,
    load_log,
    paired_reports,
    run_closed_loop,
    save_log,
)
from momentum_planning.trajectory import Trajectory

DATA = Path(__file__).parent / "data"


def write_config(path, **extra):
    cfg = {
        "scenario": {"kind": "arc_turn", "duration_s": 2.0, "speed_mps": 5.0,
                     "radius_m": 20.0, "seed": 0},
        "settings": {"planner": "momentum", "history_depth": 1, "horizon_steps": 6},
    }
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return path


def test_run_writes_logs_and_metrics(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", seeds=[0, 1])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for seed in (0, 1):
        assert (out / f"run_seed{seed}.jsonl").exists()
        assert (out / f"metrics_seed{seed}.csv").exists()
    mean_csv = (out / "metrics_mean.csv").read_text()
    assert mean_csv.startswith("metric,horizon_s,value\n")


def test_run_seed_flag_overrides_config_seeds(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", seeds=[0, 1, 2])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
    assert sorted(p.name for p in out.glob("run_seed*.jsonl")) == ["run_seed7.jsonl"]


def test_run_flag_overrides_reach_settings(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    code = main([
        "run", "--config", str(cfg), "--out", str(out),
        "--history-depth", "0", "--distance", "euclidean",
        "--protocol", "uniad", "--ns", "0.0",
    ])
    assert code == 0
    log = load_log(out / "run_seed0.jsonl")
    assert log.settings.history_depth == 0
    assert log.settings.distance.value == "euclidean"
    assert log.settings.protocol.value == "uniad"
    assert log.settings.ns == 0.0


def test_malformed_config_exits_2_without_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{ not json")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


BAD_BOX = {"center": [5.0, 0.0], "heading": 0.0, "length": -1, "width": 2.0}
OK_BOX = {"center": [30.0, 9.0], "heading": 0.0, "length": 4.0, "width": 2.0}
FAST_BOX = {"center": [5.0, 0.0], "heading": 0.0, "length": 4.0, "width": 2.0,
            "velocity": [1e308, 0.0]}


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("settings", "history_depth", 5),
        ("scenario", "obstacles", [BAD_BOX]),
        ("scenario", "radius_m", math.inf),
        ("scenario", "duration_s", 0.2),
        ("settings", "weight_seed", -1),
        ("settings", "k", 2.5),
        ("scenario", "speed_mps", 1e200),
        ("scenario", "seed", -1),
        ("scenario", "obstacles", [FAST_BOX]),
        ("settings", "horizons_s", [1e308]),
        ("scenario", None, {"kind": "s_curve", "radius_m": 1e-320}),
        ("settings", "k", MAX_K + 1),
        ("settings", "horizon_steps", MAX_HORIZON_STEPS + 1),
        ("settings", "d_q", MAX_D_Q + 1),
        ("settings", "k", 1e12),
        ("scenario", "obstacles", [{**OK_BOX, "vel": [3.0, 0.0]}]),
        ("scenario", "obstacles", [{**OK_BOX, "center": [0.0, 0.0, 5.0]}]),
        ("scenario", "obstacles", [{**OK_BOX, "velocity": [3.0, 0.0, 1.0]}]),
        ("scenario", "obstacles", [{**OK_BOX, "center": "12"}]),
        ("scenario", "seed", 1e308),
        ("settings", "weight_seed", MAX_SEED + 1),
        ("scenario", "duration_s", 10**400),
        ("scenario", "obstacles", [{**OK_BOX, "heading": -(10**400)}]),
        ("settings", "mode_noise_m", 1e155),
        ("settings", "jitter_m", 1e155),
        ("settings", "jitter_m", 1e308),
        ("settings", "ns", 1e308),
        ("settings", "ns", MAX_NOISE * (1 + 2**-52)),
        ("scenario", "duration_s", True),
        ("settings", "ns", "0.5"),
        ("scenario", "speed_mps", "5"),
        ("settings", "horizons_s", [1.0, "2.0"]),
        ("settings", "horizons_s", [True]),
        ("scenario", "obstacles", [{**OK_BOX, "velocity": [True, 0.0]}]),
        ("scenario", "obstacles", [{**OK_BOX, "center": ["30", 9.0]}]),
        ("scenario", "obstacles", [{**OK_BOX, "heading": False}]),
        ("scenario", "obstacles", [{**OK_BOX, "length": "4"}]),
        ("scenario", "obstacles", [{**OK_BOX, "center": [1.7e308, 1.7e308]}]),
        ("scenario", "obstacles", [{**OK_BOX, "center": [0.0, -math.nextafter(MAX_OBSTACLE_COORD_M, math.inf)]}]),
    ],
    ids=["history_depth", "obstacle_length", "radius_inf", "short_duration",
         "negative_weight_seed", "fractional_k", "speed_over_bound", "negative_seed",
         "obstacle_speed_over_bound", "horizon_overflows", "radius_subnormal",
         "k_over_bound", "horizon_steps_over_bound", "d_q_over_bound", "huge_k",
         "obstacle_unknown_key", "obstacle_center_of_three", "obstacle_velocity_of_three",
         "obstacle_center_string", "seed_1e308", "weight_seed_over_bound", "huge_int_duration",
         "huge_int_heading", "mode_noise_1e155", "jitter_1e155", "jitter_1e308", "ns_1e308",
         "ns_over_bound", "duration_bool", "ns_string", "speed_string", "horizon_string",
         "horizon_bool", "obstacle_velocity_bool", "obstacle_center_string_entry",
         "obstacle_heading_bool", "obstacle_length_string", "obstacle_center_1.7e308",
         "obstacle_center_over_bound"],
)
def test_bad_config_values_exit_2_without_outputs(tmp_path, section, key, value):
    cfg = write_config(tmp_path / "cfg.json")
    obj = json.loads(cfg.read_text())
    obj[section].update(value if key is None else {key: value})
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("seeds, flag", [([2, -1], []), ([0], ["--seed", "-3"])])
def test_negative_run_seed_exits_2_without_outputs(tmp_path, seeds, flag):
    cfg = write_config(tmp_path / "cfg.json", seeds=seeds)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), *flag]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "seeds, flag",
    [([0, 10**309], []), ([0, MAX_SEED + 1], []), ([0], ["--seed", str(MAX_SEED + 1)]), (None, [])],
    ids=["seeds_huge", "seeds_over_bound", "seed_flag_over_bound", "scenario_seed_1e308"],
)
def test_huge_seeds_exit_2_with_the_out_dir_empty(tmp_path, seeds, flag):
    # the bound is checked for every seed before the first one runs
    cfg = write_config(tmp_path / "cfg.json", **({} if seeds is None else {"seeds": seeds}))
    if seeds is None:
        obj = json.loads(cfg.read_text())
        obj["scenario"]["seed"] = 1e308
        cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", str(cfg), "--out", str(out), *flag]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("seeds", [[0, 0, 1], [1, 0, 1]])
def test_repeated_seeds_exit_2_without_outputs(tmp_path, command, seeds):
    # a repeated seed would run twice and count double in the means
    cfg = write_config(tmp_path / "cfg.json", seeds=seeds)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_seed_and_noise_bounds_are_inclusive(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    obj = json.loads(cfg.read_text())
    obj["settings"].update(mode_noise_m=MAX_NOISE, jitter_m=MAX_NOISE, ns=MAX_NOISE, weight_seed=MAX_SEED)
    obj["scenario"]["obstacles"] = [OK_BOX]
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", str(MAX_SEED)]) == 0
    log = load_log(out / f"run_seed{MAX_SEED}.jsonl")
    assert (log.spec.seed, log.settings.weight_seed, log.settings.ns) == (MAX_SEED, MAX_SEED, MAX_NOISE)


def test_obstacle_center_bound_is_inclusive(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    obj = json.loads(cfg.read_text())
    obj["scenario"]["obstacles"] = [{**OK_BOX, "center": [MAX_OBSTACLE_COORD_M, -MAX_OBSTACLE_COORD_M],
                                     "velocity": [MAX_SPEED_MPS, 0.0]}]
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert load_log(out / "run_seed0.jsonl").spec.obstacles[0].box.center[0] == MAX_OBSTACLE_COORD_M


# ---------------------------------------------------------------------------
# every config dict either runs or exits 2 having written nothing

# values of the wrong type or far out of range, for any key
WRONG = st.sampled_from(
    [True, False, "x", "2.0", [], [1.0], None, 0.0, -0.0, 1e308, -1e308, 10**400, -(10**400), 2**64]
)
_UP = math.inf


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# key -> (valid values, values at or just past a bound); valid values keep
# scenes short so that an example runs in milliseconds
OBSTACLE_KEYS = {
    "center": (st.lists(_floats(-30.0, 30.0), min_size=2, max_size=2),
               [[1e308, -1e308], [0.0, 0.0], [1.0, 2.0, 3.0], [1.0], "12",
                [MAX_OBSTACLE_COORD_M, -MAX_OBSTACLE_COORD_M],
                [0.0, math.nextafter(MAX_OBSTACLE_COORD_M, _UP)]]),
    "heading": (_floats(-4.0, 4.0), [math.pi, 1e308]),
    "length": (_floats(0.5, 6.0), [5e-324, 1e308]),
    "width": (_floats(0.5, 3.0), [5e-324, 1e308]),
    "velocity": (st.lists(_floats(-5.0, 5.0), min_size=2, max_size=2),
                 [[MAX_SPEED_MPS, 0.0], [0.0, math.nextafter(-MAX_SPEED_MPS, -_UP)], [1.0, 2.0, 3.0]]),
}
SCENARIO_KEYS = {
    "kind": (st.sampled_from(SCENARIO_KINDS), ["turn"]),
    "duration_s": (st.sampled_from([0.5, 1.0, 2.0, 3.0]), [0.25, 0.75, math.nextafter(MAX_DURATION_S, _UP)]),
    "speed_mps": (_floats(0.5, 10.0), [MAX_SPEED_MPS, math.nextafter(MAX_SPEED_MPS, _UP), 5e-324]),
    "radius_m": (_floats(5.0, 40.0), [MIN_RADIUS_M, math.nextafter(MIN_RADIUS_M, 0.0), 1e308]),
    "angle_rad": (_floats(0.1, 3.0), [5e-324, 1e308, -1.0]),
    "seed": (st.integers(0, 100), [MAX_SEED, MAX_SEED + 1, -1, 7.0]),
}
SETTINGS_KEYS = {
    "planner": (st.sampled_from(PLANNER_KINDS), ["greedy"]),
    "history_depth": (st.integers(0, 2), [3, -1, 2.0]),
    "distance": (st.sampled_from(["hausdorff", "euclidean"]), ["manhattan"]),
    "k": (st.integers(1, 6), [MAX_K, MAX_K + 1, 0]),
    "horizon_steps": (st.integers(2, 8), [MAX_HORIZON_STEPS, MAX_HORIZON_STEPS + 1, 1]),
    "d_q": (st.integers(1, 16), [MAX_D_Q, MAX_D_Q + 1, 0]),
    **{
        name: (_floats(0.0, 2.0), [MAX_NOISE, math.nextafter(MAX_NOISE, _UP), 1e155, -1e-300])
        for name in ("mode_noise_m", "jitter_m", "ns")
    },
    "weight_seed": (st.integers(0, 5), [MAX_SEED, MAX_SEED + 1, -1]),
    "occlusion_start": (st.one_of(st.none(), st.integers(0, 4)), [10**30, -1]),
    "occlusion_len": (st.integers(0, 4), [10**30, -1]),
    "ego_length_m": (_floats(1.0, 6.0), [5e-324, 1e308]),
    "ego_width_m": (_floats(1.0, 3.0), [5e-324, 1e308]),
    "protocol": (st.sampled_from(["vad", "uniad"]), ["mean"]),
    "horizons_s": (st.sampled_from([[0.5], [1.0], [0.5, 1.0]]), [[1.0, 1e308], [], [0.75], [10.0], "12"]),
}
SEEDS = (st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
         [[MAX_SEED], [MAX_SEED + 1], [10**309], [-1], [], [1.5], [True], 0, [0, 0]])


@st.composite
def run_configs(draw):
    """A config of valid values, then one to three keys redrawn from their
    bound values or from WRONG, deleted, or added under an unknown name."""
    valid = {name: strategies[0] for name, strategies in OBSTACLE_KEYS.items()}
    obstacles = draw(st.lists(st.fixed_dictionaries({}, optional=valid), max_size=2))
    for box in obstacles:
        box.setdefault("center", [20.0, 8.0])
        for name, value in (("heading", 0.0), ("length", 4.0), ("width", 2.0)):
            box.setdefault(name, value)
    scenario = draw(st.fixed_dictionaries({name: s[0] for name, s in SCENARIO_KEYS.items()}))
    scenario["obstacles"] = obstacles
    cfg = {
        "scenario": scenario,
        "settings": draw(st.fixed_dictionaries({}, optional={name: s[0] for name, s in SETTINGS_KEYS.items()})),
    }
    if draw(st.booleans()):
        cfg["seeds"] = draw(SEEDS[0])
    keys = (
        [("scenario", name, spec) for name, spec in SCENARIO_KEYS.items()]
        + [("settings", name, spec) for name, spec in SETTINGS_KEYS.items()]
        + [("obstacle", name, spec) for name, spec in OBSTACLE_KEYS.items()]
        + [("config", "seeds", SEEDS), ("scenario", "obstacles", (None, [[], "ab", [None]]))]
    )
    for _ in range(draw(st.integers(1, 3))):
        section, name, (_, bounds) = draw(st.sampled_from(keys))
        if section == "obstacle":
            if not obstacles:
                obstacles.append({"center": [20.0, 8.0], "heading": 0.0, "length": 4.0, "width": 2.0})
            target = obstacles[0]
        else:
            target = cfg if section == "config" else cfg[section]
        action = draw(st.sampled_from(["bound", "bound", "wrong", "wrong", "wrong", "delete", "unknown"]))
        if action == "delete":
            target.pop(name, None)
        elif action == "unknown":
            target[name + "_x"] = 1.0
        else:
            target[name] = draw(st.sampled_from(bounds) if action == "bound" else WRONG)
    return cfg


@settings(max_examples=300, deadline=None)
@given(run_configs())
def test_every_run_config_runs_or_exits_2_writing_nothing(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        out.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["run", "--config", str(path), "--out", str(out)])
        written = sorted(p.name for p in out.iterdir())
    event(f"exit {code}")
    assert code in (0, 2)
    if code == 2:
        assert written == []
    else:
        seeds = cfg.get("seeds", [int(cfg["scenario"].get("seed", 0))])
        assert written == sorted(
            ["metrics_mean.csv"] + [f"{stem}{s}.{ext}" for s in seeds
                                    for stem, ext in (("run_seed", "jsonl"), ("metrics_seed", "csv"))]
        )


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", extras={"x": 1})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_missing_config_file_exits_3(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 3


def test_bad_flag_exits_2(tmp_path):
    assert main(["run", "--config", "x", "--out", "y", "--history-depth", "9"]) == 2


def test_eval_reproduces_run_csv_bytes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", seeds=[3])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    eval_out = tmp_path / "eval"
    assert main(["eval", "--log", str(out / "run_seed3.jsonl"),
                 "--out", str(eval_out)]) == 0
    run_csv = (out / "metrics_seed3.csv").read_bytes()
    eval_csv = (eval_out / "run_seed3.metrics.csv").read_bytes()
    assert run_csv == eval_csv


def test_eval_protocol_flag_changes_l2(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["eval", "--log", str(out / "run_seed0.jsonl"), "--out", str(a)]) == 0
    assert main(["eval", "--log", str(out / "run_seed0.jsonl"), "--out", str(a / "again")]) == 0
    assert main(["eval", "--log", str(out / "run_seed0.jsonl"), "--out", str(b),
                 "--protocol", "uniad"]) == 0
    vad = (a / "run_seed0.metrics.csv").read_text()
    uniad = (b / "run_seed0.metrics.csv").read_text()
    assert vad != uniad
    assert vad.splitlines()[0] == uniad.splitlines()[0]


def test_eval_stdout_when_no_out(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["eval", "--log", str(out / "run_seed0.jsonl")]) == 0
    captured = capsys.readouterr()
    assert captured.out == (out / "metrics_seed0.csv").read_text()


def test_eval_corrupt_log_exits_4_with_line(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    log_path = out / "run_seed0.jsonl"
    lines = log_path.read_text().splitlines()
    lines[2] = "{ broken"
    log_path.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--log", str(log_path)]) == 4
    assert "line 3" in capsys.readouterr().err


def test_eval_log_longer_than_its_path_exits_4_writing_nothing(tmp_path, capsys):
    # every frame record is well formed, but two frames run past the
    # scenario's path: bad data, not a corrupt file
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    log_path = tmp_path / "out" / "run_seed0.jsonl"
    lines = log_path.read_text().splitlines()
    for _ in range(2):
        frame = json.loads(lines[-1])
        frame["time_s"] += 0.5
        lines.append(json.dumps(frame))
    log_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "replay"
    assert main(["eval", "--log", str(log_path), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "bad input data: log has 6 frames, the scenario's path covers 5\n"
    assert not out.exists()


def test_eval_log_with_ragged_proposals_exits_4(tmp_path, capsys):
    # only a v1 log, which lists each candidate on its own, can be ragged
    log_path = tmp_path / "run_seed0.jsonl"
    lines = (DATA / "v1_arc_momentum_depth2.jsonl").read_text().splitlines()
    rec = json.loads(lines[2])
    rec["proposals"]["trajectories"][0]["points"].pop()
    lines[2] = json.dumps(rec)
    log_path.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--log", str(log_path)]) == 4
    assert "line 3" in capsys.readouterr().err


V1_FIXTURES = ["v1_arc_momentum_depth2", "v1_obstacles_oneshot"]


@pytest.mark.parametrize("name", V1_FIXTURES)
def test_eval_v1_log_reproduces_its_csv_bytes(tmp_path, name):
    # each fixture log and CSV were written by format-v1 code: an arc-turn
    # momentum run at depth 2, and a one-shot run past a parked and a moving box
    assert main(["eval", "--log", str(DATA / f"{name}.jsonl"), "--out", str(tmp_path)]) == 0
    expected = (DATA / f"{name}.metrics.csv").read_bytes()
    assert (tmp_path / f"{name}.metrics.csv").read_bytes() == expected


def _other_proposal(rec):
    k = len(rec["proposals"]["trajectories"])
    rec["chosen_trajectory"] = rec["proposals"]["trajectories"][(rec["chosen_index"] + 1) % k]


def _one_ulp_off(rec):
    x, y = rec["chosen_trajectory"]["points"][-1]
    rec["chosen_trajectory"]["points"][-1] = [x, float(np.nextafter(y, math.inf))]


def _set(**kv):
    return lambda rec: rec.update(kv)


FRAME_EDITS = [
    *(pytest.param(v, _set(chosen_index=i), id=f"v{v}-index-{i!r}")
      for v in (1, 2) for i in (99, 6, -1, 2.7, 3.0, True, "3", None)),
    *(pytest.param(v, _set(time_s=t), id=f"v{v}-time-{t}")
      for v in (1, 2) for t in (math.nan, math.inf, "0.5")),
    pytest.param(1, _other_proposal, id="v1-chosen-is-another-proposal"),
    pytest.param(1, _one_ulp_off, id="v1-chosen-one-ulp-off"),
]


@pytest.mark.parametrize("version,edit", FRAME_EDITS)
def test_eval_rejects_bad_chosen_plan_or_time(tmp_path, capsys, version, edit):
    log_path = tmp_path / "run.jsonl"
    fixture = DATA / "v1_arc_momentum_depth2.jsonl"
    if version == 1:
        log_path.write_text(fixture.read_text())
    else:
        save_log(load_log(fixture), log_path)
    lines = log_path.read_text().splitlines()
    rec = json.loads(lines[3])
    edit(rec)
    lines[3] = json.dumps(rec)
    log_path.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--log", str(log_path)]) == 4
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, line", [("k", 5, 2), ("horizons_s", [1e308], 1)],
                         ids=["k_disagrees_with_frames", "horizon_overflows"])
def test_eval_v1_header_that_does_not_fit_exits_4_with_line(tmp_path, capsys, key, value, line):
    log_path = tmp_path / "run.jsonl"
    lines = (DATA / "v1_arc_momentum_depth2.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["settings"][key] = value
    lines[0] = json.dumps(header)
    log_path.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--log", str(log_path)]) == 4
    assert f"line {line}:" in capsys.readouterr().err


def _misspell_refined(rec):
    rec["refined_score"] = rec.pop("refined_scores")


@pytest.mark.parametrize("line, edit, key", [(3, _misspell_refined, "refined_score"),
                                             (1, lambda rec: rec.update(note="x"), "note")],
                         ids=["frame_misspelt_refined_scores", "header_extra_key"])
def test_eval_log_with_a_key_outside_the_format_exits_4_with_line(tmp_path, capsys, line, edit, key):
    # the format-2 fixture's frame 1 (line 3) was refined by the momentum planner
    log_path = tmp_path / "run.jsonl"
    lines = (DATA / "v2_scurve_momentum_depth2_obstacles.jsonl").read_text().splitlines()
    rec = json.loads(lines[line - 1])
    edit(rec)
    lines[line - 1] = json.dumps(rec)
    log_path.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--log", str(log_path)]) == 4
    err = capsys.readouterr().err
    assert f"line {line}:" in err and repr(key) in err


def test_eval_log_missing_a_middle_frame_exits_4_with_line(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", scenario={
        "kind": "arc_turn", "duration_s": 4.0, "speed_mps": 5.0, "radius_m": 20.0, "seed": 0})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    log_path = out / "run_seed0.jsonl"
    lines = log_path.read_text().splitlines()
    del lines[4]  # frame 3
    log_path.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--log", str(log_path)]) == 4
    assert "line 5:" in capsys.readouterr().err


def test_eval_missing_log_exits_3(tmp_path):
    assert main(["eval", "--log", str(tmp_path / "absent.jsonl")]) == 3


def make_samples(tmp_path):
    def rec(sid, scene, drift):
        xs = np.linspace(0.0, drift, 6)
        pts = np.column_stack([xs, np.linspace(0, 10, 6)])
        return SampleRecord(sid, scene, Trajectory(pts, dt=0.5))

    path = tmp_path / "samples.jsonl"
    save_samples_jsonl(path, [rec("a1", "A", 30.0), rec("a2", "A", 0.0),
                              rec("b1", "B", 5.0)])
    return path


def test_curate_writes_filtered_pool_and_manifest(tmp_path):
    samples = make_samples(tmp_path)
    out = tmp_path / "cur"
    assert main(["curate", "--samples", str(samples), "--out", str(out)]) == 0
    kept = (out / "curated.jsonl").read_text().splitlines()
    assert len(kept) == 2
    manifest = json.loads((out / "scenes.json").read_text())
    assert manifest["scenes"] == ["A"]


def test_curate_epsilon_flag(tmp_path):
    samples = make_samples(tmp_path)
    out = tmp_path / "cur"
    assert main(["curate", "--samples", str(samples), "--out", str(out),
                 "--epsilon", "4.0"]) == 0
    manifest = json.loads((out / "scenes.json").read_text())
    assert manifest["scenes"] == ["A", "B"]


def test_curate_bad_epsilon_exits_2(tmp_path):
    samples = make_samples(tmp_path)
    assert main(["curate", "--samples", str(samples),
                 "--out", str(tmp_path / "cur"), "--epsilon", "-1"]) == 2


def test_curate_corrupt_samples_exit_4(tmp_path, capsys):
    samples = make_samples(tmp_path)
    lines = samples.read_text().splitlines()
    lines[0] = "oops"
    samples.write_text("\n".join(lines) + "\n")
    assert main(["curate", "--samples", str(samples),
                 "--out", str(tmp_path / "cur")]) == 4
    assert "line 1" in capsys.readouterr().err


def test_compare_outputs_paired_rows(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", seeds=[0, 1, 2])
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "seed,metric,horizon_s,momentum,oneshot"
    # 3 seeds x (3 metrics x 3 horizons + 2 scalars)
    assert len(lines) == 1 + 3 * 11
    summary = (out / "compare_summary.csv").read_text().splitlines()
    assert summary[0] == "metric,horizon_s,momentum_mean,momentum_std,oneshot_mean,oneshot_std"
    assert len(summary) == 1 + 11


def test_compare_oneshot_column_matches_oneshot_run(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", seeds=[4])
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    spec = ScenarioSpec("arc_turn", 2.0, 5.0, radius_m=20.0, seed=4)
    _, rep = run_closed_loop(spec, RunSettings(planner="oneshot", history_depth=0))
    expected = {(m, h): v for m, h, v in rep.rows()}
    for line in (out / "compare.csv").read_text().splitlines()[1:]:
        seed, metric, h, _m, o = line.split(",")
        key = (metric, float(h) if h else None)
        assert float(o) == expected[key]


@pytest.mark.parametrize("planner,depth", [("momentum", 1), ("momentum", 2), ("oneshot", 2)])
def test_compare_rows_are_the_paired_reports(tmp_path, planner, depth):
    # a config that names the one-shot planner still compares momentum,
    # at the config's depth, against the depth-0 one-shot baseline
    cfg = write_config(tmp_path / "cfg.json", seeds=[3, 1])
    obj = json.loads(cfg.read_text())
    obj["settings"] |= {"planner": planner, "history_depth": depth}
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    spec = ScenarioSpec.from_dict(obj["scenario"])
    momentum = RunSettings.from_dict(obj["settings"] | {"planner": "momentum"})
    lines = ["seed,metric,horizon_s,momentum,oneshot"]
    for seed, rep_m, rep_o in paired_reports(spec, RunSettings.from_dict(obj["settings"]), [3, 1]):
        _, rep = run_closed_loop(ScenarioSpec.from_dict(obj["scenario"] | {"seed": seed}), momentum)
        assert rep_m.to_csv_text() == rep.to_csv_text()
        for (metric, h, m), (_, _, o) in zip(rep_m.rows(), rep_o.rows()):
            lines.append(f"{seed},{metric},{'' if h is None else repr(h)},{m!r},{o!r}")
    assert (out / "compare.csv").read_text() == "\n".join(lines) + "\n"


README_CONFIG = {
    "scenario": {"kind": "arc_turn", "duration_s": 4.0, "speed_mps": 5.0,
                 "radius_m": 20.0, "angle_rad": 1.5707963, "seed": 0},
    "settings": {"planner": "momentum", "history_depth": 1, "distance": "hausdorff", "ns": 0.1},
    "seeds": [0, 1, 2],
}


def test_compare_summary_means_are_the_run_means(tmp_path):
    # both mean columns of compare_summary.csv are, bit for bit, what run
    # writes to metrics_mean.csv for that planner on the README config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(README_CONFIG))
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp")]) == 0
    summary = [line.split(",") for line in (tmp_path / "cmp" / "compare_summary.csv").read_text().splitlines()]
    assert summary[0] == ["metric", "horizon_s", "momentum_mean", "momentum_std", "oneshot_mean", "oneshot_std"]
    oneshot = tmp_path / "oneshot.json"
    oneshot.write_text(json.dumps(README_CONFIG | {"settings": {"planner": "oneshot", "history_depth": 0,
                                                                "distance": "hausdorff", "ns": 0.1}}))
    for path, column in ((cfg, 2), (oneshot, 4)):
        assert main(["run", "--config", str(path), "--out", str(tmp_path / path.stem)]) == 0
        means = (tmp_path / path.stem / "metrics_mean.csv").read_text().splitlines()
        assert [",".join(row[:2] + [row[column]]) for row in summary[1:]] == means[1:]


def test_bad_log_level_env_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv("MOMAD_LOG_LEVEL", "loud")
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_log_level_env_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("MOMAD_LOG_LEVEL", "debug")
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_main_restores_the_logging_state_it_found(tmp_path, monkeypatch):
    # the package logger, and a root logger with no handler yet, as a
    # script that imports the package and calls main() has them
    package, root = logging.getLogger("momentum_planning"), logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    before = package.isEnabledFor(logging.DEBUG), package.level, root.level
    monkeypatch.setenv("MOMAD_LOG_LEVEL", "debug")
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (package.isEnabledFor(logging.DEBUG), package.level, root.level) == before
    assert root.handlers == []
    monkeypatch.setenv("MOMAD_LOG_LEVEL", "loud")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert (package.isEnabledFor(logging.DEBUG), package.level, root.level) == before
