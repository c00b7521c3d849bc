import json
import math
from pathlib import Path

import numpy as np
import pytest

from momentum_planning.cli import main
from momentum_planning.curation import SampleRecord, save_samples_jsonl
from momentum_planning.simulator import (
    MAX_D_Q,
    MAX_HORIZON_STEPS,
    MAX_K,
    RunSettings,
    ScenarioSpec,
    load_log,
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
    ],
    ids=["history_depth", "obstacle_length", "radius_inf", "short_duration",
         "negative_weight_seed", "fractional_k", "speed_over_bound", "negative_seed",
         "obstacle_speed_over_bound", "horizon_overflows", "radius_subnormal",
         "k_over_bound", "horizon_steps_over_bound", "d_q_over_bound", "huge_k"],
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


def test_bad_log_level_env_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv("MOMAD_LOG_LEVEL", "loud")
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_log_level_env_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("MOMAD_LOG_LEVEL", "debug")
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
