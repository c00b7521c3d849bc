"""The study script, run in-process: its CSV and printed means against the
package's paired study and fold, and its sign test against the binomial
tail written out."""

import importlib.util
import math
import re
from pathlib import Path

import pytest

from momentum_planning.metrics import mean_reports
from momentum_planning.simulator import RunSettings, ScenarioSpec, paired_reports

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"

_spec = importlib.util.spec_from_file_location("turning_suite", ROOT / "scripts" / "turning_suite.py")
turning_suite = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(turning_suite)

HORIZON = 3.0
MEANS = re.compile(r"^mean consistency error  momentum: (\S+)   one-shot: (\S+)$", re.M)
WINS = re.compile(r"^momentum wins (\d+)/(\d+)   sign test p = (\S+)$", re.M)


@pytest.mark.parametrize(
    "argv, levels, committed",
    [
        (["--seeds", "5"], [RunSettings.ns], "turning_suite_seeds5.csv"),
        (["--seeds", "2", "--ns", "0.0", "0.3"], [0.0, 0.3], "turning_suite_seeds2_ns0.0_0.3.csv"),
    ],
    ids=["default_level", "two_levels"],
)
def test_study_rows_and_means_are_the_paired_study(tmp_path, capsys, argv, levels, committed):
    out = tmp_path / "suite.csv"
    assert turning_suite.main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == (DATA / committed).read_text()
    printed = capsys.readouterr().out

    seeds = range(int(argv[1]))
    spec = ScenarioSpec("arc_turn", duration_s=4.0, speed_mps=5.0, radius_m=20.0, angle_rad=math.pi / 2.0)
    expected_rows, expected_means, expected_wins = [], [], []
    for ns in levels:
        pairs = paired_reports(spec, RunSettings(history_depth=1, ns=ns), seeds)
        expected_rows += [f"{ns!r},{s},{m.tpc[HORIZON]!r},{o.tpc[HORIZON]!r}" for s, m, o in pairs]
        _, reps_m, reps_o = zip(*pairs)
        expected_means.append(tuple(f"{mean_reports(reps).tpc[HORIZON]:.4f}" for reps in (reps_m, reps_o)))
        wins = sum(m.tpc[HORIZON] < o.tpc[HORIZON] for _, m, o in pairs)
        losses = sum(m.tpc[HORIZON] > o.tpc[HORIZON] for _, m, o in pairs)
        expected_wins.append((str(wins), str(wins + losses), f"{turning_suite.sign_test_p(wins, losses):.3g}"))

    assert out.read_text().splitlines() == ["ns,seed,tpc_momentum,tpc_oneshot"] + expected_rows
    assert MEANS.findall(printed) == expected_means
    assert WINS.findall(printed) == expected_wins
    assert re.findall(r"^ns: (\S+) ", printed, re.M) == [repr(ns) for ns in levels]


def test_sign_test_p_is_the_binomial_tail():
    assert turning_suite.sign_test_p(44, 6) == sum(math.comb(50, i) for i in range(44, 51)) / 2**50
    assert f"{turning_suite.sign_test_p(44, 6):.3g}" == "1.62e-08"
    assert turning_suite.sign_test_p(0, 0) == 1.0


@pytest.mark.parametrize("argv", [["--ns", "-1"], ["--ns", "1e7"], ["--seeds", "0"], ["--horizon", "2.5"],
                                  ["--duration", "-1"], ["--speed", "0"], ["--radius", "0.5"]])
def test_bad_study_flags_exit_2_writing_nothing(tmp_path, argv):
    out = tmp_path / "suite.csv"
    with pytest.raises(SystemExit) as exc:
        turning_suite.main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
