"""Command-line front end: run, eval, curate, compare.

Configuration comes from a JSON file; individual flags override it.  All
validation happens before anything is written, so a bad invocation never
leaves partial outputs behind.

Exit codes: 0 success, 2 configuration problem, 3 I/O problem, 4 corrupt
input data (the message names the offending line).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .curation import (
    DEFAULT_TURN_EPSILON_M,
    curate,
    load_samples_jsonl,
    save_manifest_json,
    save_samples_jsonl,
)
from .errors import (
    AlignmentError,
    ConfigError,
    EmptyInputError,
    GeometryError,
    HorizonError,
    InvalidPoseError,
    LogCorruptionError,
    ShapeError,
)
from .matching import DistanceKind
from .metrics import L2Protocol, mean_reports
from .simulator import (
    MAX_SEED,
    RunSettings,
    ScenarioLog,
    ScenarioSpec,
    load_log,
    paired_reports,
    report_from_log,
    run_closed_loop,
    save_log,
)

LOG_LEVEL_ENV = "MOMAD_LOG_LEVEL"
_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

logger = logging.getLogger("momentum_planning")

_DATA_ERRORS = (
    AlignmentError,
    EmptyInputError,
    GeometryError,
    HorizonError,
    InvalidPoseError,
    ShapeError,
)


def _configure_logging() -> None:
    raw = os.environ.get(LOG_LEVEL_ENV, "warn")
    level = _LOG_LEVELS.get(raw.lower())
    if level is None:
        raise ConfigError(
            f"{LOG_LEVEL_ENV} must be one of {sorted(_LOG_LEVELS)}, got {raw!r}"
        )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(level)


# ---------------------------------------------------------------------------
# config plumbing


def _read_json(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return obj


def _load_run_config(path, args):
    """Config file plus flag overrides -> (scenario, settings, seeds)."""
    obj = _read_json(path)
    unknown = set(obj) - {"scenario", "settings", "seeds"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "scenario" not in obj:
        raise ConfigError("config needs a 'scenario' section")
    spec = ScenarioSpec.from_dict(obj["scenario"])
    settings_dict = obj.get("settings", {})
    if not isinstance(settings_dict, dict):
        raise ConfigError("'settings' must be a mapping")

    overrides = {key: value for key in ("protocol", "distance", "history_depth", "ns")
                 if (value := getattr(args, key)) is not None}
    settings = RunSettings.from_dict(dict(settings_dict) | overrides)

    seeds = [args.seed] if args.seed is not None else obj.get("seeds", [spec.seed])
    if (
        not isinstance(seeds, list)
        or not seeds
        or not all(isinstance(s, int) and not isinstance(s, bool) and 0 <= s <= MAX_SEED for s in seeds)
        # a repeated seed would run twice, rewrite its files and count double
        or len(set(seeds)) != len(seeds)
    ):
        raise ConfigError("seeds must be a non-empty list of distinct integers in [0, 2**64 - 1]")
    return spec, settings, list(seeds)


def _prepare_out_dir(out) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    logger.info("wrote %s", path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    spec, settings, seeds = _load_run_config(args.config, args)
    out = _prepare_out_dir(args.out)
    reports = []
    for seed in seeds:
        seeded_spec = dataclasses.replace(spec, seed=seed)
        log, report = run_closed_loop(seeded_spec, settings)
        save_log(log, out / f"run_seed{seed}.jsonl")
        _write_text(out / f"metrics_seed{seed}.csv", report.to_csv_text())
        reports.append(report)
        logger.info("seed %d done", seed)
    _write_text(out / "metrics_mean.csv", mean_reports(reports).to_csv_text())
    return 0


def cmd_eval(args) -> int:
    log = load_log(args.log)
    if args.protocol is not None:
        settings = dataclasses.replace(log.settings, protocol=L2Protocol(args.protocol))
        log = ScenarioLog(log.spec, settings, log.frames)
    report = report_from_log(log)
    text = report.to_csv_text()
    if args.out is None:
        sys.stdout.write(text)
    else:
        out = _prepare_out_dir(args.out)
        _write_text(out / f"{Path(args.log).stem}.metrics.csv", text)
    return 0


def cmd_curate(args) -> int:
    samples = load_samples_jsonl(args.samples)
    kept = curate(samples, args.epsilon)
    out = _prepare_out_dir(args.out)
    save_samples_jsonl(out / "curated.jsonl", kept)
    save_manifest_json(out / "scenes.json", kept)
    logger.info("kept %d of %d samples", len(kept), len(samples))
    return 0


def _row_key(metric: str, horizon) -> str:
    """A report row's metric and horizon cells, as ``to_csv_text`` writes them."""
    return f"{metric},{'' if horizon is None else repr(horizon)}"


def _summary_cells(reports) -> list[str]:
    """Each row of ``reports`` as ``mean,std`` cells: the mean is the row of
    ``mean_reports``, the fold ``run`` writes to metrics_mean.csv, and the
    std numpy's population std over the reports."""
    columns = zip(*([value for _, _, value in rep.rows()] for rep in reports))
    return [f"{mean!r},{float(np.std(column))!r}"
            for (_, _, mean), column in zip(mean_reports(reports).rows(), columns)]


def cmd_compare(args) -> int:
    spec, settings, seeds = _load_run_config(args.config, args)
    out = _prepare_out_dir(args.out)
    pairs = paired_reports(spec, settings, seeds)

    lines = ["seed,metric,horizon_s,momentum,oneshot"]
    for seed, rep_m, rep_o in pairs:
        for (metric, horizon, m), (_, _, o) in zip(rep_m.rows(), rep_o.rows()):
            lines.append(f"{seed},{_row_key(metric, horizon)},{m!r},{o!r}")
    _write_text(out / "compare.csv", "\n".join(lines) + "\n")

    _, reps_m, reps_o = zip(*pairs)
    summary = ["metric,horizon_s,momentum_mean,momentum_std,oneshot_mean,oneshot_std"]
    for (metric, horizon, _), m, o in zip(reps_m[0].rows(), _summary_cells(reps_m), _summary_cells(reps_o)):
        summary.append(f"{_row_key(metric, horizon)},{m},{o}")
    _write_text(out / "compare_summary.csv", "\n".join(summary) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentum-planning",
        description="Closed-loop planner runs, log replay, data curation and A/B comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p):
        p.add_argument("--seed", type=int, default=None, help="run a single seed")
        p.add_argument("--protocol", choices=[e.value for e in L2Protocol], default=None)
        p.add_argument("--distance", choices=[e.value for e in DistanceKind], default=None)
        p.add_argument("--history-depth", type=int, choices=[0, 1, 2], default=None)
        p.add_argument("--ns", type=float, default=None, help="query noise scale")

    run_p = sub.add_parser("run", help="closed-loop rollouts from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", required=True)
    add_overrides(run_p)
    run_p.set_defaults(func=cmd_run)

    eval_p = sub.add_parser("eval", help="recompute metrics from a saved log")
    eval_p.add_argument("--log", required=True)
    eval_p.add_argument("--out", default=None, help="directory (stdout when omitted)")
    eval_p.add_argument("--protocol", choices=[e.value for e in L2Protocol], default=None)
    eval_p.set_defaults(func=cmd_eval)

    curate_p = sub.add_parser("curate", help="keep scenes with turning samples")
    curate_p.add_argument("--samples", required=True)
    curate_p.add_argument("--out", required=True)
    curate_p.add_argument(
        "--epsilon", type=float, default=DEFAULT_TURN_EPSILON_M,
        help="x-drift threshold in meters",
    )
    curate_p.set_defaults(func=cmd_curate)

    compare_p = sub.add_parser("compare", help="paired momentum vs one-shot runs")
    compare_p.add_argument("--config", required=True)
    compare_p.add_argument("--out", required=True)
    add_overrides(compare_p)
    compare_p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # the levels and handlers _configure_logging sets are process-wide; an
    # in-process caller gets back the ones it had
    root = logging.getLogger()
    package_level, root_level, root_handlers = logger.level, root.level, list(root.handlers)
    try:
        _configure_logging()
        return args.func(args)
    except ConfigError as exc:
        logger.error("configuration error: %s", exc)
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LogCorruptionError as exc:
        print(f"corrupt input: {exc}", file=sys.stderr)
        return 4
    except _DATA_ERRORS as exc:
        print(f"bad input data: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    finally:
        logger.setLevel(package_level)
        root.setLevel(root_level)
        for handler in root.handlers[:]:
            if handler not in root_handlers:
                root.removeHandler(handler)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
