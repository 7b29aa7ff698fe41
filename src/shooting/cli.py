"""Command-line front end: benchmark, nu sweep, and PCA trajectory dumps.

Exit codes: 0 success, 2 configuration problem, 3 data problem,
4 numerical failure. All emitters write CSV atomically; plotting is left
to downstream tooling.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .baselines import GBMConfig, RFConfig, fit_gbm, fit_rf, predict_gbm, predict_rf
from .data import (
    Dataset,
    DegenerateTestError,
    ParseError,
    load_auto_mpg,
    make_synthetic,
    mse,
    paired_t_test,
    r_squared,
    split,
)
from .ensemble import (
    SRConfig,
    fit_at_nu,
    fit_shooting,
    initial_vectors,
    oracle_predict,
    predict,
    predict_per_estimator,
    project_trajectories,
    shooting_start,
    tune_nu,
)
from .nuopt import DEFAULT_NU_HI, DEFAULT_NU_LO, DegenerateCorrelationError, objective
from .persist import write_text_atomic
from .rng import TRIAL_STREAM, derive_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

MODEL_ORDER = ["SR", "GBM", "RF"]
HIST_BINS = 10


class CLIError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(value: float) -> str:
    return repr(float(value))


# kind -> (parse a flag's text, config value types, what a value must be)
_KINDS = {
    "int": (int, (int,), "an integer"),
    "float": (float, (int, float), "a number"),
    "str": (str, (str,), "a string"),
    "bool": (None, (bool,), "true or false"),
}

# key -> (kind, default, bound, help). Each key is both a --flag and a
# config-file key. The default is always accepted, so a word default such
# as "auto" is a keyword of a numeric option. The bound, an interval,
# applies to numbers from either source.
_COMMON = {
    "data": ("str", None, None, "whitespace-delimited fuel-economy file"),
    "seed": ("int", 0, f"({-2**64}, {2**64})", "master seed"),
    "k": ("int", 100, "[1, inf)", "estimator count for all models"),
    "out": ("str", ".", None, "output directory"),
}


def _synth(m: int, n: int) -> dict:
    return {
        "synth-m": ("int", m, "[4, inf)", "synthetic rows when no --data"),
        "synth-n": ("int", n, "[1, inf)", "synthetic feature count"),
        "synth-noise": ("float", 1.0, "[0, inf)", "synthetic noise sd"),
    }


_NU = ("float", "auto", "[0, inf)", "'auto' or a fixed value")
OPTIONS = {
    "benchmark": {
        **_COMMON,
        "trials": ("int", 32, "[1, inf)", "number of train/val trials"),
        # 0.5 reproduces the reference table's score bands; smaller
        # validation shares push RF above its reported range
        "val-fraction": ("float", 0.5, "(0, 1)", "validation share"),
        "nu": _NU,
    },
    "nu-curve": {
        **_COMMON,
        "k": ("int", 100, "[2, inf)", "offset count; correlations need 2"),
        "val-fraction": ("float", 0.25, "(0, 1)", "validation share"),
        "points": ("int", 33, "[2, inf)", "sweep grid size"),
        **_synth(200, 5),
    },
    "pca-diag": {
        **_COMMON,
        "nu": _NU,
        "oracle": ("bool", False, None, "replace tree estimates with exact gradients"),
        **_synth(100, 2),
    },
}
COMMANDS = {
    "benchmark": "fit SR/GBM/RF over repeated splits and summarize",
    "nu-curve": "sweep nu and emit objective terms plus validation MSE",
    "pca-diag": "project estimator trajectories onto the first PC",
}


def _flag_type(kind: str, default):
    parse = _KINDS[kind][0]

    def flag(text: str):
        return text if text == default else parse(text)

    flag.__name__ = kind  # argparse names it in "invalid <kind> value"
    return flag


def _in_bound(value, bound: str) -> bool:
    lo, hi = (float(end) for end in bound[1:-1].split(","))
    above = value >= lo if bound[0] == "[" else value > lo
    below = value <= hi if bound[-1] == "]" else value < hi
    return above and below


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shooting",
        description="Gradient-ensemble regression benchmark and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, help_text in COMMANDS.items():
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("--config", help="flat JSON file with flag-named keys")
        for key, (kind, default, _, text) in OPTIONS[cmd].items():
            if default is not None:
                text = f"{text} (default {default})"
            if kind == "bool":
                p.add_argument(
                    f"--{key}", dest=key, action="store_true", default=None, help=text
                )
            else:
                p.add_argument(
                    f"--{key}", dest=key, type=_flag_type(kind, default), help=text
                )
    return parser


def _config_value(key: str, kind: str, default, value):
    _, types, what = _KINDS[kind]
    if type(value) is type(default) and value == default:
        return value
    if not isinstance(value, types) or isinstance(value, bool) != (kind == "bool"):
        if isinstance(default, str) and kind != "str":
            what = f"{default!r} or {what}"
        raise CLIError(EXIT_CONFIG, f"config key {key!r} must be {what}")
    if kind == "float":
        try:
            return float(value)
        except OverflowError:
            raise CLIError(EXIT_CONFIG, f"config key {key!r} is too large") from None
    return value


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge flag values over config-file values over defaults."""
    table = OPTIONS[args.command]
    file_values = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise CLIError(EXIT_CONFIG, f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CLIError(EXIT_CONFIG, f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise CLIError(EXIT_CONFIG, "config file must hold a JSON object")
        unknown = sorted(set(file_values) - set(table))
        if unknown:
            raise CLIError(EXIT_CONFIG, f"unknown config keys: {', '.join(unknown)}")
    merged = {}
    for key, (kind, default, bound, _) in table.items():
        value = getattr(args, key)
        if value is None and key in file_values:
            value = _config_value(key, kind, default, file_values[key])
        if value is None:
            value = default
        if bound and not isinstance(value, str) and not _in_bound(value, bound):
            raise CLIError(EXIT_CONFIG, f"{key} must lie in {bound}")
        merged[key] = value
    return merged


def _load_dataset(cfg: dict) -> Dataset:
    if cfg["data"] is not None:
        try:
            return load_auto_mpg(cfg["data"])
        except (OSError, ParseError, ValueError) as exc:
            raise CLIError(EXIT_DATA, f"cannot load {cfg['data']}: {exc}") from exc
    return make_synthetic(cfg["synth-m"], cfg["synth-n"], cfg["synth-noise"], cfg["seed"])


def _ensure_out(cfg: dict) -> str:
    out = cfg["out"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise CLIError(EXIT_CONFIG, f"cannot create output directory: {exc}") from exc
    return out


def write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    write_text_atomic(path, "\n".join(lines) + "\n")


def _hist_rows(values: list[float]) -> list[list[str]]:
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=HIST_BINS)
    return [
        [_fmt(edges[i]), _fmt(edges[i + 1]), str(int(counts[i]))]
        for i in range(len(counts))
    ]


def _split(d: Dataset, cfg: dict, seed: int) -> tuple[Dataset, Dataset]:
    """split(), with a share that leaves a partition too small a config error."""
    try:
        return split(d, cfg["val-fraction"], seed)
    except ValueError as exc:
        raise CLIError(EXIT_CONFIG, f"val-fraction {cfg['val-fraction']}: {exc}") from exc


def _sr_config(cfg: dict) -> SRConfig:
    nu = None if cfg["nu"] == "auto" else cfg["nu"]
    return SRConfig(k=cfg["k"], nu=nu, seed=cfg["seed"])


def run_benchmark(cfg: dict) -> int:
    if cfg["data"] is None:
        raise CLIError(EXIT_CONFIG, "benchmark requires --data (or 'data' in config)")
    d = _load_dataset(cfg)
    out = _ensure_out(cfg)
    scores = {model: [] for model in MODEL_ORDER}
    nus = []
    trial_rows = []
    for t in range(1, cfg["trials"] + 1):
        seeds = [derive_seed(cfg["seed"], TRIAL_STREAM, t, j) for j in range(3)]
        train, val = _split(d, cfg, seeds[0])
        try:
            sr = fit_shooting(train, _sr_config({**cfg, "seed": seeds[1]}))
            rf = fit_rf(train, RFConfig(n_trees=cfg["k"], seed=seeds[2]))
            gbm = fit_gbm(train, GBMConfig(n_stages=cfg["k"]))
            trial = {
                "SR": r_squared(val.target, predict(sr, val.features)),
                "GBM": r_squared(val.target, predict_gbm(gbm, val.features)),
                "RF": r_squared(val.target, predict_rf(rf, val.features)),
            }
        except (ValueError, FloatingPointError) as exc:
            raise CLIError(EXIT_NUMERIC, f"trial {t} failed: {exc}") from exc
        nus.append(sr.nu)
        for model in MODEL_ORDER:
            scores[model].append(trial[model])
            nu_cell = _fmt(sr.nu) if model == "SR" else ""
            trial_rows.append([str(t), model, _fmt(trial[model]), nu_cell])
    write_csv(os.path.join(out, "trials.csv"), ["trial", "model", "score", "nu"], trial_rows)

    # one-sided paired t-test of SR against each baseline; "na" where it is
    # undefined (one trial, or score differences without spread)
    summary_rows = []
    for model, values in scores.items():
        cells = ["", ""] if model == "SR" else ["na", "na"]
        if model != "SR" and len(values) > 1:
            with contextlib.suppress(DegenerateTestError):
                cells = [_fmt(v) for v in paired_t_test(scores["SR"], values, "greater")]
        std = np.std(values, ddof=1) if len(values) > 1 else 0.0
        summary_rows.append([model, _fmt(np.mean(values)), _fmt(std), *cells])
    write_csv(
        os.path.join(out, "summary.csv"),
        ["model", "mean", "std", "t_vs_SR", "p_vs_SR"],
        summary_rows,
    )

    write_csv(
        os.path.join(out, "nu_hist.csv"),
        ["bin_left", "bin_right", "count"],
        _hist_rows(nus),
    )
    for model in MODEL_ORDER:
        write_csv(
            os.path.join(out, f"score_hist_{model.lower()}.csv"),
            ["bin_left", "bin_right", "count"],
            _hist_rows(scores[model]),
        )

    for row in summary_rows:
        print(
            f"{row[0]:>3}  mean R^2 {row[1]}  std {row[2]}"
            + (f"  p vs SR {row[4]}" if row[4] else "")
        )
    print(f"wrote trials.csv, summary.csv and histograms to {out}")
    return EXIT_OK


def run_nu_curve(cfg: dict) -> int:
    d = _load_dataset(cfg)
    out = _ensure_out(cfg)
    train, val = _split(d, cfg, cfg["seed"])
    start = shooting_start(train, cfg["k"], cfg["seed"])
    # the fit's own nu decision; no search ran when it fell back
    tuned, search = tune_nu(start)
    grid = [0.0] + list(
        np.logspace(np.log10(DEFAULT_NU_LO), np.log10(DEFAULT_NU_HI), cfg["points"])
    )
    rows = []
    for nu in grid:
        cells = ["", "", ""]
        if search is not None:
            with contextlib.suppress(DegenerateCorrelationError):
                total, corr_term, magnitude_term = objective(search[0], nu, search[1])
                cells = [_fmt(corr_term), _fmt(magnitude_term), _fmt(total)]
        sr = fit_at_nu(train, start, nu)
        val_mse = mse(val.target, predict(sr, val.features))
        rows.append([_fmt(nu)] + cells + [_fmt(val_mse)])
    path = os.path.join(out, "nu_curve.csv")
    write_csv(path, ["nu", "corr", "grad_mag", "objective", "val_mse"], rows)
    value = "na" if search is None else _fmt(search[2].objective_value)
    print(f"minimizer: nu={_fmt(tuned)} objective={value}")
    print(f"wrote {path}")
    return EXIT_OK


def run_pca_diag(cfg: dict) -> int:
    d = _load_dataset(cfg)
    out = _ensure_out(cfg)
    ens = fit_shooting(d, _sr_config(cfg))
    initial = initial_vectors(ens, d.features)
    if cfg["oracle"]:
        terminal, _ = oracle_predict(initial, d.target)
    else:
        terminal = predict_per_estimator(ens, d.features)
    diag = project_trajectories(initial, terminal, d.target)
    rows = [
        [str(i + 1), _fmt(diag.initial_coords[i]), _fmt(diag.terminal_coords[i])]
        for i in range(ens.k)
    ]
    rows.append(["target", "", _fmt(diag.target_coord)])
    path = os.path.join(out, "pca_diag.csv")
    write_csv(path, ["estimator", "initial_coord", "terminal_coord"], rows)
    print(f"wrote {path}")
    return EXIT_OK


_RUNNERS = {
    "benchmark": run_benchmark,
    "nu-curve": run_nu_curve,
    "pca-diag": run_pca_diag,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_options(args)
        return _RUNNERS[args.command](cfg)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    # SingularDesignError, FactorizationError, DegenerateCorrelationError,
    # MetricError and DegenerateTestError are all ValueErrors
    except (FloatingPointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
