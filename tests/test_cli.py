"""End-to-end command tests: exit codes, option merging, CSV contracts."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from shooting import cli
from shooting.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def run(argv):
    return cli.main(argv)


# --------------------------------------------------------------- benchmark


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    code = run(
        [
            "benchmark",
            "--data",
            "data/auto-mpg.data",
            "--trials",
            "3",
            "--k",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    return out


def test_benchmark_trials_csv(bench_dir):
    header, rows = read_csv(bench_dir / "trials.csv")
    assert header == ["trial", "model", "score", "nu"]
    assert len(rows) == 9  # 3 trials x 3 models
    for i, row in enumerate(rows):
        assert row[0] == str(i // 3 + 1)
        assert row[1] == ["SR", "GBM", "RF"][i % 3]
        float(row[2])
        if row[1] == "SR":
            assert float(row[3]) > 0
        else:
            assert row[3] == ""


def test_benchmark_summary_csv(bench_dir):
    header, rows = read_csv(bench_dir / "summary.csv")
    assert header == ["model", "mean", "std", "t_vs_SR", "p_vs_SR"]
    assert [r[0] for r in rows] == ["SR", "GBM", "RF"]
    sr = rows[0]
    assert sr[3] == "" and sr[4] == ""
    for row in rows[1:]:
        float(row[1]), float(row[2]), float(row[3])
        assert 0.0 <= float(row[4]) <= 1.0


def test_benchmark_histograms(bench_dir):
    for name in ["nu_hist", "score_hist_sr", "score_hist_gbm", "score_hist_rf"]:
        header, rows = read_csv(bench_dir / f"{name}.csv")
        assert header == ["bin_left", "bin_right", "count"]
        assert len(rows) == 10
        assert sum(int(r[2]) for r in rows) == 3  # every trial lands in a bin
        for row in rows:
            assert float(row[0]) <= float(row[1])


def test_benchmark_single_trial_p_values_na(tmp_path):
    out = tmp_path / "one"
    code = run(
        [
            "benchmark",
            "--data",
            "data/auto-mpg.data",
            "--trials",
            "1",
            "--k",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    _, rows = read_csv(out / "summary.csv")
    for row in rows[1:]:
        # a single trial has no score spread to test against
        assert row[3] == "na" and row[4] == "na"
    assert all(float(r[2]) == 0.0 for r in rows)  # stds collapse


def test_benchmark_fixed_nu_recorded(tmp_path):
    out = tmp_path / "fixed"
    code = run(
        [
            "benchmark",
            "--data",
            "data/auto-mpg.data",
            "--trials",
            "2",
            "--k",
            "4",
            "--nu",
            "0.75",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    _, rows = read_csv(out / "trials.csv")
    nu_cells = [r[3] for r in rows if r[1] == "SR"]
    assert nu_cells == ["0.75", "0.75"]


def test_benchmark_deterministic_reruns(tmp_path):
    args = ["benchmark", "--data", "data/auto-mpg.data", "--trials", "2", "--k", "6"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(a)]) == EXIT_OK
    assert run(args + ["--out", str(b)]) == EXIT_OK
    names = [
        "trials.csv",
        "summary.csv",
        "nu_hist.csv",
        "score_hist_sr.csv",
        "score_hist_gbm.csv",
        "score_hist_rf.csv",
    ]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_benchmark_requires_data(tmp_path, capsys):
    code = run(["benchmark", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "requires --data" in capsys.readouterr().err


def test_benchmark_missing_file_is_data_error(tmp_path, capsys):
    code = run(
        ["benchmark", "--data", str(tmp_path / "nope.data"), "--out", str(tmp_path)]
    )
    assert code == EXIT_DATA
    assert "cannot load" in capsys.readouterr().err


def test_benchmark_singular_design_is_numeric_error(tmp_path, capsys):
    # constant cylinder column duplicates the intercept, so the linear
    # solve inside trial 1 must report rank deficiency
    rng = np.random.default_rng(0)
    lines = []
    for i in range(24):
        vals = [
            18.0 + rng.uniform(-3, 3),
            4,
            100 + rng.uniform(0, 50),
            80 + rng.uniform(0, 30),
            2000 + rng.uniform(0, 800),
            12 + rng.uniform(0, 6),
            70 + (i % 8),
            1 + (i % 3),
        ]
        cells = " ".join(
            f"{v:.1f}" if isinstance(v, float) else str(v) for v in vals
        )
        lines.append(f'{cells} "car {i}"')
    bad = tmp_path / "degenerate.data"
    bad.write_text("\n".join(lines) + "\n")
    code = run(
        [
            "benchmark",
            "--data",
            str(bad),
            "--trials",
            "1",
            "--k",
            "3",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "trial 1 failed" in err


def test_invalid_val_fraction(tmp_path, capsys):
    code = run(
        [
            "benchmark",
            "--data",
            "data/auto-mpg.data",
            "--val-fraction",
            "1.5",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == EXIT_CONFIG
    assert "val-fraction" in capsys.readouterr().err


def test_invalid_nu_flag(capsys):
    code = run(["benchmark", "--data", "x", "--nu", "-2"])
    assert code == EXIT_CONFIG == 2  # the range check flags and config share
    assert "nu" in capsys.readouterr().err


# ------------------------------------------------------------ option table

# one out-of-bound value per bounded key
OUT_OF_BOUND = {
    "seed": 2**64,
    "k": 0,
    "trials": 0,
    "val-fraction": 1.0,
    "points": 1,
    "synth-m": 3,
    "synth-n": 0,
    "synth-noise": -0.5,
    "nu": -1.0,
    "magnitude-weight": -1.0,
}


def resolve(argv):
    return cli.resolve_options(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("command", sorted(cli.OPTIONS))
def test_every_option_is_a_flag_and_a_config_key(tmp_path, command):
    table = cli.OPTIONS[command]
    defaults = {key: default for key, (_, default, _, _) in table.items()}
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps(defaults))
    assert resolve([command, "--config", str(cfg)]) == defaults

    argv, want = [command], {}
    for key, (kind, default, _, _) in table.items():
        if kind == "bool":
            argv.append(f"--{key}")
            want[key] = True
        else:
            want[key] = "d.data" if default is None else default
            argv += [f"--{key}", str(want[key])]
    assert resolve(argv) == want


@pytest.mark.parametrize(
    "command, key",
    [(c, k) for c, t in sorted(cli.OPTIONS.items()) for k, opt in t.items() if opt[2]],
)
def test_flag_and_config_share_the_bound(tmp_path, capsys, command, key):
    value = OUT_OF_BOUND[key]
    assert run([command, f"--{key}", str(value)]) == EXIT_CONFIG == 2
    flag_err = capsys.readouterr().err
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({key: value}))
    assert run([command, "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == flag_err
    assert f"{key} must lie in" in flag_err


def test_every_bound_has_an_out_of_bound_case():
    bounded = {k for t in cli.OPTIONS.values() for k, opt in t.items() if opt[2]}
    assert bounded == set(OUT_OF_BOUND)


# ------------------------------------------------------------- config file


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 2, "k": 4, "data": "data/auto-mpg.data"}))
    out = tmp_path / "merged"
    # the trials flag overrides the file; k and data come from the file
    code = run(
        ["benchmark", "--config", str(cfg), "--trials", "1", "--out", str(out)]
    )
    assert code == EXIT_OK
    _, rows = read_csv(out / "trials.csv")
    assert len(rows) == 3  # 1 trial x 3 models


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": "data/auto-mpg.data", "bogus": 1}))
    code = run(["benchmark", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "unknown config keys: bogus" in capsys.readouterr().err


def test_config_bad_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{ nope")
    code = run(["benchmark", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err


def test_config_wrong_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": "data/auto-mpg.data", "trials": "2"}))
    code = run(["benchmark", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "must be an integer" in capsys.readouterr().err


def test_config_number_too_large_for_a_float(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"synth-noise": 1' + "0" * 400 + "}")
    code = run(["pca-diag", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "'synth-noise' is too large" in capsys.readouterr().err


def test_config_missing_file(tmp_path, capsys):
    code = run(["benchmark", "--config", str(tmp_path / "absent.json")])
    assert code == EXIT_CONFIG
    assert "cannot read config file" in capsys.readouterr().err


def test_config_not_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code = run(["benchmark", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "JSON object" in capsys.readouterr().err


# ---------------------------------------------------------------- nu-curve


def test_nu_curve_csv(tmp_path, capsys):
    out = tmp_path / "curve"
    code = run(["nu-curve", "--k", "8", "--points", "5", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out / "nu_curve.csv")
    assert header == ["nu", "corr", "grad_mag", "objective", "val_mse"]
    assert len(rows) == 6  # prepended nu=0 row plus the 5 grid points
    assert float(rows[0][0]) == 0.0
    # at nu=0 every column is z, so the correlation norm is exactly k
    assert float(rows[0][1]) == pytest.approx(8.0, abs=1e-12)
    for row in rows:
        total = float(row[3])
        assert total == pytest.approx(float(row[1]) + float(row[2]), abs=1e-10)
        assert math.isfinite(float(row[4]))
    nus = [float(r[0]) for r in rows]
    assert nus == sorted(nus)
    assert "minimizer: nu=" in capsys.readouterr().out


def test_nu_curve_minimizer_consistent_with_grid(tmp_path):
    out = tmp_path / "curve2"
    code = run(
        ["nu-curve", "--k", "6", "--points", "17", "--seed", "3", "--out", str(out)]
    )
    assert code == EXIT_OK
    _, rows = read_csv(out / "nu_curve.csv")
    objectives = [float(r[3]) for r in rows]
    # the refined minimizer can only improve on the coarse sweep
    from shooting import balanced_magnitude_weight, build_cache, make_synthetic
    from shooting import minimize_nu, shooting_start, split

    d = make_synthetic(200, 5, 1.0, 3)
    train, _ = split(d, 0.25, 3)
    _, offsets, z = shooting_start(train, 6, 3)
    cache = build_cache(z, offsets.projected)
    result = minimize_nu(cache, magnitude_weight=balanced_magnitude_weight(cache))
    assert result.objective_value <= min(objectives) + 1e-9


@pytest.mark.parametrize(
    "data, k",
    [(None, 6), ("data/auto-mpg.data", 100)],
    ids=["synthetic", "auto-mpg"],
)
def test_nu_curve_minimizer_is_the_fitted_nu(tmp_path, capsys, data, k):
    # nu-curve and fit_shooting tune nu on one path, so the printed
    # minimizer is bit-equal to the nu a fit on the same split selects
    from shooting import SRConfig, ensemble, fit_shooting, fit_tree
    from shooting import load_auto_mpg, make_synthetic, split

    argv = ["nu-curve", "--k", str(k), "--points", "2", "--out", str(tmp_path)]
    # nu-curve's defaults: seed 0, validation share 0.25, 200 x 5 synthetic
    if data is None:
        d = make_synthetic(200, 5, 1.0, 0)
    else:
        d = load_auto_mpg(data)
        argv += ["--data", data]
    train, _ = split(d, 0.25, 0)
    with pytest.MonkeyPatch.context() as patch:
        # one-leaf trees: only the tuning is under test
        patch.setattr(ensemble, "fit_tree", lambda x, y: fit_tree(x, y, max_depth=0))
        assert run(argv) == EXIT_OK
        model = fit_shooting(train, SRConfig(k=k, seed=0))
    printed = capsys.readouterr().out.split("minimizer: nu=")[1].split()[0]
    assert float(printed) == model.nu


def test_nu_curve_fits_one_sr_start(tmp_path, monkeypatch):
    # every grid point reuses the one OLS fit and offset draw
    from shooting import ensemble

    calls = []
    fit_ols = ensemble.fit_ols

    def counted(train):
        calls.append(train)
        return fit_ols(train)

    monkeypatch.setattr(ensemble, "fit_ols", counted)
    assert run(["nu-curve", "--k", "3", "--points", "3", "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 1


def test_nu_curve_rejects_tiny_grid(capsys):
    code = run(["nu-curve", "--points", "1"])
    assert code == EXIT_CONFIG
    assert "points" in capsys.readouterr().err


# ---------------------------------------------------------------- pca-diag


def test_pca_diag_csv(tmp_path):
    out = tmp_path / "pca"
    code = run(["pca-diag", "--k", "6", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out / "pca_diag.csv")
    assert header == ["estimator", "initial_coord", "terminal_coord"]
    assert len(rows) == 7
    assert [r[0] for r in rows[:-1]] == [str(i) for i in range(1, 7)]
    assert rows[-1][0] == "target"
    assert rows[-1][1] == ""
    for row in rows[:-1]:
        float(row[1]), float(row[2])


def test_pca_diag_oracle_terminal_equals_target(tmp_path):
    out = tmp_path / "pca_oracle"
    code = run(["pca-diag", "--k", "5", "--oracle", "--out", str(out)])
    assert code == EXIT_OK
    _, rows = read_csv(out / "pca_diag.csv")
    target_coord = float(rows[-1][2])
    for row in rows[:-1]:
        assert float(row[2]) == pytest.approx(target_coord, abs=1e-6)


def test_pca_diag_fixed_nu(tmp_path):
    out = tmp_path / "pca_fixed"
    code = run(["pca-diag", "--k", "4", "--nu", "2.0", "--out", str(out)])
    assert code == EXIT_OK
    _, rows = read_csv(out / "pca_diag.csv")
    assert len(rows) == 5


def test_bad_synth_bounds(capsys):
    code = run(["pca-diag", "--synth-m", "2"])
    assert code == EXIT_CONFIG
    assert "synth-m" in capsys.readouterr().err
