"""Primary acceptance criteria, one test per criterion, and the outputs
that must not move under another BLAS kernel family.

Each test prints a single `criterion N: PASS/FAIL` line on the real
stdout (bypassing capture) before asserting, so a full run always shows
the complete scorecard. Criterion 1 fits 300 ensembles and dominates the
runtime; its benchmark output feeds criterion 2 as well.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from shooting import (
    augment,
    build_cache,
    correlation_matrix,
    fit_ols,
    fit_tree,
    make_synthetic,
    minimize_nu,
    objective,
    oracle_predict,
    sample_offsets,
    student_t_p,
)
from shooting import cli

TABLE = {"SR": (0.8836, 0.03), "GBM": (0.8577, 0.04), "RF": (0.8281, 0.04)}

# collected lines; conftest replays them in a terminal-summary section so
# they survive pytest's fd-level capture
SCORECARD: list[str] = []


def report(number: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {status} - {detail}"
    SCORECARD.append(line)
    print(line, file=sys.__stdout__, flush=True)
    return ok


def random_cache(rng, m_lo=10, m_hi=120, k_lo=2, k_hi=10):
    m = int(rng.integers(m_lo, m_hi))
    k = int(rng.integers(k_lo, k_hi))
    z = rng.standard_normal(m)
    x = rng.standard_normal((m, k))
    return z, x, build_cache(z, x)


@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_benchmark")
    code = cli.main(
        ["benchmark", "--data", "data/auto-mpg.data", "--out", str(out)]
    )
    assert code == 0
    scores: dict[str, list[float]] = {"SR": [], "GBM": [], "RF": []}
    nus: list[float] = []
    lines = (out / "trials.csv").read_text().splitlines()[1:]
    for line in lines:
        _, model, score, nu = line.split(",")
        scores[model].append(float(score))
        if model == "SR":
            nus.append(float(nu))
    summary = {}
    for line in (out / "summary.csv").read_text().splitlines()[1:]:
        model, mean, std, t_cell, p_cell = line.split(",")
        summary[model] = (float(mean), float(std), t_cell, p_cell)
    return {"dir": out, "scores": scores, "nus": nus, "summary": summary}


def test_criterion_01_table_reproduction(benchmark_run):
    summary = benchmark_run["summary"]
    means = {m: summary[m][0] for m in ("SR", "GBM", "RF")}
    in_band = {
        m: abs(means[m] - TABLE[m][0]) <= TABLE[m][1] for m in ("SR", "GBM", "RF")
    }
    sr_above_gbm = means["SR"] > means["GBM"]
    gbm_above_rf = means["GBM"] > means["RF"]
    p_sr_rf = float(summary["RF"][3])
    significant = p_sr_rf < 0.05
    detail = (
        f"SR {means['SR']:.4f} (band {'ok' if in_band['SR'] else 'VIOLATED'}), "
        f"GBM {means['GBM']:.4f} (band {'ok' if in_band['GBM'] else 'VIOLATED'}), "
        f"RF {means['RF']:.4f} (band {'ok' if in_band['RF'] else 'VIOLATED'}), "
        f"SR>GBM {'ok' if sr_above_gbm else 'VIOLATED'}, "
        f"GBM>RF {'ok' if gbm_above_rf else 'VIOLATED'}, "
        f"p(SR vs RF)={p_sr_rf:.4f} {'ok' if significant else 'VIOLATED'}"
    )
    ok = all(in_band.values()) and sr_above_gbm and gbm_above_rf and significant
    report(1, ok, detail)
    assert all(in_band.values()), detail
    assert sr_above_gbm, detail
    assert significant, detail
    # known irreproducible leg: every default-settings forest tested here
    # and in scikit-learn scores at or above the boosting baseline on this
    # dataset, while the reference table reports it 0.03 below
    assert gbm_above_rf, detail


def test_criterion_02_nu_consistency(benchmark_run):
    nus = np.asarray(benchmark_run["nus"])
    q1, median, q3 = np.percentile(nus, [25, 50, 75])
    iqr = q3 - q1
    ok = iqr < median
    report(2, ok, f"nu IQR {iqr:.4f} vs median {median:.4f} over {nus.size} trials")
    assert ok


def test_criterion_03_oracle_redundancy():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for case in range(20):
        m = int(rng.integers(8, 40))
        n = int(rng.integers(1, 4))
        d = make_synthetic(m, n, 1.0, int(rng.integers(0, 2**31)))
        linear = fit_ols(d)
        nu = float(rng.choice([0.0, 0.5, 5.0]))
        k = int(rng.choice([1, 3, 10]))
        offsets = sample_offsets(linear, d.features, k, case)
        base = (augment(d.features) @ linear.coefficients)[:, None]
        per, agg = oracle_predict(base + nu * offsets.projected, d.target)
        worst = max(worst, float(np.abs(per - d.target[:, None]).max()))
        worst = max(worst, float(np.abs(agg - d.target).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    report(3, ok, f"max deviation {worst:.2e} over 20 instances in {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_04_unbiasedness():
    start = time.perf_counter()
    d = make_synthetic(25, 2, 1.0, 104)
    linear = fit_ols(d)
    x = augment(d.features)
    base = x @ linear.coefficients
    k, draws, nu = 3, 10_000, 1.0
    total = np.zeros(d.n_rows)
    for rep in range(draws):
        offsets = sample_offsets(linear, d.features, k, rep)
        total += base + nu * offsets.projected.mean(axis=1)
    mc_mean = total / draws
    # per-row variance of the k-averaged initial vector, then the SE of
    # its Monte-Carlo mean over the resamples
    factor = linear.covariance_factor
    var_rows = np.einsum("ij,jk,ik->i", x, factor @ factor.T, x) * (nu * nu / k)
    se = np.sqrt(var_rows / draws)
    deviations = np.abs(mc_mean - base) / se
    elapsed = time.perf_counter() - start
    ok = bool(np.all(deviations <= 4.0)) and elapsed < 10.0
    report(
        4,
        ok,
        f"max componentwise deviation {deviations.max():.2f} SE "
        f"over {draws} resamples in {elapsed:.2f}s",
    )
    assert np.all(deviations <= 4.0)
    assert elapsed < 10.0


def test_criterion_05_correlation_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    worst_corr = 0.0
    worst_obj = 0.0
    for _ in range(50):
        z, x, cache = random_cache(rng, m_lo=5, m_hi=80, k_lo=2, k_hi=8)
        k = x.shape[1]
        for nu in (0.01, 0.1, 1.0, 10.0, 100.0):
            g = z[:, None] - nu * x
            direct = np.corrcoef(g.T)
            corr = correlation_matrix(cache, nu)
            for i in range(k):
                for j in range(k):
                    got = corr[i, j]
                    worst_corr = max(worst_corr, abs(got - direct[i, j]))
            total, _, _ = objective(cache, nu)
            brute = float(np.linalg.norm(direct)) + float(np.linalg.norm(g))
            worst_obj = max(worst_obj, abs(total - brute) / brute)
    elapsed = time.perf_counter() - start
    ok = worst_corr <= 1e-9 and worst_obj <= 1e-9 and elapsed < 5.0
    report(
        5,
        ok,
        f"max corr err {worst_corr:.2e}, max objective rel err {worst_obj:.2e} "
        f"over 50 instances x 5 nu in {elapsed:.2f}s",
    )
    assert worst_corr <= 1e-9
    assert worst_obj <= 1e-9
    assert elapsed < 5.0


def test_criterion_06_large_nu_limit():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(10):
        z, x, cache = random_cache(rng, m_lo=10, m_hi=60, k_lo=2, k_hi=8)
        direct = np.corrcoef(x.T)
        corr = correlation_matrix(cache, 1e8)
        k = x.shape[1]
        for i in range(k):
            for j in range(k):
                got = corr[i, j]
                worst = max(worst, abs(got - direct[i, j]))
    ok = worst < 1e-3
    report(6, ok, f"max |corr(1e8) - offset corr| = {worst:.2e} over 10 instances")
    assert worst < 1e-3


def test_criterion_07_optimizer_quality():
    rng = np.random.default_rng(107)
    worst_excess = -np.inf
    dense = np.linspace(1e-6, 1e3, 10_000)
    for _ in range(10):
        _, _, cache = random_cache(rng, m_lo=10, m_hi=80, k_lo=2, k_hi=8)
        result = minimize_nu(cache)
        dense_min = min(objective(cache, nu)[0] for nu in dense)
        worst_excess = max(worst_excess, result.objective_value - dense_min)
    ok = worst_excess <= 1e-6
    report(7, ok, f"worst objective excess over 1e4-point grid: {worst_excess:.2e}")
    assert worst_excess <= 1e-6


def brute_force_root_sse(x: np.ndarray, y: np.ndarray) -> float:
    best = np.inf
    m = y.size
    for f in range(x.shape[1]):
        xs = np.sort(np.unique(x[:, f]))
        for a, b in zip(xs[:-1], xs[1:]):
            thr = 0.5 * (a + b)
            left = x[:, f] <= thr
            yl, yr = y[left], y[~left]
            if yl.size == 0 or yr.size == m:
                continue
            sse = float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())
            best = min(best, sse)
    return best


def test_criterion_08_tree_root_oracle():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 13))
        n = int(rng.integers(1, 3))
        x = np.round(rng.standard_normal((m, n)) * 2, 1)  # induce ties
        y = rng.standard_normal(m)
        best = brute_force_root_sse(x, y)
        tree = fit_tree(x, y, max_depth=1)
        if tree.feature[0] == -1:
            # greedy declined to split; legal only when no cut exists
            assert not np.isfinite(best)
            continue
        f, thr = int(tree.feature[0]), float(tree.threshold[0])
        left = x[:, f] <= thr
        yl, yr = y[left], y[~left]
        sse = float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())
        worst = max(worst, abs(sse - best) / (1.0 + abs(best)))
    ok = worst <= 1e-9
    report(8, ok, f"greedy vs exhaustive root-split SSE gap {worst:.2e} on 100 instances")
    assert worst <= 1e-9


def t_two_sided_numeric(t: float, df: int) -> float:
    # trapezoid integral of the density over [0, |t|]; the two tails are
    # whatever probability the center does not hold
    grid = np.linspace(0.0, abs(t), 200_001)
    log_c = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    pdf = np.exp(log_c - ((df + 1) / 2.0) * np.log1p(grid * grid / df))
    return float(1.0 - 2.0 * np.trapezoid(pdf, grid))


def test_criterion_09_t_distribution():
    worst = 0.0
    for df in (2, 5, 31):
        for t in (0.1, 0.5, 1.0, 2.0, 3.5, 6.0):
            got = student_t_p(t, df, "two-sided")
            want = t_two_sided_numeric(t, df)
            worst = max(worst, abs(got - want))
    ok = worst <= 1e-5
    report(9, ok, f"max |p - numerical oracle| = {worst:.2e} at df in {{2, 5, 31}}")
    assert worst <= 1e-5


def test_criterion_10_benchmark_determinism(tmp_path):
    dirs = [tmp_path / "threads1", tmp_path / "threads2"]
    for threads, out in zip(("1", "2"), dirs):
        env = dict(os.environ)
        env.update(
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "shooting.cli",
                "benchmark",
                "--data",
                "data/auto-mpg.data",
                "--trials",
                "3",
                "--k",
                "8",
                "--out",
                str(out),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    names = [
        "trials.csv",
        "summary.csv",
        "nu_hist.csv",
        "score_hist_sr.csv",
        "score_hist_gbm.csv",
        "score_hist_rf.csv",
    ]
    mismatched = [
        name
        for name in names
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes()
    ]
    ok = not mismatched
    report(
        10,
        ok,
        "all 6 CSVs byte-identical across thread counts"
        if ok
        else f"differing files: {', '.join(mismatched)}",
    )
    assert ok


# Cross-environment drift reproduced on one host: OPENBLAS_CORETYPE makes a
# DYNAMIC_ARCH OpenBLAS run another CPU family's kernels, and
# OPENBLAS_VERBOSE=2 makes it print the family it took ("Core: <name>";
# Prescott reports itself as Katmai). SR's scores and the nu and PCA
# outputs go through BLAS and LAPACK, and split ties decided by rounding
# (ROADMAP item 1) turn their last bits into different trees
KERNEL_FAMILIES = ("Haswell", "Prescott")
KERNEL_DRIFT = pytest.mark.xfail(
    strict=False,
    reason="differs under other OpenBLAS kernel families (ROADMAP item 17) "
    "until split ties and SR's linear algebra are fixed-order (items 1 and 20)",
)
KERNEL_OUTPUTS = [
    "nu_hist.csv",
    "score_hist_rf.csv",
    "score_hist_gbm.csv",
    *(
        pytest.param(name, marks=KERNEL_DRIFT)
        for name in (
            "trials.csv",
            "summary.csv",
            "score_hist_sr.csv",
            "nu_curve.csv",
            "minimizer",
            "pca_diag.csv",
        )
    ),
]


def kernel_outputs(tmp_path_factory, mpg_path, family=None):
    """Run benchmark, nu-curve and pca-diag at small sizes, at 1 BLAS
    thread, under the default kernels or family's. Return the family that
    OpenBLAS's first Core line names (None without one) and each output's
    bytes by file name, with nu-curve's minimizer line as "minimizer"."""
    out = tmp_path_factory.mktemp(f"kernels-{family or 'default'}")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("OPENBLAS_CORETYPE", None)
    if family is not None:
        env["OPENBLAS_CORETYPE"] = family
    env["OPENBLAS_VERBOSE"] = "2"
    data = ["--data", str(mpg_path)]
    stdout = stderr = ""
    for argv in (
        ["benchmark", *data, "--trials", "3", "--k", "8"],
        ["nu-curve", *data, "--k", "8", "--points", "5"],
        ["pca-diag", "--k", "8"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "shooting.cli", *argv, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        stdout, stderr = stdout + proc.stdout, stderr + proc.stderr
    core = re.search(r"^Core: (\S+)", stderr, re.MULTILINE)
    minimizer = re.findall(r"^minimizer: .*$", stdout, re.MULTILINE)
    assert len(minimizer) == 1, stdout
    outputs = {path.name: path.read_bytes() for path in out.iterdir()}
    return core and core.group(1), dict(outputs, minimizer=minimizer[0].encode())


@pytest.fixture(scope="module")
def kernel_runs(tmp_path_factory, mpg_path):
    """The default run's outputs and a list of each other family's. Skips
    when no Core line names the family: the BLAS is then no DYNAMIC_ARCH
    OpenBLAS."""
    default_core, default = kernel_outputs(tmp_path_factory, mpg_path)
    if default_core is None:
        pytest.skip("no 'Core:' line under OPENBLAS_VERBOSE=2: not a DYNAMIC_ARCH OpenBLAS")
    runs = [kernel_outputs(tmp_path_factory, mpg_path, family) for family in KERNEL_FAMILIES]
    others = [outputs for core, outputs in runs if core != default_core]
    if not others:
        pytest.skip(f"every family tried runs the default {default_core} kernels")
    return default, others


@pytest.mark.parametrize("name", KERNEL_OUTPUTS)
def test_outputs_match_under_other_blas_kernels(kernel_runs, name):
    default, others = kernel_runs
    assert name in default
    assert all(run[name] == default[name] for run in others)
