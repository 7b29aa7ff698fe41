"""Dataset ingestion, splitting, and statistics."""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shooting import (
    Dataset,
    DegenerateTestError,
    GBMConfig,
    MetricError,
    ParseError,
    SRConfig,
    build_cache,
    fit_ols,
    load_auto_mpg,
    make_synthetic,
    mse,
    objective,
    paired_t_test,
    r_squared,
    sample_offsets,
    shooting_start,
    split,
    student_t_p,
)
from shooting.rng import derive_seed, make_rng

# ---------------------------------------------------------------- Dataset


def test_dataset_rejects_single_row():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0]]), np.array([1.0]))


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0], [2.0]]), np.array([1.0, np.inf]))


def test_dataset_rejects_complex_values():
    # numpy dropped the imaginary part behind a ComplexWarning
    x, y = np.array([[1.0], [2.0]]), np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="^features must be real numbers, not complex"):
        Dataset(x + 1j, y)
    with pytest.raises(ValueError, match="^target must be real numbers, not complex"):
        Dataset(x, y + 1j)


def test_dataset_holds_no_column_names():
    # a Dataset is (features, target); load_auto_mpg's docstring names the columns
    with pytest.raises(TypeError):
        Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), ["a"])


# ------------------------------------------------------------- UCI loader


def test_mpg_shape_and_first_row(mpg):
    assert mpg.n_rows == 392
    assert mpg.n_features == 7
    assert mpg.target[0] == 18.0
    assert mpg.features[0].tolist() == [8.0, 307.0, 130.0, 3504.0, 12.0, 70.0, 1.0]


def test_mpg_missing_horsepower_dropped(tmp_path):
    f = tmp_path / "cars.data"
    f.write_text(
        '18.0 8 307.0 130.0 3504.0 12.0 70 1 "ok one"\n'
        '25.0 4 98.0 ? 2046.0 19.0 71 1 "missing hp"\n'
        '16.0 8 304.0 150.0 3433.0 12.0 70 1 "ok two"\n'
    )
    d = load_auto_mpg(f)
    assert d.n_rows == 2
    assert d.target.tolist() == [18.0, 16.0]


def test_mpg_name_with_apostrophe(tmp_path):
    f = tmp_path / "cars.data"
    f.write_text(
        '14.0 8 340.0 160.0 3609.0 8.0 70 1 "plymouth \'cuda 340"\n'
        '15.0 8 390.0 190.0 3850.0 8.5 70 1 "amc ambassador dpl"\n'
    )
    d = load_auto_mpg(f)
    assert d.n_rows == 2


def test_mpg_blank_lines_are_skipped(tmp_path):
    f = tmp_path / "cars.data"
    f.write_text(
        '18.0 8 307.0 130.0 3504.0 12.0 70 1 "ok one"\n'
        "\n"
        " \t\n"
        '16.0 8 304.0 150.0 3433.0 12.0 70 1 "ok two"\n'
    )
    d = load_auto_mpg(f)
    assert d.target.tolist() == [18.0, 16.0]


@pytest.mark.parametrize(
    "line",
    [
        "18.0 8 307.0 130.0 3504.0 12.0 70 1 no-quotes",
        '18.0 8 307.0 3504.0 12.0 70 1 "short row"',
        '18.0 8 bogus 130.0 3504.0 12.0 70 1 "bad float"',
    ],
)
def test_mpg_malformed_rows(tmp_path, line):
    f = tmp_path / "cars.data"
    f.write_text('18.0 8 307.0 130.0 3504.0 12.0 70 1 "fine"\n' + line + "\n")
    with pytest.raises(ParseError) as err:
        load_auto_mpg(f)
    assert "line 2" in str(err.value)


def test_mpg_too_few_usable_rows(tmp_path):
    f = tmp_path / "cars.data"
    f.write_text('25.0 4 98.0 ? 2046.0 19.0 71 1 "only row, unusable"\n')
    with pytest.raises(ParseError):
        load_auto_mpg(f)


# -------------------------------------------------------------- synthetic


def test_synthetic_noiseless_is_exactly_linear():
    d = make_synthetic(40, 3, 0.0, seed=11)
    x = np.hstack([np.ones((40, 1)), d.features])
    coef, *_ = np.linalg.lstsq(x, d.target, rcond=None)
    assert np.abs(d.target - x @ coef).max() < 1e-9


def test_synthetic_deterministic():
    a = make_synthetic(30, 2, 0.5, seed=9)
    b = make_synthetic(30, 2, 0.5, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.target, b.target)


def test_synthetic_target_variance_exceeds_half_noise():
    d = make_synthetic(500, 3, 1.0, seed=7)
    assert d.target.var() > 0.5


def test_synthetic_validation():
    with pytest.raises(ValueError):
        make_synthetic(1, 3, 1.0, seed=0)
    with pytest.raises(ValueError):
        make_synthetic(10, 3, -1.0, seed=0)
    # counts are integers: numpy would fail on 10.0 rows with a TypeError
    with pytest.raises(ValueError, match="^m must be an integer"):
        make_synthetic(10.0, 2, 1.0, seed=0)
    with pytest.raises(ValueError, match="^n must be an integer"):
        make_synthetic(10, True, 1.0, seed=0)
    # NaN failed later as a non-finite target, and True drew noise of sd 1.0
    for noise_sd in [math.nan, math.inf, True, np.True_, False]:
        with pytest.raises(ValueError, match="^noise_sd must be"):
            make_synthetic(10, 2, noise_sd, seed=0)


# ------------------------------------------------------------------ seeds


@pytest.mark.parametrize("seed", [7.9, 2.5, 1.5, True, "7", None])
def test_seeds_must_be_integers(seed):
    # int() would truncate 7.9 into seed 7's stream and read True as 1
    d = make_synthetic(10, 2, 1.0, seed=0)
    model = fit_ols(d)
    calls = [
        lambda: make_rng(seed),
        lambda: make_rng(0, seed, 1),
        lambda: derive_seed(seed),
        lambda: derive_seed(3, 6, seed),
        lambda: split(d, 0.5, seed),
        lambda: make_synthetic(5, 2, 1.0, seed),
        lambda: sample_offsets(model, d.features, 2, seed),
        lambda: shooting_start(d, 3, seed),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="seed must be an integer"):
            call()


def test_integer_seeds_keep_their_streams():
    # numpy integers and negative seeds are seeds as before: a negative
    # part is taken modulo 2^64
    assert make_rng(np.int64(7)).random() == make_rng(7).random()
    assert derive_seed(-1, 2) == derive_seed(2**64 - 1, 2)
    assert make_rng(-5, 3).random() == make_rng(2**64 - 5, 3).random()


# ------------------------------------------------------------------ split


def test_split_sizes():
    d = make_synthetic(100, 2, 1.0, seed=0)
    train, val = split(d, 0.25, seed=1)
    assert train.n_rows == 75
    assert val.n_rows == 25


def test_split_deterministic():
    d = make_synthetic(50, 2, 1.0, seed=0)
    a_train, a_val = split(d, 0.3, seed=4)
    b_train, b_val = split(d, 0.3, seed=4)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_val.target, b_val.target)


@given(seed=st.integers(0, 2**32), frac=st.floats(0.1, 0.9))
@settings(max_examples=30, deadline=None)
def test_split_is_a_partition(seed, frac):
    d = make_synthetic(40, 2, 1.0, seed=3)
    train, val = split(d, frac, seed)
    merged = np.vstack([train.features, val.features])
    combined = np.hstack([merged, np.concatenate([train.target, val.target])[:, None]])
    original = np.hstack([d.features, d.target[:, None]])
    order = np.lexsort(combined.T)
    base_order = np.lexsort(original.T)
    assert np.array_equal(combined[order], original[base_order])


def test_split_rejects_tiny_partition():
    d = make_synthetic(10, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        split(d, 0.05, seed=0)
    with pytest.raises(ValueError):
        split(d, 1.5, seed=0)


# ---------------------------------------------------------------- scoring


def test_r_squared_values():
    y = np.array([1.0, 2.0, 3.0])
    assert r_squared(y, y) == 1.0
    assert r_squared(y, np.full(3, y.mean())) == 0.0
    assert r_squared(y, np.array([1.0, 2.0, 4.0])) == pytest.approx(0.5, abs=1e-12)


def test_r_squared_constant_target():
    with pytest.raises(MetricError):
        r_squared(np.ones(3), np.array([1.0, 2.0, 3.0]))


@given(
    st.lists(
        st.floats(-100, 100).filter(lambda v: v == 0 or abs(v) >= 1e-6),
        min_size=2,
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_r_squared_identity_and_baseline(values):
    y = np.asarray(values)
    # spreads tiny enough to underflow the variance are treated as constant
    if np.ptp(y) < 1e-9:
        return
    assert r_squared(y, y) == 1.0
    assert r_squared(y, np.full_like(y, y.mean())) == pytest.approx(0.0, abs=1e-9)


def test_mse_values():
    assert mse(np.zeros(2), np.zeros(2)) == 0.0
    assert mse(np.zeros(2), np.ones(2)) == 1.0
    assert mse(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == 2.5
    with pytest.raises(ValueError):
        mse(np.zeros(2), np.zeros(3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "score, y_true, y_pred",
    [
        (mse, [0.0, 1.0], [5e306, -5e306]),  # the squares overflow
        (mse, [1e154, 1e154], [0.0, 0.0]),  # their sum does
        (mse, [1.7e308, 0.0], [-1.7e308, 0.0]),  # the difference does
        (r_squared, [0.0, 1.0, 2.0], [5e306, -5e306, 0.0]),
        # SStot overflows while SSres is 0: the quotient would read R^2 = 1
        (r_squared, [1e200, -1e200, 0.0], [1e200, -1e200, 0.0]),
        # the mean's pairwise sum adds inf to -inf: R^2 would read NaN
        (r_squared, [1.7e308] * 4 + [-1.7e308] * 4 + [1.0] * 8, [0.0] * 16),
        # the spread of the differences overflows: t would read 0
        (paired_t_test, [1.5e308, -1.5e308, 0.0], [0.0, 0.0, 0.0]),
        # the differences themselves do
        (paired_t_test, [1e308, -1e308, 0.0], [-1e308, 1e308, 1.0]),
    ],
)
def test_scores_past_the_float_range_are_metric_errors(score, y_true, y_pred):
    with pytest.raises(MetricError, match="overflow"):
        score(np.array(y_true), np.array(y_pred))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scores_and_tests_refuse_nonfinite_inputs(bad):
    # refused before any arithmetic: no NaN result and no numpy warning
    for score in [mse, r_squared, paired_t_test]:
        good = np.array([1.0, 2.0, 4.0])
        worse = good.copy()
        worse[1] = bad
        for args in [(worse, good), (good, worse), (worse, worse)]:
            with pytest.raises(ValueError, match="finite"):
                score(*args)
    with pytest.raises(ValueError, match="finite"):
        student_t_p(bad, 5)
    with pytest.raises(ValueError, match="df"):
        student_t_p(2.0, math.nan)
    with pytest.raises(ValueError, match="df must be finite"):
        student_t_p(2.0, math.inf)


# --------------------------------------------------------------- t-tests


def t_two_sided_numeric(t: float, df: int, points: int = 200_001) -> float:
    """Trapezoid integration of the t density on [0, |t|]; 1 - 2*integral."""
    t = abs(float(t))
    if t == 0.0:
        return 1.0
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    xs = np.linspace(0.0, t, points)
    pdf = c * (1.0 + xs * xs / df) ** (-(df + 1) / 2)
    return 1.0 - 2.0 * float(np.trapezoid(pdf, xs))


def test_paired_t_hand_example():
    a = np.array([2.0, 4.0, 6.0])
    b = np.array([1.0, 2.0, 3.0])
    t, p = paired_t_test(a, b)
    assert t == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)
    # closed form for df=2: two-sided p = 1 - sqrt(t^2/(2+t^2))
    assert p == pytest.approx(1.0 - math.sqrt(12.0 / 14.0), rel=1e-12)
    assert p == pytest.approx(0.0741799, abs=1e-6)
    assert p == pytest.approx(t_two_sided_numeric(t, 2), abs=1e-5)


def test_t_p_injected_df31():
    p = student_t_p(2.0, 31)
    assert p == pytest.approx(0.0542, abs=5e-4)
    assert p == pytest.approx(t_two_sided_numeric(2.0, 31), abs=1e-5)


@pytest.mark.parametrize("df", [2, 5, 31])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0])
def test_t_p_matches_integration_oracle(df, t):
    assert student_t_p(t, df) == pytest.approx(t_two_sided_numeric(t, df), abs=1e-5)


@pytest.mark.parametrize("df", [1e6, 1e10, 1e15, 1e17, 1e300])
@pytest.mark.parametrize("t", [0.5, 2.0, 8.0])
def test_t_p_keeps_precision_at_large_df(df, t):
    # df / (df + t^2) rounds toward 1, where betainc read 1.0 from df 1e17
    from scipy import special

    want = 2.0 * special.stdtr(df, -t)
    assert abs(student_t_p(t, df) - want) <= 1e-9 * want
    assert abs(student_t_p(-t, df) - want) <= 1e-9 * want


def run_python(code: str) -> str:
    """stdout of a fresh interpreter running code against this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


def test_import_leaves_scipy_special_unloaded():
    # student_t_p imports scipy.special on first use; nothing else needs scipy
    code = (
        "import sys, shooting, shooting.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert run_python(code).strip() == "[]"


NO_SCIPY = """
import sys, tempfile, os
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
from shooting import (
    GBMConfig, RFConfig, SRConfig, fit_gbm, fit_rf, fit_shooting, load_model,
    make_synthetic, paired_t_test, predict, predict_gbm, predict_per_estimator,
    predict_rf, predict_tree, save_model, split,
)
from shooting import cli

train, val = split(make_synthetic(60, 3, 1.0, 0), 0.25, 0)
sr = fit_shooting(train, SRConfig(k=4))
rf = fit_rf(train, RFConfig(n_trees=4))
gbm = fit_gbm(train, GBMConfig(n_stages=4))
predicts = {
    "sr": lambda m: predict(m, val.features),
    "rf": lambda m: predict_rf(m, val.features),
    "gbm": lambda m: predict_gbm(m, val.features),
}
assert predict_per_estimator(sr, val.features).shape == (val.n_rows, 4)
assert predict_tree(sr.trees[0], val.features).shape == (val.n_rows,)
with tempfile.TemporaryDirectory() as out:
    for name, model in [("sr", sr), ("rf", rf), ("gbm", gbm)]:
        path = os.path.join(out, name + ".json")
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(predicts[name](loaded), predicts[name](model))
    for argv in (["nu-curve", "--k", "3", "--points", "3"], ["pca-diag", "--k", "3"]):
        assert cli.main(argv + ["--out", out]) == 0, argv
try:
    paired_t_test([1.0, 2.0, 4.0], [0.5, 1.0, 1.0])
except ImportError:
    print("t-test needs scipy")
"""


def test_everything_but_the_t_test_runs_without_scipy():
    # fits, predicts, save/load and the CLI's nu-curve and pca-diag
    assert run_python(NO_SCIPY).splitlines()[-1] == "t-test needs scipy"


def test_t_p_sidedness():
    two = student_t_p(1.7, 5)
    assert student_t_p(1.7, 5, "greater") == pytest.approx(two / 2.0, rel=1e-12)
    assert student_t_p(-1.7, 5, "greater") == pytest.approx(1.0 - two / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        student_t_p(1.0, 5, "less-ish")


def small_cache():
    _, offsets, z = shooting_start(make_synthetic(20, 2, 1.0, 0), 3, 0)
    return build_cache(z, offsets.projected)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: SRConfig(nu=v), "nu"),
        (lambda v: GBMConfig(learning_rate=v), "learning_rate"),
        (lambda v: objective(small_cache(), v), "nu"),
        (lambda v: objective(small_cache(), 1.0, v), "magnitude_weight"),
        (lambda v: student_t_p(2.0, v), "df"),
        (lambda v: student_t_p(v, 3), "t"),
        (lambda v: make_synthetic(10, 2, v, 0), "noise_sd"),
        (lambda v: split(make_synthetic(10, 2, 1.0, 0), v, 0), "val_fraction"),
    ],
)
@pytest.mark.parametrize("value", ["1", 1j, np.array([0.5])])
def test_float_parameters_refuse_non_numbers(call, name, value):
    # a string failed the range check with a TypeError naming nothing
    with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
        call(value)


@pytest.mark.parametrize("flag", [True, np.True_, False])
def test_t_p_refuses_boolean_arguments(flag):
    # True read as df = 1 or t = 1.0
    with pytest.raises(ValueError, match="^df must be a number, not a boolean"):
        student_t_p(2.0, flag)
    with pytest.raises(ValueError, match="^t must be a number, not a boolean"):
        student_t_p(flag, 5)


def test_paired_t_degenerate():
    a = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateTestError):
        paired_t_test(a + 0.0, a)
    with pytest.raises(DegenerateTestError):
        paired_t_test(a + 5.0, a)


@given(
    st.lists(st.floats(-50, 50), min_size=3, max_size=12),
    st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_paired_t_antisymmetric(values, seed):
    a = np.asarray(values)
    rng = np.random.default_rng(seed)
    b = a + rng.standard_normal(a.size)
    if np.ptp(a - b) == 0:
        return
    t_ab, p_ab = paired_t_test(a, b)
    t_ba, p_ba = paired_t_test(b, a)
    assert t_ab == pytest.approx(-t_ba, rel=1e-9, abs=1e-12)
    assert p_ab == pytest.approx(p_ba, rel=1e-9)
