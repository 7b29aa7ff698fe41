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
    MetricError,
    ParseError,
    fit_ols,
    load_auto_mpg,
    make_synthetic,
    mse,
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
        Dataset(np.array([[1.0]]), np.array([1.0]), ["a"])


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]), ["a"])
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0], [2.0]]), np.array([1.0, np.inf]), ["a"])


def test_dataset_rejects_name_mismatch():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), ["a", "b"])


# ------------------------------------------------------------- UCI loader


def test_mpg_shape_and_first_row(mpg):
    assert mpg.n_rows == 392
    assert mpg.n_features == 7
    assert mpg.target[0] == 18.0
    assert mpg.features[0].tolist() == [8.0, 307.0, 130.0, 3504.0, 12.0, 70.0, 1.0]
    assert mpg.feature_names[2] == "horsepower"


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


def test_import_leaves_scipy_special_unloaded():
    # student_t_p imports it on first use: it is most of the import time
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH", "")]
    )
    code = "import sys, shooting, shooting.cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_t_p_sidedness():
    two = student_t_p(1.7, 5)
    assert student_t_p(1.7, 5, "greater") == pytest.approx(two / 2.0, rel=1e-12)
    assert student_t_p(-1.7, 5, "greater") == pytest.approx(1.0 - two / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        student_t_p(1.0, 5, "less-ish")


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
