"""Least squares, coefficient covariance, and offset sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shooting import (
    Dataset,
    FactorizationError,
    LinearModel,
    SingularDesignError,
    TargetOverflowError,
    augment,
    fit_ols,
    sample_offsets,
    split,
)
from shooting.linear import _JITTER_LADDER, _factor_covariance

# ----------------------------------------------------------------- fit_ols


def test_exact_fit_zero_covariance():
    d = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 3.0, 5.0]))
    model = fit_ols(d)
    assert model.coefficients == pytest.approx([1.0, 2.0], abs=1e-12)
    assert model.residual_variance == pytest.approx(0.0, abs=1e-24)
    assert np.allclose(model.covariance_factor, 0.0, atol=1e-20)
    assert model.jitter == 0.0


def test_residual_above_the_exact_fit_threshold_is_kept():
    # a residual sum of about 1e-23 of y.y: above the exact-fit threshold
    # (1e-26 of y.y, where QR's own noise ends) and far below y.y, so it is
    # the data's residual and must reach the covariance, not be zeroed
    x = np.arange(8.0)
    line = 1.0 + 2.0 * x
    # orthogonal to the intercept and to x, so the fit is the line
    wobble = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
    y = line + 3e-11 * wobble
    rss = float(np.sum((y - line) ** 2))
    assert 1e-24 < rss / float(y @ y) < 1e-22
    model = fit_ols(Dataset(x[:, None], y))
    assert model.coefficients == pytest.approx([1.0, 2.0], rel=1e-12)
    # abs=0: approx would otherwise pass anything within 1e-12, 0.0 too
    assert model.residual_variance == pytest.approx(rss / 6, rel=1e-3, abs=0.0)


def test_duplicated_column_is_singular():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    d = Dataset(x, np.array([0.0, 1.0, 2.0, 4.0]))
    with pytest.raises(SingularDesignError):
        fit_ols(d)


@pytest.mark.parametrize(
    "second",
    [lambda a: 0.0 * a, lambda a: np.ldexp(a, 30), lambda a: np.ldexp(a, -30)],
    ids=["zero", "a times 2^30", "a times 2^-30"],
)
def test_zero_or_rescaled_duplicate_column_is_singular(second):
    # equilibrating the columns for the condition estimate leaves a zero
    # column zero and a rescaled duplicate a duplicate
    a = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
    d = Dataset(np.column_stack([a, second(a)]), np.array([0.0, 1.0, 2.0, 4.0, 3.0]))
    with pytest.raises(SingularDesignError):
        fit_ols(d)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [-600, 600])
def test_covariance_past_the_float_range_is_a_factorization_error(mpg, j):
    # weight x 2^j is no singular design, but its coefficient's variance
    # scales by 2^-2j: past the largest double, or below the smallest
    # normal one, where the jitter ladder would swamp it
    features = mpg.features.copy()
    features[:, 3] = np.ldexp(features[:, 3], j)
    with pytest.raises(FactorizationError, match="float range"):
        fit_ols(Dataset(features, mpg.target))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [504, 510])
def test_targets_whose_square_sum_overflows_are_refused(mpg, j):
    # an infinite y.y would pass any residual as an exact fit and report a
    # residual variance of 0.0
    target = np.ldexp(mpg.target, j)
    with pytest.raises(TargetOverflowError, match="overflows"):
        fit_ols(Dataset(mpg.features, target))


@pytest.mark.parametrize("val_fraction, seed", [(0.5, 0), (0.5, 7), (0.25, 3), (0.25, 31)])
def test_fit_ols_matches_lapack_triangular_solves_bit_for_bit(mpg, val_fraction, seed):
    # fit_ols back-substitutes and inverts R in numpy; the reference is
    # LAPACK's triangular solve, which it replaced without moving a bit
    scipy_linalg = pytest.importorskip("scipy.linalg")
    train, _ = split(mpg, val_fraction, seed)
    x = augment(train.features)
    m, p = x.shape
    q, r = np.linalg.qr(x)
    coef = scipy_linalg.solve_triangular(r, q.T @ train.target)
    r_inv = scipy_linalg.solve_triangular(r, np.eye(p))
    resid = train.target - x @ coef
    cov = float(resid @ resid) / (m - p) * (r_inv @ r_inv.T)
    model = fit_ols(train)
    assert model.jitter == 0.0
    assert np.array_equal(model.coefficients, coef)
    assert np.array_equal(model.covariance_factor, np.linalg.cholesky(0.5 * (cov + cov.T)))


def test_too_few_rows_is_singular():
    d = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(SingularDesignError):
        fit_ols(d)


def test_four_point_line(tiny):
    # hand solution of the 2x2 normal equations:
    #   [4 6; 6 14] b = [7; 17]  ->  b = (-0.2, 1.3)
    # residuals (0.2, -0.1, -0.4, 0.3), RSS = 0.30, s^2 = 0.30/2 = 0.15
    model = fit_ols(tiny)
    assert model.coefficients == pytest.approx([-0.2, 1.3], abs=1e-12)
    resid = tiny.target - augment(tiny.features) @ model.coefficients
    assert resid == pytest.approx([0.2, -0.1, -0.4, 0.3], abs=1e-12)
    assert model.residual_variance == pytest.approx(0.15, abs=1e-12)
    # C = s^2 (X'X)^-1 = 0.15/20 * [14 -6; -6 4]
    expected_cov = 0.15 / 20.0 * np.array([[14.0, -6.0], [-6.0, 4.0]])
    factor = model.covariance_factor
    assert np.allclose(factor @ factor.T, expected_cov, atol=1e-12)


@given(seed=st.integers(0, 10_000), m=st.integers(8, 40), n=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_residuals_orthogonal_to_design(seed, m, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    d = Dataset(x, y)
    model = fit_ols(d)
    xa = augment(x)
    resid = y - xa @ model.coefficients
    scale = max(float(np.abs(xa.T @ y).max()), 1.0)
    assert np.abs(xa.T @ resid).max() <= 1e-8 * scale


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_factor_reconstructs_covariance(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((25, 3))
    y = rng.standard_normal(25)
    model = fit_ols(Dataset(x, y))
    xa = augment(x)
    covariance = model.residual_variance * np.linalg.inv(xa.T @ xa)
    reconstructed = model.covariance_factor @ model.covariance_factor.T
    err = np.linalg.norm(reconstructed - covariance)
    assert err <= 1e-8 * max(np.linalg.norm(covariance), 1e-30)


def test_jitter_ladder_climbs_to_its_last_rung():
    # an eigenvalue of -1e-7 of the trace/p scale: cholesky fails bare and
    # at every rung to 1e-7, and factors at the last, 1e-6
    cov = np.diag([1.0, 1.0, -1e-7])
    scale = np.trace(cov) / 3
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov + 1e-7 * scale * np.eye(3))
    factor, jitter = _factor_covariance(cov)
    assert jitter == _JITTER_LADDER[-1] * scale and _JITTER_LADDER[-1] == pytest.approx(1e-6)
    assert np.allclose(factor @ factor.T, cov + jitter * np.eye(3), rtol=0, atol=1e-15)
    with pytest.raises(FactorizationError, match="jitter ladder"):
        _factor_covariance(np.diag([1.0, 1.0, -1e-5]))


# ---------------------------------------------------------- sample_offsets


def _identity_model(p: int) -> LinearModel:
    return LinearModel(
        coefficients=np.zeros(p),
        residual_variance=1.0,
        covariance_factor=np.eye(p),
    )


def test_zero_covariance_zero_offsets(tiny):
    model = fit_ols(
        Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 3.0, 5.0]))
    )
    offs = sample_offsets(model, np.array([[0.5], [1.5]]), k=4, seed=9)
    assert np.array_equal(offs.offsets, np.zeros((2, 4)))
    assert np.array_equal(offs.projected, np.zeros((2, 4)))


def test_offsets_deterministic(tiny):
    model = fit_ols(tiny)
    a = sample_offsets(model, tiny.features, k=6, seed=123)
    b = sample_offsets(model, tiny.features, k=6, seed=123)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.projected, b.projected)


def test_offsets_prefix_stable(tiny):
    # column i depends only on (seed, i): growing k keeps earlier columns
    model = fit_ols(tiny)
    small = sample_offsets(model, tiny.features, k=3, seed=5)
    large = sample_offsets(model, tiny.features, k=8, seed=5)
    assert np.array_equal(small.offsets, large.offsets[:, :3])


def test_offsets_projection_identity(tiny):
    model = fit_ols(tiny)
    offs = sample_offsets(model, tiny.features, k=5, seed=2)
    assert np.allclose(offs.projected, augment(tiny.features) @ offs.offsets, atol=1e-10)


def test_identity_covariance_sampling_law():
    model = _identity_model(2)
    offs = sample_offsets(model, np.zeros((2, 1)), k=20_000, seed=77)
    sample_cov = np.cov(offs.offsets, ddof=1)
    assert np.abs(sample_cov - np.eye(2)).max() < 0.05


def test_offsets_k_validation(tiny):
    model = fit_ols(tiny)
    with pytest.raises(ValueError):
        sample_offsets(model, tiny.features, k=0, seed=0)
    with pytest.raises(ValueError):
        sample_offsets(model, np.zeros((3, 4)), k=2, seed=0)


@pytest.mark.parametrize("k", [2.5, True, np.float64(2.0)])
def test_offsets_k_must_be_an_integer(tiny, k):
    # numpy would raise a TypeError for these, naming no argument
    with pytest.raises(ValueError, match="k must be an integer"):
        sample_offsets(fit_ols(tiny), tiny.features, k=k, seed=0)
    assert sample_offsets(fit_ols(tiny), tiny.features, k=np.int64(2), seed=0).offsets.shape == (2, 2)


def test_sampling_unbiased_monte_carlo(tiny):
    # mean of X(B + D_i) over many draws stays within 4 SE of XB per row
    model = fit_ols(tiny)
    xa = augment(tiny.features)
    base = xa @ model.coefficients
    draws = 10_000
    offs = sample_offsets(model, tiny.features, k=draws, seed=31)
    projected = offs.projected
    mean = projected.mean(axis=1)
    se = projected.std(axis=1, ddof=1) / np.sqrt(draws)
    assert np.all(np.abs(mean) <= 4.0 * se)
    assert np.all(np.abs((base + projected.mean(axis=1)) - base) <= 4.0 * se)

