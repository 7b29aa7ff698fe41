"""Cached-covariance objective against brute-force assembly."""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shooting import (
    DegenerateCorrelationError,
    NuCache,
    balanced_magnitude_weight,
    build_cache,
    correlation_matrix,
    minimize_nu,
    objective,
    shooting_start,
    split,
)
from shooting.nuopt import DEFAULT_GRID_POINTS, DEFAULT_NU_TOL


def hand_cache():
    z = np.array([1.0, -1.0, 0.0])
    x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    return build_cache(z, x), z, x


def assemble(z: np.ndarray, x: np.ndarray, nu: float) -> np.ndarray:
    return z[:, None] - nu * x


def brute_objective(z: np.ndarray, x: np.ndarray, nu: float):
    g = assemble(z, x, nu)
    corr = np.corrcoef(g.T)
    return float(np.linalg.norm(corr)), float(np.linalg.norm(g))


# ------------------------------------------------------------- build_cache


def test_hand_covariances_exact():
    cache, _, _ = hand_cache()
    # population covariances of z=(1,-1,0), x1=(1,0,-1), x2=(0,1,-1),
    # all zero-mean: c_zz=2/3, c_z1=1/3, c_z2=-1/3, c_11=c_22=2/3, c_12=1/3,
    # cached for z and x times 2^-1, which puts their largest magnitude at 0.5
    assert cache.scale == 1
    assert 4.0 * cache.c_zz == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert 4.0 * cache.c_zi == pytest.approx([1.0 / 3.0, -1.0 / 3.0], rel=1e-12)
    assert 4.0 * cache.c_ij[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert 4.0 * cache.c_ij[1, 1] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert 4.0 * cache.c_ij[0, 1] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert cache.k == 2


def test_zero_offsets_zero_covariances():
    z = np.array([1.0, -1.0, 0.5])
    cache = build_cache(z, np.zeros((3, 2)))
    assert np.array_equal(cache.c_zi, np.zeros(2))
    assert np.array_equal(cache.c_ij, np.zeros((2, 2)))
    assert cache.constant_columns.all()


def test_constant_z_rejected():
    with pytest.raises(DegenerateCorrelationError):
        build_cache(np.ones(4), np.random.default_rng(0).standard_normal((4, 2)))


def test_cache_shape_validation():
    z = np.array([1.0, -1.0])
    with pytest.raises(ValueError):
        build_cache(z, np.zeros((3, 2)))
    # the search's k >= 2 rule lives here, and tune_nu falls back on it
    with pytest.raises(DegenerateCorrelationError, match="^need at least 2 offset columns$"):
        build_cache(z, np.zeros((2, 1)))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_cache_matches_direct_recomputation(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 60))
    k = int(rng.integers(2, 8))
    z = rng.standard_normal(m)
    x = rng.standard_normal((m, k))
    cache = build_cache(z, x)
    # the cache holds z and x times 2^-scale
    assert 0.5 <= math.ldexp(max(np.abs(z).max(), np.abs(x).max()), -cache.scale) < 1.0
    z, x = np.ldexp(z, -cache.scale), np.ldexp(x, -cache.scale)
    zc = z - z.mean()
    xc = x - x.mean(axis=0)
    assert cache.c_zz == pytest.approx(float(zc @ zc) / m, rel=1e-9)
    assert cache.c_zi == pytest.approx((zc @ xc) / m, rel=1e-9, abs=1e-12)
    assert cache.c_ij == pytest.approx((xc.T @ xc) / m, rel=1e-9, abs=1e-12)
    assert np.abs(cache.c_ij - cache.c_ij.T).max() <= 1e-10
    assert np.diag(cache.c_ij).min() >= 0.0
    assert cache.c_zz >= 0.0


# ------------------------------------------------------ correlation_matrix


def test_self_correlation_is_one():
    cache, _, _ = hand_cache()
    for nu in [0.0, 0.3, 2.0, 50.0]:
        corr = correlation_matrix(cache, nu)
        assert corr[0, 0] == 1.0
        assert corr[1, 1] == 1.0


def test_nu_zero_all_columns_equal_z():
    cache, _, _ = hand_cache()
    assert correlation_matrix(cache, 0.0)[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_large_nu_limit_matches_offset_correlation():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(50)
    x = rng.standard_normal((50, 4))
    cache = build_cache(z, x)
    direct = np.corrcoef(x.T)
    corr = correlation_matrix(cache, 1e8)
    for i in range(4):
        for j in range(4):
            assert corr[i, j] == pytest.approx(direct[i, j], abs=1e-3)


@given(
    seed=st.integers(0, 10_000),
    nu=st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]),
)
@settings(max_examples=50, deadline=None)
def test_correlation_matches_brute_force(seed, nu):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(5, 200))
    k = int(rng.integers(2, 17))
    z = rng.standard_normal(m)
    x = rng.standard_normal((m, k))
    cache = build_cache(z, x)
    g = assemble(z, x, nu)
    direct = np.corrcoef(g.T)
    corr = correlation_matrix(cache, nu)
    for i in range(k):
        for j in range(k):
            assert abs(corr[i, j] - direct[i, j]) <= 1e-9


def test_correlation_that_rounds_past_one_is_clipped():
    # z - nu * x_j = a * (z - nu * x_i) exactly, so the two columns
    # correlate perfectly, but the cached sums round and the ratio can
    # come out an ulp past 1
    past_one = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        z, xi = rng.standard_normal((2, 10))
        nu, a = 1.0 + seed % 3, 0.5 + 0.05 * seed
        cache = build_cache(z, np.column_stack([xi, ((1 - a) / nu) * z + a * xi]))
        # correlation_matrix's ratio before its clip
        v = cache.c_zz - 2.0 * nu * cache.c_zi + nu * nu * np.diag(cache.c_ij)
        num = cache.c_zz - nu * (cache.c_zi[0] + cache.c_zi[1]) + nu * nu * cache.c_ij[0, 1]
        e = np.frexp(v.max())[1]
        v = np.ldexp(v, -e)
        past_one += np.ldexp(num, -e) / np.sqrt(v[0] * v[1]) > 1.0
        corr = correlation_matrix(cache, nu)
        assert np.all(np.abs(corr) <= 1.0)
        assert corr[0, 1] == corr[1, 0]
    # the cases that need the clip are there
    assert past_one


def test_degenerate_variance_carries_nu():
    # first offset column equals z, so the nu=1 column z - x1 is all zero
    z = np.array([1.0, -1.0, 0.0])
    x = np.column_stack([z, np.array([0.0, 1.0, -1.0])])
    cache = build_cache(z, x)
    with pytest.raises(DegenerateCorrelationError) as err:
        correlation_matrix(cache, 1.0)
    assert err.value.nu == 1.0
    with pytest.raises(DegenerateCorrelationError):
        objective(cache, 1.0)


def test_constant_column_degenerate_at_large_nu():
    z = np.array([1.0, -1.0, 0.0])
    x = np.column_stack([np.full(3, 2.0), np.array([0.0, 1.0, -1.0])])
    cache = build_cache(z, x)
    assert cache.constant_columns.tolist() == [True, False]
    # harmless at moderate nu: the constant column contributes no variance
    corr = correlation_matrix(cache, 10.0)
    assert corr[0, 1] == pytest.approx(corr[1, 0], rel=1e-12)
    with pytest.raises(DegenerateCorrelationError):
        correlation_matrix(cache, 1e8)
    with pytest.raises(DegenerateCorrelationError):
        objective(cache, 1e8)


# --------------------------------------------------------------- objective


def test_objective_at_zero():
    cache, z, _ = hand_cache()
    total, corr_term, magnitude_term = objective(cache, 0.0)
    assert corr_term == pytest.approx(2.0, rel=1e-12)  # k, all-ones matrix
    assert magnitude_term == pytest.approx(math.sqrt(2.0 * float(z @ z)), rel=1e-12)
    assert total == corr_term + magnitude_term


def test_objective_hand_value_at_one():
    # corr term: r12 = 1/sqrt(4/3) = sqrt(3)/2, Frobenius = sqrt(3.5)
    # magnitude: columns (0,-1,1) and (1,-2,1) give squared sum 8
    cache, _, _ = hand_cache()
    total, corr_term, magnitude_term = objective(cache, 1.0)
    assert corr_term == pytest.approx(math.sqrt(3.5), rel=1e-12)
    assert magnitude_term == pytest.approx(math.sqrt(8.0), rel=1e-12)
    assert total == pytest.approx(math.sqrt(3.5) + math.sqrt(8.0), rel=1e-12)


@given(
    seed=st.integers(0, 10_000),
    nu=st.floats(0.0, 50.0),
)
@settings(max_examples=60, deadline=None)
def test_objective_matches_brute_force(seed, nu):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 80))
    k = int(rng.integers(2, 10))
    z = rng.standard_normal(m)
    x = rng.standard_normal((m, k))
    cache = build_cache(z, x)
    total, corr_term, magnitude_term = objective(cache, nu)
    brute_corr, brute_mag = brute_objective(z, x, nu)
    assert corr_term == pytest.approx(brute_corr, rel=1e-9)
    assert magnitude_term == pytest.approx(brute_mag, rel=1e-9)
    assert total == pytest.approx(corr_term + magnitude_term, abs=1e-10)


def test_objective_continuity():
    cache, _, _ = hand_cache()
    for nu in [0.1, 0.7, 2.0, 9.0]:
        slope = abs(objective(cache, nu + 1e-3)[0] - objective(cache, nu)[0]) / 1e-3
        close = abs(objective(cache, nu + 1e-6)[0] - objective(cache, nu)[0])
        assert close <= (slope + 1.0) * 1e-5


@pytest.mark.filterwarnings("error")
def test_objective_rejects_negative_nu():
    cache, _, _ = hand_cache()
    with pytest.raises(ValueError):
        objective(cache, -0.5)
    # NaN would score (nan, nan, nan) and inf warn inside numpy
    for nu in [math.nan, math.inf]:
        with pytest.raises(ValueError, match="nu must be finite"):
            objective(cache, nu)
    # True would score as nu = 1.0 and False as 0.0
    for nu in [True, np.True_, False]:
        for call in (objective, correlation_matrix):
            with pytest.raises(ValueError, match="nu must be a number, not a boolean"):
                call(cache, nu)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weight", [math.nan, math.inf, -2.0, True, np.True_, False])
def test_bad_magnitude_weight_is_a_plain_value_error(weight):
    # NaN scored (nan, corr, nan) and -2 a negative total, the search
    # blamed a degenerate range for a NaN weight, and True scored at 1.0
    cache, _, _ = hand_cache()
    boolean = isinstance(weight, (bool, np.bool_))
    match = "a number, not a boolean" if boolean else "finite"
    for call in (lambda: objective(cache, 1.0, weight), lambda: minimize_nu(cache, weight)):
        with pytest.raises(ValueError, match=f"magnitude_weight must be {match}") as info:
            call()
        assert not isinstance(info.value, DegenerateCorrelationError)


def test_objective_needs_only_the_cache():
    # the per-evaluation boundary: no length-m inputs after build_cache
    params = list(inspect.signature(objective).parameters)
    assert params == ["cache", "nu", "magnitude_weight"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [0, 300, 480, 500, 502, 505, 510, -500, -520])
def test_magnitude_term_scales_exactly(mpg, j):
    # z and XD x 2^j put sum_zz near 2^(2j + 10): unscaled, k * sum_zz
    # overflowed at j = 500, the covariance products at 505 and 510, and
    # at -520 the variances fell below the smallest normal double. The
    # cache scales them back by a power of two, so the term scales by 2^j
    # and nu is the same double
    train, _ = split(mpg, 0.5, 0)
    _, offsets, z = shooting_start(train, 20, 1)
    base = build_cache(z, offsets.projected)
    cache = build_cache(np.ldexp(z, j), np.ldexp(offsets.projected, j))
    assert objective(cache, 2.0)[2] == math.ldexp(objective(base, 2.0)[2], j)
    result = minimize_nu(cache, magnitude_weight=balanced_magnitude_weight(cache))
    assert result.nu == 2.6505337802984257


def test_balanced_weight_equalizes_at_zero():
    cache, _, _ = hand_cache()
    w = balanced_magnitude_weight(cache)
    _, corr_term, magnitude_term = objective(cache, 0.0, w)
    assert magnitude_term == pytest.approx(corr_term, rel=1e-12)
    assert corr_term == pytest.approx(cache.k, rel=1e-12)


def test_balanced_weight_of_a_zero_z_is_one():
    # build_cache refuses a constant z, so only a hand-built cache reaches
    # the guard that keeps the weight from dividing by zero
    cache = NuCache(
        c_zz=0.0,
        c_zi=np.zeros(2),
        c_ij=np.eye(2),
        sum_zz=0.0,
        sum_zx=0.0,
        sum_xx=2.0,
        constant_columns=np.zeros(2, dtype=bool),
    )
    assert balanced_magnitude_weight(cache) == 1.0


# ------------------------------------------------------------- minimize_nu


def test_flat_objective_returns_lo():
    z = np.array([1.0, -1.0, 0.5])
    cache = build_cache(z, np.zeros((3, 2)))
    result = minimize_nu(cache)
    assert result.nu == 1e-6  # the first grid point
    assert result.objective_value == pytest.approx(
        2.0 + math.sqrt(2.0 * float(z @ z)), rel=1e-9
    )


@pytest.mark.parametrize("seed", range(4))
def test_optimizer_beats_dense_grid(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(50)
    x = rng.standard_normal((50, 8))
    cache = build_cache(z, x)
    result = minimize_nu(cache)
    dense = np.linspace(1e-6, 1e3, 10_000)
    dense_min = min(objective(cache, nu)[0] for nu in dense)
    assert result.objective_value <= dense_min + 1e-6


def test_local_optimality():
    rng = np.random.default_rng(11)
    z = rng.standard_normal(40)
    x = rng.standard_normal((40, 5))
    cache = build_cache(z, x)
    result = minimize_nu(cache)
    for delta in [-10 * DEFAULT_NU_TOL, 10 * DEFAULT_NU_TOL]:
        nu = result.nu + delta
        if nu >= 0:
            assert result.objective_value <= objective(cache, nu)[0] + 1e-12


def test_whole_range_degenerate_errors():
    # all-zero covariances: every column has zero variance at every nu,
    # so every grid point is degenerate
    cache = NuCache(
        c_zz=0.0,
        c_zi=np.zeros(2),
        c_ij=np.zeros((2, 2)),
        sum_zz=0.0,
        sum_zx=0.0,
        sum_xx=0.0,
        constant_columns=np.ones(2, dtype=bool),
    )
    with pytest.raises(DegenerateCorrelationError):
        minimize_nu(cache)


def test_minimizer_is_deterministic_and_counts():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(30)
    x = rng.standard_normal((30, 4))
    cache = build_cache(z, x)
    a = minimize_nu(cache)
    b = minimize_nu(cache)
    assert a == b
    assert a.evaluations >= DEFAULT_GRID_POINTS

