"""Scaling-parameter objective: cached covariances, correlations, minimizer.

Every pairwise correlation among the gradient targets g_i = z + nu*(XD_i)
is a rational function of six cached covariance scalars, so after one
O(m k^2) pass the objective costs O(k^2) per evaluation no matter how many
rows the data has. Population (1/m) covariances throughout; correlations
are invariant to that choice, the cached magnitude sums rely on it being
fixed.

The expansion below scores the columns z - nu*XD_i, while the gradient
targets are z + nu*XD_i. On the training rows the sign does not matter:
z = XB - Y is minus the OLS residual, so it is orthogonal to the column
space of the intercept-augmented X, and XD_i lies in that space. The
cross terms c_zi and sum_zx therefore vanish up to rounding. What is
left scales with the residual variance s^2 (z through |z|^2, the draws
D_i through their covariance s^2 (X'X)^-1), and both terms of the
objective are invariant to that scale, so the tuned nu depends on X and
the seed, not on Y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import check_float, real_array

# Above this nu a constant offset column makes the correlation limit
# meaningless, so flagged columns turn the evaluation degenerate.
LARGE_NU = 1e6

DEFAULT_NU_LO = 1e-6
DEFAULT_NU_HI = 1e3
DEFAULT_GRID_POINTS = 64
DEFAULT_NU_TOL = 1e-4

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class DegenerateCorrelationError(ValueError):
    """Fewer than 2 offset columns, a constant z or a vanished correlation
    variance term; carries the offending nu."""

    def __init__(self, message: str, nu: float | None = None):
        super().__init__(message)
        self.nu = nu


@dataclass(frozen=True)
class NuCache:
    """Covariance scalars and raw sums for O(k^2) objective evaluation.

    c_* are population covariances of z and the projected offset columns;
    sum_* are the uncentered sums that rebuild the Frobenius norm of the
    gradient-target matrix: |z|^2, the sum of z'x_i and the sum of
    |x_i|^2. All of them are of z and the columns times 2^-scale.
    constant_columns flags offset columns with zero variance.
    """

    c_zz: float
    c_zi: np.ndarray
    c_ij: np.ndarray
    sum_zz: float
    sum_zx: float
    sum_xx: float
    constant_columns: np.ndarray
    scale: int = 0

    @property
    def k(self) -> int:
        return self.c_zi.size


@dataclass(frozen=True)
class NuResult:
    """Minimizer output; objective_value = corr_term + magnitude_term."""

    nu: float
    objective_value: float
    corr_term: float
    magnitude_term: float
    evaluations: int


def build_cache(z, projected_offsets) -> NuCache:
    """One pass over the m-length vectors; everything after is m-free.

    z and the columns are first scaled by 2^-scale, a power of two that
    puts their largest magnitude in [0.5, 1), so no product or sum below
    can overflow, whatever units the caller's targets are in. The scaling
    is exact for every entry that stays a normal double, correlations
    ignore it, and objective reports the magnitude term in the caller's
    units.
    """
    z = real_array(z, "z", (None,))
    x = real_array(projected_offsets, "projected_offsets", (z.size, None))
    m, k = x.shape
    if m < 2:
        raise ValueError("z must be at least 2 long")
    if k < 2:
        raise DegenerateCorrelationError("need at least 2 offset columns")
    if np.ptp(z) == 0.0:
        raise DegenerateCorrelationError("z is constant; correlations undefined")
    scale = math.frexp(max(np.abs(z).max(), np.abs(x).max()))[1]
    z = np.ldexp(z, -scale)
    x = np.ldexp(x, -scale)
    zc = z - z.mean()
    xc = x - x.mean(axis=0)
    c_zz = float(zc @ zc) / m
    c_zi = (zc @ xc) / m
    c_ij = (xc.T @ xc) / m
    c_ij = 0.5 * (c_ij + c_ij.T)
    constant = np.ptp(x, axis=0) == 0.0
    return NuCache(
        c_zz=c_zz,
        c_zi=c_zi,
        c_ij=c_ij,
        sum_zz=float(z @ z),
        sum_zx=float((z @ x).sum()),
        sum_xx=float(np.trace(x.T @ x)),
        constant_columns=constant,
        scale=scale,
    )


def correlation_matrix(cache: NuCache, nu: float) -> np.ndarray:
    """k x k Corr(z - nu*x_i, z - nu*x_j) from cached scalars, clipped to
    [-1, 1] with a unit diagonal; degenerate if any column has no variance."""
    check_float(nu, "nu", 0)
    if nu >= LARGE_NU and cache.constant_columns.any():
        raise DegenerateCorrelationError(
            "constant offset column has no large-nu correlation", nu
        )
    v = cache.c_zz - 2.0 * nu * cache.c_zi + nu * nu * np.diag(cache.c_ij)
    if np.any(v <= 0.0):
        raise DegenerateCorrelationError(f"zero variance at nu={nu}", nu)
    num = (
        cache.c_zz
        - nu * (cache.c_zi[:, None] + cache.c_zi[None, :])
        + nu * nu * cache.c_ij
    )
    # v_i * v_j under- or overflows for variances far from 1; scaling v and
    # num by one power of two first is exact and leaves every ratio alone
    e = np.frexp(v.max())[1]
    v = np.ldexp(v, -e)
    corr = np.ldexp(num, -e) / np.sqrt(np.outer(v, v))
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr


def objective(
    cache: NuCache, nu: float, magnitude_weight: float = 1.0
) -> tuple[float, float, float]:
    """(total, corr_term, magnitude_term) at this nu.

    corr_term is the Frobenius norm of the k x k correlation matrix,
    magnitude_term the (weighted) Frobenius norm of the m x k target
    matrix, both assembled purely from the cache.
    """
    check_float(magnitude_weight, "magnitude_weight", 0)
    corr_term = float(np.linalg.norm(correlation_matrix(cache, nu)))
    # the sums are of the columns times 2^-scale: the root times 2^scale
    # is in the caller's units
    sq = cache.k * cache.sum_zz - 2.0 * nu * cache.sum_zx + nu * nu * cache.sum_xx
    root = math.ldexp(math.sqrt(max(sq, 0.0)), cache.scale)
    magnitude_term = magnitude_weight * root
    return corr_term + magnitude_term, corr_term, magnitude_term


def balanced_magnitude_weight(cache: NuCache) -> float:
    """Weight that puts the magnitude term at the corr term's nu=0 value k.

    The raw magnitude term scales with the data (sqrt of k * sum z^2)
    while the corr term never exceeds k, so an unweighted sum is dominated
    by whichever is larger. Equalizing at nu = 0 puts the two on one scale.
    """
    # a guard only: sum_zz is 0 for an all-zero z, which build_cache refuses
    if cache.sum_zz <= 0.0:
        return 1.0
    return math.ldexp(math.sqrt(cache.k / cache.sum_zz), -cache.scale)


def minimize_nu(cache: NuCache, magnitude_weight: float = 1.0) -> NuResult:
    """The one nu search, not settable: a DEFAULT_GRID_POINTS log grid over
    [DEFAULT_NU_LO, DEFAULT_NU_HI], then golden-section refinement of the
    bracket around the best point to DEFAULT_NU_TOL * (1 + nu).

    Degenerate evaluations count as +inf; only a fully degenerate range is
    an error, and a bad weight is objective's plain ValueError.
    Strictly-lower comparisons throughout, so a flat objective returns the
    first grid point.
    """
    evaluations = 0

    def safe(nu: float) -> float:
        nonlocal evaluations
        evaluations += 1
        try:
            return objective(cache, nu, magnitude_weight)[0]
        except DegenerateCorrelationError:
            return np.inf

    grid = np.logspace(np.log10(DEFAULT_NU_LO), np.log10(DEFAULT_NU_HI), DEFAULT_GRID_POINTS)
    values = [safe(nu) for nu in grid]
    best_i = 0
    for i in range(1, grid.size):
        if values[i] < values[best_i]:
            best_i = i
    if not np.isfinite(values[best_i]):
        raise DegenerateCorrelationError(
            "objective degenerate over the entire search range"
        )
    best_nu = float(grid[best_i])
    best_val = values[best_i]

    a = float(grid[max(best_i - 1, 0)])
    b = float(grid[min(best_i + 1, grid.size - 1)])
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = safe(c), safe(d)
    while b - a > DEFAULT_NU_TOL * (1.0 + best_nu):
        if fc < best_val:
            best_nu, best_val = c, fc
        if fd < best_val:
            best_nu, best_val = d, fd
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = safe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = safe(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx < best_val:
            best_nu, best_val = float(x), fx

    total, corr_term, magnitude_term = objective(cache, best_nu, magnitude_weight)
    return NuResult(best_nu, total, corr_term, magnitude_term, evaluations)
