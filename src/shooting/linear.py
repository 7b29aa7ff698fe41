"""Ordinary least squares with coefficient-covariance offset sampling.

The fitted model keeps a lower-triangular factor of the coefficient
covariance s^2 (X'X)^-1 so that coefficient perturbations can be drawn
from the same multivariate normal law that describes resampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .rng import OFFSET_STREAM, check_int, make_rng, real_array


class SingularDesignError(ValueError):
    """The intercept-augmented design matrix is numerically rank deficient."""


class FactorizationError(ValueError):
    """Covariance factorization failed even after jitter escalation."""


class TargetOverflowError(ValueError):
    """The targets' sum of squares y.y overflows the float range."""


MAX_CONDITION = 1e12

# Jitter ladder: 1e-12 * trace(C)/(n+1) escalating tenfold up to 1e-6 * same.
_JITTER_LADDER = [1e-12 * 10**i for i in range(7)]


def augment(features) -> np.ndarray:
    """Prepend an intercept column of ones to a real, finite 2-D feature matrix."""
    features = real_array(features, "features", (None, None))
    return np.hstack([np.ones((features.shape[0], 1)), features])


@dataclass(frozen=True)
class LinearModel:
    """OLS coefficients plus the sampling law of their estimation noise.

    coefficients has the intercept first; covariance_factor is L with
    L L' the coefficient covariance, plus jitter times the identity when
    it needed jitter to factor.
    """

    coefficients: np.ndarray
    residual_variance: float
    covariance_factor: np.ndarray
    jitter: float = 0.0


@dataclass(frozen=True)
class OffsetSet:
    """Sampled coefficient offsets and their projection through the design.

    offsets is (n+1) x k with one draw per column; projected is the
    intercept-augmented feature matrix times offsets, i.e. each column is
    the per-row prediction shift that offset induces.
    """

    offsets: np.ndarray
    projected: np.ndarray


def _factor_covariance(cov: np.ndarray) -> tuple[np.ndarray, float]:
    p = cov.shape[0]
    scale = float(np.trace(cov)) / p
    for relative in [0.0] + _JITTER_LADDER:
        jitter = relative * scale
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(p)), jitter
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError("covariance not factorizable within the jitter ladder")


def fit_ols(d: Dataset) -> LinearModel:
    """Least-squares fit with intercept via QR on the augmented design."""
    x = augment(d.features)
    y = d.target
    m, p = x.shape
    if m <= p:
        raise SingularDesignError(f"need more rows ({m}) than coefficients ({p})")
    # the condition of the column-equilibrated design: each column scaled
    # exactly, by a power of two, to a largest |entry| in [0.5, 1), so a
    # change of units in one feature changes neither the fit nor this
    # estimate (Higham 2002, Accuracy and Stability of Numerical
    # Algorithms, ch. 7). Max-abs, unlike a 2-norm, cannot overflow
    exponents = np.frexp(np.abs(x).max(axis=0))[1]
    singular_values = np.linalg.svd(np.ldexp(x, -exponents), compute_uv=False)
    if singular_values[-1] == 0.0 or singular_values[0] / singular_values[-1] > MAX_CONDITION:
        raise SingularDesignError("design matrix condition estimate exceeds 1e12")
    with np.errstate(over="ignore"):
        yy = float(y @ y)
    # the exactness test below reads y.y, and an infinite one would pass
    # any residual; a finite one bounds the residual sum of squares
    if not np.isfinite(yy):
        raise TargetOverflowError("targets too large: y.y overflows the float range")
    q, r = np.linalg.qr(x)
    # back-substitution in dot form, one row at a time: on the tested build
    # bit-equal to LAPACK's triangular solve, where np.linalg.solve is not
    qty = q.T @ y
    coef = np.empty(p)
    for i in range(p - 1, -1, -1):
        coef[i] = (qty[i] - r[i, i + 1 :] @ coef[i + 1 :]) / r[i, i]
    resid = y - x @ coef
    rss = float(resid @ resid)
    if rss <= 1e-26 * yy:
        # QR leaves machine-noise residuals on exactly-linear data; an exact
        # fit has no estimation noise, so its offsets are zero in any units
        return LinearModel(coef, 0.0, np.zeros((p, p)))
    s2 = rss / (m - p)
    r_inv = np.linalg.inv(r)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = s2 * (r_inv @ r_inv.T)
    # a column in units tiny or huge enough puts its coefficient's
    # variance outside the float range: weight x 2^-600 on auto-mpg
    # overflows it, and weight x 2^600 leaves it below the smallest normal
    # double, where the jitter ladder would swamp it
    if not np.isfinite(cov).all() or np.diag(cov).min() < np.finfo(float).tiny:
        raise FactorizationError("coefficient covariance leaves the float range")
    cov = 0.5 * (cov + cov.T)
    factor, jitter = _factor_covariance(cov)
    return LinearModel(coef, s2, factor, jitter)


def sample_offsets(model: LinearModel, features, k: int, seed: int) -> OffsetSet:
    """Draw k offsets from N(0, C) and project them through the design.

    Column i comes from a stream derived from (seed, i), so the result is
    independent of evaluation order and stable under parallel sampling.
    """
    check_int(k, "k", 1)
    p = model.coefficients.size
    x = augment(real_array(features, "features", (None, p - 1)))
    draws = np.empty((p, k))
    for i in range(k):
        z = make_rng(seed, OFFSET_STREAM, i).standard_normal(p)
        draws[:, i] = model.covariance_factor @ z
    return OffsetSet(draws, x @ draws)

