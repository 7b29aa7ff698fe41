"""Gradient-ensemble regressor built from perturbed linear initializations.

Fit draws k coefficient offsets around the least-squares solution, scales
them by nu (tuned or fixed), trains one tree per offset on the induced
gradient target, and predicts by averaging the k corrected estimates.
Subtracting a perfect gradient estimate from its initial vector lands
exactly on Y, which is what pins the sign conventions here.

Prediction streams the forest walk's row blocks end to end: each block's
initial vectors are built for its rows alone and corrected by its leaf
values, and predict reduces the block straight into its output, so no
(rows, k) matrix is held. predict_per_estimator copies the same blocks
into the matrix it returns, so predict is row_means of it bit for bit.
Through BLAS, a row's prediction depends only on the rows of its own
block, just as a one-row predict may differ from a batch in the last bits.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .linear import LinearModel, OffsetSet, augment, fit_ols, sample_offsets
from .nuopt import DegenerateCorrelationError, balanced_magnitude_weight, build_cache, minimize_nu
from .rng import check_float, check_int, real_array
from .tree import RegressionTree, TreeModel, grow_trees, row_means
from .tree import fit_tree  # noqa: F401, bound only for bench/test_bench.py's span test

# nu used when the correlation objective is degenerate (perfect linear fit)
FALLBACK_NU = 1.0


@dataclass(frozen=True)
class SRConfig:
    """Ensemble settings: k fully grown trees. nu None means tune_nu picks
    it, over nuopt's fixed search at the balanced magnitude weight; a
    float fixes it."""

    k: int = 100
    nu: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_int(self.k, "k", 1)
        check_int(self.seed, "seed")
        if self.nu is not None:
            check_float(self.nu, "nu", 0)


@dataclass(frozen=True)
class ShootingEnsemble(TreeModel):
    """What prediction reads, and all a saved model holds: OLS
    coefficients B (intercept first), the (p, k) offset draws D, nu and
    one tree per draw."""

    coefficients: np.ndarray
    offsets: np.ndarray
    nu: float
    trees: tuple[RegressionTree, ...]

    def __post_init__(self):
        coefficients = real_array(self.coefficients, "coefficients", (None,))
        object.__setattr__(self, "coefficients", coefficients)
        super().__post_init__()  # the trees, before the offsets' shape reads k
        offsets = real_array(self.offsets, "offsets", (coefficients.size, self.k))
        object.__setattr__(self, "offsets", offsets)
        check_float(self.nu, "nu", 0)

    @property
    def k(self) -> int:
        return len(self.trees)

    @property
    def n_features(self) -> int:
        return self.coefficients.size - 1


def shooting_start(
    train: Dataset, k: int, seed: int
) -> tuple[LinearModel, OffsetSet, np.ndarray]:
    """OLS fit, k offset draws and z = XB - Y on the training rows: the
    pieces that nu tuning and the gradient targets share."""
    linear = fit_ols(train)
    offsets = sample_offsets(linear, train.features, k, seed)
    z = augment(train.features) @ linear.coefficients - train.target
    return linear, offsets, z


def gradient_targets(z, projected, nu: float) -> np.ndarray:
    """Column i is the loss gradient at initial vector i: z + nu*XD_i, for
    a vector z and a matrix projected with one row per entry of z."""
    z = real_array(z, "z", (None,))
    # a length-1 z or a vector projected would otherwise broadcast silently
    return z[:, None] + nu * real_array(projected, "projected", (z.size, None))


def fit_at_nu(
    train: Dataset,
    start: tuple[LinearModel, OffsetSet, np.ndarray],
    nu: float,
) -> ShootingEnsemble:
    """The ensemble at this nu from a shooting_start on the same rows: one
    tree per gradient target, all grown by one grow_trees call on the
    features. At nu = 0 the k targets are all z, so the pass grows one tree
    and the ensemble holds it k times."""
    linear, offsets, z = start
    trees = grow_trees(train.features, gradient_targets(z, offsets.projected, nu))
    return ShootingEnsemble(linear.coefficients, offsets.offsets, nu, trees)


def _caller_level() -> int:
    """The warnings stacklevel, from the function that calls this one, of
    the first frame outside this package: the caller that asked for it.
    Under python -m shooting.cli it is the first frame in cli.py."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame.f_back and frame.f_code.co_filename.startswith(package):
        if frame.f_globals.get("__name__") == "__main__":
            break
        frame, level = frame.f_back, level + 1
    return level


def tune_nu(start: tuple[LinearModel, OffsetSet, np.ndarray]):
    """(nu, search): the nu a fit selects from a shooting_start, and the
    (cache, weight, NuResult) of nuopt's search at the balanced magnitude
    weight. With fewer than 2 offsets, an exact linear fit or a degenerate
    surface there is nothing to search: one RuntimeWarning, and
    (FALLBACK_NU, None)."""
    linear, offsets, z = start
    try:
        if linear.residual_variance == 0.0:
            # exact linear fit: offsets are all zero and z is machine
            # noise, so the correlation surface carries no signal
            raise DegenerateCorrelationError("perfect linear fit leaves nothing to decorrelate")
        cache = build_cache(z, offsets.projected)
        weight = balanced_magnitude_weight(cache)
        result = minimize_nu(cache, magnitude_weight=weight)
    except DegenerateCorrelationError as exc:
        message = f"nu tuning degenerate ({exc}); using nu={FALLBACK_NU}"
        warnings.warn(message, RuntimeWarning, stacklevel=_caller_level())
        return FALLBACK_NU, None
    return result.nu, (cache, weight, result)


def fit_shooting(train: Dataset, config: SRConfig = SRConfig()) -> ShootingEnsemble:
    """OLS, offset sampling, nu (fixed or tuned), then one tree per gradient target."""
    start = shooting_start(train, config.k, config.seed)
    nu = tune_nu(start)[0] if config.nu is None else float(config.nu)
    return fit_at_nu(train, start, nu)


def initial_vectors(ensemble: ShootingEnsemble, features) -> np.ndarray:
    """Per-estimator linear predictions X(B + nu*D_i) on arbitrary features,
    checked as every predict checks them."""
    return _initial(ensemble, real_array(features, "features", (None, ensemble.n_features)))


def _initial(ensemble: ShootingEnsemble, x: np.ndarray) -> np.ndarray:
    """initial_vectors on checked features, such as one forest block."""
    x = augment(x)
    # in place, so a call holds one (rows, k) matrix, not three
    initial = x @ ensemble.offsets
    initial *= ensemble.nu
    initial += (x @ ensemble.coefficients)[:, None]
    return initial


def _member_blocks(ensemble: ShootingEnsemble, x: np.ndarray):
    """Yield (rows, members) for each forest block of the checked features
    x: members[r, i] is initial vector i minus tree i's leaf value.
    ValueError, naming the first row, when a member is not finite: finite
    features large enough overflow the linear predictions."""
    for rows, values in ensemble.forest.leaves(x):
        with np.errstate(over="ignore", invalid="ignore"):
            members = _initial(ensemble, x[rows])
            members -= values.T
        finite = np.isfinite(members)
        if not finite.all():
            row = rows.start + int(np.argmin(finite.all(axis=1)))
            raise ValueError(f"row {row}: features too large, a member estimate is not finite")
        yield rows, members


def predict_per_estimator(ensemble: ShootingEnsemble, features) -> np.ndarray:
    """Column i: initial vector i minus tree i's gradient estimate.
    ValueError, naming the first row, when one is not finite."""
    x = real_array(features, "features", (None, ensemble.n_features))
    out = np.empty((x.shape[0], ensemble.k))
    for rows, members in _member_blocks(ensemble, x):
        out[rows] = members
    return out


def predict(ensemble: ShootingEnsemble, features) -> np.ndarray:
    """Mean of the per-estimator corrected predictions, block by block.
    ValueError, naming the first row, when a member estimate is not finite
    or a row's exact sum of them overflows."""
    x = real_array(features, "features", (None, ensemble.n_features))
    out = np.empty(x.shape[0])
    for rows, members in _member_blocks(ensemble, x):
        out[rows] = row_means(members)
    # finite members make NaN only where a row's exact sum overflows
    overflow = np.isnan(out)
    if overflow.any():
        row = int(np.argmax(overflow))
        raise ValueError(f"row {row}: features too large, the member estimates' sum overflows")
    return out


def oracle_predict(initial, target) -> tuple[np.ndarray, np.ndarray]:
    """Replace every tree with the exact gradient; all estimates collapse to Y.

    initial holds the (m, k) initial vectors on the rows of the (m,)
    target. Returns (per_estimator, aggregate). The subtraction is carried
    out rather than shortcut to Y so the identity is demonstrated, not
    assumed.
    """
    initial = real_array(initial, "initial", (None, None))
    target = real_array(target, "target", initial.shape[:1])
    exact_gradient = initial - target[:, None]
    per_estimator = initial - exact_gradient
    return per_estimator, row_means(per_estimator)


@dataclass(frozen=True)
class PCADiagnostics:
    """First-principal-component coordinates of the ensemble's trajectory.

    One (initial, terminal) pair per estimator plus the target's
    coordinate, all along the leading axis of the stacked collection.
    """

    initial_coords: np.ndarray
    terminal_coords: np.ndarray
    target_coord: float


def _leading_component(rows: np.ndarray) -> np.ndarray:
    """First principal axis of the row collection: the leading right
    singular vector of the centered rows, signed so that its largest
    entry in magnitude is positive."""
    centered = rows - rows.mean(axis=0)
    if not np.any(centered):
        raise ValueError("collection has zero variance; no principal axis")
    v = np.linalg.svd(centered, full_matrices=False)[2][0]
    return -v if v[np.argmax(np.abs(v))] < 0 else v


def project_trajectories(initial, terminal, target) -> PCADiagnostics:
    """Project (m, k) initial and terminal columns plus the target vector.

    The principal axis comes from the centered collection; the reported
    coordinates are the uncentered dot products with that axis.
    """
    initial = real_array(initial, "initial", (None, None))
    terminal = real_array(terminal, "terminal", initial.shape)
    target = real_array(target, "target", initial.shape[:1])
    collection = np.vstack([initial.T, terminal.T, target[None, :]])
    axis = _leading_component(collection)
    return PCADiagnostics(
        initial_coords=initial.T @ axis,
        terminal_coords=terminal.T @ axis,
        target_coord=float(target @ axis),
    )

