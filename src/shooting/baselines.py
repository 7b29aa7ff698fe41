"""Random forest and gradient boosting baselines over the same tree code."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .rng import BOOTSTRAP_STREAM, check_float, check_int, make_rng, real_array
from .tree import Presort, RegressionTree, TreeModel, fit_tree, grow_trees, predict_tree, row_means


@dataclass(frozen=True)
class RFConfig:
    """n_trees fully grown trees, each on its own bootstrap resample."""

    n_trees: int = 100
    seed: int = 0

    def __post_init__(self):
        check_int(self.n_trees, "n_trees", 1)
        check_int(self.seed, "seed")


@dataclass(frozen=True)
class GBMConfig:
    """n_stages trees of depth at most max_depth (None: unlimited).

    Boosting draws no random numbers, so seed is accepted and never read.
    """

    n_stages: int = 100
    learning_rate: float = 0.1
    max_depth: int | None = 3
    seed: int = 0

    def __post_init__(self):
        check_int(self.n_stages, "n_stages", 1)
        check_float(self.learning_rate, "learning_rate")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_depth is not None:
            check_int(self.max_depth, "max_depth", 0)
        check_int(self.seed, "seed")


@dataclass(frozen=True)
class RandomForest(TreeModel):
    trees: tuple[RegressionTree, ...]
    n_features: int


@dataclass(frozen=True)
class GradientBoosting(TreeModel):
    base_value: float
    learning_rate: float
    trees: tuple[RegressionTree, ...]
    n_features: int

    def __post_init__(self):
        check_float(self.learning_rate, "learning_rate")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        check_float(self.base_value, "base_value")
        super().__post_init__()


def fit_rf(train: Dataset, config: RFConfig = RFConfig()) -> RandomForest:
    """Bagged trees: tree i fits the m-row resample that bootstrap stream i
    draws with replacement, fit_tree(x[rows], y[rows]) bit for bit. One
    grow_trees call checks the training matrix once and grows every tree
    on its rows of it."""
    m = train.n_rows
    rows = np.array(
        [make_rng(config.seed, BOOTSTRAP_STREAM, i).integers(0, m, size=m) for i in range(config.n_trees)]
    )
    return RandomForest(grow_trees(train.features, train.target, rows), train.n_features)


def predict_rf(model: RandomForest, features) -> np.ndarray:
    """Mean of the tree outputs, exact so tree order cannot matter."""
    x = real_array(features, "features", (None, model.n_features))
    out = np.empty(x.shape[0])
    for rows, values in model.forest.leaves(x):
        out[rows] = row_means(values.T)
    return out


def fit_gbm(train: Dataset, config: GBMConfig = GBMConfig()) -> GradientBoosting:
    """Stagewise residual fitting from a constant mean start; every stage
    grows on one Presort of the features."""
    x = train.features
    presort = Presort(x)
    y = train.target
    base = float(y.mean())
    current = np.full(train.n_rows, base)
    trees = []
    for _ in range(config.n_stages):
        tree = fit_tree(presort, y - current, config.max_depth)
        trees.append(tree)
        current = current + config.learning_rate * predict_tree(tree, x)
    return GradientBoosting(base, config.learning_rate, tuple(trees), train.n_features)


def predict_gbm(model: GradientBoosting, features) -> np.ndarray:
    """Base value plus the learning-rate-scaled stage corrections in order."""
    x = real_array(features, "features", (None, model.n_features))
    out = np.empty(x.shape[0])
    for rows, values in model.forest.leaves(x):
        steps = model.learning_rate * values
        steps[0] += model.base_value
        # cumsum adds stage after stage, the order of a per-stage loop
        out[rows] = np.cumsum(steps, axis=0)[-1]
    return out
