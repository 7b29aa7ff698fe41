"""One sweep of malformed array arguments over the public API.

Every public function or input class in shooting.__all__ that takes an
array gets each bad value below in place of each of its array arguments,
and must refuse it with a ValueError whose message starts with the
argument's name, before any arithmetic could turn it into a NaN result or
parse it into a number. grow_trees is swept in both its forms, the
targets matrix and the bagged targets vector with its rows. An argument
whose length another argument or the model fixes is also swept one entry
short, and the refusal names the argument whose shape is checked against
the other's. Model containers (RegressionTree and the fitted models)
hold arrays that a fit or a saved file made, and the persist tests cover
them; scalars, configs and the CLI are outside this sweep.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest

import shooting
from shooting import (
    Dataset,
    GBMConfig,
    Presort,
    RFConfig,
    SRConfig,
    augment,
    build_cache,
    fit_gbm,
    fit_ols,
    fit_rf,
    fit_shooting,
    fit_tree,
    gradient_targets,
    grow_trees,
    initial_vectors,
    make_synthetic,
    mse,
    oracle_predict,
    paired_t_test,
    predict,
    predict_gbm,
    predict_per_estimator,
    predict_rf,
    predict_tree,
    project_trajectories,
    r_squared,
    sample_offsets,
    shooting_start,
)

# each entry's array arguments, by parameter name
ARRAY_ARGUMENTS = {
    "Dataset": ("features", "target"),
    "Presort": ("features",),
    "fit_tree": ("features", "targets"),
    "grow_trees": ("features", "targets"),
    "grow_trees, bagged": ("features", "targets", "rows"),
    "predict_tree": ("features",),
    "augment": ("features",),
    "sample_offsets": ("features",),
    "gradient_targets": ("z", "projected"),
    "build_cache": ("z", "projected_offsets"),
    "oracle_predict": ("initial", "target"),
    "project_trajectories": ("initial", "terminal", "target"),
    "mse": ("y_true", "y_pred"),
    "r_squared": ("y_true", "y_pred"),
    "paired_t_test": ("a", "b"),
    "initial_vectors": ("features",),
    "predict": ("features",),
    "predict_per_estimator": ("features",),
    "predict_rf": ("features",),
    "predict_gbm": ("features",),
}

BAD_VALUES = [
    "nan", "inf", "-inf", "complex", "str", "object str", "object np.str_",
    "bool", "object True", "object np.True_", "wrong rank", "ragged", "object list",
]
# the entry each object kind puts in place of the first value
OBJECT_ENTRIES = {
    "object str": "1", "object np.str_": np.str_("1"), "object True": True, "object np.True_": np.True_,
    "object list": [1.0, 2.0],
}

# each argument whose length another argument or the model fixes: the
# axis that a one-short value lacks an entry of (rows, or a model's
# feature columns), and the argument the refusal names, the partner when
# the partner's shape is the one checked against this one's
SHORT = {
    ("Dataset", "features"): (0, "target"),
    ("Dataset", "target"): (0, "target"),
    ("fit_tree", "features"): (0, "targets"),
    ("fit_tree", "targets"): (0, "targets"),
    ("grow_trees", "features"): (0, "targets"),
    ("grow_trees", "targets"): (0, "targets"),
    ("grow_trees, bagged", "features"): (0, "targets"),
    ("grow_trees, bagged", "targets"): (0, "targets"),
    ("predict_tree", "features"): (1, "features"),
    ("sample_offsets", "features"): (1, "features"),
    ("gradient_targets", "z"): (0, "projected"),
    ("gradient_targets", "projected"): (0, "projected"),
    ("build_cache", "z"): (0, "projected_offsets"),
    ("build_cache", "projected_offsets"): (0, "projected_offsets"),
    ("oracle_predict", "initial"): (0, "target"),
    ("oracle_predict", "target"): (0, "target"),
    ("project_trajectories", "initial"): (0, "terminal"),
    ("project_trajectories", "terminal"): (0, "terminal"),
    ("project_trajectories", "target"): (0, "target"),
    ("mse", "y_true"): (0, "y_pred"),
    ("mse", "y_pred"): (0, "y_pred"),
    ("r_squared", "y_true"): (0, "y_pred"),
    ("r_squared", "y_pred"): (0, "y_pred"),
    ("paired_t_test", "a"): (0, "b"),
    ("paired_t_test", "b"): (0, "b"),
    **{(entry, "features"): (1, "features") for entry in
       ("initial_vectors", "predict", "predict_per_estimator", "predict_rf", "predict_gbm")},
}


@pytest.fixture(scope="module")
def good_calls():
    """Each entry with valid arguments, by parameter name."""
    d = make_synthetic(12, 3, 1.0, 5)
    x, y = d.features, d.target
    sr = fit_shooting(d, SRConfig(k=3, seed=5))
    _, offsets, z = shooting_start(d, 3, 5)
    initial = initial_vectors(sr, x)
    one_tree = fit_tree(x, y)
    rf = fit_rf(d, RFConfig(n_trees=2, seed=5))
    gbm = fit_gbm(d, GBMConfig(n_stages=2, seed=5))
    return {
        "Dataset": (Dataset, dict(features=x, target=y)),
        "Presort": (Presort, dict(features=x)),
        "fit_tree": (fit_tree, dict(features=x, targets=y)),
        "grow_trees": (grow_trees, dict(features=x, targets=np.column_stack([y, 2 * y]))),
        "grow_trees, bagged": (
            grow_trees,
            dict(features=x, targets=y, rows=np.random.default_rng(5).integers(0, 12, size=(2, 12))),
        ),
        "predict_tree": (predict_tree, dict(tree=one_tree, features=x)),
        "augment": (augment, dict(features=x)),
        "sample_offsets": (sample_offsets, dict(model=fit_ols(d), features=x, k=2, seed=0)),
        "gradient_targets": (gradient_targets, dict(z=z, projected=offsets.projected, nu=1.0)),
        "build_cache": (build_cache, dict(z=z, projected_offsets=offsets.projected)),
        "oracle_predict": (oracle_predict, dict(initial=initial, target=y)),
        "project_trajectories": (
            project_trajectories,
            dict(initial=initial, terminal=predict_per_estimator(sr, x), target=y),
        ),
        "mse": (mse, dict(y_true=y, y_pred=predict(sr, x))),
        "r_squared": (r_squared, dict(y_true=y, y_pred=predict(sr, x))),
        "paired_t_test": (paired_t_test, dict(a=y, b=predict(sr, x))),
        "initial_vectors": (initial_vectors, dict(ensemble=sr, features=x)),
        "predict": (predict, dict(ensemble=sr, features=x)),
        "predict_per_estimator": (predict_per_estimator, dict(ensemble=sr, features=x)),
        "predict_rf": (predict_rf, dict(model=rf, features=x)),
        "predict_gbm": (predict_gbm, dict(model=gbm, features=x)),
    }


def _bad(kind: str, good: np.ndarray):
    """good with kind's defect: one NaN or infinite entry, an imaginary
    part, every entry as a string or a bool, one entry as a string, a
    bool or a list in an object array, one axis more, or, as a nested
    list, its first entry one level deeper than the others."""
    if kind == "wrong rank":
        return good[..., None]
    if kind == "ragged":
        out = good.tolist()
        out[0] = [out[0], out[0]]
        return out
    if kind == "complex":
        return good + 1j
    if kind in ("str", "bool"):
        return good.astype(kind)
    if kind in OBJECT_ENTRIES:
        out = good.astype(object)
        out.flat[0] = OBJECT_ENTRIES[kind]
        return out
    out = good.astype(float)
    out.flat[0] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}[kind]
    return out


def test_the_table_names_public_entries():
    # an entry's name, before any ", form"
    assert {entry.split(",")[0] for entry in ARRAY_ARGUMENTS} <= set(shooting.__all__)


@pytest.mark.parametrize(
    "entry, argument, kind",
    [(e, a, kind) for e, arguments in ARRAY_ARGUMENTS.items() for a in arguments for kind in BAD_VALUES]
    + [(e, a, "one short") for e, a in SHORT],
)
def test_every_array_argument_refuses_malformed_values(good_calls, entry, argument, kind):
    call, kwargs = good_calls[entry]
    call(**kwargs)
    expected = argument
    if kind == "one short":
        axis, expected = SHORT[entry, argument]
        bad = np.delete(kwargs[argument], -1, axis)
    else:
        bad = _bad(kind, kwargs[argument])
    with pytest.raises(ValueError) as info:
        call(**dict(kwargs, **{argument: bad}))
    assert re.match(rf"{expected}\b", str(info.value)), str(info.value)


def test_numeric_object_arrays_pass():
    # only strings and booleans are refused in an object array: Fraction
    # entries are real numbers, read as the floats they round to
    x = np.arange(8.0).reshape(4, 2)
    y = np.array([0.5, 1.0, 0.0, 2.0])
    fractions = np.array([Fraction(1, 2), 1, Fraction(0), 2.0], dtype=object)
    tree, want = fit_tree(x, fractions), fit_tree(x, y)
    for name in ("feature", "threshold", "value"):
        assert np.array_equal(getattr(tree, name), getattr(want, name))
    assert mse(fractions, y) == 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Dataset(np.zeros((3, 0)), np.zeros(3)), r"features must be at least 1 column wide"),
        (lambda: build_cache(np.zeros(1), np.zeros((1, 2))), r"z must be at least 2 long"),
        (lambda: mse([], []), r"y_true and y_pred must be at least 1 long"),
    ],
    ids=["Dataset without columns", "build_cache on one row", "mse of nothing"],
)
def test_size_rules_name_their_argument(call, message):
    # the sweep's arrays all pass these sites' size rules, which each
    # site keeps after real_array's shape check
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
