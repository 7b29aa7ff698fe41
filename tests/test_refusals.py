"""One sweep of malformed array arguments over the public API.

Every public function or input class in shooting.__all__ that takes an
array gets each bad value below in place of each of its array arguments,
and must refuse it with a ValueError whose message starts with the
argument's name, before any arithmetic could turn it into a NaN result or
parse it into a number. Model containers (RegressionTree and the fitted
models) hold arrays that a fit or a saved file made, and the persist
tests cover them; scalars, configs and the CLI are outside this sweep.
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

BAD_VALUES = ["nan", "inf", "-inf", "complex", "str", "object str", "wrong rank"]

# project_trajectories names its three shapes in one sentence, which tests
# of its own read; any other refusal starts with the argument's name
SHAPE_SENTENCE = r"initial and terminal must be \(m, k\) matrices and target an \(m,\) vector"


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
    part, every entry as a string, one entry as a string in an object
    array, or one axis more."""
    if kind == "wrong rank":
        return good[..., None]
    if kind == "complex":
        return good + 1j
    if kind == "str":
        return good.astype(str)
    out = good.astype(object if kind == "object str" else float)
    out.flat[0] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}.get(kind, "1")
    return out


def test_the_table_names_public_entries():
    assert set(ARRAY_ARGUMENTS) <= set(shooting.__all__)


@pytest.mark.parametrize("kind", BAD_VALUES)
@pytest.mark.parametrize(
    "entry, argument", [(e, a) for e, arguments in ARRAY_ARGUMENTS.items() for a in arguments]
)
def test_every_array_argument_refuses_malformed_values(good_calls, entry, argument, kind):
    call, kwargs = good_calls[entry]
    call(**kwargs)
    kwargs = dict(kwargs, **{argument: _bad(kind, kwargs[argument])})
    expected = argument
    if entry == "project_trajectories" and kind == "wrong rank":
        expected = SHAPE_SENTENCE
    with pytest.raises(ValueError) as info:
        call(**kwargs)
    assert re.match(rf"{expected}\b", str(info.value)), str(info.value)


def test_numeric_object_arrays_pass():
    # only strings are refused in an object array: Fraction entries are
    # real numbers, read as the floats they round to
    x = np.arange(8.0).reshape(4, 2)
    y = np.array([0.5, 1.0, 0.0, 2.0])
    fractions = np.array([Fraction(1, 2), 1, Fraction(0), 2.0], dtype=object)
    tree, want = fit_tree(x, fractions), fit_tree(x, y)
    for name in ("feature", "threshold", "value"):
        assert np.array_equal(getattr(tree, name), getattr(want, name))
    assert mse(fractions, y) == 0.0
