"""Forest and boosting baselines: degenerate forms and staging behavior."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shooting import (
    Dataset,
    GBMConfig,
    RandomForest,
    RFConfig,
    SRConfig,
    baselines,
    fit_gbm,
    fit_rf,
    fit_shooting,
    fit_tree,
    make_synthetic,
    mse,
    predict,
    predict_gbm,
    predict_rf,
    predict_tree,
)
import shooting.tree as tree_module
from shooting.rng import BOOTSTRAP_STREAM, make_rng


def small_data(seed=0, m=40, n=3):
    return make_synthetic(m, n, 1.0, seed)


def test_rf_tree_is_plain_tree_on_its_bootstrap_rows():
    # tree i is a fully grown tree on the rows of bootstrap stream i and
    # nothing else: structures must agree node for node with the per-node
    # search, capped at the row count, which a tree on m rows never reaches
    d = small_data()
    for n_trees in (3, 12):
        forest = fit_rf(d, RFConfig(n_trees=n_trees, seed=4))
        for i, tree in enumerate(forest.trees):
            rows = make_rng(4, BOOTSTRAP_STREAM, i).integers(0, d.n_rows, size=d.n_rows)
            plain = fit_tree(d.features[rows], d.target[rows], d.n_rows)
            assert np.array_equal(tree.feature, plain.feature)
            assert np.array_equal(tree.threshold, plain.threshold, equal_nan=True)
            assert np.array_equal(tree.value, plain.value, equal_nan=True)


@pytest.mark.parametrize("k", [1, 2, 9, 10, 13])
def test_fit_rf_calls_fit_tree_once_per_tree(monkeypatch, k):
    # growth is timed through these calls: the first call holds the one
    # batched pass and the others take its trees
    d = small_data(seed=8, m=60)
    calls, passes = [], []
    grow_batch = tree_module._grow_batch

    def recording_fit_tree(features, targets, max_depth=None):
        calls.append(max_depth)
        return fit_tree(features, targets, max_depth)

    def recording_grow_batch(presort, pending):
        passes.append((len(calls), len(pending)))
        return grow_batch(presort, pending)

    monkeypatch.setattr(baselines, "fit_tree", recording_fit_tree)
    monkeypatch.setattr(tree_module, "_grow_batch", recording_grow_batch)
    forest = fit_rf(d, RFConfig(n_trees=k, seed=5))
    assert calls == [None] * k
    assert passes == [(1, k)]
    for i, tree in enumerate(forest.trees):
        rows = make_rng(5, BOOTSTRAP_STREAM, i).integers(0, d.n_rows, size=d.n_rows)
        # the per-node search at a cap that a tree on m rows never reaches
        plain = fit_tree(d.features[rows], d.target[rows], d.n_rows)
        for name in ("feature", "threshold", "value"):
            assert getattr(tree, name).tobytes() == getattr(plain, name).tobytes()


def test_identical_trees_average_exactly():
    # a power-of-two count of one tree makes (k*v)/k exact, so the forest
    # must match the tree bit for bit
    d = small_data(seed=2)
    tree = fit_tree(d.features, d.target)
    forest = RandomForest((tree,) * 8, d.n_features)
    q = make_synthetic(25, 3, 1.0, 7).features
    assert np.array_equal(predict_rf(forest, q), predict_tree(tree, q))


def test_rf_deterministic_and_trees_differ():
    d = small_data(seed=3)
    a = fit_rf(d, RFConfig(n_trees=5, seed=11))
    b = fit_rf(d, RFConfig(n_trees=5, seed=11))
    q = make_synthetic(20, 3, 1.0, 9).features
    assert np.array_equal(predict_rf(a, q), predict_rf(b, q))
    # bootstrap resamples must actually vary across members
    assert any(
        not np.array_equal(a.trees[0].value, t.value, equal_nan=True)
        or a.trees[0].value.size != t.value.size
        for t in a.trees[1:]
    )


def test_rf_mean_invariant_to_tree_order():
    d = small_data(seed=4)
    forest = fit_rf(d, RFConfig(n_trees=7, seed=4))
    q = make_synthetic(30, 3, 1.0, 13).features
    base = predict_rf(forest, q)
    columns = np.column_stack([predict_tree(t, q) for t in forest.trees])
    rng = np.random.default_rng(0)
    for _ in range(5):
        perm = rng.permutation(7)
        again = np.array([math.fsum(row) for row in columns[:, perm]]) / 7
        assert np.array_equal(base, again)


def test_rf_seed_changes_resamples():
    d = small_data(seed=5)
    a = fit_rf(d, RFConfig(n_trees=3, seed=1))
    b = fit_rf(d, RFConfig(n_trees=3, seed=2))
    q = make_synthetic(20, 3, 1.0, 21).features
    assert not np.array_equal(predict_rf(a, q), predict_rf(b, q))


def test_rf_config_validation():
    with pytest.raises(ValueError):
        RFConfig(n_trees=0)


def test_gbm_full_rate_single_deep_stage_is_exact():
    # learning rate 1 with one unlimited tree: mean start plus a tree on
    # the residuals reproduces every training target
    d = small_data(seed=6)
    model = fit_gbm(d, GBMConfig(n_stages=1, learning_rate=1.0, max_depth=None))
    assert model.base_value == pytest.approx(float(d.target.mean()), rel=1e-12)
    pred = predict_gbm(model, d.features)
    assert np.abs(pred - d.target).max() <= 1e-9


def test_gbm_training_mse_nonincreasing_by_stage():
    d = small_data(seed=7, m=80)
    model = fit_gbm(d, GBMConfig(n_stages=40))
    current = np.full(d.n_rows, model.base_value)
    last = mse(d.target, current)
    for tree in model.trees:
        current = current + model.learning_rate * predict_tree(tree, d.features)
        now = mse(d.target, current)
        assert now <= last + 1e-12
        last = now


def test_gbm_stage_trees_respect_depth():
    d = small_data(seed=8, m=60)
    model = fit_gbm(d, GBMConfig(n_stages=10))
    assert all(t.depth <= 3 for t in model.trees)


def test_gbm_deterministic():
    d = small_data(seed=9)
    a = fit_gbm(d, GBMConfig(n_stages=12, seed=3))
    b = fit_gbm(d, GBMConfig(n_stages=12, seed=3))
    q = make_synthetic(20, 3, 1.0, 31).features
    assert np.array_equal(predict_gbm(a, q), predict_gbm(b, q))


def test_gbm_trees_ignore_the_seed():
    # boosting draws nothing, so the seed cannot reach a tree
    d = small_data(seed=9)
    a = fit_gbm(d, GBMConfig(n_stages=12, seed=0))
    b = fit_gbm(d, GBMConfig(n_stages=12, seed=1))
    assert a.base_value == b.base_value
    for s, t in zip(a.trees, b.trees, strict=True):
        assert np.array_equal(s.feature, t.feature)
        assert np.array_equal(s.threshold, t.threshold, equal_nan=True)
        assert np.array_equal(s.value, t.value, equal_nan=True)


def test_gbm_prediction_composes_stages_in_order():
    d = small_data(seed=10)
    model = fit_gbm(d, GBMConfig(n_stages=6))
    q = make_synthetic(10, 3, 1.0, 41).features
    manual = np.full(q.shape[0], model.base_value)
    for tree in model.trees:
        manual = manual + model.learning_rate * predict_tree(tree, q)
    assert np.array_equal(predict_gbm(model, q), manual)


def test_gbm_config_validation():
    with pytest.raises(ValueError):
        GBMConfig(n_stages=0)
    with pytest.raises(ValueError):
        GBMConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        GBMConfig(learning_rate=1.5)
    # refused before any stage grows, as GradientBoosting would refuse it
    for flag in [True, np.True_]:
        with pytest.raises(ValueError, match="learning_rate must be a number"):
            GBMConfig(learning_rate=flag)
    for rate in [math.nan, math.inf]:
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            GBMConfig(learning_rate=rate)
    # None and a string raised a bare TypeError
    for rate in [None, "0.1"]:
        with pytest.raises(ValueError, match="^learning_rate must be a number, got "):
            GBMConfig(learning_rate=rate)


@pytest.mark.parametrize(
    "config, field, value",
    [
        (RFConfig, "n_trees", 2.5),
        (RFConfig, "n_trees", True),
        (RFConfig, "seed", 1.5),
        (GBMConfig, "n_stages", 2.5),
        (GBMConfig, "max_depth", 1.5),
        (GBMConfig, "max_depth", -1),
        (GBMConfig, "max_depth", False),
        (GBMConfig, "seed", 1.5),
    ],
)
def test_configs_reject_counts_that_are_not_integers(config, field, value):
    # a float depth would grow deeper trees, a float seed fit another
    # seed's forest, and a float count fail inside numpy at fit time
    with pytest.raises(ValueError, match=field):
        config(**{field: value})


def test_configs_accept_numpy_integers():
    assert RFConfig(n_trees=np.int64(3), seed=np.uint64(2**63)).n_trees == 3
    assert GBMConfig(n_stages=np.int32(2), max_depth=np.int64(0), seed=-5).max_depth == 0
    assert GBMConfig(max_depth=None).max_depth is None


def test_constant_target_collapses_both_models():
    d = Dataset(np.arange(8.0).reshape(4, 2), np.full(4, 3.0))
    forest = fit_rf(d, RFConfig(n_trees=3))
    gbm = fit_gbm(d, GBMConfig(n_stages=3))
    q = np.zeros((5, 2))
    assert np.array_equal(predict_rf(forest, q), np.full(5, 3.0))
    assert np.array_equal(predict_gbm(gbm, q), np.full(5, 3.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_predict_rejects_nonfinite_features(bad):
    # a NaN or inf feature routes right at every split, so without the
    # check a tree, the forest and boosting return finite numbers that mean
    # nothing
    d = small_data(seed=8)
    models = [
        (predict, fit_shooting(d, SRConfig(k=3, seed=8))),
        (predict_rf, fit_rf(d, RFConfig(n_trees=3, seed=8))),
        (predict_gbm, fit_gbm(d, GBMConfig(n_stages=3, seed=8))),
        (predict_tree, fit_tree(d.features, d.target)),
    ]
    x = make_synthetic(6, 3, 1.0, 9).features
    x[4, 1] = bad
    for predict_fn, model in models:
        with pytest.raises(ValueError, match="finite"):
            predict_fn(model, x)
        with pytest.raises(ValueError, match="feature count"):
            predict_fn(model, x[:, :2])
        with pytest.raises(ValueError, match="2-D"):
            predict_fn(model, x[0])
