"""Greedy regression trees against brute-force, reference and structural checks."""

from __future__ import annotations

import json
import math
import tracemalloc
import warnings
from collections import deque
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shooting import (
    Dataset,
    GBMConfig,
    GradientBoosting,
    Presort,
    RFConfig,
    RandomForest,
    RegressionTree,
    SRConfig,
    ShootingEnsemble,
    augment,
    baselines,
    ensemble,
    fit_gbm,
    fit_rf,
    fit_shooting,
    fit_tree,
    gradient_targets,
    grow_trees,
    make_synthetic,
    model_from_dict,
    model_to_dict,
    predict,
    predict_gbm,
    predict_per_estimator,
    predict_rf,
    predict_tree,
    shooting_start,
    split,
)
import shooting.tree as tree_module
from shooting.rng import BOOTSTRAP_STREAM, make_rng
from shooting.tree import (
    BLOCK_ROWS,
    GROW_CELLS,
    LEAF,
    PAIR_ROWS,
    SEARCH_CELLS,
    SMALL_BLOCK,
    _node_totals,
    pack_forest,
    row_means,
)


def brute_force_split_set(x: np.ndarray, y: np.ndarray, tol: float = 1e-9):
    """All (feature, threshold) pairs whose SSE ties the enumerated optimum.

    SSE via direct mean subtraction, a different arithmetic path than the
    fitted tree's prefix sums, so agreement is not self-confirmation. Ties
    below tol are kept as a set; exact float ties can fall either way
    between the two computations.
    """
    scored = []
    for f in range(x.shape[1]):
        for thr in candidate_thresholds(x[:, f]):
            mask = x[:, f] <= thr
            sse = float(((y[mask] - y[mask].mean()) ** 2).sum()) + float(
                ((y[~mask] - y[~mask].mean()) ** 2).sum()
            )
            scored.append((sse, f, thr))
    if not scored:
        return []
    best = min(s for s, _, _ in scored)
    return [(f, thr) for s, f, thr in scored if s <= best + tol]


def candidate_thresholds(col: np.ndarray):
    vals = np.unique(col)
    out = []
    for lo, hi in zip(vals[:-1], vals[1:]):
        mid = 0.5 * (lo + hi)
        out.append(lo if mid >= hi else mid)
    return out


def _reference_best_split(x: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
    """Per-feature split search on a fresh stable argsort of the node's rows."""
    m = y.size
    total1 = float(y.sum())
    total2 = float((y * y).sum())
    best_sse = np.inf
    best: tuple[int, float] | None = None
    for f in range(x.shape[1]):
        xv = x[:, f]
        order = np.argsort(xv, kind="stable")
        xs = xv[order]
        ys = y[order]
        # positions p split into left = [0..p], right = [p+1..m-1]
        distinct = xs[:-1] < xs[1:]
        if not distinct.any():
            continue
        pos = np.nonzero(distinct)[0]
        c1 = np.cumsum(ys)[pos]
        c2 = np.cumsum(ys * ys)[pos]
        nl = pos + 1.0
        nr = m - nl
        sse = (c2 - c1 * c1 / nl) + (total2 - c2 - (total1 - c1) ** 2 / nr)
        k = int(np.argmin(sse))
        if sse[k] < best_sse:
            p = int(pos[k])
            thr = 0.5 * (xs[p] + xs[p + 1])
            if thr >= xs[p + 1]:
                thr = xs[p]
            best_sse = float(sse[k])
            best = (f, float(thr))
    return best


def reference_fit_tree(features, targets, max_depth=None):
    """The grower fit_tree must match bit for bit: it sorts at every node.

    Same control flow, level order and stopping rules as fit_tree, with
    each node's rows re-sorted per feature and routed by comparing against
    the threshold. Nodes are numbered as they are made; the tree keeps the
    thresholds of internal nodes and the values of leaves. A Presort is
    unwrapped to its matrix and not otherwise read.
    """
    if isinstance(features, Presort):
        features = features.xt.T
    x = np.ascontiguousarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    n = x.shape[1]
    feat, thr, value = [], [], []

    def new_node() -> int:
        feat.append(LEAF)
        thr.append(np.nan)
        value.append(np.nan)
        return len(feat) - 1

    queue = deque([(new_node(), np.arange(y.size), 0)])
    while queue:
        node, idx, depth = queue.popleft()
        ysub = y[idx]
        value[node] = float(ysub.mean())
        if max_depth is not None and depth >= max_depth:
            continue
        if ysub.min() == ysub.max():
            continue
        found = _reference_best_split(x[idx], ysub)
        if found is None:
            continue
        f, t = found
        go_left = x[idx, f] <= t
        feat[node] = f
        thr[node] = t
        queue.append((new_node(), idx[go_left], depth + 1))
        queue.append((new_node(), idx[~go_left], depth + 1))

    feature = np.array(feat, dtype=np.int64)
    internal = feature != LEAF
    return RegressionTree(
        feature=feature,
        threshold=np.array(thr, dtype=float)[internal],
        value=np.array(value, dtype=float)[~internal],
        n_features=n,
    )


def reference_predict_tree(tree: RegressionTree, x: np.ndarray) -> np.ndarray:
    """The per-tree walk the packed forest must match bit for bit."""
    return tree.value[_leaf_index(tree, x)]


def reference_per_estimator(model, x: np.ndarray) -> np.ndarray:
    xa = augment(x)
    initial = (xa @ model.coefficients)[:, None] + model.nu * (xa @ model.offsets)
    for i, tree in enumerate(model.trees):
        initial[:, i] -= reference_predict_tree(tree, x)
    return initial


def fsum_means(columns: np.ndarray) -> np.ndarray:
    """The exact row mean by one fsum per row, NaN where the sum overflows:
    the reference row_means must match bit for bit."""
    sums = []
    for row in columns:
        try:
            sums.append(math.fsum(row))
        except OverflowError:
            sums.append(math.nan)
    return np.array(sums, dtype=float) / columns.shape[1]


def reference_predict_rf(model, x: np.ndarray) -> np.ndarray:
    return fsum_means(np.column_stack([reference_predict_tree(t, x) for t in model.trees]))


def reference_predict_gbm(model, x: np.ndarray) -> np.ndarray:
    out = np.full(x.shape[0], model.base_value)
    for tree in model.trees:
        out = out + model.learning_rate * reference_predict_tree(tree, x)
    return out


def reference_median_leaf_depth(trees) -> int:
    """The lower median of the trees' leaf depths, each node's depth
    carried to its children 2j + 1 and 2j + 2 one node at a time."""
    depths = []
    for tree in trees:
        depth = np.zeros(tree.n_nodes, dtype=np.int64)
        for j, i in enumerate(np.flatnonzero(tree.feature != LEAF)):
            depth[2 * j + 1 : 2 * j + 3] = depth[i] + 1
        depths.append(depth[tree.feature == LEAF])
    depths = np.sort(np.concatenate(depths))
    return int(depths[(depths.size - 1) // 2])


def assert_same_tree(a: RegressionTree, b: RegressionTree) -> None:
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold)
    # bytes, so the sign of a zero leaf counts
    assert a.value.tobytes() == b.value.tobytes()
    assert a.n_features == b.n_features
    assert np.array_equal(a.left, b.left)
    assert np.array_equal(a.right, b.right)
    assert a.depth == b.depth


# ------------------------------------------------------------------- fit


def test_constant_targets_single_leaf():
    tree = fit_tree(np.array([[0.0], [1.0], [2.0]]), np.full(3, 4.5))
    assert tree.n_nodes == 1
    assert tree.depth == 0
    assert predict_tree(tree, np.array([[99.0]])) == pytest.approx([4.5])


def test_step_function_recovered():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tree = fit_tree(x, y)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(1.5)
    assert sorted(tree.value) == [0.0, 10.0]
    assert np.array_equal(predict_tree(tree, x), y)
    # boundary convention: a value equal to the threshold goes left
    assert predict_tree(tree, np.array([[1.5]])) == pytest.approx([0.0])
    assert predict_tree(tree, np.array([[1.0], [2.0]])) == pytest.approx([0.0, 10.0])


def test_distinct_rows_pure_leaves():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    tree = fit_tree(x, y)
    assert predict_tree(tree, x) == pytest.approx(y, abs=1e-12)


def test_fit_errors():
    with pytest.raises(ValueError):
        fit_tree(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        fit_tree(np.zeros((2, 1)), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        fit_tree(np.zeros((3, 1)), np.zeros(2))
    # a Presort carries the feature checks; the targets are checked per tree
    with pytest.raises(ValueError, match="zero rows"):
        Presort(np.zeros((0, 2)))
    with pytest.raises(ValueError, match=r"^targets must be of shape \(3,\), got \(2,\)"):
        fit_tree(Presort(np.zeros((3, 1))), np.zeros(2))


def test_fit_rejects_complex_values():
    # numpy dropped the imaginary part behind a ComplexWarning and grew a tree
    x = np.arange(8.0).reshape(4, 2)
    y = np.array([0.0, 1.0, 0.0, 2.0])
    for call in (lambda: Presort(x + 1j), lambda: fit_tree(x + 1j, y)):
        with pytest.raises(ValueError, match="^features must be real numbers, not complex"):
            call()
    with pytest.raises(ValueError, match="^targets must be real numbers, not complex"):
        fit_tree(x, y + 1j)


def test_string_arrays_are_refused():
    # numpy parsed "1" into a tree, a predict and a Dataset, and refused "a"
    # in a message that named no argument
    data = make_synthetic(20, 2, 1.0, 0)
    model = fit_shooting(data, SRConfig(k=2, nu=1.0, seed=0))
    x, y = data.features, data.target
    for strings in (x.astype(str), x.astype(bytes), np.where(x > 0, "a", "2")):
        for call in (
            lambda: Presort(strings),
            lambda: fit_tree(strings, y),
            lambda: predict(model, strings),
            lambda: predict_tree(model.trees[0], strings),
            lambda: Dataset(strings, y),
        ):
            with pytest.raises(ValueError, match="^features must be real numbers, not strings"):
                call()
    for strings in (y.astype(str), y.astype(bytes)):
        with pytest.raises(ValueError, match="^targets must be real numbers, not strings"):
            fit_tree(x, strings)
        with pytest.raises(ValueError, match="^target must be real numbers, not strings"):
            Dataset(x, strings)


@pytest.mark.parametrize("field", ["feature", "threshold", "value"])
def test_tree_fields_must_be_arrays(field):
    # a list used to fail with "'list' object has no attribute 'size'"
    arrays = {
        "feature": np.array([0, LEAF, LEAF]),
        "threshold": np.array([0.5]),
        "value": np.array([1.0, 2.0]),
    }
    for bad in (arrays[field].tolist(), arrays[field][None, :]):
        with pytest.raises(ValueError, match=f"^{field} must be a 1-D numpy array"):
            RegressionTree(**{**arrays, field: bad}, n_features=1)
    assert RegressionTree(**arrays, n_features=1).n_nodes == 3


@pytest.mark.parametrize("dtype", [float, bool, object])
def test_tree_feature_ids_must_be_integers(dtype):
    # a float id built, then failed predict with numpy's IndexError, while
    # save_model truncated 0.5 to feature 0
    feature = np.array([0.5, LEAF, LEAF], dtype=dtype)
    with pytest.raises(ValueError, match="^feature must be integer ids"):
        RegressionTree(feature, np.array([1.0]), np.array([1.0, 2.0]), 1)
    for ids in (np.array([0, LEAF, LEAF], dtype=np.int8), np.array([0, LEAF, LEAF])):
        assert RegressionTree(ids, np.array([1.0]), np.array([1.0, 2.0]), 1).n_nodes == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_nonfinite_features(bad):
    # a NaN would otherwise sort last and leave a cut at 1.5 that no
    # predict can route it through
    with pytest.raises(ValueError, match="features must be finite"):
        fit_tree([[bad], [1.0], [2.0]], [0.0, 1.0, 5.0])


def test_overflowing_targets_rejected():
    # m * sum(y^2) overflows: the prefix-sum SSE would hold inf and NaN
    x = np.arange(4.0).reshape(4, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            fit_tree(x, [1e200, -1e200, 0.0, 5.0])
        # just below the limit the tree still fits exactly
        y = np.array([1e150, -1e150, 0.0, 5.0])
        assert np.array_equal(predict_tree(fit_tree(x, y), x), y)


@pytest.mark.parametrize("lo, hi", [(-1.7e308, -1e308), (1e308, 1.7e308)])
def test_midpoint_overflow_keeps_split_consistent(lo, hi):
    # lo + hi overflows; the threshold must still separate them
    x = np.array([[lo], [hi]])
    y = np.array([0.0, 1.0])
    tree = fit_tree(x, y)
    assert tree.n_nodes == 3
    assert lo <= tree.threshold[0] < hi
    # the extremes route by the cut too, and a leaf's inf threshold holds
    # the largest finite value, in the direct and the packed walk alike
    big = np.finfo(float).max
    q = np.concatenate([x, [[-big], [big]]])
    expected = np.concatenate([y, y])
    assert np.array_equal(predict_tree(tree, q), expected)
    assert np.array_equal(predict_rf(RandomForest((tree,), 1), q), expected)


def test_params_validation():
    x, y = np.arange(3.0).reshape(3, 1), np.arange(3.0)
    for bad in [-1, 1.5, True]:
        with pytest.raises(ValueError, match="max_depth"):
            fit_tree(x, y, max_depth=bad)
    assert fit_tree(x, y, max_depth=0).n_nodes == 1
    assert fit_tree(x, y, max_depth=np.int64(1)).depth == 1


@pytest.mark.parametrize(
    "feature, threshold, value, match",
    [
        # the internal node would be the parent of nodes 1 and 2, itself among them
        ([LEAF, 0, LEAF], [0.5], [1.0, 2.0], "parent"),
        ([0, LEAF, LEAF, 0, LEAF], [0.5, 1.5], [1.0, 2.0, 3.0], "parent"),
        ([0, LEAF], [0.5], [1.0], "parent"),
        ([], [], [], "parent"),
        ([0, LEAF, LEAF], [0.5, 1.5], [1.0, 2.0], r"^threshold must be of shape \(1,\), got \(2,\)"),
        ([0, LEAF, LEAF], [], [1.0, 2.0], r"^threshold must be of shape \(1,\), got \(0,\)"),
        ([0, LEAF, LEAF], [0.5], [1.0, 2.0, 3.0], r"^value must be of shape \(2,\), got \(3,\)"),
        ([0, LEAF, LEAF], [0.5], [1.0], r"^value must be of shape \(2,\), got \(1,\)"),
        ([2, LEAF, LEAF], [0.5], [1.0, 2.0], "out of range"),
        ([-2, LEAF, LEAF], [0.5], [1.0, 2.0], "out of range"),
    ],
)
def test_tree_that_breaks_level_order_cannot_exist(feature, threshold, value, match):
    # without the check, the derived depth would never end on [LEAF, 0, LEAF]
    with pytest.raises(ValueError, match=match):
        RegressionTree(
            np.array(feature, dtype=np.int64), np.array(threshold), np.array(value), n_features=2
        )


def test_tree_links_and_depth_follow_level_order():
    # root cuts, its left child is a leaf, its right child cuts again
    tree = RegressionTree(
        np.array([0, LEAF, 1, LEAF, LEAF]), np.array([0.5, 1.5]), np.array([1.0, 2.0, 3.0]), 2
    )
    assert tree.left.tolist() == [1, LEAF, 3, LEAF, LEAF]
    assert tree.right.tolist() == [2, LEAF, 4, LEAF, LEAF]
    assert (tree.depth, tree.n_nodes, tree.n_leaves) == (2, 5, 3)
    x = np.array([[0.0, 9.0], [1.0, 1.0], [1.0, 2.0]])
    assert predict_tree(tree, x).tolist() == [1.0, 2.0, 3.0]


def test_predict_dimension_mismatch():
    tree = fit_tree(np.zeros((3, 2)), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        predict_tree(tree, np.zeros((2, 3)))


# ------------------------------------------------------------ tie breaks


def test_tie_breaks_lowest_feature_then_threshold():
    # both features separate the rows identically: feature 0 must win
    x = np.array([[0.0, 10.0], [1.0, 11.0]])
    tree = fit_tree(x, np.array([0.0, 1.0]))
    assert tree.feature[0] == 0
    # two equally good cuts inside one feature: the lower threshold wins
    x2 = np.array([[0.0], [1.0], [2.0]])
    y2 = np.array([0.0, 1.0, 0.0])
    tree2 = fit_tree(x2, y2)
    assert tree2.threshold[0] == pytest.approx(0.5)
    # two rows that feature 0 ties, feature 1 orders b first and feature 2
    # a first: both cuts have SSE 0.0, so feature 1 wins, with b left
    x3 = np.array([[5.0, 1.0, 0.0], [5.0, 0.0, 1.0]])
    tree3 = fit_tree(x3, np.array([0.0, 1.0]))
    assert tree3.feature[0] == 1
    assert np.array_equal(predict_tree(tree3, x3), [0.0, 1.0])
    # the same pair on targets whose two cut SSEs round apart (feature 2
    # wins on the first), and signed-zero targets: a pair of them is
    # constant, a leaf reading 0.0
    cases = [
        (x3, np.array([0.1, 0.7])),
        (x3, np.array([0.7, 0.1])),
        (np.array([[0.0, 1.0], [-0.0, 0.0]]), np.array([3.0, -1e-3])),
        (x3, np.array([-0.0, 0.0])),
        (x3, np.array([-0.0, -0.0])),
        (np.array([[0.0], [1.0], [2.0]]), np.array([-0.0, 0.0, 1.0])),
    ]
    for x, y in cases:
        assert_same_tree(fit_tree(x, y), reference_fit_tree(x, y))


def test_midpoint_rounding_guard():
    # lo's last mantissa bit is odd: 1.0 and its neighbour would round to
    # even 1.0, which needs no guard
    lo = np.nextafter(1.0, 2.0)
    hi = np.nextafter(lo, 2.0)
    assert 0.5 * (lo + hi) == hi
    x = np.array([[lo], [hi]])
    y = np.array([0.0, 1.0])
    tree = fit_tree(x, y)
    # midpoint of adjacent floats rounds up to hi; the threshold must still
    # route lo left and hi right
    assert tree.n_nodes == 3
    assert tree.threshold[0] == lo
    assert np.array_equal(predict_tree(tree, x), y)


def test_zero_gain_split_still_made():
    x = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 10.0, 0.0, 10.0])
    tree = fit_tree(x, y)
    assert tree.n_nodes > 1


# ------------------------------------------------------------ invariants


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_root_split_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 13))
    n = int(rng.integers(1, 3))
    x = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    tree = fit_tree(x, y, max_depth=2)
    ties = brute_force_split_set(x, y)
    if not ties:
        assert tree.n_nodes == 1
        return
    chosen = (int(tree.feature[0]), float(tree.threshold[0]))
    assert any(
        chosen[0] == f and chosen[1] == pytest.approx(thr, rel=1e-12)
        for f, thr in ties
    )
    if len(ties) == 1:
        assert chosen[0] == ties[0][0]
        assert chosen[1] == pytest.approx(ties[0][1], rel=1e-12)


@given(seed=st.integers(0, 10_000), depth=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_training_loss_non_increasing_in_depth(seed, depth):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    shallow = fit_tree(x, y, max_depth=depth)
    deep = fit_tree(x, y, max_depth=depth + 1)
    sse_shallow = float(((y - predict_tree(shallow, x)) ** 2).sum())
    sse_deep = float(((y - predict_tree(deep, x)) ** 2).sum())
    assert sse_deep <= sse_shallow + 1e-9


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_duplicate_rows_share_one_leaf_holding_their_mean(seed):
    # a bootstrap resample repeats rows; no cut separates copies of a row,
    # so a fully grown tree ends each row's copies, and only them, in one
    # leaf whose value is the mean of their different targets
    rng = np.random.default_rng(seed)
    distinct = rng.standard_normal((25, 2))
    rows = rng.integers(0, 25, size=25)
    x = distinct[rows]
    y = rng.standard_normal(25)
    tree = fit_tree(x, y)
    leaf_of_row = _leaf_index(tree, x)
    for r in np.unique(rows):
        copies = rows == r
        leaf = leaf_of_row[copies][0]
        assert np.array_equal(leaf_of_row == leaf, copies)
        assert tree.value[leaf] == pytest.approx(y[copies].mean(), rel=1e-12)


def _leaf_index(tree: RegressionTree, x: np.ndarray) -> np.ndarray:
    """Each row's leaf as an index into tree.value, by a walk over links
    derived here from the level order rather than read from the tree."""
    internal = tree.feature != LEAF
    rank = np.cumsum(internal) - 1  # children of internal node j: 2j + 1, 2j + 2
    node = np.zeros(x.shape[0], dtype=np.int64)
    rows = np.flatnonzero(internal[node])
    while rows.size:
        at = rank[node[rows]]
        go_left = x[rows, tree.feature[node[rows]]] <= tree.threshold[at]
        node[rows] = np.where(go_left, 2 * at + 1, 2 * at + 2)
        rows = rows[internal[node[rows]]]
    return np.cumsum(~internal)[node] - 1


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_leaf_values_are_sample_means(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((20, 2))
    y = rng.standard_normal(20)
    tree = fit_tree(x, y, max_depth=3)
    leaf_of_row = _leaf_index(tree, x)
    for leaf in np.unique(leaf_of_row):
        assert tree.value[leaf] == pytest.approx(y[leaf_of_row == leaf].mean())
    # any query lands in exactly one leaf, so its prediction is one of them
    queries = rng.standard_normal((10, 2))
    preds = predict_tree(tree, queries)
    leaf_values = set(tree.value)
    assert all(p in leaf_values for p in preds)


@given(seed=st.integers(0, 10_000), cap=st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_depth_cap_respected(seed, cap):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    tree = fit_tree(x, y, max_depth=cap)
    assert tree.depth <= cap


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    n=st.integers(1, 3),
    max_depth=st.sampled_from([None, 0, 1, 3]),
)
@settings(max_examples=100, deadline=None)
def test_nodes_laid_out_in_level_order(seed, m, n, max_depth):
    # the links a saved document leaves out: the internal node of rank j
    # has children 2j + 1 and 2j + 2
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((m, n)), 1)
    tree = fit_tree(x, np.round(rng.standard_normal(m), 1), max_depth)
    internal = tree.feature != LEAF
    rank = np.cumsum(internal) - 1
    assert np.array_equal(tree.left[internal], 2 * rank[internal] + 1)
    assert np.array_equal(tree.right, np.where(internal, tree.left + 1, LEAF))
    assert np.all(tree.left[~internal] == LEAF)
    depth = np.zeros(tree.n_nodes, dtype=np.int64)
    for i in np.flatnonzero(internal):
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    assert np.all(np.diff(depth) >= 0)
    assert depth[-1] == tree.depth
    # a threshold per internal node and a value per leaf, as saved
    assert tree.threshold.size == np.sum(internal)
    assert tree.value.size == tree.n_nodes - np.sum(internal)


# ------------------------------------------------- presort vs per-node sort


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    n=st.integers(0, 4),
    decimals=st.integers(0, 2),
    bootstrap=st.booleans(),
    max_depth=st.sampled_from([None, 0, 1, 3]),
)
# two and three rows that some features tie (0.0 against -0.0 among them)
# and others order in opposite directions
@example(seed=7, m=2, n=4, decimals=0, bootstrap=False, max_depth=None)
@example(seed=7, m=3, n=4, decimals=0, bootstrap=False, max_depth=None)
@settings(max_examples=300, deadline=None)
def test_presorted_growth_matches_per_node_sort(
    seed, m, n, decimals, bootstrap, max_depth
):
    rng = np.random.default_rng(seed)
    # rounding makes ties, resampling makes duplicate rows
    x = np.round(rng.standard_normal((m, n)), decimals)
    y = np.round(rng.standard_normal(m), decimals + 1)
    if bootstrap:
        rows = rng.integers(0, m, size=m)
        x, y = x[rows], y[rows]
    assert_same_tree(
        fit_tree(x, y, max_depth), reference_fit_tree(x, y, max_depth)
    )


def test_node_totals_round_as_numpy():
    # the batched pass totals nodes of one size together; a numpy whose
    # reduction along rows rounds unlike np.sum must fail here rather than
    # silently move trees. Nodes of every size from 1 to 40 share one call
    rng = np.random.default_rng(0)
    for _ in range(50):
        nodes = []
        for n in range(1, 41):
            nodes += [np.full(n, -0.0), np.full(n, 0.0), rng.choice([0.0, -0.0], n)]
        for n in rng.permutation(np.repeat(np.arange(1, 41), 4)):
            values = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 150, n)
            values[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
            nodes.append(values)
        size = np.array([node.size for node in nodes])
        start = np.cumsum(size) - size
        mean, total1, total2, constant = _node_totals(np.concatenate(nodes), start, size)
        for i, values in enumerate(nodes):
            assert total1[i].tobytes() == np.sum(values).tobytes()
            # a one-row node is never searched, so its sum of y^2 goes unread
            squares = np.sum(values * values) if values.size > 1 else 0.0
            assert total2[i].tobytes() == np.float64(squares).tobytes()
            assert mean[i].tobytes() == values.mean().tobytes()
            assert constant[i] == (values.min() == values.max())


@given(
    seed=st.integers(0, 2**32 - 1),
    # nodes on both sides of each power-of-two search width
    m=st.sampled_from([2**e + d for e in range(1, 6) for d in (-1, 0, 1)]),
    n=st.integers(1, 4),
    decimals=st.integers(0, 2),
    bootstrap=st.booleans(),
    signed_zeros=st.booleans(),
    near_overflow=st.booleans(),
    max_depth=st.sampled_from([None, 0, 1, 3]),
)
@settings(max_examples=200, deadline=None)
def test_search_matches_reference_at_the_width_boundaries(
    seed, m, n, decimals, bootstrap, signed_zeros, near_overflow, max_depth
):
    # the root and its first children hold 2^e - 1, 2^e or 2^e + 1 rows, so
    # the pass searches them unpadded or padded by up to 2^e - 1 values
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((m, n)), decimals)
    y = np.round(rng.standard_normal(m), decimals + 1)
    if bootstrap:
        rows = rng.integers(0, m, size=m)
        x, y = x[rows], y[rows]
    if signed_zeros:
        y[rng.random(m) < 0.4] = -0.0
        y[rng.random(m) < 0.2] = 0.0
    if near_overflow and np.any(y):
        # m * sum(y^2) at a quarter of the largest float
        y *= np.sqrt(0.25 * np.finfo(float).max / m) / np.sqrt(np.sum(y * y))
    tree = fit_tree(x, y, max_depth)
    assert_same_tree(tree, reference_fit_tree(x, y, max_depth))
    if max_depth is None:
        # a tree on m rows is at most m - 1 deep: a cap of m never binds
        assert_same_tree(tree, fit_tree(x, y, m))


def reference_grow_trees(features, targets, rows=None):
    """grow_trees on a feature matrix by reference_fit_tree, one tree at a
    time."""
    x = np.asarray(features)
    if rows is None:
        return tuple(reference_fit_tree(x, column) for column in np.asarray(targets).T)
    return tuple(reference_fit_tree(x[r], targets[r]) for r in rows)


def test_models_grow_reference_trees(mpg, monkeypatch):
    # integer-valued columns tie heavily; RF resamples duplicate rows. Whole
    # fits at the defaults' sizes: the batched pass and the capped grower
    # share one cut search, and this is its check against a grower that
    # re-sorts every node and searches one feature at a time
    train, _ = split(mpg, val_fraction=0.5, seed=3)
    fits = [
        (fit_shooting, SRConfig(k=100, seed=3)),
        (fit_rf, RFConfig(n_trees=100, seed=3)),
        (fit_gbm, GBMConfig(n_stages=100, seed=3)),
    ]
    grown = [fit(train, config).trees for fit, config in fits]
    monkeypatch.setattr(ensemble, "grow_trees", reference_grow_trees)
    monkeypatch.setattr(baselines, "grow_trees", reference_grow_trees)
    monkeypatch.setattr(baselines, "fit_tree", reference_fit_tree)
    for (fit, config), trees in zip(fits, grown):
        reference = fit(train, config).trees
        assert len(trees) == len(reference)
        for a, b in zip(trees, reference):
            assert_same_tree(a, b)


def test_one_presort_per_fit(mpg, monkeypatch):
    # every tree of one SR, RF or GBM fit grows on the one Presort the fit
    # builds: a per-tree check or argsort of the training matrix must not
    # come back. SR and RF grow in one batched pass on it at 5 trees too,
    # GBM's capped stages in none
    train, _ = split(mpg, val_fraction=0.5, seed=3)
    built, received, passes = [], [], []
    grow_batch = tree_module._grow_batch

    class CountedPresort(Presort):
        def __init__(self, features):
            super().__init__(features)
            self.bytes_at_build = (self.xt.tobytes(), self.order.tobytes())
            built.append(self)

    def recording_fit_tree(features, targets, max_depth=None):
        received.append(features)
        return fit_tree(features, targets, max_depth)

    def recording_grow_batch(presort, columns, rows):
        passes.append(presort)
        return grow_batch(presort, columns, rows)

    # SR and RF hand their matrix to grow_trees, GBM builds its own
    for module in (tree_module, baselines):
        monkeypatch.setattr(module, "Presort", CountedPresort)
    monkeypatch.setattr(baselines, "fit_tree", recording_fit_tree)
    monkeypatch.setattr(tree_module, "_grow_batch", recording_grow_batch)
    for fit, config, n_passes in [
        (fit_shooting, SRConfig(k=5, seed=3), 1),
        (fit_rf, RFConfig(n_trees=5, seed=3), 1),
        (fit_gbm, GBMConfig(n_stages=5), 0),
    ]:
        built.clear()
        received.clear()
        passes.clear()
        model = fit(train, config)
        assert len(built) == 1 and len(model.trees) == 5
        (presort,) = built
        assert passes == [presort] * n_passes
        assert received == ([] if n_passes else [presort] * 5)
        # the shared arrays are read-only and unchanged by every tree
        assert not (presort.xt.flags.writeable or presort.order.flags.writeable)
        assert (presort.xt.tobytes(), presort.order.tobytes()) == presort.bytes_at_build
        assert np.array_equal(presort.xt, train.features.T)
        # no Python-list copy of the matrix for a scalar search
        assert not hasattr(presort, "lists")


# ----------------------------------------------------- one call per tree


def test_each_fit_calls_fit_tree_once_per_tree_around_one_pass(mpg, monkeypatch):
    # the benchmark times and counts growth through tree.fit_tree: an SR
    # or RF fit of k trees makes k calls, the one batched pass runs inside
    # the first, and at nu = 0 the k calls return one tree object, grown
    # once, for a few trees or many
    train, _ = split(mpg, val_fraction=0.5, seed=3)
    events, returned, passes = [], [], []
    grow_batch = tree_module._grow_batch

    def recording_fit_tree(features, targets, max_depth=None):
        events.append("call")
        returned.append(fit_tree(features, targets, max_depth))
        return returned[-1]

    def recording_grow_batch(presort, columns, rows):
        events.append("pass")
        trees = grow_batch(presort, columns, rows)
        passes.append(len({id(tree) for tree in trees}))
        return trees

    monkeypatch.setattr(tree_module, "fit_tree", recording_fit_tree)
    monkeypatch.setattr(tree_module, "_grow_batch", recording_grow_batch)

    def fit(run, k, grown):
        """run's model, after checking its calls: k of them, the one pass
        inside the first, growing grown distinct trees."""
        events.clear()
        returned.clear()
        passes.clear()
        model = run()
        assert events == ["call", "pass"] + ["call"] * (k - 1) and passes == [grown]
        assert list(map(id, returned)) == list(map(id, model.trees))
        return model

    start = shooting_start(train, 5, 3)
    fit(lambda: ensemble.fit_at_nu(train, start, 1.0), 5, 5)
    fit(lambda: fit_rf(train, RFConfig(n_trees=5, seed=3)), 5, 5)
    for k in (5, 20):
        start = shooting_start(train, k, 3)
        model = fit(lambda: ensemble.fit_at_nu(train, start, 0.0), k, 1)
        assert all(tree is model.trees[0] for tree in model.trees)
        assert_same_tree(model.trees[0], fit_tree(Presort(train.features), start[2]))
        # any other nu grows k trees
        fit(lambda: ensemble.fit_at_nu(train, start, 1e-6), k, k)


@pytest.mark.parametrize("k", [1, 2, 9, 10, 13])
def test_fit_at_nu_calls_fit_tree_once_per_tree(mpg, monkeypatch, k):
    # growth is timed through these calls: the first call holds the one
    # batched pass and the others take its trees
    train, _ = split(mpg, val_fraction=0.5, seed=3)
    start = shooting_start(train, k, 3)
    calls, passes = [], []
    grow_batch = tree_module._grow_batch

    def recording_fit_tree(features, targets, max_depth=None):
        calls.append(max_depth)
        return fit_tree(features, targets, max_depth)

    def recording_grow_batch(presort, columns, rows):
        passes.append((len(calls), len(columns)))
        return grow_batch(presort, columns, rows)

    monkeypatch.setattr(tree_module, "fit_tree", recording_fit_tree)
    monkeypatch.setattr(tree_module, "_grow_batch", recording_grow_batch)
    model = ensemble.fit_at_nu(train, start, 1.0)
    assert calls == [None] * k
    assert passes == [(1, k)]
    targets = gradient_targets(start[2], start[1].projected, 1.0)
    for tree, alone in zip(model.trees, _grown_alone(train.features, targets)):
        assert_same_tree(tree, alone)


def test_stalled_boosting_stages_are_one_tree():
    # constant targets leave every residual at 0.0, so no stage moves the
    # fit: each stage grows the same one-leaf tree
    d = Dataset(make_synthetic(30, 2, 1.0, 0).features, np.full(30, 2.5))
    model = fit_gbm(d, GBMConfig(n_stages=4))
    assert model.trees[0].n_nodes == 1
    for tree in model.trees:
        assert_same_tree(tree, model.trees[0])
    assert predict_gbm(model, d.features).tolist() == [2.5] * 30


# ----------------------------------------------------- batched pass


def _grown_alone(x, targets):
    """Each column's tree from the per-node search on its own fresh
    Presort, capped at the row count: a tree on m rows is at most m - 1
    deep, so the cap never binds and the tree is the fully grown one."""
    return [fit_tree(Presort(x), column, x.shape[0]) for column in targets.T]


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    n=st.integers(0, 4),
    k=st.integers(3, 16),
    decimals=st.integers(0, 2),
    bootstrap=st.booleans(),
    signed_zeros=st.booleans(),
    repeats=st.booleans(),
    group=st.sampled_from([None, 1, 3]),
    search_cells=st.sampled_from([SEARCH_CELLS, 1, 64]),
)
# nodes past 128 rows search in the 256-wide bucket, past 256 in the 512
@example(seed=5, m=130, n=3, k=10, decimals=1, bootstrap=False, signed_zeros=False,
         repeats=False, group=None, search_cells=SEARCH_CELLS)
@example(seed=6, m=300, n=2, k=12, decimals=2, bootstrap=True, signed_zeros=True,
         repeats=True, group=None, search_cells=SEARCH_CELLS)
@settings(max_examples=150, deadline=None)
def test_batched_pass_matches_fit_tree_and_reference(
    seed, m, n, k, decimals, bootstrap, signed_zeros, repeats, group, search_cells
):
    # the pass against the per-node search per column and the
    # per-node-sort reference: ties, duplicate rows, -0.0 targets, constant
    # and repeated columns, nodes on both sides of every bucket width,
    # groups of 1 and 3 trees and search blocks of one node
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((m, n)), decimals)
    y = np.round(rng.standard_normal((m, k)), decimals + 1)
    if bootstrap:
        rows = rng.integers(0, m, size=m)
        x, y = x[rows], y[rows]
    if signed_zeros:
        y[rng.random((m, k)) < 0.4] = -0.0
    if repeats:
        y[:, 1] = y[:, 0]
        y[:, 2] = 2.5
        if n > 1:
            x[:, 1] = x[:, 0]
    cells = GROW_CELLS if group is None else group * (n + 1) * m
    with mock.patch.multiple(tree_module, GROW_CELLS=cells, SEARCH_CELLS=search_cells):
        trees = grow_trees(Presort(x), y)
    # every distinct column grew once: byte-equal columns share one tree
    distinct = len({column.tobytes() for column in y.T})
    assert len({id(tree) for tree in trees}) == distinct
    for i, (tree, alone) in enumerate(zip(trees, _grown_alone(x, y))):
        assert_same_tree(tree, alone)
        if i < 3:
            assert_same_tree(tree, reference_fit_tree(x, y[:, i]))
    assert trees[0] is trees[1] or not repeats


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    n=st.integers(0, 4),
    k=st.integers(4, 16),
    decimals=st.integers(0, 2),
    signed_zeros=st.booleans(),
    repeats=st.booleans(),
    group=st.sampled_from([None, 1, 3]),
    search_cells=st.sampled_from([SEARCH_CELLS, 1, 64]),
)
@settings(max_examples=150, deadline=None)
def test_batched_bootstrap_trees_match_fit_tree_on_their_rows(
    seed, m, n, k, decimals, signed_zeros, repeats, group, search_cells
):
    # resamples of one matrix grown in the pass against the per-node search
    # on x[rows], y[rows], a fresh matrix each: duplicate rows, ties, -0.0
    # targets, constant targets, repeated resamples and feature columns,
    # byte-equal targets on other rows, nodes on both sides of every
    # bucket width, groups of 1 and 3 trees and search blocks of one node
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((m, n)), decimals)
    y = np.round(rng.standard_normal(m), decimals + 1)
    if signed_zeros:
        y[rng.random(m) < 0.4] = -0.0
    rows = rng.integers(0, m, size=(k, m))
    if repeats:
        rows[1] = rows[0]  # the same resample twice
        rows[2] = rows[0, 0]  # one row m times: constant targets
        if m > 1:
            # rows 0 and 1 share a target but not their features
            y[1] = y[0]
            rows[3] = np.where(rows[0] == 0, 1, rows[0])
        if n > 1:
            x[:, 1] = x[:, 0]
    cells = GROW_CELLS if group is None else group * (3 * n + 5) * m
    with mock.patch.multiple(tree_module, GROW_CELLS=cells, SEARCH_CELLS=search_cells):
        trees = grow_trees(Presort(x), y, rows)
    # every resample grew its own tree, even the same rows twice
    assert len({id(tree) for tree in trees}) == k
    for i, (tree, r) in enumerate(zip(trees, rows)):
        assert_same_tree(tree, _grown_alone(x[r], y[r, None])[0])
        if i < 3:
            assert_same_tree(tree, reference_fit_tree(x[r], y[r]))


def test_small_fits_grow_in_one_pass(mpg, monkeypatch):
    # a few trees take the batched pass too, not a per-tree search: one
    # pass per fit, whose trees are the per-node-sort reference's
    train, _ = split(mpg, val_fraction=0.5, seed=3)
    passes = []
    grow_batch = tree_module._grow_batch

    def recording_grow_batch(presort, columns, rows):
        passes.append(len(columns))
        return grow_batch(presort, columns, rows)

    monkeypatch.setattr(tree_module, "_grow_batch", recording_grow_batch)
    for k in (1, 2, 5):
        passes.clear()
        # a fixed nu: one member leaves no correlations to tune it on
        model = fit_shooting(train, SRConfig(k=k, seed=3, nu=1.0))
        assert passes == [k]
        start = shooting_start(train, k, 3)
        targets = gradient_targets(start[2], start[1].projected, model.nu)
        for i, tree in enumerate(model.trees):
            assert_same_tree(tree, reference_fit_tree(train.features, targets[:, i]))
    for n_trees in (1, 5):
        passes.clear()
        forest = fit_rf(train, RFConfig(n_trees=n_trees, seed=3))
        assert passes == [n_trees]
        for i, tree in enumerate(forest.trees):
            rows = make_rng(3, BOOTSTRAP_STREAM, i).integers(0, train.n_rows, size=train.n_rows)
            assert_same_tree(tree, reference_fit_tree(train.features[rows], train.target[rows]))


def test_grow_trees_checks_its_targets_and_rows(monkeypatch):
    # both forms refuse before any tree grows, a bad column or resample
    # among good ones too
    def no_pass(presort, columns, rows):
        raise AssertionError("a refused batch entered the pass")

    x = np.arange(12.0).reshape(6, 2)
    presort = Presort(x)
    y = np.random.default_rng(29).standard_normal((6, 11))
    with monkeypatch.context() as patch:
        patch.setattr(tree_module, "_grow_batch", no_pass)
        for bad in (np.zeros(6), np.zeros((5, 10)), np.zeros((6, 10)) + 1j, np.zeros((6, 10, 1))):
            with pytest.raises(ValueError, match="targets must be"):
                grow_trees(presort, bad)
        for i, value in [(0, np.nan), (10, np.inf)]:
            bad = y.copy()
            bad[0, i] = value
            with pytest.raises(ValueError, match="targets must be finite"):
                grow_trees(presort, bad)
        bad = y.copy()
        bad[:, 4] = 1e200
        with pytest.raises(ValueError, match="targets too large"):
            grow_trees(presort, bad)
        vector = np.arange(6.0)
        for bad in (np.zeros(5), np.zeros((6, 1)), np.zeros(6) + 1j, np.full(6, np.nan)):
            with pytest.raises(ValueError, match="targets must be"):
                grow_trees(presort, bad, np.zeros((10, 6), dtype=int))
        for bad in (np.zeros(6, dtype=int), np.zeros((2, 6)), np.zeros((2, 0), dtype=int),
                    np.full((2, 6), -1), np.full((2, 6), 6), np.zeros((2, 6), dtype=bool)):
            with pytest.raises(ValueError, match="rows must be"):
                grow_trees(presort, vector, bad)
        # one resample's targets overflow: rows 1 and 2 hold 1e200
        big = np.array([0.0, 1e200, 1e200, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="targets too large"):
            grow_trees(presort, big, np.array([[0, 0, 3], [1, 2, 3]]))
        # no trees, no pass
        assert grow_trees(presort, y[:, :0]) == ()
        assert grow_trees(presort, vector, np.zeros((0, 3), dtype=int)) == ()
    # two trees of three rows each, from one pass
    rows = np.array([[0, 0, 1], [5, 4, 3]])
    trees = grow_trees(presort, vector, rows)
    for tree, r in zip(trees, rows):
        assert_same_tree(tree, reference_fit_tree(x[r], vector[r]))
    for tree, alone in zip(grow_trees(presort, y), _grown_alone(x, y)):
        assert_same_tree(tree, alone)


def test_grow_trees_takes_a_matrix_or_its_presort():
    # as fit_tree does; a plain matrix failed on its missing n_rows
    rng = np.random.default_rng(33)
    x = np.round(rng.standard_normal((30, 3)), 1)
    y = rng.standard_normal((30, 4))
    rows = rng.integers(0, 30, (3, 30))
    for args, n in (((y,), 4), ((y[:, 0], rows), 3)):
        trees, want = grow_trees(x, *args), grow_trees(Presort(x), *args)
        assert len(trees) == len(want) == n
        for tree, other in zip(trees, want):
            assert_same_tree(tree, other)


@pytest.mark.parametrize("m", [4, 40])
def test_batched_thresholds_pin_as_fit_tree_pins(m):
    # the midpoint of adjacent floats rounds up to the upper one, and that
    # of two values near the float max overflows: each threshold is pinned
    # to the lower value, as fit_tree pins it
    odd = np.nextafter(1.0, 2.0)  # 1.0 and odd would round to even 1.0
    x = np.column_stack(
        [np.tile([odd, np.nextafter(odd, 2.0)], m // 2), np.tile([-1.7e308, -1e308, 1e308, 1.7e308], m // 4)]
    )
    y = np.random.default_rng(m).standard_normal((m, 10))
    trees = grow_trees(Presort(x), y)
    for tree, alone in zip(trees, _grown_alone(x, y)):
        assert_same_tree(tree, alone)
    assert {odd, -1.7e308, 1e308} <= {t for tree in trees for t in tree.threshold.tolist()}


def test_batched_trees_own_their_arrays():
    rng = np.random.default_rng(27)
    x = rng.standard_normal((50, 3))
    y = rng.standard_normal((50, 10))
    presort = Presort(x)
    trees = [*grow_trees(presort, y), *grow_trees(presort, y[:, 0], rng.integers(0, 50, (4, 50)))]
    # and a tree grown alone
    trees.append(fit_tree(x, y[:, 0]))
    for tree in trees:
        for array in (tree.feature, tree.threshold, tree.value):
            # not a view into the pass's level-wide records
            assert array.base is None and array.flags.c_contiguous
        assert tree.feature.dtype == np.int64


def test_a_lone_fully_grown_tree_grows_node_by_node(monkeypatch):
    # a tree asked of fit_tree alone takes the capped grower at a cap of
    # the row count, not the batched pass as a group of one
    def no_pass(presort, columns, rows):
        raise AssertionError("a lone tree entered the batched pass")

    monkeypatch.setattr(tree_module, "_grow_batch", no_pass)
    rng = np.random.default_rng(31)
    x = np.round(rng.standard_normal((40, 3)), 1)
    y = rng.standard_normal(40)
    lone = fit_tree(Presort(x), y)
    assert_same_tree(lone, reference_fit_tree(x, y))
    assert_same_tree(lone, fit_tree(x, y, max_depth=x.shape[0]))


def test_batch_memory_stays_within_its_budget(mpg):
    # 100 SR trees on 196 rows of 7 features grow in one group of 156,800
    # ids; 100 RF trees, whose resamples also stack their features, in
    # groups of 51
    train, _ = split(mpg, val_fraction=0.5, seed=3)
    start = shooting_start(train, 100, 3)
    targets = gradient_targets(start[2], start[1].projected, 1.0)
    rows = np.random.default_rng(3).integers(0, train.n_rows, size=(100, train.n_rows))
    for args in ((targets,), (train.target, rows)):
        for _ in range(2):  # the first pass in a process allocates once more
            presort = Presort(train.features)
            tracemalloc.start()
            try:
                trees = grow_trees(presort, *args)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len(trees) == 100
        held = sum(a.nbytes for t in trees for a in (t.feature, t.threshold, t.value))
        # beyond the trees: a group's int32 cells of the budget and one
        # level's copies of them, 8 bytes a cell, and one search block's
        # float arrays, 64 bytes a value; without blocks the root alone
        # would take 12 MB
        assert peak - held < 8 * GROW_CELLS + 64 * SEARCH_CELLS


def test_a_batched_fit_holds_no_keys_through_its_pass(monkeypatch):
    # the dedupe's keys, one copy of the targets' bytes, are dropped
    # before the pass: a fit of 100 trees on 3,200 rows peaks below two
    # copies of its targets beyond the group and the trees
    d = make_synthetic(3200, 7, 1.0, 0)
    y = np.random.default_rng(32).standard_normal((3200, 100))
    presort = Presort(d.features)
    assert presort.order.shape == (7, 3200)  # made before tracing starts
    peaks = []
    grow_group = tree_module._grow_group

    def recording_grow_group(x, order, targets):
        peaks.append(tracemalloc.get_traced_memory()[0])
        return grow_group(x, order, targets)

    monkeypatch.setattr(tree_module, "_grow_group", recording_grow_group)
    tracemalloc.start()
    try:
        grow_trees(presort, y)
    finally:
        tracemalloc.stop()
    # at the first group's start only that group's targets copy is held
    group = GROW_CELLS // (8 * 3200)
    assert peaks[0] < 8 * 3200 * group + 2**16


# ------------------------------------------------ packed forest vs per tree


@given(
    seed=st.integers(0, 2**32 - 1),
    depths=st.lists(st.sampled_from([0, 1, 3, None]), min_size=1, max_size=6),
    m=st.integers(1, 30),
    n=st.integers(1, 3),
    n_query=st.integers(0, 12),
)
@example(seed=0, depths=[None], m=20, n=2, n_query=5)  # k = 1
@example(seed=1, depths=[0, None, 0, 3, None], m=25, n=3, n_query=0)
@settings(max_examples=150, deadline=None)
def test_packed_forest_matches_per_tree_walk(seed, depths, m, n, n_query):
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((m, n)), 1)
    # max_depth 0 gives one-node trees next to fully grown ones
    trees = []
    for max_depth in depths:
        rows = rng.integers(0, m, size=m)
        trees.append(fit_tree(x[rows], rng.standard_normal(m), max_depth))
    trees = tuple(trees)
    k = len(trees)
    # query values sit exactly on thresholds or on training values
    pools = [
        np.concatenate([t.threshold[t.feature[t.feature != LEAF] == f] for t in trees] + [x[:, f]])
        for f in range(n)
    ]
    q = np.column_stack([rng.choice(pool, n_query) for pool in pools])
    sr = ShootingEnsemble(
        rng.standard_normal(n + 1), rng.standard_normal((n + 1, k)), 0.7, trees
    )
    rf = RandomForest(trees, n)
    gbm = GradientBoosting(float(rng.standard_normal()), 0.1, trees, n)
    per_estimator = reference_per_estimator(sr, q)
    rf_out, gbm_out = reference_predict_rf(rf, q), reference_predict_gbm(gbm, q)

    def round_trip(model):
        return model_from_dict(json.loads(json.dumps(model_to_dict(model))))

    for sr, rf, gbm in [(sr, rf, gbm), (round_trip(sr), round_trip(rf), round_trip(gbm))]:
        got = predict_per_estimator(sr, q)
        assert got.shape == (n_query, k)
        assert np.array_equal(got, per_estimator)
        got = predict(sr, q)
        assert got.shape == (n_query,)
        assert np.array_equal(got, fsum_means(per_estimator))
        assert np.array_equal(predict_rf(rf, q), rf_out)
        assert np.array_equal(predict_gbm(gbm, q), gbm_out)
    for tree in trees:
        assert np.array_equal(predict_tree(tree, q), reference_predict_tree(tree, q))
    assert pack_forest(trees).median_leaf_depth == reference_median_leaf_depth(trees)


# ---------------------------------------------- dense walk, then pair walk


@pytest.fixture(scope="module")
def deep_models():
    train = make_synthetic(400, 3, 1.0, seed=37)
    return train, fit_shooting(train, SRConfig(k=100, seed=37)), fit_rf(train, RFConfig(n_trees=100, seed=37))


@pytest.mark.parametrize("n_rows", [1, PAIR_ROWS - 1, PAIR_ROWS, BLOCK_ROWS + 1, 600])
def test_deep_forests_walk_pairs_past_the_median_leaf_depth(deep_models, n_rows):
    train, sr, rf = deep_models
    for model in (sr, rf):
        forest = model.forest
        # a dense walk to the median, then a pair walk to the deepest leaf
        assert forest.median_leaf_depth == reference_median_leaf_depth(model.trees)
        assert 0 < forest.median_leaf_depth < len(forest.active)
    # an SR leaf holds one training row, so training rows end at every
    # leaf depth and every drop of finished pairs has pairs to drop; a
    # block under PAIR_ROWS rows, such as the last of BLOCK_ROWS + 1, walks
    # densely
    q = train.features[np.random.default_rng(n_rows).integers(0, train.n_rows, n_rows)]
    # block by block, since BLAS may round a product's last bit by its rows
    starts = range(0, n_rows, BLOCK_ROWS)
    per_estimator = np.vstack([reference_per_estimator(sr, q[s : s + BLOCK_ROWS]) for s in starts])
    assert predict_per_estimator(sr, q).tobytes() == per_estimator.tobytes()
    assert predict(sr, q).tobytes() == fsum_means(per_estimator).tobytes()
    assert predict_rf(rf, q).tobytes() == reference_predict_rf(rf, q).tobytes()


def test_shallow_forests_walk_densely_to_their_leaves():
    train = make_synthetic(60, 3, 1.0, seed=38)
    q = np.random.default_rng(38).standard_normal((BLOCK_ROWS + 1, 3))
    stumps = RandomForest(tuple(fit_tree(train.features, train.target + i, 0) for i in range(5)), 3)
    assert (stumps.forest.median_leaf_depth, stumps.forest.active) == (0, ())
    assert predict_rf(stumps, q).tobytes() == reference_predict_rf(stumps, q).tobytes()
    # half the leaves of these depth-3 stages sit at depth 3: no pair walk
    gbm = fit_gbm(train, GBMConfig(n_stages=20, seed=38))
    assert gbm.forest.median_leaf_depth == len(gbm.forest.active) == 3
    assert predict_gbm(gbm, q).tobytes() == reference_predict_gbm(gbm, q).tobytes()


# ------------------------------------------------------ streamed row blocks


@pytest.fixture(scope="module")
def small_models():
    train = make_synthetic(60, 3, 1.0, seed=11)
    return (
        fit_shooting(train, SRConfig(k=7, seed=11)),
        fit_rf(train, RFConfig(n_trees=7, seed=11)),
        fit_gbm(train, GBMConfig(n_stages=7, seed=11)),
    )


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 600])
def test_predicts_stream_independent_blocks(small_models, n_rows):
    sr, rf, gbm = small_models
    q = np.random.default_rng(n_rows).standard_normal((n_rows, 3))
    # predict reduces the same member blocks that predict_per_estimator returns
    per_estimator = predict_per_estimator(sr, q)
    assert per_estimator.shape == (n_rows, sr.k)
    assert np.array_equal(predict(sr, q), fsum_means(per_estimator))
    assert np.array_equal(predict_gbm(gbm, q), reference_predict_gbm(gbm, q))
    # each block's predictions are those of predicting that block alone
    starts = range(0, max(n_rows, 1), BLOCK_ROWS)
    for fn, model in [(predict, sr), (predict_rf, rf), (predict_gbm, gbm)]:
        pieces = [fn(model, q[s : s + BLOCK_ROWS]) for s in starts]
        assert np.array_equal(fn(model, q), np.concatenate(pieces))


def test_sr_predict_holds_no_member_matrix():
    rows, k = 4096, 100
    train = make_synthetic(60, 3, 1.0, seed=13)
    model = fit_shooting(train, SRConfig(k=k, nu=1.0, seed=13))
    q = np.random.default_rng(13).standard_normal((rows, 3))
    predict(model, q[:1])  # packs the forest, which the model keeps
    tracemalloc.start()
    try:
        predict(model, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows * k * 8 / 2


# ---------------------------------------------------------- exact row mean

# k from 1 to 300, with 2^j - 1, 2^j and 2^j + 1 drawn on their own, since
# the certificate's bound steps with k.bit_length()
ROW_LENGTHS = st.one_of(
    st.integers(1, 300), st.sampled_from([2**j + d for j in range(1, 9) for d in (-1, 0, 1)])
)


@st.composite
def sum_row(draw, k: int) -> list[float]:
    kind = draw(st.sampled_from(["floats", "binades", "tie", "cancel", "zeros"]))
    if kind == "floats":
        # hypothesis favours zeros, subnormals and the range ends
        return draw(
            st.lists(st.floats(-(2.0**1020), 2.0**1020), min_size=k, max_size=k)
        )
    if kind == "binades":
        # any exponent from the smallest subnormal to 2^1020 in one row
        mantissas = st.integers(-(2**53) + 1, 2**53 - 1)
        pairs = draw(
            st.lists(st.tuples(mantissas, st.integers(-1074, 967)), min_size=k, max_size=k)
        )
        return [math.ldexp(m, e) for m, e in pairs]
    if kind == "tie":
        # 2^53 plus small integers, scaled: when they add up to an odd
        # positive total the exact sum sits half an ulp between two doubles
        scale = draw(st.integers(-1000, 900))
        sign = draw(st.sampled_from([1.0, -1.0]))
        small = draw(st.lists(st.integers(-8, 8), min_size=k - 1, max_size=k - 1))
        row = [sign * math.ldexp(v, scale) for v in [2**53, *small]]
        return draw(st.permutations(row))
    if kind == "cancel":
        # +-x pairs that cancel exactly, plus one or two tiny terms
        n_pairs, n_tiny = (k - 1) // 2, 2 - k % 2
        xs = draw(st.lists(st.floats(-1e300, 1e300), min_size=n_pairs, max_size=n_pairs))
        tiny = draw(st.lists(st.floats(-1e-300, 1e-300), min_size=n_tiny, max_size=n_tiny))
        return draw(st.permutations(xs + [-x for x in xs] + tiny))
    return draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=k, max_size=k))


@st.composite
def sum_blocks(draw) -> np.ndarray:
    k = draw(ROW_LENGTHS)
    distinct = draw(st.lists(sum_row(k), min_size=1, max_size=5))
    # 0 rows, a few, and blocks just below and just above the crossover
    rows = draw(st.sampled_from([0, 1, len(distinct), SMALL_BLOCK // k, SMALL_BLOCK // k + 1]))
    return np.array(distinct, dtype=float)[np.arange(rows) % len(distinct)].reshape(rows, k)


@given(block=sum_blocks())
@example(block=np.full((SMALL_BLOCK // 100 + 1, 100), -0.0))
@example(block=np.full((SMALL_BLOCK // 100 + 1, 100), 2.0**1020))  # the sum overflows
@example(block=np.full((SMALL_BLOCK + 1, 1), 2.0**1020))
@example(block=np.full((SMALL_BLOCK // 3 + 1, 3), 5e-324))
@settings(max_examples=400, deadline=None)
def test_row_means_is_the_fsum_mean_bit_for_bit(block):
    want = fsum_means(block).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert row_means(block).tobytes() == want
        # the transposed layout of an RF block, read without a copy
        assert row_means(np.ascontiguousarray(block.T).T).tobytes() == want


def exact_ties(block: np.ndarray) -> int:
    """Rows whose exact sum lies halfway between two doubles."""
    count = 0
    for row in block:
        exact = sum(map(Fraction, row.tolist()))
        nearest = math.fsum(row)
        other = math.nextafter(nearest, math.inf if exact > nearest else -math.inf)
        count += exact == (Fraction(nearest) + Fraction(other)) / 2
    return count


def test_row_means_sends_only_uncertified_rows_to_fsum(monkeypatch):
    rng = np.random.default_rng(0)
    # members like an auto-mpg predict's
    block = rng.normal(23.0, 8.0, (BLOCK_ROWS, 100))
    # 2^53 + 1: the exact sum of every row is a tie
    ties = np.zeros((BLOCK_ROWS, 100))
    ties[np.arange(BLOCK_ROWS), rng.integers(1, 100, BLOCK_ROWS)] = 1.0
    ties[:, 0] = 2.0**53
    # the certificate settles every row but exact ties of the last bit (and
    # near ties, which random rows practically never are)
    block_ties = exact_ties(block)
    assert block_ties <= 2 and exact_ties(ties) == BLOCK_ROWS

    calls = []
    fsum = math.fsum

    def counting_fsum(values):
        calls.append(1)
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    row_means(block)
    certified = len(calls)
    row_means(ties)
    tied = len(calls) - certified
    row_means(block[: SMALL_BLOCK // 100])
    small = len(calls) - certified - tied
    monkeypatch.undo()
    assert (certified, tied, small) == (block_ties, BLOCK_ROWS, SMALL_BLOCK // 100)
    assert row_means(ties).tobytes() == fsum_means(ties).tobytes()
