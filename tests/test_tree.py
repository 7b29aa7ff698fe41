"""Greedy regression trees against brute-force, reference and structural checks."""

from __future__ import annotations

import json
import math
import tracemalloc
import warnings
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shooting import (
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
    make_synthetic,
    model_from_dict,
    model_to_dict,
    predict,
    predict_gbm,
    predict_per_estimator,
    predict_rf,
    predict_tree,
    split,
)
from shooting.tree import BLOCK_ROWS, LEAF, SMALL_BLOCK, SMALL_NODE, _node_sum, row_means


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
    with pytest.raises(ValueError, match="targets must be a vector"):
        fit_tree(Presort(np.zeros((3, 1))), np.zeros(2))


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
        ([0, LEAF, LEAF], [0.5, 1.5], [1.0, 2.0], "one threshold"),
        ([0, LEAF, LEAF], [], [1.0, 2.0], "one threshold"),
        ([0, LEAF, LEAF], [0.5], [1.0, 2.0, 3.0], "one value"),
        ([0, LEAF, LEAF], [0.5], [1.0], "one value"),
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
    lo = 1.0
    hi = np.nextafter(1.0, 2.0)
    x = np.array([[lo], [hi]])
    y = np.array([0.0, 1.0])
    tree = fit_tree(x, y)
    # midpoint of adjacent floats rounds up to hi; the threshold must still
    # route lo left and hi right
    assert tree.n_nodes == 3
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


def test_small_node_sum_rounds_as_numpy():
    # small nodes total their targets on Python floats; a numpy whose sum
    # rounds differently must fail here rather than silently move trees
    rng = np.random.default_rng(0)
    for n in range(1, SMALL_NODE + 1):
        cases = [np.full(n, -0.0), np.full(n, 0.0), rng.choice([0.0, -0.0], n)]
        for _ in range(200):
            values = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 150, n)
            values[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
            cases.append(values)
        for values in cases:
            assert np.float64(_node_sum(values.tolist())).tobytes() == np.sum(values).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(SMALL_NODE - 2, 40),
    n=st.integers(1, 4),
    decimals=st.integers(0, 2),
    bootstrap=st.booleans(),
    signed_zeros=st.booleans(),
    near_overflow=st.booleans(),
    max_depth=st.sampled_from([None, 0, 1, 3]),
)
@settings(max_examples=200, deadline=None)
def test_small_node_search_matches_reference_at_the_boundary(
    seed, m, n, decimals, bootstrap, signed_zeros, near_overflow, max_depth
):
    # nodes on both sides of SMALL_NODE rows: the root and its first
    # children switch between the numpy and the Python-float search
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
    assert_same_tree(fit_tree(x, y, max_depth), reference_fit_tree(x, y, max_depth))


def test_models_grow_reference_trees(mpg, monkeypatch):
    # integer-valued columns tie heavily; RF resamples duplicate rows
    train, _ = split(mpg, val_fraction=0.5, seed=3)
    fits = [
        (fit_shooting, SRConfig(k=5, seed=3)),
        (fit_rf, RFConfig(n_trees=5, seed=3)),
        (fit_gbm, GBMConfig(n_stages=5, seed=3)),
    ]
    grown = [fit(train, config).trees for fit, config in fits]
    monkeypatch.setattr(ensemble, "fit_tree", reference_fit_tree)
    monkeypatch.setattr(baselines, "fit_tree", reference_fit_tree)
    for (fit, config), trees in zip(fits, grown):
        reference = fit(train, config).trees
        assert len(trees) == len(reference)
        for a, b in zip(trees, reference):
            assert_same_tree(a, b)


def test_one_presort_per_fit(mpg, monkeypatch):
    # every tree of one SR or GBM fit grows on the one Presort the fit
    # builds: a per-tree argsort or list conversion must not come back
    train, _ = split(mpg, val_fraction=0.5, seed=3)
    built, received = [], []

    class CountedPresort(Presort):
        def __init__(self, features):
            super().__init__(features)
            self.bytes_at_build = (self.xt.tobytes(), self.order.tobytes())
            built.append(self)

    def recording_fit_tree(features, targets, max_depth=None):
        received.append(features)
        return fit_tree(features, targets, max_depth)

    for module in (ensemble, baselines):
        monkeypatch.setattr(module, "Presort", CountedPresort)
        monkeypatch.setattr(module, "fit_tree", recording_fit_tree)
    for fit, config in [(fit_shooting, SRConfig(k=5, seed=3)), (fit_gbm, GBMConfig(n_stages=5))]:
        built.clear()
        received.clear()
        model = fit(train, config)
        assert len(built) == 1
        (presort,) = built
        assert len(received) == len(model.trees) == 5
        assert all(features is presort for features in received)
        # the shared arrays are read-only and unchanged by every tree
        assert not (presort.xt.flags.writeable or presort.order.flags.writeable)
        assert (presort.xt.tobytes(), presort.order.tobytes()) == presort.bytes_at_build
        assert np.array_equal(presort.xt, train.features.T)
        assert presort.lists == presort.xt.tolist()


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
