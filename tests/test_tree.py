"""Greedy regression trees against brute-force, reference and structural checks."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shooting import (
    GBMConfig,
    RFConfig,
    RegressionTree,
    SRConfig,
    TreeParams,
    baselines,
    ensemble,
    fit_gbm,
    fit_rf,
    fit_shooting,
    fit_tree,
    predict_tree,
    split,
)
from shooting.tree import LEAF


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


def _reference_best_split(
    x: np.ndarray, y: np.ndarray, candidates: np.ndarray, min_leaf: int
) -> tuple[int, float] | None:
    """Per-feature split search on a fresh stable argsort of the node's rows."""
    m = y.size
    total1 = float(y.sum())
    total2 = float((y * y).sum())
    best_sse = np.inf
    best: tuple[int, float] | None = None
    for f in candidates:
        xv = x[:, f]
        order = np.argsort(xv, kind="stable")
        xs = xv[order]
        ys = y[order]
        # positions p split into left = [0..p], right = [p+1..m-1]
        distinct = xs[:-1] < xs[1:]
        sizes_left = np.arange(1, m)
        feasible = distinct & (sizes_left >= min_leaf) & (m - sizes_left >= min_leaf)
        if not feasible.any():
            continue
        pos = np.nonzero(feasible)[0]
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
            best = (int(f), float(thr))
    return best


def reference_fit_tree(features, targets, params: TreeParams = TreeParams()):
    """The grower fit_tree must match bit for bit: it sorts at every node.

    Same control flow, stopping rules and preorder feature_subsample draws
    as fit_tree, with each node's rows re-sorted per feature and routed by
    comparing against the threshold.
    """
    x = np.ascontiguousarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    n = x.shape[1]
    sub = params.feature_subsample
    rng = None
    if sub is not None and sub < n:
        rng = np.random.default_rng(params.rng_seed)
    feat, thr, left, right, value = [], [], [], [], []
    max_depth_seen = 0

    def new_node() -> int:
        feat.append(LEAF)
        thr.append(np.nan)
        left.append(LEAF)
        right.append(LEAF)
        value.append(0.0)
        return len(feat) - 1

    stack = [(new_node(), np.arange(y.size), 0)]
    while stack:
        node, idx, depth = stack.pop()
        max_depth_seen = max(max_depth_seen, depth)
        ysub = y[idx]
        value[node] = float(ysub.mean())
        if params.max_depth is not None and depth >= params.max_depth:
            continue
        if idx.size < params.min_samples_split:
            continue
        if ysub.min() == ysub.max():
            continue
        if rng is not None:
            candidates = np.sort(rng.choice(n, size=sub, replace=False))
        else:
            candidates = np.arange(n)
        found = _reference_best_split(
            x[idx], ysub, candidates, params.min_samples_leaf
        )
        if found is None:
            continue
        f, t = found
        go_left = x[idx, f] <= t
        feat[node] = f
        thr[node] = t
        left[node] = new_node()
        right[node] = new_node()
        stack.append((right[node], idx[~go_left], depth + 1))
        stack.append((left[node], idx[go_left], depth + 1))

    return RegressionTree(
        feature=np.array(feat, dtype=np.int64),
        threshold=np.array(thr, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=float),
        depth=max_depth_seen,
        n_features=n,
    )


def assert_same_tree(a: RegressionTree, b: RegressionTree) -> None:
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
    assert np.array_equal(a.left, b.left)
    assert np.array_equal(a.right, b.right)
    assert np.array_equal(a.value, b.value)
    assert a.depth == b.depth
    assert a.n_features == b.n_features


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
    assert sorted(tree.value[tree.feature == LEAF]) == [0.0, 10.0]
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


@pytest.mark.parametrize(
    "lo, hi", [(-np.inf, np.inf), (-1.7e308, -1e308), (1e308, 1.7e308)]
)
def test_midpoint_overflow_keeps_split_consistent(lo, hi):
    # lo + hi is NaN or overflows; the threshold must still separate them
    x = np.array([[lo], [hi]])
    y = np.array([0.0, 1.0])
    tree = fit_tree(x, y)
    assert tree.n_nodes == 3
    assert lo <= tree.threshold[0] < hi
    assert np.array_equal(predict_tree(tree, x), y)


def test_params_validation():
    with pytest.raises(ValueError):
        TreeParams(max_depth=-1)
    with pytest.raises(ValueError):
        TreeParams(min_samples_leaf=0)
    with pytest.raises(ValueError):
        TreeParams(min_samples_split=1)
    with pytest.raises(ValueError):
        TreeParams(feature_subsample=0)


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
    tree = fit_tree(x, y, TreeParams(max_depth=2))
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
    shallow = fit_tree(x, y, TreeParams(max_depth=depth))
    deep = fit_tree(x, y, TreeParams(max_depth=depth + 1))
    sse_shallow = float(((y - predict_tree(shallow, x)) ** 2).sum())
    sse_deep = float(((y - predict_tree(deep, x)) ** 2).sum())
    assert sse_deep <= sse_shallow + 1e-9


@given(seed=st.integers(0, 10_000), min_leaf=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_leaves_respect_min_samples(seed, min_leaf):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((25, 2))
    y = rng.standard_normal(25)
    tree = fit_tree(x, y, TreeParams(min_samples_leaf=min_leaf))
    leaf_of_row = _leaf_index(tree, x)
    counts = np.bincount(leaf_of_row, minlength=tree.n_nodes)
    for node in range(tree.n_nodes):
        if tree.feature[node] == LEAF:
            assert counts[node] >= min_leaf


def _leaf_index(tree: RegressionTree, x: np.ndarray) -> np.ndarray:
    node = np.zeros(x.shape[0], dtype=np.int64)
    for _ in range(tree.depth + 1):
        internal = tree.feature[node] != LEAF
        if not internal.any():
            break
        rows = np.nonzero(internal)[0]
        at = node[rows]
        go_left = x[rows, tree.feature[at]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
    return node


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_leaf_values_are_sample_means(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((20, 2))
    y = rng.standard_normal(20)
    tree = fit_tree(x, y, TreeParams(max_depth=3))
    leaf_of_row = _leaf_index(tree, x)
    for node in np.unique(leaf_of_row):
        assert tree.value[node] == pytest.approx(y[leaf_of_row == node].mean())
    # any query lands in exactly one leaf, so its prediction is one of them
    queries = rng.standard_normal((10, 2))
    preds = predict_tree(tree, queries)
    leaf_values = set(tree.value[tree.feature == LEAF])
    assert all(p in leaf_values for p in preds)


@given(seed=st.integers(0, 10_000), cap=st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_depth_cap_respected(seed, cap):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    tree = fit_tree(x, y, TreeParams(max_depth=cap))
    assert tree.depth <= cap


def test_feature_subsample_deterministic():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 6))
    y = rng.standard_normal(40)
    params = TreeParams(feature_subsample=2, rng_seed=17)
    a = fit_tree(x, y, params)
    b = fit_tree(x, y, params)
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)


# ------------------------------------------------- presort vs per-node sort


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    n=st.integers(0, 4),
    decimals=st.integers(0, 2),
    bootstrap=st.booleans(),
    min_leaf=st.integers(1, 4),
    min_split=st.integers(2, 4),
    max_depth=st.sampled_from([None, 0, 1, 3]),
    subsample=st.one_of(st.none(), st.integers(1, 4)),
    rng_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_presorted_growth_matches_per_node_sort(
    seed, m, n, decimals, bootstrap, min_leaf, min_split, max_depth, subsample,
    rng_seed,
):
    rng = np.random.default_rng(seed)
    # rounding makes ties, resampling makes duplicate rows
    x = np.round(rng.standard_normal((m, n)), decimals)
    y = np.round(rng.standard_normal(m), decimals + 1)
    if bootstrap:
        rows = rng.integers(0, m, size=m)
        x, y = x[rows], y[rows]
    params = TreeParams(
        max_depth=max_depth,
        min_samples_leaf=min_leaf,
        min_samples_split=min_split,
        feature_subsample=subsample,
        rng_seed=rng_seed,
    )
    assert_same_tree(fit_tree(x, y, params), reference_fit_tree(x, y, params))


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
