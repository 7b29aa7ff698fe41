"""Axis-aligned regression trees grown by greedy squared-error reduction.

Nodes live in flat parallel arrays rather than linked objects: fitting
appends in preorder, prediction descends all rows at once level by level.
Split ties resolve to the lowest feature index, then the lowest threshold,
so refitting on identical data reproduces the identical structure.

Growth sorts each feature once per tree, not once per node. The root holds
an (n_features, m) matrix of row ids, row f in stable value order of
feature f. A split keeps the first n_left entries of the chosen feature's
row and filters every row of the matrix by that row set, so each child
inherits its rows already in value order and every feature row has the
same length. The split search then runs over all candidate features at
once: row-wise prefix sums of y and y^2, the SSE of each cut, infeasible
cuts set to inf, and one flat argmin, whose first-minimum rule is the tie
break above.

The trees are those of a per-node stable argsort, bit for bit. A node's
row ids are always in increasing order (the root is arange, each child a
filter of its parent), so a stable sort of the node's values orders ties
by row id, which is the global stable order filtered to the node. The
prefix sums therefore add the same values in the same sequence, and node
totals and leaf means are sums of y over the node's rows in row order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEAF = -1


@dataclass(frozen=True)
class TreeParams:
    """Growth limits. max_depth None and feature_subsample None mean unlimited/all."""

    max_depth: int | None = None
    min_samples_leaf: int = 1
    min_samples_split: int = 2
    feature_subsample: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be None or >= 0")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.feature_subsample is not None and self.feature_subsample < 1:
            raise ValueError("feature_subsample must be None or >= 1")


@dataclass(frozen=True)
class RegressionTree:
    """Flat-array tree: feature[i] == LEAF marks a leaf, value[i] its mean.

    threshold is nan at leaves; left/right hold child node indices for
    internal nodes and LEAF otherwise.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int
    n_features: int

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature == LEAF))


def _best_split(
    xs: np.ndarray, ys: np.ndarray, total1: float, total2: float, min_leaf: int
) -> tuple[int, int] | None:
    """Lowest total child SSE over every candidate feature and cut at once.

    Row r of xs/ys holds one candidate feature's node values and targets in
    value order. Position p cuts left = [0..p], right = [p+1..]; it is
    feasible between distinct values with min_leaf rows on each side. SSE
    per side comes from row-wise prefix sums of y and y^2. Returns (r, p)
    of the first minimum in row-major order, so the lowest feature and
    then the lowest threshold win ties, or None when nothing is feasible.
    """
    n, m = ys.shape
    lo, hi = min_leaf - 1, m - min_leaf  # feasible positions p in [lo, hi)
    if n == 0 or lo >= hi:
        return None
    head = ys[:, :hi]
    c1 = np.cumsum(head, axis=1)[:, lo:]
    c2 = np.cumsum(head * head, axis=1)[:, lo:]
    nl = np.arange(lo + 1, hi + 1, dtype=float)
    nr = m - nl
    sse = (c2 - c1 * c1 / nl) + (total2 - c2 - (total1 - c1) ** 2 / nr)
    distinct = xs[:, lo:hi] < xs[:, lo + 1 : hi + 1]
    # fit_tree's overflow guard keeps sse free of NaN, so argmin's first
    # minimum is the tie-break: lowest feature row, then lowest position
    k = int(np.argmin(np.where(distinct, sse, np.inf)))
    if not distinct.flat[k]:
        return None
    r, p = divmod(k, hi - lo)
    return r, lo + p


def fit_tree(features, targets, params: TreeParams = TreeParams()) -> RegressionTree:
    """Grow a tree top-down; every leaf predicts the mean of its rows.

    Splitting stops at max_depth, below min_samples_split, at exactly
    constant targets, or when min_samples_leaf leaves no feasible cut.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if y.ndim != 1 or y.size != x.shape[0]:
        raise ValueError("targets must be a vector matching the feature rows")
    if y.size == 0:
        raise ValueError("cannot fit a tree on zero rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    with np.errstate(over="ignore"):
        # bounds every prefix-sum term of the SSE, (sum y)^2 <= m * sum y^2
        if not np.isfinite(y.size * float(np.sum(y * y))):
            raise ValueError("targets too large: squared-error sums overflow")
    n = x.shape[1]
    sub = params.feature_subsample
    rng = None
    if sub is not None and sub < n:
        rng = np.random.default_rng(params.rng_seed)
    xt = np.ascontiguousarray(x.T)
    goes_left = np.zeros(y.size, dtype=bool)

    feat: list[int] = []
    thr: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    max_depth_seen = 0

    def new_node() -> int:
        feat.append(LEAF)
        thr.append(np.nan)
        left.append(LEAF)
        right.append(LEAF)
        value.append(0.0)
        return len(feat) - 1

    root = new_node()
    # a node carries its rows in increasing order and, per feature, the same
    # rows in stable value order
    stack: list[tuple[int, np.ndarray, np.ndarray, int]] = [
        (root, np.arange(y.size), np.argsort(xt, axis=1, kind="stable"), 0)
    ]
    while stack:
        node, idx, order, depth = stack.pop()
        max_depth_seen = max(max_depth_seen, depth)
        if idx.size == 1:
            # min_samples_split >= 2 keeps it a leaf; the mean of one value is it
            value[node] = float(y[idx[0]])
            continue
        ysub = y[idx]
        total1 = float(ysub.sum())
        value[node] = total1 / idx.size  # ysub.mean(), bit for bit
        if params.max_depth is not None and depth >= params.max_depth:
            continue
        if idx.size < params.min_samples_split:
            continue
        if ysub.min() == ysub.max():
            continue
        if rng is not None:
            candidates = np.sort(rng.choice(n, size=sub, replace=False))
            sorted_rows = order[candidates]
        else:
            candidates = np.arange(n)
            sorted_rows = order
        xs = xt[candidates[:, None], sorted_rows]
        split = _best_split(
            xs, y[sorted_rows], total1, float((ysub * ysub).sum()),
            params.min_samples_leaf,
        )
        if split is None:
            continue
        r, p = split
        below, above = float(xs[r, p]), float(xs[r, p + 1])
        t = 0.5 * (below + above)
        if not below <= t < above:
            # the midpoint rounded up to above, or below + above overflowed
            # or is -inf + inf; pin to below so the threshold routes exactly
            # the first n_left rows
            t = below
        n_left = p + 1
        # the cut keeps the first n_left rows of the split feature's order;
        # filtering every feature's order by them keeps each in value order
        goes_left[sorted_rows[r, :n_left]] = True
        in_left = goes_left[order]
        left_order = order[in_left].reshape(n, n_left)
        right_order = order[~in_left].reshape(n, idx.size - n_left)
        row_left = goes_left[idx]
        left_idx, right_idx = idx[row_left], idx[~row_left]
        goes_left[left_idx] = False
        feat[node] = int(candidates[r])
        thr[node] = t
        left_child = new_node()
        right_child = new_node()
        left[node] = left_child
        right[node] = right_child
        # push right first so preorder (left before right) pops out
        stack.append((right_child, right_idx, right_order, depth + 1))
        stack.append((left_child, left_idx, left_order, depth + 1))

    return RegressionTree(
        feature=np.array(feat, dtype=np.int64),
        threshold=np.array(thr, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=float),
        depth=max_depth_seen,
        n_features=n,
    )


def predict_tree(tree: RegressionTree, features) -> np.ndarray:
    """Route each row to its leaf (<= goes left) and return leaf means."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if x.shape[1] != tree.n_features:
        raise ValueError(
            f"feature count {x.shape[1]} does not match training dimension "
            f"{tree.n_features}"
        )
    node = np.zeros(x.shape[0], dtype=np.int64)
    for _ in range(tree.depth + 1):
        internal = tree.feature[node] != LEAF
        if not internal.any():
            break
        rows = np.nonzero(internal)[0]
        at = node[rows]
        go_left = x[rows, tree.feature[at]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
    return tree.value[node]
