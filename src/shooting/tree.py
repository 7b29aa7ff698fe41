"""Axis-aligned regression trees grown by greedy squared-error reduction.

Nodes live in flat parallel arrays rather than linked objects. Fitting
takes nodes first in, first out, so node ids run in level order and the
links are implied: the j-th internal node by id has children 2j + 1 and
2j + 2. A RegressionTree holds exactly what a saved tree holds and checks
that rule when built. A model's prediction walks a packed forest (below).
Ties in the computed SSE go to the lowest (feature, position), so refitting
on identical data reproduces the identical structure, though rounding can
decide between cuts whose exact SSE ties.

Every feature is searched at every node, and max_depth is the only growth
limit: a node splits unless it holds one row, sits at max_depth, has
exactly constant targets, or no feature has two distinct values to cut
between. Any cut between distinct values is feasible, so a leaf may hold
a single row. Fitting draws no random numbers.

Growth sorts each feature once per fit, not once per tree or node: a
Presort checks and sorts the feature matrix, and a fit that grows many
trees on one matrix (SR's k trees, GBM's stages) passes the same one to
each. The root holds an (n_features, m) matrix of row ids, row f in
stable value order of feature f. A split keeps the first n_left entries
of the chosen feature's row and filters every row of the matrix by that
row set, so each child inherits its rows already in value order and
every feature row has the same length. The split search then runs over
all features at once: row-wise prefix sums of y and y^2, the SSE of each
cut, infeasible cuts set to inf, and one flat argmin, whose
first-minimum rule is the tie break above. Only a child of more than
SMALL_NODE rows that will be searched gets orders: a small one sorts its
rows when searched (below), and one at max_depth, such as every child of
a depth-2 split in a depth-3 boosting stage, only takes the mean of its
rows.

A Presort also keeps a memo of trees grown on it, which fit_tree returns
for the same max_depth and byte-equal targets instead of growing them
again. A tree grown alone replaces the whole memo, so a fit that grows
one tree at a time keeps only its last: at nu = 0 SR's k gradient targets
are one vector, so its k trees are one tree grown once, and so is a
boosting stage that did not move.

The trees are those of a per-node stable argsort, bit for bit. A node's
row ids are always in increasing order (the root is arange, each child a
filter of its parent), so a stable sort of the node's values orders ties
by row id, which is the global stable order filtered to the node. The
prefix sums therefore add the same values in the same sequence, and node
totals and leaf means are sums of y over the node's rows in row order.

Fully grown trees are mostly tiny nodes: in a k = 100 SR fit on
auto-mpg, 87% of internal nodes hold 16 rows or fewer and a third hold
2, and there the numpy search above pays dozens of calls of fixed
dispatch cost per node. A node of at most SMALL_NODE rows that will be
searched therefore carries only its rows, as a Python list, and is
searched and partitioned on Python floats (x becomes lists once per
Presort and y once per tree, the first time this happens, so shallow
trees that never search a small node never convert). The search sorts
the rows per feature, stably and with -0.0 tied to 0.0 as in numpy, so
each order is the presort filtered to the node; a two-row node's one cut
has just two SSEs, one per row first. The scalar search redoes the numpy
arithmetic exactly: node totals round as np.sum's pairwise loop does
(_node_sum), prefix sums run in order from the first value as cumsum
does, the SSE expression keeps its operation order, and the first strict
minimum in (feature, position) order wins, so the trees are the same bit
for bit. A change to the tie rule must go into both searches.

A fit that knows the targets of all its fully grown trees up front (SR's
k gradient targets) hands them to its Presort first (expect). The first
fit_tree call for one of them then grows every distinct column in one
batched pass and fills the memo, so each call, the first too, returns its
tree after its own input checks, and byte-equal columns grow once. The
pass grows a group of trees level by level with no per-node Python, as
XGBoost's presorted column blocks do (Chen and Guestrin, KDD 2016). An
int32 matrix of n_features + 1 rows holds every open node's rows, tree
after tree, in each feature's stable value order and in increasing
order. Node totals reduce the nodes of one size together along
contiguous rows, which rounds as one np.sum per node. The search takes
nodes in blocks of one width, the exact size up to EXACT_WIDTH and the
next power of two above, and runs _best_split's prefix sums and SSE expression over
them, each node padded with its last value, which no cut separates, and
one argmin per node over its (feature, position). A split partitions
every row of the matrix stably by prefix counts of the left rows, and a
stable sort of the levels' records by tree gives each tree its nodes in
level order. The trees are fit_tree's bit for bit. Below BATCH_MIN
distinct columns the pass costs more than it saves, and the trees grow
one at a time. A group's matrix holds at most GROW_CELLS ids and a search
block at most SEARCH_CELLS values (or one node), so the pass's memory
does not grow with the number of trees: at its peak 2.8 MB for 100 trees
on 196 rows of 7 features, against 0.8 MB for growing them one at a
time, the trees included.

Every walk takes one step rule, from _steps: node i moves on to
step[i] + (x > threshold[i]). At the j-th internal node step is 2j + 1,
so x <= threshold goes to child 2j + 1 and the rest to 2j + 2. At a leaf
step is the leaf's own id and threshold is inf, which no finite x
exceeds, so a row that reached its leaf stays there.

Prediction packs a model's trees into one Forest: the node arrays joined
end to end, deepest tree first, the steps shifted to the packed ids. One
walk moves a (trees, rows) node-index matrix down every tree at once, one
step per level of the deepest tree, and level d touches only the trees
deeper than d. Rows go through in blocks of BLOCK_ROWS, so the matrix
stays small for any number of rows, and every predict finishes a block
before walking the next, so its memory does not grow with the rows
either. Leaf values come back in tree order, so each model keeps its own
reduction order and its predictions are those of one walk per tree, bit
for bit: the exact row mean for SR and RF, and for GBM one cumsum down
the stages, which adds them in stage order.

predict_tree walks its one tree with the same arrays, with no Forest to
pack: boosting calls it once per stage on the training rows, where
packing a one-tree forest cost more than the walk.

The exact row mean (row_means) is each row's correctly rounded sum, which
math.fsum returns, over k. Past SMALL_BLOCK values a block's sums come
from error-free extraction in about 20 numpy calls, and a rounding
certificate per row; only the rows it leaves open, ties of the last bit
mostly, still go to fsum. A correctly rounded sum is unique, so the means
are fsum's bit for bit.

fit_tree rejects non-finite features, as every predict does: a NaN sorts
last, so growth would put it right of every cut, but it never compares
> a threshold, so the walk would send it left.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .rng import check_int, real_array

LEAF = -1
# rows per block of a forest walk, so the (trees, rows) node-index matrix
# stays small however many rows are predicted
BLOCK_ROWS = 256
# nodes of at most this many rows are searched on Python floats
SMALL_NODE = 16
# a fit's fully grown trees grow together, in one batched pass, once it
# expects at least this many distinct targets, and one at a time below.
# Measured against fit_tree on auto-mpg's 196 and 294 training rows: the
# pass costs 4 trees' growth for 1 tree and breaks even at 8-10 (near 16 on
# 100 rows of 2 features, where a tree grows in under 2 ms). The count is
# of targets, not of trees per group: a group of fewer than BATCH_MIN
# trees holds at least GROW_CELLS / 2 ids, and such groups were measured
# no slower than fit_tree (k = 100 SR fits on make_synthetic data, best of
# 2: 12,800 rows x 7 features in groups of 2 took 13.6 s against 31.1 s
# per tree, 300 x 100 in groups of 8 2.5 s against 4.3 s, and 500 x 300
# in groups of 1, at k = 20, 5.1 s against 5.2 s)
BATCH_MIN = 10
# partition ids per group of trees grown together, (features + 1) x rows x
# trees: a group's int32 ids and the search blocks set the pass's memory
# peak, 2.8 MB for 100 trees on 196 rows of 7 features (one group)
GROW_CELLS = 2**18
# values per search block, nodes x features x width, unless one node is wider
SEARCH_CELLS = 2**14
# the batched search takes a node of at most this many rows at its exact
# width and pads a larger one to the next power of two
EXACT_WIDTH = 16
# row_means sums blocks of at most this many values (rows x columns) with
# fsum row by row, where the vector certificate's fixed cost of about
# 30-40 us is larger. Measured break-even: about 10 rows at 100 columns and
# 64 rows at 5
SMALL_BLOCK = 800


@dataclass(frozen=True)
class RegressionTree:
    """A tree in level order, as a saved document holds it: feature has one
    entry per node (LEAF at leaves), threshold one per internal node and
    value one per leaf, each in node order, as 1-D numpy arrays. The
    constructor checks the one level-order rule, from which the links and
    the depth follow, the feature range and counts, finite floats and an
    int64 width.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    n_features: int

    def __post_init__(self):
        for name in ("feature", "threshold", "value"):
            array = getattr(self, name)
            if not isinstance(array, np.ndarray) or array.ndim != 1:
                raise ValueError(f"{name} must be a 1-D numpy array")
        check_int(self.n_features, "n_features", 0)
        if self.n_features >= 2**63:
            raise ValueError(f"n_features must be an int64 count, got {self.n_features}")
        ids = np.flatnonzero(self.feature != LEAF)
        i = ids.size
        # the j-th internal node's children 2j + 1 and 2j + 2 come after it
        if self.feature.size != 2 * i + 1 or (ids > 2 * np.arange(i)).any():
            raise ValueError("nodes are not a tree in level order: a node precedes its parent")
        if not ((0 <= self.feature[ids]) & (self.feature[ids] < self.n_features)).all():
            raise ValueError("feature index out of range")
        if self.threshold.shape != (i,) or self.value.shape != (i + 1,):
            raise ValueError("expected one threshold per internal node and one value per leaf")
        for name in ("threshold", "value"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    @property
    def n_leaves(self) -> int:
        return self.value.size

    @cached_property
    def left(self) -> np.ndarray:
        """Left children: 2j + 1 at the j-th internal node, LEAF at leaves."""
        return np.where(self.feature != LEAF, _steps(self)[0], LEAF)

    @property
    def right(self) -> np.ndarray:
        return np.where(self.feature != LEAF, self.left + 1, LEAF)

    @cached_property
    def depth(self) -> int:
        # level order ends on a deepest node: count its steps up to the root
        ids = np.flatnonzero(self.feature != LEAF)
        depth, node = 0, self.feature.size - 1
        while node:
            node = int(ids[(node - 1) // 2])
            depth += 1
        return depth


def _steps(tree: RegressionTree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The walk's arrays, one entry per node: step (2j + 1 at the j-th
    internal node, the node's own id at a leaf), threshold (inf at leaves)
    and value (the leaf's value at a leaf, 0 at internal nodes)."""
    internal = tree.feature != LEAF
    threshold = np.full(internal.size, np.inf)
    threshold[internal] = tree.threshold
    value = np.zeros(internal.size)
    value[~internal] = tree.value
    return np.where(internal, 2 * np.cumsum(internal) - 1, np.arange(internal.size)), threshold, value


def _best_split(
    xs: np.ndarray, ys: np.ndarray, total1: float, total2: float
) -> tuple[int, int] | None:
    """Lowest total child SSE over every feature and cut at once.

    Row f of xs/ys holds feature f's node values and targets in value
    order. Position p cuts left = [0..p], right = [p+1..]; it is feasible
    between distinct values, p in [0, m-1). SSE per side comes from
    row-wise prefix sums of y and y^2. Returns (f, p) of the first minimum
    in row-major order, so the lowest feature and then the lowest
    threshold win ties, or None when nothing is feasible.
    """
    n, m = ys.shape
    if n == 0:
        return None
    head = ys[:, :-1]
    # the ufuncs that np.cumsum runs, without its Python wrapper
    c1 = np.add.accumulate(head, axis=1)
    c2 = np.add.accumulate(head * head, axis=1)
    nl = np.arange(1, m, dtype=float)
    nr = m - nl
    sse = (c2 - c1 * c1 / nl) + (total2 - c2 - (total1 - c1) ** 2 / nr)
    distinct = xs[:, :-1] < xs[:, 1:]
    # fit_tree's overflow guard keeps sse free of NaN, so argmin's first
    # minimum is the tie-break: lowest feature, then lowest position
    k = int(np.argmin(np.where(distinct, sse, np.inf)))
    if not distinct.flat[k]:
        return None
    return divmod(k, m - 1)


def _node_sum(values: list[float]) -> float:
    """sum(values) rounded as numpy's add.reduce rounds it, for at most 16
    values: pairwise summation's base case. Below 8 values a sequential
    sum from 0.0; from 8 up, eight accumulators over whole blocks of 8,
    combined in a fixed tree, then the tail in order, all added to 0.0
    (which turns a -0.0 total into 0.0, as np.sum does)."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    r = values[:8]
    whole = n - n % 8
    for i in range(8, whole, 8):
        for j in range(8):
            r[j] += values[i + j]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[whole:]:
        total += v
    return 0.0 + total


def _small_split(
    xl: list[list[float]], yl: list[float], idx: list[int], total1: float, total2: float
) -> tuple[int, list[int], int] | None:
    """_best_split on Python floats for the rows idx, in increasing order,
    each feature's order a stable sort of them: the same SSE expression in
    the same operation order, prefix sums from the first value as cumsum's,
    and the first strict minimum in (feature, position) order. Returns the
    feature, the rows in its value order and the left child's size."""
    size = len(idx)
    best = math.inf
    found = None
    if size == 2:
        # one cut, whose SSE depends only on which row comes first; nl and
        # size - nl are 1.0
        a, b = idx
        sses = []
        for c1 in (yl[a], yl[b]):
            c2, d = c1 * c1, total1 - c1
            sses.append((c2 - c1 * c1 / 1.0) + (total2 - c2 - d * d / 1.0))
        sse_a, sse_b = sses
        for f, xf in enumerate(xl):
            if xf[a] < xf[b]:
                if sse_a < best:
                    best, found = sse_a, (f, idx, 1)
            elif xf[b] < xf[a] and sse_b < best:
                best, found = sse_b, (f, [b, a], 1)
        return found
    for f, xf in enumerate(xl):
        rows = sorted(idx, key=xf.__getitem__)
        v = yl[rows[0]]
        c1 = v
        c2 = v * v
        below = xf[rows[0]]
        nl = 1.0
        for r in rows[1:]:
            above = xf[r]
            if below < above:
                d = total1 - c1
                sse = (c2 - c1 * c1 / nl) + (total2 - c2 - d * d / (size - nl))
                if sse < best:
                    best = sse
                    found = (f, rows, int(nl))
            v = yl[r]
            c1 += v
            c2 += v * v
            below = above
            nl += 1.0
    return found


class Presort:
    """A feature matrix checked and sorted once, for every tree grown on it.

    Refuses a matrix that is not 2-D, has no rows or holds a complex or
    non-finite value, with fit_tree's messages. Holds, read-only, xt (one
    row per feature) and, above SMALL_NODE rows, order: each feature's row
    ids in stable value order. lists, xt as Python lists for the small-node
    search, is made on first use. fit_tree wraps a plain matrix in one; a
    fit that grows many trees on one matrix builds one and passes it to
    every tree.

    memo maps (the targets' bytes, max_depth) to a tree grown here, which
    fit_tree returns instead of growing it again. A tree grown alone
    replaces the whole memo, since each repeat comes right after the tree
    it repeats; a batch (expect) fills it with every tree it grew.
    """

    def __init__(self, features):
        x = real_array(features, "features")
        if x.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if x.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero rows")
        if not np.isfinite(x).all():
            raise ValueError("features must be finite")
        # a copy, never a view of the caller's matrix
        self.xt = np.array(x.T, order="C")
        self.order = np.argsort(self.xt, axis=1, kind="stable") if x.shape[0] > SMALL_NODE else None
        for a in (self.xt, self.order):
            if a is not None:
                a.flags.writeable = False
        self.memo: dict[tuple[bytes, int | None], RegressionTree] = {}
        # the bytes of each expected column not grown yet
        self.pending: list[bytes] = []

    @cached_property
    def lists(self) -> list[list[float]]:
        return self.xt.tolist()

    def expect(self, targets) -> None:
        """Announce the fully grown trees a fit is about to ask fit_tree for,
        one per column of the (rows, k) targets. With at least BATCH_MIN
        distinct columns that pass fit_tree's target checks, the first
        fit_tree call with max_depth None for one of them grows them all in
        one batched pass and puts them in the memo; with fewer, each call
        grows its own tree.
        """
        y = real_array(targets, "targets")
        if y.ndim != 2 or y.shape[0] != self.xt.shape[1]:
            raise ValueError("targets must be a matrix with one row per feature row")
        keys = []
        for key in dict.fromkeys(column.tobytes() for column in y.T):
            try:
                _check_targets(np.frombuffer(key))
            except ValueError:
                continue  # its own fit_tree call raises
            keys.append(key)
        self.pending = keys if len(keys) >= BATCH_MIN else []


def _check_targets(y: np.ndarray) -> None:
    """fit_tree's checks on a target vector: finite, with squared-error
    sums that cannot overflow."""
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    with np.errstate(over="ignore"):
        # bounds every prefix-sum term of the SSE, (sum y)^2 <= m * sum y^2
        if not np.isfinite(y.size * float(np.sum(y * y))):
            raise ValueError("targets too large: squared-error sums overflow")


def fit_tree(features, targets, max_depth: int | None = None) -> RegressionTree:
    """Grow a tree top-down; every leaf predicts the mean of its rows.

    features is a matrix or a Presort of one. A node stays a leaf when it
    holds one row, sits at max_depth (None means no limit), has exactly
    constant targets, or has no two distinct values in any feature to cut
    between.

    Called on a Presort whose memo holds a tree for this max_depth and
    targets equal byte for byte, it returns that tree, the same object,
    after the same input checks. Targets with -0.0 where the memo's held
    0.0 grow anew. With max_depth None and targets that the Presort
    expects, it first grows every expected tree in one batched pass.
    """
    if max_depth is not None:
        check_int(max_depth, "max_depth", 0)
    presort = features if isinstance(features, Presort) else Presort(features)
    xt = presort.xt
    y = real_array(targets, "targets")
    if y.ndim != 1 or y.size != xt.shape[1]:
        raise ValueError("targets must be a vector matching the feature rows")
    _check_targets(y)
    key = y.tobytes()
    if max_depth is None and key in presort.pending:
        pending, presort.pending = presort.pending, []
        trees = _grow_batch(presort, pending)
        presort.memo = {(k, None): tree for k, tree in zip(pending, trees)}
    if (key, max_depth) in presort.memo:
        return presort.memo[key, max_depth]
    n = xt.shape[0]
    feature_ids = np.arange(n)[:, None]
    goes_left = np.zeros(y.size, dtype=bool)
    # x and y as Python lists, taken when the first small node is searched
    xl: list[list[float]] = []
    yl: list[float] = []

    # filled in node order: a feature per node, a threshold per internal
    # node and a value per leaf
    feat: list[int] = []
    thr: list[float] = []
    value: list[float] = []
    # a node carries its rows in increasing order, as an array or, once it
    # is small, a list. A node of more than SMALL_NODE rows that will be
    # searched also carries, per feature, its rows in stable value order.
    # Nodes are taken first in, first out, so in level order
    queue: deque[tuple[object, object, int]] = deque([(np.arange(y.size), presort.order, 0)])
    while queue:
        idx, order, depth = queue.popleft()
        size = len(idx)
        capped = max_depth is not None and depth >= max_depth
        split = None
        if size == 1:
            # nothing to split; the mean of one value is the value, plus
            # 0.0 because np.sum turns a lone -0.0 into 0.0
            mean = float(y[idx[0]]) + 0.0
        # a capped node only takes its mean, so one that still holds an
        # array stays in numpy and a shallow tree need never convert
        elif size <= SMALL_NODE and (not capped or type(idx) is list):
            if not yl:
                xl, yl = presort.lists, y.tolist()
            if type(idx) is not list:
                idx = idx.tolist()
            ysub = [yl[r] for r in idx]
            total1 = _node_sum(ysub)
            mean = total1 / size
            if not (capped or min(ysub) == max(ysub)):
                split = _small_split(xl, yl, idx, total1, _node_sum([v * v for v in ysub]))
        else:
            ysub = y[idx]
            # the ufuncs that .sum(), .min() and .max() run
            total1 = float(np.add.reduce(ysub))
            mean = total1 / size  # ysub.mean(), bit for bit
            if not (capped or np.minimum.reduce(ysub) == np.maximum.reduce(ysub)):
                xs = xt[feature_ids, order]
                split = _best_split(xs, y[order], total1, float(np.add.reduce(ysub * ysub)))
        if split is None:
            feat.append(LEAF)
            value.append(mean)
            continue
        # the cut keeps the first n_left rows of the split feature's order
        left_order = right_order = None
        if type(idx) is list:
            f, rows, n_left = split
            below, above = xl[f][rows[n_left - 1]], xl[f][rows[n_left]]
            # each child's rows back in increasing order
            left_idx, right_idx = sorted(rows[:n_left]), sorted(rows[n_left:])
        else:
            f, p = split
            n_left = p + 1
            below, above = float(xs[f, p]), float(xs[f, n_left])
            goes_left[order[f, :n_left]] = True
            # filtering every feature's order by the left rows keeps each in
            # value order; only a big child that will be searched needs one
            searched = max_depth is None or depth + 1 < max_depth
            big_left = searched and n_left > SMALL_NODE
            big_right = searched and size - n_left > SMALL_NODE
            if big_left or big_right:
                in_left = goes_left[order]
                if big_left:
                    left_order = order[in_left].reshape(n, n_left)
                if big_right:
                    right_order = order[~in_left].reshape(n, size - n_left)
            row_left = goes_left[idx]
            left_idx, right_idx = idx[row_left], idx[~row_left]
            goes_left[left_idx] = False
        t = 0.5 * (below + above)
        if not below <= t < above:
            # the midpoint rounded up to above, or below + above overflowed;
            # pin to below so the threshold routes exactly the first n_left
            # rows
            t = below
        feat.append(f)
        thr.append(t)
        queue.append((left_idx, left_order, depth + 1))
        queue.append((right_idx, right_order, depth + 1))

    tree = RegressionTree(
        np.array(feat, dtype=np.int64), np.array(thr, dtype=float), np.array(value, dtype=float), n
    )
    presort.memo = {(key, max_depth): tree}
    return tree


def _grow_batch(presort: Presort, keys: list[bytes]) -> list[RegressionTree]:
    """fit_tree(presort, y) for the target vector y held in each of keys'
    bytes, bit for bit, grown in groups of trees whose partition ids fit in
    GROW_CELLS."""
    p, m = presort.xt.shape
    group = max(1, GROW_CELLS // ((p + 1) * m))
    trees = []
    for first in range(0, len(keys), group):
        targets = np.array([np.frombuffer(key) for key in keys[first : first + group]])
        trees += _grow_group(presort, targets)
    return trees


def _grow_group(presort: Presort, targets: np.ndarray) -> list[RegressionTree]:
    """One fully grown tree per row of the (trees, rows) targets, all
    grown together.

    Element t * m + r stands for row r in tree t. The leading columns of
    ids hold the open nodes of a level end to end, tree by tree and in
    level order within a tree: in row f each node's elements in stable
    feature-f order, in row p in increasing order. Each pass takes the
    node totals, searches and partitions every node of the level at once
    and records each node's feature and its threshold or leaf value.
    """
    xt = presort.xt
    p, m = xt.shape
    g = targets.shape[0]
    y = targets.ravel()
    order = presort.order if presort.order is not None else np.argsort(xt, axis=1, kind="stable")
    start = np.arange(g) * m
    ids = np.empty((p + 1, g * m), dtype=np.int32)
    ids[:p] = (order[:, None, :] + start[:, None]).reshape(p, g * m)
    ids[p] = np.arange(g * m)
    tree, size = np.arange(g), np.full(g, m)
    levels = []
    while True:
        value, total1, total2, constant = _node_totals(y[ids[p, : size.sum()]], start, size)
        searched = np.flatnonzero((size > 1) & ~constant) if p else np.zeros(0, dtype=np.int64)
        split, f, n_left, threshold = _split_level(
            ids, y, xt, tree, start, size, total1, total2, searched
        )
        feat = np.full(tree.size, LEAF, dtype=np.int64)
        feat[split] = f
        value[split] = threshold
        levels.append((tree, feat, value))
        if not split.size:
            break
        start, size = _partition(ids, start[split], size[split], f, n_left)
        tree = np.repeat(tree[split], 2)
    tree, feat, value = (np.concatenate(a) for a in zip(*levels))
    del levels, ids  # freed before the trees are built
    return _assemble(tree, feat, value, g, p)


def _assemble(tree, feat, value, g: int, p: int) -> list[RegressionTree]:
    """The g trees from the records of every node (tree, feature, value),
    level after level and each level tree by tree: a stable sort by tree
    puts each tree's nodes in level order. Each tree gets arrays of its
    own."""
    by_tree = np.argsort(tree, kind="stable")
    counts = np.bincount(tree, minlength=g)
    ends = np.cumsum(counts)
    trees = []
    for a, b in zip(ends - counts, ends):
        nodes = by_tree[a:b]
        internal = feat[nodes] != LEAF
        values = value[nodes]
        trees.append(RegressionTree(feat[nodes], values[internal], values[~internal], p))
    return trees


def _node_totals(rising: np.ndarray, start: np.ndarray, size: np.ndarray):
    """(mean, sum of y, sum of y^2, constant) per node, the sums as np.sum
    adds each node's targets in increasing row order (rising, the level's
    targets in that order): nodes of one size reduce together, along
    contiguous rows, which rounds as one np.sum per node."""
    # plus 0.0 as np.sum turns a lone -0.0 into 0.0
    total1 = rising[start] + 0.0
    total2 = np.zeros(size.size)
    by_size = np.argsort(size, kind="stable")
    for nodes in np.split(by_size, np.flatnonzero(np.diff(size[by_size])) + 1):
        s = size[nodes[0]]
        if s > 1:
            block = rising[start[nodes, None] + np.arange(s)]
            total1[nodes] = np.add.reduce(block, axis=1)
            total2[nodes] = np.add.reduce(block * block, axis=1)
    constant = np.minimum.reduceat(rising, start) == np.maximum.reduceat(rising, start)
    return total1 / size, total1, total2, constant


def _split_level(ids, y, xt, tree, start, size, total1, total2, searched):
    """(nodes, feature, n_left, threshold) of the searched nodes that
    split, in node order. Nodes are searched by width, the exact size up
    to EXACT_WIDTH and the next power of two above, in blocks of at most
    SEARCH_CELLS values."""
    p = xt.shape[0]
    # 2^e for sizes in (2^(e-1), 2^e]: frexp(size - 1) has exponent e
    width = np.where(size <= EXACT_WIDTH, size, np.left_shift(1, np.frexp(size - 1)[1]))[searched]
    none = np.zeros(0, dtype=np.int64)
    blocks = [(none, none, none, np.zeros(0), np.zeros(0))]
    for w in np.unique(width):
        bucket = searched[width == w]
        step = max(1, SEARCH_CELLS // (p * w))
        for i in range(0, bucket.size, step):
            nodes = bucket[i : i + step]
            blocks.append(_search_block(ids, y, xt, tree, nodes, start, size, total1, total2, w))
    nodes, f, pos, below, above = map(np.concatenate, zip(*blocks))
    ranked = np.argsort(nodes)
    below, above = below[ranked], above[ranked]
    with np.errstate(over="ignore"):
        threshold = 0.5 * (below + above)
    # the midpoint rounded up to above, or below + above overflowed; pin to
    # below so the threshold routes exactly the first n_left rows
    pin = ~((below <= threshold) & (threshold < above))
    threshold[pin] = below[pin]
    return nodes[ranked], f[ranked], pos[ranked] + 1, threshold


def _search_block(ids, y, xt, tree, nodes, start, size, total1, total2, width):
    """_best_split for each of nodes, of at most width rows: (nodes,
    feature, position, below, above) of those with a feasible cut. Each
    node's values are padded to width with its last, which no cut
    separates, so a padded position is never distinct."""
    p, m = xt.shape
    n, size = nodes.size, size[nodes, None, None]
    cols = start[nodes, None] + np.minimum(np.arange(width), size[:, 0] - 1)
    # (nodes, features, width): each node's elements in each feature's order
    stride = ids.shape[1]
    elements = ids.ravel()[cols[:, None, :] + np.arange(0, p * stride, stride)[:, None]]
    ys = y[elements]
    # element t * m + r of feature f is xt.flat[f * m + r]
    xs = xt.ravel()[elements + (np.arange(0, p * m, m)[:, None] - tree[nodes, None, None] * m)]
    head = ys[..., :-1]
    c1 = np.add.accumulate(head, axis=2)
    c2 = np.add.accumulate(head * head, axis=2)
    nl = np.arange(1, width, dtype=float)
    t1, t2 = total1[nodes, None, None], total2[nodes, None, None]
    # past a node's last cut the right side is empty or negative
    with np.errstate(all="ignore" if width > EXACT_WIDTH else None):
        sse = (c2 - c1 * c1 / nl) + (t2 - c2 - (t1 - c1) ** 2 / (size - nl))
    distinct = xs[..., :-1] < xs[..., 1:]
    # the first minimum over each node's (feature, position): the lowest
    # feature, then the lowest threshold wins a tie
    k = np.argmin(np.where(distinct, sse, np.inf).reshape(n, -1), axis=1)
    rows = np.arange(n)
    ok = distinct.reshape(n, -1)[rows, k]
    rows, (f, pos) = rows[ok], np.divmod(k[ok], width - 1)
    return nodes[ok], f, pos, xs[rows, f, pos], xs[rows, f, pos + 1]


def _partition(ids, start, size, f, n_left):
    """(start, size) of the children of the split nodes (start, size,
    feature f, n_left rows to the left), left then right, the split nodes'
    elements packed at the front of ids in place. Every row of ids keeps
    each child's elements in its order."""
    left = np.zeros(ids.shape[1], dtype=bool)
    left[ids[np.repeat(f, n_left), _ranges(start, n_left)]] = True
    kept = _ranges(start, size)
    first = (np.cumsum(size) - size).astype(np.int32)
    # a left element goes to its node's first slot plus its rank among the
    # node's lefts, a right one past the node's lefts, less that rank
    to_left = np.repeat(first, size)
    to_right = np.arange(kept.size, dtype=np.int32) + np.repeat(n_left.astype(np.int32), size)
    for row in ids:
        elements = row[kept]
        goes = left[elements]
        rank = np.cumsum(goes, dtype=np.int32)
        rank -= goes
        rank -= np.repeat(rank[first], size)
        row[np.where(goes, to_left + rank, to_right - rank)] = elements
    starts = np.column_stack([first, first + n_left]).ravel()
    return starts, np.column_stack([n_left, size - n_left]).ravel()


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """starts[i] + range(sizes[i]), for each i in turn."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)


def check_features(features, n_features: int) -> np.ndarray:
    """The features as a float matrix; ValueError unless real, 2-D,
    n_features columns wide and finite. Every predict calls this once: a
    NaN or inf would otherwise route right at every node, and a complex
    value would lose its imaginary part, silently."""
    x = real_array(features, "features")
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if x.shape[1] != n_features:
        raise ValueError(
            f"features: feature count {x.shape[1]} does not match training dimension "
            f"{n_features}"
        )
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    return x


def row_means(columns: np.ndarray) -> np.ndarray:
    """Mean of each row: the row's exact sum rounded once, which is what
    math.fsum returns, divided by the row length k, so column order cannot
    matter. A row whose exact sum leaves the float range, where fsum
    raises OverflowError, reads NaN.

    A block of at most SMALL_BLOCK values goes to fsum row by row. A larger
    one is certified with a fixed number of numpy calls by error-free
    extraction (Rump, Ogita and Oishi, "Accurate floating-point summation
    part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008). Per row
    x, with u = 2^-53:

    - t is the frexp exponent of max|x_i|, so every |x_i| < 2^t, and
      b = k.bit_length(), so k < 2^b. Let sigma = 2^(t + b).
    - high = (x + sigma) - sigma. x + sigma lies in [sigma/2, 2 sigma], so
      it rounds to a multiple of 2^(t+b-53), the subtraction is exact
      (Sterbenz), and |high_i| <= 2^t. Every partial sum of the highs is
      then a multiple of 2^(t+b-53) below k 2^t < sigma in magnitude, which
      fits in 53 bits: high.sum is exact in any order.
    - rest = x - high is the rounding error of x + sigma, so it is exact,
      and |rest_i| <= 2^(t+b-53). A float sum of the rests, in any order,
      errs by at most gamma_(k-1) sum|rest_i| < (k u)(k 2^(t+b-53))
      < 2^(t+3b-106) =: E. Additions that underflow are exact, so this
      holds for subnormals too.
    - With the slack s = 2^(t+3b-104) = 4E, rest.sum() - s and
      rest.sum() + s round with an error below u (|rest.sum()| + s)
      < 2^(t+2b-106) + u s <= s/2, so lo = fl(rest.sum() - s) < r <
      hi = fl(rest.sum() + s) for the exact sum r of the rests. s is
      at least 2^-1074; below that E is under the smallest subnormal and the
      rests sum exactly.
    - exact + lo < exact + r < exact + hi, where exact = high.sum(), and
      rounding is monotone. So when fl(exact + lo) == fl(exact + hi), that
      double is the row's correctly rounded sum. It is unique, so it is
      fsum's result bit for bit. The two cannot both be zero, since an
      addition rounds to zero only when its exact sum is zero.

    The rows left open go to fsum: exact and near ties of the final
    rounding, rows whose highs sum to zero (all-zero rows among them), and
    rows whose sigma overflows, since then high is NaN and NaN compares
    unequal. numpy's overflow and invalid warnings on that path stay
    inside. columns may be strided, such as a transposed block; it is
    never copied.
    """
    n, k = columns.shape
    if n * k <= SMALL_BLOCK:
        sums = np.empty(n)
        open_rows = range(n)
    else:
        b = k.bit_length()
        with np.errstate(over="ignore", invalid="ignore"):
            # one scratch block holds |x|, then high, then rest: a fresh
            # block per step costs about as much as the arithmetic
            buf = np.abs(columns)
            t = np.frexp(buf.max(axis=1))[1]
            sigma = np.ldexp(1.0, t + b)[:, None]
            high = np.add(columns, sigma, out=buf)
            high -= sigma
            exact = high.sum(axis=1)
            rest = np.subtract(columns, high, out=buf).sum(axis=1)
            slack = np.ldexp(1.0, np.maximum(t + (3 * b - 104), -1074))
            sums = exact + (rest - slack)
            open_rows = np.flatnonzero(sums != exact + (rest + slack))
    for i in open_rows:
        try:
            # fsum reads a memoryview's doubles directly, not one numpy
            # scalar each
            sums[i] = math.fsum(memoryview(columns[i]))
        except OverflowError:
            sums[i] = math.nan
    return sums / k


@dataclass(frozen=True)
class Forest:
    """Trees packed into one node array, walked together.

    Trees sit end to end, deepest first, and step holds their steps
    shifted to the packed ids. A leaf keeps feature LEAF, which reads
    another finite value of the block that its inf threshold ignores.
    active[d] counts the trees deeper than d, which are the first
    active[d] trees. slot[i] is tree i's position in the packed order.
    """

    feature: np.ndarray
    threshold: np.ndarray
    step: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    active: tuple[int, ...]
    slot: np.ndarray

    def leaves(self, x: np.ndarray):
        """Yield (rows, values) for each block of BLOCK_ROWS rows of x, a
        checked feature matrix: values[i] holds tree i's leaf values."""
        p = x.shape[1]
        flat = x.ravel()
        for start in range(0, x.shape[0], BLOCK_ROWS):
            n = min(BLOCK_ROWS, x.shape[0] - start)
            block = flat[start * p : (start + n) * p]
            row_base = np.arange(n) * p
            # node[j, r]: where row r stands in packed tree j
            node = np.repeat(self.roots[:, None], n, axis=1)
            for a in self.active:
                at = node[:a]
                node[:a] = self.step[at] + (block[self.feature[at] + row_base] > self.threshold[at])
            yield slice(start, start + n), self.value[node[self.slot]]


def pack_forest(trees) -> Forest:
    """One Forest holding the trees; leaf values come back in tree order."""
    order = sorted(range(len(trees)), key=lambda i: -trees[i].depth)
    packed = [trees[i] for i in order]
    sizes = [tree.n_nodes for tree in packed]
    roots = np.cumsum([0, *sizes[:-1]])
    step, threshold, value = map(np.concatenate, zip(*map(_steps, packed)))
    feature = np.concatenate([tree.feature for tree in packed])
    depths = [tree.depth for tree in packed]  # deepest first
    return Forest(
        feature=feature,
        threshold=threshold,
        step=step + np.repeat(roots, sizes),
        value=value,
        roots=roots,
        active=tuple(sum(depth > d for depth in depths) for d in range(depths[0])),
        slot=np.argsort(order),
    )


class TreeModel:
    """What the SR, RF and GBM models share: a tuple of at least one tree,
    each as wide as the model, no boolean in any other field, and the
    trees packed for predict. Each model is a frozen dataclass over this
    base that declares trees among its own fields, so its field list is
    exactly what its saved document holds, and its __post_init__ checks
    its own fields before calling this one."""

    def __post_init__(self):
        if type(self.trees) is not tuple or not all(isinstance(t, RegressionTree) for t in self.trees):
            raise ValueError("trees must be a tuple of RegressionTrees")
        if not self.trees:
            raise ValueError("trees: a model needs at least one tree")
        check_int(self.n_features, "n_features")
        if any(tree.n_features != self.n_features for tree in self.trees):
            raise ValueError(f"trees must be n_features = {self.n_features} wide")
        for field in fields(self):
            # True passes every range check as 1 and saves as JSON true,
            # which the loader refuses
            if field.name != "trees" and np.asarray(getattr(self, field.name)).dtype == bool:
                raise ValueError(f"{field.name} must hold numbers, not booleans")

    @cached_property
    def forest(self) -> Forest:
        """The trees packed for predict: built on first use, never saved."""
        return pack_forest(self.trees)


def predict_tree(tree: RegressionTree, features) -> np.ndarray:
    """Route each row to its leaf (<= goes left) and return leaf means.

    The one tree is walked directly by the step rule, with no Forest to
    pack.
    """
    x = check_features(features, tree.n_features)
    step, threshold, value = _steps(tree)
    feature = tree.feature
    rows = np.arange(x.shape[0])
    node = np.zeros(x.shape[0], dtype=np.int64)
    for _ in range(tree.depth):
        node = step[node] + (x[rows, feature[node]] > threshold[node])
    return value[node]
