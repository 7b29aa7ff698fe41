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
each. A bagged fit (RF) checks its matrix once and passes each tree a
resample of it, which is sorted once for its tree. The trees are those of
a per-node stable argsort, bit for bit. A node's row ids are always in
increasing order (the root is arange, each child a filter of its parent),
so a stable sort of the node's values orders ties by row id, which is the
global stable order filtered to the node. The prefix sums therefore add
the same values in the same sequence, and node totals and leaf means are
sums of y over the node's rows in row order.

A capped tree (max_depth set, as in GBM's stages) grows node by node, and
so does a fully grown tree that no fit announced (below), at a cap of its
row count m, which never binds: a tree on m rows is at most m - 1 deep. The
root holds an (n_features, m) matrix of row ids, row f in stable value
order of feature f. A split keeps the first n_left entries of the chosen
feature's row and filters every row of the matrix by that row set, so
each child inherits its rows already in value order and every feature
row has the same length. Only a child that will be searched gets orders:
one at max_depth, such as every child of a depth-2 split in a depth-3
boosting stage, only takes the mean of its rows.

Every split search, node by node or in the batched pass below, goes
through one function, _cut_sse: on (nodes, features, width) blocks of
values and targets in value order it takes prefix sums of y and y^2 along
each row and returns each cut's total child SSE, inf where the cut does
not fall between distinct values. The first minimum over a node's
(feature, position) in row-major order is the tie break above: a capped
node takes one flat argmin, the pass one argmin per node.

A Presort also keeps a memo of trees grown on it, which fit_tree returns
for the same max_depth and byte-equal targets instead of growing them
again. A tree grown alone replaces the whole memo, so a fit that grows
one tree at a time keeps only its last: at nu = 0 SR's k gradient targets
are one vector, so its k trees are one tree grown once, and so is a
boosting stage that did not move.

The fully grown trees (max_depth None) that a fit announces come from one
batched pass, which grows a group of trees level by level with no
per-node Python, as XGBoost's presorted column blocks do (Chen and
Guestrin, KDD 2016). A fit that knows all its fully grown trees up front
hands them to its Presort first: SR its k gradient targets (expect), RF
its k bootstrap resamples and their targets (resample, which returns one
Presort per tree, standing for x[rows] and holding only its rows). The
first fit_tree call for one of them then grows every expected tree in one
pass and fills the memos, so each call, the first too, returns its tree
after its own input checks. SR's memo takes every distinct column, so
byte-equal columns grow once; a resample's takes its own tree only, so
byte-equal targets on other rows never share one. Element t * m + r
stands for row r of tree t. SR's trees share one matrix, so the search
reads an element's features at column r of xt, the element less an offset
of t * m. RF's trees each have their own, so a group stacks its resamples
side by side, xt[:, rows] of shape (n_features, trees * m), and reads at
the element itself, an offset of 0; each tree's orders come from a stable
argsort of its part of the stack, which breaks ties by resample position
as a Presort of x[rows] does. An int32 matrix of n_features + 1 rows
holds every open node's rows, tree after tree, in each feature's stable
value order and in increasing order. Node totals reduce the nodes of one
size together along contiguous rows, which rounds as one np.sum per node.
The search takes nodes in blocks of one width, the next power of two at
or above their size, each node padded with its last value, which no cut
separates. A split partitions every row of the matrix stably by prefix
counts of the left rows, and a stable sort of the levels' records by tree
gives each tree its nodes in level order. The trees are those of the
node-by-node growth at a cap that never binds, such as max_depth = m, bit
for bit. A group holds at most GROW_CELLS int32 cells (its ids, and RF's
stack and argsort counted in the same cells) and a search block at most
SEARCH_CELLS values (or one node), so the pass's memory does not grow
with the number of trees: at its peak, for 100 trees on 196 rows of 7
features and the trees included, 2.8 MB for SR and 3.0 MB for a whole RF
fit.

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
# int32 cells per group of trees grown together: per tree, (features + 1)
# x rows of partition ids, and for an RF resample (2 x features + 4) x rows
# more, its stacked float64 features and one feature's int64 argsort and
# its shifted copy. The cells and the search blocks set the pass's memory
# peak: for 100 trees on 196 rows of 7 features 2.8 MB for SR (one group)
# and 3.0 MB for RF (groups of 51). RF at 2^19 instead (fit_rf, k = 100): 0.094 s against
# 0.109 s on those rows (median of 15), and 2.73 s (groups of 6) against
# 2.87 s (groups of 3) on 3,200 rows x 7 features (best of 2), where per
# tree took 0.245 s and 5.10 s; a larger budget would double SR's ids past
# 3,300 rows for as little, so one value serves both
GROW_CELLS = 2**18
# values per search block, nodes x features x width, unless one node is wider
SEARCH_CELLS = 2**14
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
            real_array(getattr(self, name), name, 1)

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Presort:
    """A feature matrix checked and sorted once, for every tree grown on it.

    Refuses a matrix that is not 2-D, has no rows or holds a complex or
    non-finite value, with fit_tree's messages. Holds, read-only, xt (one
    row per feature) and, made on first use, order (each feature's row ids
    in stable value order, also read-only). fit_tree wraps a plain matrix
    in one; a fit that grows many trees on one matrix builds one and passes
    it to every tree, and a bagged fit passes each tree a resample of one.

    memo maps (the targets' bytes, max_depth) to a tree grown here, which
    fit_tree returns instead of growing it again. A tree grown alone
    replaces the whole memo, since each repeat comes right after the tree
    it repeats; a batch fills it with every tree it grew here (expect),
    and a resample's with that resample's tree (resample). n_rows counts
    the rows the matrix stands for.
    """

    # a resample's rows of its source; None for a matrix of its own
    rows = None

    def __init__(self, features):
        x = real_array(features, "features", 2)
        if x.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero rows")
        # a copy, never a view of the caller's matrix
        self.xt = _read_only(np.array(x.T, order="C"))
        self.n_rows = x.shape[0]
        self.memo: dict[tuple[bytes, int | None], RegressionTree] = {}
        # (Presort, target bytes) of each expected tree not grown yet,
        # one list shared with every resample
        self.pending: list[tuple[Presort, bytes]] = []

    @cached_property
    def order(self) -> np.ndarray:
        return _read_only(np.argsort(self.xt, axis=1, kind="stable"))

    def expect(self, targets) -> None:
        """Announce the fully grown trees a fit is about to ask fit_tree for,
        one per column of the (rows, k) targets. The first fit_tree call
        with max_depth None for one of the distinct columns that pass its
        target checks grows them all in one batched pass and puts them in
        the memo.
        """
        y = real_array(targets, "targets")
        if y.ndim != 2 or y.shape[0] != self.n_rows:
            raise ValueError("targets must be a matrix with one row per feature row")
        self._expect((self, key) for key in dict.fromkeys(column.tobytes() for column in y.T))

    def resample(self, rows, targets) -> list[Presort]:
        """A bagged fit's trees: one Presort of x[r] per row r of the
        (trees, rows) integer rows, expecting the fully grown tree of
        targets[r], where targets has one entry per feature row. Each
        shares this matrix's checks and makes xt and order on each use. The
        first fit_tree call with max_depth None for one of the trees whose
        targets pass its checks grows them all in one batched pass, each
        into its own memo.
        """
        y = real_array(targets, "targets")
        if y.shape != (self.n_rows,):
            raise ValueError("targets must be a vector matching the feature rows")
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.dtype.kind not in "iu" or rows.shape[1] == 0 or (
            rows.size and not 0 <= rows.min() <= rows.max() < self.n_rows
        ):
            raise ValueError("rows must be a (trees, rows) matrix of feature row ids, a tree one or more")
        views = [_Resample(self, r) for r in rows]
        self._expect((view, y[view.rows].tobytes()) for view in views)
        return views

    def _expect(self, expected) -> None:
        """pending becomes the (Presort, target bytes) pairs whose targets
        pass fit_tree's checks: in place, since resamples share the list."""
        kept = []
        for presort, key in expected:
            try:
                _check_targets(real_array(np.frombuffer(key), "targets", 1))
            except ValueError:
                continue  # its own fit_tree call raises
            kept.append((presort, key))
        self.pending[:] = kept


class _Resample(Presort):
    """The rows rows of source's matrix, from Presort.resample."""

    def __init__(self, source: Presort, rows: np.ndarray):
        self.source, self.rows, self.n_rows = source, rows, rows.size
        self.memo = {}
        self.pending = source.pending

    # made on each use, so a capped tree grown here leaves nothing behind,
    # and the batched pass never makes them
    xt = property(lambda self: _read_only(self.source.xt.take(self.rows, axis=1)))
    order = property(lambda self: _read_only(np.argsort(self.xt, axis=1, kind="stable")))


def _check_targets(y: np.ndarray) -> None:
    """fit_tree's check on a finite target vector: squared-error sums that
    cannot overflow."""
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
    0.0 grow anew. A fully grown tree (max_depth None) with targets that
    the Presort expects comes from the batched pass, which grows every
    expected tree first. Any other tree grows node by node, a fully grown
    one at a cap of the row count, which never binds.
    """
    if max_depth is not None:
        check_int(max_depth, "max_depth", 0)
    presort = features if isinstance(features, Presort) else Presort(features)
    y = real_array(targets, "targets", 1)
    if y.size != presort.n_rows:
        raise ValueError("targets must be a vector matching the feature rows")
    _check_targets(y)
    key = y.tobytes()
    if max_depth is None and (presort, key) in presort.pending:
        _grow_batch(presort, presort.pending)
    if (key, max_depth) not in presort.memo:
        # a tree on m rows is at most m - 1 deep, so a cap of m never binds
        cap = presort.n_rows if max_depth is None else max_depth
        presort.memo = {(key, max_depth): _grow_capped(presort, y, cap)}
    return presort.memo[key, max_depth]


def _grow_capped(presort: Presort, y: np.ndarray, max_depth: int) -> RegressionTree:
    """fit_tree's tree at max_depth, grown node by node."""
    xt = presort.xt
    n = xt.shape[0]
    feature_ids = np.arange(n)[:, None]
    goes_left = np.zeros(y.size, dtype=bool)
    # filled in node order: a feature per node, a threshold per internal
    # node and a value per leaf
    feat: list[int] = []
    thr: list[float] = []
    value: list[float] = []
    # a node carries its rows in increasing order and, if it will be
    # searched, per feature its rows in stable value order (None if not;
    # with no feature, never). Nodes are taken first in, first out, so in
    # level order
    queue = deque([(np.arange(y.size), presort.order if max_depth and n else None, 0)])
    while queue:
        idx, order, depth = queue.popleft()
        ysub = y[idx]
        # the ufuncs that .sum(), .min() and .max() run
        total1 = float(np.add.reduce(ysub))
        split = False
        if order is not None and np.minimum.reduce(ysub) != np.maximum.reduce(ysub):
            xs = xt[feature_ids, order]
            sse = _cut_sse(xs[None], y[order][None], total1, float(np.add.reduce(ysub * ysub)), idx.size)
            # the first minimum of the flat (feature, position): the tie break
            k = int(sse.argmin())
            split = sse.flat[k] < np.inf
        if not split:
            feat.append(LEAF)
            value.append(total1 / idx.size)  # ysub.mean(), bit for bit
            continue
        f, p = divmod(k, idx.size - 1)
        n_left = p + 1
        below, above = float(xs[f, p]), float(xs[f, n_left])
        # the cut keeps the first n_left rows of the split feature's order
        goes_left[order[f, :n_left]] = True
        left_order = right_order = None
        if depth + 1 < max_depth:
            # filtering every feature's order by the left rows keeps each in
            # value order
            in_left = goes_left[order]
            left_order = order[in_left].reshape(n, n_left)
            right_order = order[~in_left].reshape(n, idx.size - n_left)
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
    return RegressionTree(
        np.array(feat, dtype=np.int64), np.array(thr, dtype=float), np.array(value, dtype=float), n
    )


def _grow_batch(presort: Presort, pending: list[tuple[Presort, bytes]]) -> None:
    """For each (held, bytes of y) in pending, put fit_tree(held, y), bit
    for bit, into held's memo, which it replaces, and empty pending;
    presort is one of the held. Either all are presort (SR's targets on one matrix) or each is a
    resample of one source (RF's bootstrap trees). Trees grow in groups
    that fit in GROW_CELLS int32 cells: per row, features + 1 for a tree's
    partition ids, and for a resample 2 more per feature for its float64
    features and 4 for one feature's int64 argsort and its shifted copy."""
    batch = pending[:]
    pending.clear()
    resampled = presort.rows is not None
    source = presort.source if resampled else presort
    p, m = source.xt.shape[0], presort.n_rows
    group = max(1, GROW_CELLS // ((p + 1 + (2 * p + 4) * resampled) * m))
    for held, _ in batch:
        held.memo = {}
    for first in range(0, len(batch), group):
        part = batch[first : first + group]
        targets = np.array([np.frombuffer(key) for _, key in part])
        if resampled:
            rows = np.concatenate([held.rows for held, _ in part])
            trees = _grow_group(source.xt.take(rows, axis=1), None, targets)
        else:
            trees = _grow_group(source.xt, source.order, targets)
        for (held, key), tree in zip(part, trees):
            held.memo[key, None] = tree


def _grow_group(x: np.ndarray, order: np.ndarray | None, targets: np.ndarray) -> list[RegressionTree]:
    """One fully grown tree per row of the (trees, m) targets, all grown
    together: on one (features, m) matrix x whose presort is order, or,
    with order None, each tree on its own matrix, x holding them side by
    side as (features, trees * m).

    Element t * m + r stands for row r in tree t. Its feature values lie in
    column r of a shared x and in column t * m + r of a stacked one, so the
    search's gather subtracts shift = m per tree from the element, or 0.
    The leading columns of ids hold the open nodes of a level end to end,
    tree by tree and in level order within a tree: in row f each node's
    elements in stable feature-f order, in row p in increasing order. Each
    pass takes the node totals, searches and partitions every node of the
    level at once and records each node's feature and its threshold or
    leaf value.
    """
    p = x.shape[0]
    g, m = targets.shape
    y = targets.ravel()
    start = np.arange(g) * m
    ids = np.empty((p + 1, g * m), dtype=np.int32)
    if order is None:
        # a stable argsort of each tree's values breaks ties by resample
        # position, as a Presort of the tree's own matrix does; one feature
        # at a time, so the int64 orders take 4 cells of a row, not 4p
        for f in range(p):
            ids[f] = (np.argsort(x[f].reshape(g, m), axis=1, kind="stable") + start[:, None]).ravel()
    else:
        ids[:p] = (order[:, None, :] + start[:, None]).reshape(p, g * m)
    ids[p] = np.arange(g * m)
    shift = 0 if order is None else m
    tree, size = np.arange(g), np.full(g, m)
    levels = []
    while True:
        value, total1, total2, constant = _node_totals(y[ids[p, : size.sum()]], start, size)
        searched = np.flatnonzero((size > 1) & ~constant) if p else np.zeros(0, dtype=np.int64)
        split, f, n_left, threshold = _split_level(
            ids, y, x, shift, tree, start, size, total1, total2, searched
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
    contiguous rows, which rounds as one np.sum per node. A one-row node,
    never searched, gets 0.0 for its sum of y^2."""
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


def _split_level(ids, y, x, shift, tree, start, size, total1, total2, searched):
    """(nodes, feature, n_left, threshold) of the searched nodes that
    split, in node order. Nodes are searched by width, the next power of
    two at or above their size, in blocks of at most SEARCH_CELLS values."""
    p = x.shape[0]
    # 2^e for sizes in (2^(e-1), 2^e]: frexp(size - 1) has exponent e
    width = np.left_shift(1, np.frexp(size[searched] - 1)[1])
    none = np.zeros(0, dtype=np.int64)
    blocks = [(none, none, none, np.zeros(0), np.zeros(0))]
    # past a padded node's last cut its right side is empty or negative, and
    # below + above may overflow: _cut_sse masks the one, the pin the other
    with np.errstate(all="ignore"):
        for w in np.unique(width):
            bucket = searched[width == w]
            step = max(1, SEARCH_CELLS // (p * w))
            for i in range(0, bucket.size, step):
                nodes = bucket[i : i + step]
                blocks.append(_search_block(ids, y, x, shift, tree, nodes, start, size, total1, total2, w))
        nodes, f, pos, below, above = map(np.concatenate, zip(*blocks))
        ranked = np.argsort(nodes)
        below, above = below[ranked], above[ranked]
        threshold = 0.5 * (below + above)
    # the midpoint rounded up to above, or below + above overflowed; pin to
    # below so the threshold routes exactly the first n_left rows
    pin = ~((below <= threshold) & (threshold < above))
    threshold[pin] = below[pin]
    return nodes[ranked], f[ranked], pos[ranked] + 1, threshold


def _search_block(ids, y, x, shift, tree, nodes, start, size, total1, total2, width):
    """_cut_sse for each of nodes, of at most width rows: (nodes, feature,
    position, below, above) of those with a feasible cut. Each node's
    values are padded to width with its last, which no cut separates."""
    p, stride_x = x.shape
    n, size = nodes.size, size[nodes, None, None]
    cols = start[nodes, None] + np.minimum(np.arange(width), size[:, 0] - 1)
    # (nodes, features, width): each node's elements in each feature's order
    stride = ids.shape[1]
    elements = ids.ravel()[cols[:, None, :] + np.arange(0, p * stride, stride)[:, None]]
    # element e of tree t, feature f is x.flat[f * stride_x + e - t * shift]
    offset = np.arange(0, p * stride_x, stride_x)[:, None] - tree[nodes, None, None] * shift
    xs = x.ravel()[elements + offset]
    sse = _cut_sse(xs, y[elements], total1[nodes, None, None], total2[nodes, None, None], size)
    sse = sse.reshape(n, -1)
    # the first minimum over each node's (feature, position): the tie break
    k = np.argmin(sse, axis=1)
    rows = np.arange(n)
    ok = sse[rows, k] < np.inf
    rows, (f, pos) = rows[ok], np.divmod(k[ok], width - 1)
    return nodes[ok], f, pos, xs[rows, f, pos], xs[rows, f, pos + 1]


def _cut_sse(xs, ys, total1, total2, size):
    """The total child SSE of every cut: xs and ys are (nodes, features,
    width) blocks of values and targets in value order, and total1, total2
    and size each node's sum of y, sum of y^2 and row count (scalars or
    (nodes, 1, 1)). Position p cuts left = [0..p], right = [p+1..]; the
    SSE is inf where the cut does not fall between distinct values.
    fit_tree's overflow guard keeps every other entry finite, so the first
    minimum below inf is the split."""
    head = ys[..., :-1]
    # the ufuncs that np.cumsum runs, without its Python wrapper
    c1 = np.add.accumulate(head, axis=2)
    c2 = np.add.accumulate(head * head, axis=2)
    nl = np.arange(1, ys.shape[2], dtype=float)
    sse = (c2 - c1 * c1 / nl) + (total2 - c2 - (total1 - c1) ** 2 / (size - nl))
    return np.where(xs[..., :-1] < xs[..., 1:], sse, np.inf)


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
    # the width first: a wrong-width matrix says so, finite or not
    shape = np.shape(features)
    if len(shape) == 2 and shape[1] != n_features:
        raise ValueError(
            f"features: feature count {shape[1]} does not match training dimension {n_features}"
        )
    return real_array(features, "features", 2)


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
