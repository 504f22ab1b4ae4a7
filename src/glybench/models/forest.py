"""Random forest of depth-limited variance-reduction regression trees.

Split search is exhaustive over midpoints of sorted unique feature
values. Trees grow one depth level at a time: every open node of a block
of trees is searched in the same numpy pass over all features (Louppe
2014, *Understanding Random Forests*, section 3). Rows with equal
feature values keep their bootstrap order (a stable sort), so the choice
among tied splits does not depend on the host CPU. Trees are grown on
bootstrap samples drawn from a seeded generator, so two fits with the
same data and seed produce bit-identical predictions.

A boundary between two sorted rows can split only where the value
rises. The search decides that on the rows' dense ranks, one or two
bytes each, which keep the strict order of the values; thresholds are
read from the values at the chosen boundary. Rows are routed by
comparing their values, not their ranks, with the threshold, because a
midpoint can round onto the upper value.

Trees are stored as flat node arrays, as in scikit-learn's ``Tree``, and
predictions walk every row through every tree at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..features import Design, FeatureConfig
from .base import LogLearner

MIN_LEAF = 2

# Rows x features of one block of trees grown together. A level's search
# and routing use 27 bytes per (feature, slot) cell of the block's padded
# layout (28 when a column has more than 256 distinct values): two row-id
# buffers, a score buffer, the slots' ranks and two masks, shared by
# phase (see _Scratch). Each block row adds its target and its ranks.
# At 1 << 14 ... 1 << 18 the 20 rf4 fits of a grid run take 0.82, 0.74,
# 0.66, 0.64 and 0.75 CPU s (2-core x86-64, minimum of 7 interleaved
# rounds), and one fit peaks at 3.1, 2.9, 5.1, 9.9 and 19.6 MB under
# tracemalloc: past 1 << 16 the memory doubles and the time stops falling.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class TreeArrays:
    """Flat node arrays of a set of trees.

    Tree ``t`` occupies nodes ``roots[t]`` up to the next root. A row goes
    to ``left`` when ``z[feature] <= threshold``, else to ``right``. Leaves
    have ``feature == left == right == -1`` and carry ``value``, the mean
    target of their training rows; ``value`` is NaN at internal nodes.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: np.ndarray
    roots: np.ndarray

    def predict(self, z: np.ndarray) -> np.ndarray:
        """Leaf value of every row of ``z`` in every tree, shape (rows, trees)."""
        node = np.repeat(self.roots[None, :], len(z), axis=0)
        row = np.arange(len(z))[:, None]
        while True:
            feat = self.feature[node]
            inner = feat >= 0
            if not inner.any():
                return self.value[node]
            go_left = z[row, feat] <= self.threshold[node]
            node = np.where(
                inner, np.where(go_left, self.left[node], self.right[node]), node
            )

    def tree_depths(self) -> list[int]:
        return np.maximum.reduceat(self.depth, self.roots).tolist()


def grow_trees(
    x: np.ndarray, y: np.ndarray, samples: np.ndarray, max_depth: int
) -> TreeArrays:
    """One tree per row of ``samples``, grown on ``x[s], y[s]``.

    A node becomes a leaf at ``max_depth``, below ``2 * MIN_LEAF`` rows,
    when its targets are all equal, or when no boundary between distinct
    sorted values leaves ``MIN_LEAF`` rows on each side. Otherwise it
    splits at the midpoint threshold that maximizes the children's
    sum²/count (equivalently, minimizes their squared error). Ties go to
    the first sorted position where the maximum over features peaks, then
    to the first feature there.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    samples = np.asarray(samples)
    n_trees, n = samples.shape
    if n_trees == 0:
        raise ValueError("need at least one tree")
    # a column constant over all rows never splits; column 0 always stays
    # so that every search has a column to look at
    searched = x.min(axis=0) < x.max(axis=0)
    searched[0] = True
    cols = np.flatnonzero(searched)
    x = x[:, cols]
    rank = _dense_ranks(x)
    per_block = max(1, _BLOCK_CELLS // (n * len(cols)))

    scratch = _Scratch()
    parts = []
    offset = 0
    for first in range(0, n_trees, per_block):
        block = samples[first : first + per_block]
        tree, feature, threshold, left, right, depth, leaf_of = _grow_block(
            x, y, rank, block, max_depth, scratch
        )
        parts.append((tree + first, feature, threshold,
                      np.where(left >= 0, left + offset, -1),
                      np.where(right >= 0, right + offset, -1),
                      depth, leaf_of + offset))
        offset += len(tree)
    tree, feature, threshold, left, right, depth, leaf_of = (
        np.concatenate(part) for part in zip(*parts)
    )
    value = _leaf_means(y[samples].reshape(-1), leaf_of, feature < 0)
    feature = np.where(feature >= 0, cols[feature], -1)

    # renumber nodes so that each tree's nodes are consecutive
    order = np.argsort(tree, kind="stable")
    new_id = np.empty(len(order), dtype=np.intp)
    new_id[order] = np.arange(len(order))
    left, right = left[order], right[order]
    return TreeArrays(
        feature=feature[order],
        threshold=threshold[order],
        left=np.where(left >= 0, new_id[left], -1),
        right=np.where(right >= 0, new_id[right], -1),
        value=value[order],
        depth=depth[order],
        roots=np.flatnonzero(np.diff(tree[order], prepend=-1)),
    )


def _dense_ranks(x: np.ndarray) -> np.ndarray:
    """Per column, the rank of each value among the column's distinct values.

    Sorting small unsigned ranks with a stable sort gives the same order
    as sorting the values, and numpy sorts them by radix.
    """
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    steps = np.vstack([np.zeros((1, x.shape[1]), dtype=np.intp),
                       np.cumsum(xs[1:] > xs[:-1], axis=0)])
    rank = np.empty_like(steps)
    np.put_along_axis(rank, order, steps, axis=0)
    return rank.astype(np.min_scalar_type(rank.max()))


class _Scratch:
    """Named flat storage, reused by every level of every block.

    Temporaries of a few hundred kilobytes would otherwise be fresh
    allocations that the OS zero-fills page by page on every level. A
    name keys raw bytes, and each call returns a view of them in the
    requested dtype, so arrays that are never alive at the same time
    share storage by phase: during a level's search the spare rows
    buffer holds the right-hand sums and the two masks mark valid and
    invalid boundaries; during its routing the spare buffer receives the
    children's rows, the score buffer holds the rows being moved and the
    masks mark left and right rows. Capacities are powers of two, so the
    next fit's request fits the block this fit frees and the heap does
    not creep from fit to fit.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < nbytes:
            capacity = 1 << max(nbytes - 1, 0).bit_length()
            buf = self._buffers[name] = np.empty(capacity, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


class _Layout:
    """Where each node of one level sits in a padded (features, slots) array.

    Nodes are grouped by size class (powers of two); each node of a group
    gets as many slots as the group's largest node, real rows first and
    padding after, so one ``reshape`` gives a group's (features, nodes,
    slots) view. Padding slots hold a sentinel row.
    """

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        size_class = np.frexp(np.maximum(counts, 1))[1]
        self.order = np.argsort(size_class, kind="stable")
        bounds = np.flatnonzero(np.diff(size_class[self.order], prepend=-1))
        widths = np.maximum(np.maximum.reduceat(counts[self.order], bounds), 1)
        members = np.diff(np.append(bounds, len(counts)))
        width = np.repeat(widths, members)  # per node, layout order
        start = np.cumsum(width) - width
        self.sorted_start = start
        self.start = np.empty_like(start)
        self.start[self.order] = start
        self.size = int(start[-1] + width[-1])
        self.node = np.repeat(self.order, width)  # node of each slot
        self.pos = np.arange(self.size) - np.repeat(start, width)
        self.real = self.pos < counts[self.node]
        self.groups = [
            (int(start[b]), int(m), int(w), self.order[b : b + m])
            for b, m, w in zip(bounds, members, widths)
        ]


def _grow_block(
    x: np.ndarray,
    y: np.ndarray,
    rank: np.ndarray,
    samples: np.ndarray,
    max_depth: int,
    scratch: _Scratch,
):
    """Grow the trees of one block level by level.

    Returns per-node arrays (tree, feature, threshold, left, right,
    depth), nodes numbered in level order, and the leaf of every
    bootstrap row.
    """
    n_trees, n = samples.shape
    f = x.shape[1]
    # Block row r is the block's r-th bootstrap row, the row drawn[r] of
    # x. One sentinel row follows, which padding slots point at: its
    # target 0.0 leaves prefix sums unchanged and it never goes left.
    stride = n_trees * n + 1
    sentinel = stride - 1
    drawn = samples.reshape(-1)
    target = scratch("target", (stride,))
    np.take(y, drawn, out=target[:-1])
    target[-1] = 0.0
    ranks = scratch("ranks", (f, stride), rank.dtype)  # feature-major
    ranks[:, :-1] = rank[drawn].T
    ranks[:, -1] = 0
    # rows[j, s]: the block row in slot s of feature j's sorted order. A
    # node's slots hold its rows sorted by each feature, ties in bootstrap order.
    order = np.argsort(ranks[:, :-1].reshape(f, n_trees, n), axis=-1, kind="stable")
    rows = scratch("rows0", (f, n_trees * n), np.intp)
    np.add(order.reshape(f, -1), np.repeat(np.arange(n_trees) * n, n), out=rows)
    del order  # not alive during the search
    leaf_of = np.repeat(np.arange(n_trees), n)

    levels = []
    layout = _Layout(np.full(n_trees, n))
    tree = np.arange(n_trees)
    base = 0
    depth = 0
    while True:
        k = len(tree)
        feature = np.full(k, -1)
        threshold = np.full(k, np.nan)
        left = np.full(k, -1)
        right = np.full(k, -1)
        levels.append((tree, feature, threshold, left, right, np.full(k, depth)))
        if depth >= max_depth or not np.any(layout.counts >= 2 * MIN_LEAF):
            break
        spare = f"rows{(depth + 1) % 2}"
        found, best_feat, at = _search(ranks, target, rows, layout, scratch, spare)
        split = np.flatnonzero(found)
        if len(split) == 0:
            break
        feat = best_feat[split]
        feature[split] = feat
        # the midpoint of the values on either side of the best boundary
        below = drawn[rows[feat, at[split]]]
        above = drawn[rows[feat, at[split] + 1]]
        threshold[split] = (x[below, feat] + x[above, feat]) / 2.0
        child_base = base + k
        left[split] = child_base + 2 * np.arange(len(split))
        right[split] = left[split] + 1

        # Route each row of a split node on its value, not its rank: a
        # midpoint can round onto the upper value. Feature 0's slots list
        # every row once.
        moving = layout.real & found[layout.node]
        row = rows[0][moving]
        node = layout.node[moving]
        goes_left = np.zeros(stride, dtype=bool)
        goes_left[row] = x[drawn[row], best_feat[node]] <= threshold[node]
        rank_of = np.cumsum(found) - 1
        child = 2 * rank_of[node] + ~goes_left[row]
        leaf_of[row] = child_base + child
        counts = np.bincount(child, minlength=2 * len(split))
        tree = np.repeat(tree[split], 2)
        base = child_base
        depth += 1
        if depth < max_depth:
            nxt = _Layout(counts)
            out = scratch(spare, (f, nxt.size), np.intp)
            out[:] = sentinel
            # Split nodes in layout order send their rows to the children.
            # Every feature's slots hold the same rows, so each child gets
            # the same number of slots per feature, and it keeps them in
            # the parent's sorted order: no re-sort is needed.
            parent = layout.order[found[layout.order]]
            to_left = 2 * rank_of[parent]
            is_left = np.take(goes_left, rows, out=scratch("mask0", rows.shape, bool),
                              mode="clip")
            is_right = np.logical_not(is_left, out=scratch("mask1", rows.shape, bool))
            is_right &= moving
            for mask, kids in ((is_left, to_left), (is_right, to_left + 1)):
                dest = _runs(nxt.start[kids], counts[kids])
                moved = scratch("score", (f, len(dest)), np.intp)
                np.compress(mask.ravel(), rows.ravel(), out=moved.ravel())
                out[:, dest] = moved
            rows = out
            layout = nxt
    tree, feature, threshold, left, right, depth = (
        np.concatenate(part) for part in zip(*levels)
    )
    return tree, feature, threshold, left, right, depth, leaf_of


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges ``starts[i] : starts[i] + lengths[i]``."""
    first = np.cumsum(lengths) - lengths
    return np.repeat(starts - first, lengths) + np.arange(int(lengths.sum()))


def _search(
    ranks: np.ndarray,
    target: np.ndarray,
    rows: np.ndarray,
    layout: _Layout,
    scratch: _Scratch,
    spare: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best split of every node of one level: (found, feature, slot).

    ``slot`` is the last slot left of the best boundary in the feature's
    sorted order: the node's first slot where the per-slot maximum over
    features peaks, by the first feature there. The right-hand sums live
    in the scratch storage named ``spare``. Each node's prefix sums start
    from zero and run in its own sorted order, so every score is exactly
    the one a search of that node on its own computes.
    """
    f = rows.shape[0]
    counts = layout.counts[layout.node]
    score = np.take(target, rows, out=scratch("score", rows.shape), mode="clip")
    y0 = score[0].copy()
    right = scratch(spare, rows.shape)
    for start, m, w, _ in layout.groups:
        csum = score[:, start : start + m * w].reshape(f, m, w)
        np.cumsum(csum, axis=2, out=csum)
        # a node's last slot holds its total: padding adds the sentinel's 0.0
        np.subtract(csum[:, :, -1:], csum, out=right[:, start : start + m * w].reshape(f, m, w))
    left_n = layout.pos + 1.0
    right_n = counts - left_n
    right_n[right_n < 1.0] = 1.0  # past a node's last row; keeps scores finite
    # maximizing sum²/count on both sides == minimizing total child SSE
    np.square(score, out=score)
    score /= left_n
    np.square(right, out=right)
    right /= right_n
    score += right
    # A boundary between slots s and s + 1 (the last slot ends a node)
    # separates distinct values exactly where the dense rank rises.
    slot_rank = scratch("slot_rank", rows.shape, ranks.dtype)
    for j in range(f):
        np.take(ranks[j], rows[j], out=slot_rank[j], mode="clip")
    valid = scratch("mask0", rows.shape, bool)
    np.less(slot_rank[:, :-1], slot_rank[:, 1:], out=valid[:, :-1])
    valid[:, -1] = False
    valid &= (layout.pos >= MIN_LEAF - 1) & (layout.pos < counts - MIN_LEAF)
    # valid scores are >= 0; invalid ones become -1 (arithmetic masking
    # has no data-dependent branch per cell)
    score *= valid
    score -= np.logical_not(valid, out=scratch("mask1", rows.shape, bool))

    # per node, the maximum at the lowest (slot, feature) index: the first
    # slot where the per-slot maximum peaks, then the first feature there
    slot_best = score.max(axis=0)
    pos = np.empty(len(layout.counts), dtype=np.intp)
    for start, m, w, nodes in layout.groups:
        pos[nodes] = slot_best[start : start + m * w].reshape(m, w).argmax(axis=1)
    at = layout.start + pos
    best = slot_best[at]
    feat = (score[:, at] == best).argmax(axis=0)
    found = best >= 0.0

    # a node whose targets are all equal is a leaf
    hi = np.maximum.reduceat(np.where(layout.real, y0, -np.inf), layout.sorted_start)
    lo = np.minimum.reduceat(np.where(layout.real, y0, np.inf), layout.sorted_start)
    found[layout.order] &= hi != lo
    return found, feat, at


def _leaf_means(y: np.ndarray, leaf_of: np.ndarray, leaf: np.ndarray) -> np.ndarray:
    """Mean target of each leaf; NaN at internal nodes.

    Each mean is ``np.add.reduce`` of the leaf's targets in bootstrap
    order divided by their count, the arithmetic of ``y.mean()``.
    Pairwise summation depends on the length, so leaves are summed in
    groups of equal size.
    """
    size = np.bincount(leaf_of, minlength=len(leaf))
    start = np.cumsum(size) - size
    by_leaf = np.argsort(leaf_of, kind="stable")
    value = np.full(len(leaf), np.nan)
    with np.errstate(invalid="ignore"):
        for c in np.unique(size[leaf]):
            ids = np.flatnonzero(leaf & (size == c))
            members = y[by_leaf[start[ids][:, None] + np.arange(c)]]
            value[ids] = np.add.reduce(members, axis=1) / c
    return value


class RandomForestPredictor(LogLearner):
    """Bootstrap ensemble of depth-limited trees on log targets."""

    min_rows = 2

    def __init__(
        self,
        cfg: FeatureConfig,
        max_depth: int = 4,
        n_trees: int = 100,
        seed: int = 0,
    ):
        super().__init__(cfg)
        self.max_depth = max_depth
        self.n_trees = n_trees
        self.seed = seed

    def _fit(self, z: np.ndarray, y: np.ndarray, train: Design) -> None:
        rng = np.random.default_rng(self.seed)
        n = len(y)
        # one draw per tree, in order: the generator's stream per call
        samples = np.stack([rng.integers(0, n, size=n) for _ in range(self.n_trees)])
        self.trees = grow_trees(z, y, samples, self.max_depth)

    def _predict(self, q: np.ndarray, test: Design) -> np.ndarray:
        # mean over a C-contiguous rows x trees array: per row, the same
        # summation as averaging one row's tree values on their own
        return np.mean(self.trees.predict(q), axis=1)
