"""Reference random forest: one recursive call per node.

This is the straightforward depth-first grower the level-wise forest in
``glybench.models.forest`` must reproduce exactly. Its split search
sorts each node's rows with a stable sort, so rows with equal feature
values keep their bootstrap order and the chosen split does not depend
on the sort algorithm numpy picks for the host CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from glybench.features import FeatureConfig, from_log
from glybench.models import FeaturePipeline, log_targets
from glybench.models.forest import MIN_LEAF
from glybench.records import FeatureRow


@dataclass(frozen=True)
class Leaf:
    value: float


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    left: "Node"
    right: "Node"


Node = Union[Leaf, Split]


def best_split(x: np.ndarray, y: np.ndarray) -> Optional[tuple[int, float]]:
    """Feature index and midpoint threshold minimizing children's SSE.

    Considers every boundary between consecutive sorted values with at
    least MIN_LEAF rows on each side; returns None when no boundary
    separates distinct values. Ties resolve to the lowest flat index so
    the tree shape is reproducible.
    """
    n, f = x.shape
    if n < 2 * MIN_LEAF:
        return None
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)
    total = csum[-1]
    left_n = np.arange(1, n, dtype=float)[:, None]
    left_sum = csum[:-1]
    right_sum = total - left_sum
    # maximizing sum²/count on both sides == minimizing total child SSE
    score = left_sum**2 / left_n + right_sum**2 / (n - left_n)
    score[~(xs[:-1] < xs[1:])] = -np.inf
    score[: MIN_LEAF - 1, :] = -np.inf
    if MIN_LEAF > 1:
        score[n - MIN_LEAF :, :] = -np.inf
    flat = int(np.argmax(score))
    pos, feat = divmod(flat, f)
    if score[pos, feat] == -np.inf:
        return None
    threshold = float((xs[pos, feat] + xs[pos + 1, feat]) / 2.0)
    return feat, threshold


def grow(x: np.ndarray, y: np.ndarray, depth: int, max_depth: int) -> Node:
    if depth >= max_depth or len(y) < 2 * MIN_LEAF or np.ptp(y) == 0.0:
        return Leaf(float(y.mean()))
    split = best_split(x, y)
    if split is None:
        return Leaf(float(y.mean()))
    feat, threshold = split
    mask = x[:, feat] <= threshold
    return Split(
        feature=feat,
        threshold=threshold,
        left=grow(x[mask], y[mask], depth + 1, max_depth),
        right=grow(x[~mask], y[~mask], depth + 1, max_depth),
    )


def eval_tree(node: Node, z: np.ndarray) -> float:
    while isinstance(node, Split):
        node = node.left if z[node.feature] <= node.threshold else node.right
    return node.value


def tree_depth(node: Node) -> int:
    if isinstance(node, Leaf):
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def grow_forest(
    z: np.ndarray, y: np.ndarray, n_trees: int, max_depth: int, seed: int
) -> list[Node]:
    """One tree per bootstrap sample, drawn in order from one generator."""
    rng = np.random.default_rng(seed)
    n = len(y)
    trees = []
    for _ in range(n_trees):
        idx = rng.integers(0, n, size=n)
        trees.append(grow(z[idx], y[idx], 0, max_depth))
    return trees


def forest_mean(trees: Sequence[Node], q: np.ndarray) -> float:
    """Log-space forest prediction for one standardized row."""
    return float(np.mean([eval_tree(t, q) for t in trees]))


class OracleForestPredictor:
    """Drop-in for ``RandomForestPredictor`` built on the recursive grower."""

    def __init__(
        self,
        cfg: FeatureConfig,
        with_stacked: bool = False,
        max_depth: int = 4,
        n_trees: int = 100,
        seed: int = 0,
    ):
        self.max_depth = max_depth
        self.n_trees = n_trees
        self.seed = seed
        self.pipeline = FeaturePipeline(cfg, with_stacked)
        self.trees: list[Node] = []

    def fit(self, train: Sequence[FeatureRow]) -> None:
        if len(train) < 2:
            raise ValueError("random forest needs at least two training rows")
        z = self.pipeline.fit(train)
        y = log_targets(train)
        self.trees = grow_forest(z, y, self.n_trees, self.max_depth, self.seed)

    def predict_many(self, rows: Sequence[FeatureRow]) -> list[float]:
        z = self.pipeline.transform_rows(rows)
        return [from_log(forest_mean(self.trees, q)) for q in z]
