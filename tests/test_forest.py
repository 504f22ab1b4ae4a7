from __future__ import annotations

import dataclasses
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forest_oracle as oracle
from glybench.evaluation import evaluate
from glybench.features import FeatureConfig
from glybench.ingest import clean_cohort
from glybench.models import RandomForestPredictor, builtin_registry
from glybench.models import forest
from glybench.models.forest import TreeArrays, grow_trees
from glybench.synth import default_config, generate
from glybench.variants import materialize, spec_by_id

from test_models import design, frow, predict_one

CFG = FeatureConfig()


def _random_rows(seed: int, n: int):
    rng = np.random.default_rng(seed)
    return [
        frow(
            bg=float(rng.uniform(3, 15)),
            cho_prev=float(rng.uniform(0, 90)),
            bolus_prev=float(rng.uniform(0, 10)),
            dt_cho=float(rng.uniform(20, 500)),
            horizon_dt=float(rng.uniform(60, 600)),
            target_bg=float(rng.uniform(2, 20)),
        )
        for _ in range(n)
    ]


def _tree(x: np.ndarray, y: np.ndarray, depth: int) -> TreeArrays:
    """One tree on every row, without a bootstrap."""
    return grow_trees(x, y, np.arange(len(y))[None, :], depth)


def _predict(tree: TreeArrays, z: np.ndarray) -> float:
    return float(tree.predict(z[None, :])[0, 0])


def _assert_same_tree(node: oracle.Node, trees: TreeArrays, i: int) -> None:
    """The flat tree below node ``i`` equals the oracle's tree node for node."""
    if isinstance(node, oracle.Leaf):
        assert trees.feature[i] == trees.left[i] == trees.right[i] == -1
        assert trees.value[i] == node.value or (
            np.isnan(node.value) and np.isnan(trees.value[i])
        )
        return
    assert trees.feature[i] == node.feature
    assert trees.threshold[i] == node.threshold
    _assert_same_tree(node.left, trees, trees.left[i])
    _assert_same_tree(node.right, trees, trees.right[i])


def test_constant_targets_give_constant_prediction():
    rows = [frow(bg=float(b), target_bg=7.5) for b in range(4, 14)]
    m = RandomForestPredictor(CFG, n_trees=10, seed=1)
    m.fit(design(rows))
    assert predict_one(m, frow(bg=9.0)) == pytest.approx(7.5, abs=1e-9)


def test_every_tree_respects_the_depth_bound():
    m = RandomForestPredictor(CFG, max_depth=4, n_trees=25, seed=3)
    m.fit(design(_random_rows(3, 60)))
    depths = m.trees.tree_depths()
    assert all(d <= 4 for d in depths)
    assert len(depths) == len(m.trees.roots) == 25
    assert max(depths) == int(m.trees.depth.max())


def test_single_tree_splits_two_clusters_exactly():
    x = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([1.0, 1.0, 3.0, 3.0])
    tree = _tree(x, y, 4)
    assert tree.tree_depths() == [1]
    assert tree.roots.tolist() == [0]
    assert tree.feature.tolist() == [0, -1, -1]
    assert tree.value[tree.left[0]] == 1.0
    assert tree.value[tree.right[0]] == 3.0
    assert _predict(tree, np.array([0.0])) == 1.0
    assert _predict(tree, np.array([1.0])) == 3.0


def test_tree_without_valid_split_is_a_leaf():
    x = np.array([[1.0], [1.0], [1.0], [1.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    tree = _tree(x, y, 4)
    assert tree.tree_depths() == [0]
    assert tree.feature.tolist() == [-1]
    assert _predict(tree, np.array([1.0])) == pytest.approx(2.5)


def test_tree_split_uses_midpoint_threshold():
    x = np.array([[0.0], [0.0], [4.0], [4.0]])
    y = np.array([1.0, 1.0, 5.0, 5.0])
    tree = _tree(x, y, 1)
    assert tree.threshold[tree.roots[0]] == 2.0


def test_min_leaf_size_is_respected():
    # 3 rows cannot produce a 1-row leaf under a 2-row minimum
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, 2.0, 9.0])
    tree = _tree(x, y, 4)
    assert tree.tree_depths() == [0]
    assert len(tree.feature) == 1


def test_same_seed_is_bit_identical():
    rows = _random_rows(11, 40)
    queries = _random_rows(12, 5)
    a = RandomForestPredictor(CFG, n_trees=20, seed=42)
    b = RandomForestPredictor(CFG, n_trees=20, seed=42)
    a.fit(design(rows))
    b.fit(design(rows))
    assert np.array_equal(a.predict(design(queries)), b.predict(design(queries)))


def test_different_seed_changes_the_forest():
    rows = _random_rows(11, 40)
    a = RandomForestPredictor(CFG, n_trees=20, seed=1)
    b = RandomForestPredictor(CFG, n_trees=20, seed=2)
    a.fit(design(rows))
    b.fit(design(rows))
    q = _random_rows(13, 1)[0]
    assert predict_one(a, q) != predict_one(b, q)


def test_forest_needs_two_rows():
    with pytest.raises(ValueError):
        RandomForestPredictor(CFG).fit(design([frow()]))


# ---------------------------------------------------------------------------
# the level-wise grower against the recursive oracle
# ---------------------------------------------------------------------------

@st.composite
def tied_fixtures(draw):
    """Few-valued columns, copied columns, duplicate rows and repeated targets."""
    n_base = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 4))
    levels = draw(st.lists(st.integers(1, 4), min_size=n_cols, max_size=n_cols))
    base_x = np.array(
        [[draw(st.integers(0, levels[j] - 1)) * 0.5 for j in range(n_cols)]
         for _ in range(n_base)],
        dtype=float,
    )
    # a copy of a column ties two features at every boundary, as identical
    # columns of the grid's design do
    copied = draw(st.lists(st.integers(0, n_cols - 1), max_size=2))
    base_x = base_x[:, list(range(n_cols)) + copied]
    base_y = np.array(
        [draw(st.sampled_from([0.25, 1.0, 1.5, 2.0, 2.0 + 2.0**-40]))
         for _ in range(n_base)]
    )
    copies = draw(st.lists(st.integers(0, n_base - 1), min_size=4, max_size=40))
    x = base_x[copies]
    y = base_y[copies]
    n_trees = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    samples = np.stack([rng.integers(0, len(y), size=len(y)) for _ in range(n_trees)])
    max_depth = draw(st.integers(0, 5))
    return x, y, samples, max_depth


@settings(max_examples=300, deadline=None)
@given(tied_fixtures())
def test_level_wise_grower_equals_the_recursive_oracle(fixture):
    x, y, samples, max_depth = fixture
    trees = grow_trees(x, y, samples, max_depth)
    expected = [oracle.grow(x[s], y[s], 0, max_depth) for s in samples]
    assert len(trees.roots) == len(expected)
    for root, tree in zip(trees.roots, expected):
        _assert_same_tree(tree, trees, root)
    assert trees.tree_depths() == [oracle.tree_depth(t) for t in expected]
    queries = np.vstack([x, x + 0.25, x - 0.25])
    ours = np.mean(trees.predict(queries), axis=1)
    theirs = np.array([oracle.forest_mean(expected, q) for q in queries])
    assert np.array_equal(ours, theirs)


def test_single_tree_equals_the_oracle_without_bootstrap():
    rng = np.random.default_rng(5)
    x = rng.integers(0, 3, size=(30, 3)).astype(float)
    y = rng.integers(0, 4, size=30).astype(float)
    tree = _tree(x, y, 3)
    expected = oracle.grow(x, y, 0, 3)
    _assert_same_tree(expected, tree, tree.roots[0])
    for q in x:
        assert _predict(tree, q) == oracle.eval_tree(expected, q)


@pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_midpoint_rounding_onto_the_upper_value_matches_the_oracle():
    # (a + b) / 2 rounds to b, so every row goes left and the right child
    # is empty: a NaN leaf, as the mean of no rows
    a, b = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    assert (a + b) / 2.0 == b
    x = np.array([[a], [a], [b], [b]])
    y = np.array([1.0, 1.0, 3.0, 3.0])
    trees = grow_trees(x, y, np.arange(4)[None, :], 3)
    _assert_same_tree(oracle.grow(x, y, 0, 3), trees, trees.roots[0])


def _assert_equal_to_the_oracle(x, y, samples, max_depth):
    trees = grow_trees(x, y, samples, max_depth)
    expected = [oracle.grow(x[s], y[s], 0, max_depth) for s in samples]
    for root, tree in zip(trees.roots, expected):
        _assert_same_tree(tree, trees, root)


@pytest.mark.parametrize("distinct, dtype", [(255, np.uint8), (256, np.uint8),
                                             (257, np.uint16)])
def test_rank_dtype_boundary_equals_the_oracle(distinct, dtype):
    # split validity reads dense ranks, whose dtype widens past 256 values
    rng = np.random.default_rng(distinct)
    n = 300
    values = rng.permutation(np.linspace(-3.0, 9.0, distinct))
    x = np.column_stack([values[np.arange(n) % distinct],
                         np.full(n, 4.0),
                         rng.permutation(values)[rng.integers(0, distinct, n)]])
    assert len(np.unique(x[:, 0])) == distinct
    assert forest._dense_ranks(x).dtype == dtype
    y = rng.integers(0, 6, size=n) * 0.5 + x[:, 0] / 4.0
    samples = np.vstack([np.arange(n), rng.integers(0, n, size=(3, n))])
    _assert_equal_to_the_oracle(x, y, samples, 4)
    # a constant column 0 stays in the search; a constant column 1 leaves it
    _assert_equal_to_the_oracle(x[:, [1, 0, 2]], y, samples, 4)


@pytest.mark.parametrize("cells", [1 << 8, 1 << 12, 1 << 16, 1 << 22])
def test_trees_do_not_depend_on_the_block_size(cells, monkeypatch):
    rng = np.random.default_rng(17)
    shapes = [(int(rng.integers(2, 250)), int(rng.integers(1, 15)), int(rng.integers(1, 40)))
              for _ in range(10)]
    fixtures = []
    for n, f, n_trees in shapes:
        x = rng.integers(0, int(rng.integers(2, 60)), size=(n, f)) * 0.25
        y = rng.normal(size=n).round(1)
        fixtures.append((x, y, rng.integers(0, n, size=(n_trees, n))))
    reference = [grow_trees(x, y, s, 4) for x, y, s in fixtures]
    monkeypatch.setattr(forest, "_BLOCK_CELLS", cells)
    for (x, y, s), expected in zip(fixtures, reference):
        trees = grow_trees(x, y, s, 4)
        for name in ("feature", "threshold", "left", "right", "value", "depth", "roots"):
            mine, theirs = getattr(trees, name), getattr(expected, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name


def test_grow_trees_working_memory_at_the_grid_shape():
    # rf4 at the grid's shape: 200 rows x 14 columns, 100 trees, depth 4;
    # its per-block buffers set the peak memory of a grid run
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 14))
    y = rng.normal(size=200)
    samples = rng.integers(0, 200, size=(100, 200))
    tracemalloc.start()
    try:
        grow_trees(x, y, samples, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.0e6


def _small_grid_dataset():
    cleaned, _ = clean_cohort(generate(default_config(patients=2, days=20, seed=7)))
    return materialize(cleaned, spec_by_id("D_a6"), min_records=20)


def test_rf4_cells_equal_the_oracle_forest():
    dataset = _small_grid_dataset()
    entry = builtin_registry()["rf4"]

    def oracle_factory(cfg, with_stacked, seed):
        return oracle.OracleForestPredictor(cfg, max_depth=4, n_trees=100, seed=seed)

    ours = evaluate(dataset, entry, k=5, seed=11)
    theirs = evaluate(dataset, dataclasses.replace(entry, factory=oracle_factory),
                      k=5, seed=11)
    for field in ("predicted", "actual"):
        mine, oracle_arrays = getattr(ours, field), getattr(theirs, field)
        assert mine.keys() == oracle_arrays.keys()
        assert all(mine[pid].tobytes() == oracle_arrays[pid].tobytes() for pid in mine)
    assert ours.per_patient == theirs.per_patient


_PREDICTION_HASH = """
import hashlib
from glybench.evaluation import evaluate
from glybench.ingest import clean_cohort
from glybench.models import builtin_registry
from glybench.synth import default_config, generate
from glybench.variants import materialize, spec_by_id

cleaned, _ = clean_cohort(generate(default_config(patients=2, days=40, seed=2026)))
dataset = materialize(cleaned, spec_by_id("D_a6"), min_records=20)
report = evaluate(dataset, builtin_registry()["rf4"], k=10, seed=2026)
text = repr(sorted((pid, values.tolist()) for pid, values in report.predicted.items()))
print(hashlib.sha256(text.encode()).hexdigest())
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the disabled SIMD targets are x86-64 ones")
def test_rf4_predictions_do_not_depend_on_simd_dispatch():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")

    def prediction_hash(extra_env: dict[str, str]) -> subprocess.CompletedProcess:
        env = dict(os.environ, **extra_env)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        return subprocess.run([sys.executable, "-c", _PREDICTION_HASH],
                              capture_output=True, text=True, env=env)

    native = prediction_hash({})
    assert native.returncode == 0, native.stderr
    scalar = prediction_hash(
        {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
    )
    if scalar.returncode != 0 and "CPU feature" in scalar.stderr:
        pytest.skip(f"numpy refused to disable its SIMD targets: {scalar.stderr.strip()}")
    assert scalar.returncode == 0, scalar.stderr
    assert native.stdout == scalar.stdout
