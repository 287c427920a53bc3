"""The forest's one-pass split search against the per-position loop.

``_loop_best_split`` and ``_LoopTree`` are the maths ``_RegressionTree``
ran before it scored every split of a node in one array pass: one sort,
prefix sums and a Python ``for`` over rows per candidate feature, and
``np.allclose`` as the constant-label check. They stay here as the
reference the array pass is held to, split by split and forest by forest.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.ml.models import RandomForestModel
from repro.ml.models import forest
from repro.sps.types import DataType
from repro.workload.distributions import (
    StringVocabulary,
    default_distribution,
)
from tests.test_ml import _labelled_dataset


def _loop_best_split(x, y, features, leaf):
    n = len(y)
    best_gain = 1e-12
    best = None
    parent_sse = float(((y - y.mean()) ** 2).sum())
    for feature in features:
        order = np.argsort(x[:, feature], kind="stable")
        xs = x[order, feature]
        ys = y[order]
        csum = np.cumsum(ys)
        csum_sq = np.cumsum(ys**2)
        total = csum[-1]
        total_sq = csum_sq[-1]
        for i in range(leaf - 1, n - leaf):
            if xs[i] == xs[i + 1]:
                continue
            n_left = i + 1
            n_right = n - n_left
            left_sse = csum_sq[i] - csum[i] ** 2 / n_left
            right_sum = total - csum[i]
            right_sse = total_sq - csum_sq[i] - right_sum**2 / n_right
            gain = parent_sse - left_sse - right_sse
            if gain > best_gain:
                best_gain = gain
                best = (int(feature), float((xs[i] + xs[i + 1]) / 2.0))
    return best


class _LoopTree(forest._RegressionTree):
    """A tree grown by the loop: same RNG draws, same recursion."""

    def _build(self, x, y, depth):
        self.node_count += 1
        node = forest._Node(value=float(y.mean()))
        if (
            depth >= self.max_depth
            or len(y) < 2 * self.min_samples_leaf
            or np.allclose(y, y[0])
        ):
            return node
        split = self._best_split(x, y)
        if split is None:
            return node
        node.feature, node.threshold = split
        mask = x[:, node.feature] <= node.threshold
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, x, y):
        d = x.shape[1]
        features = self.rng.choice(
            d, size=min(self.max_features, d), replace=False
        )
        return _loop_best_split(x, y, features, self.min_samples_leaf)


def _tree(leaf, max_features, seed):
    return forest._RegressionTree(
        max_depth=12,
        min_samples_leaf=leaf,
        max_features=max_features,
        rng=np.random.default_rng(seed),
    )


@st.composite
def _nodes(draw):
    """A node's rows: few distinct values, so duplicates and ties abound."""
    leaf = draw(st.sampled_from([1, 2, 3, 5]))
    n = 2 * leaf + draw(st.sampled_from([0, 1, 2, 7, 20]))
    d = draw(st.integers(1, 6))
    pool = draw(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=6,
        )
    )
    values = st.sampled_from(pool)
    x = np.array(
        draw(st.lists(values, min_size=n * d, max_size=n * d))
    ).reshape(n, d)
    for column in range(d):
        shape = draw(st.sampled_from(["free", "constant", "copy", "rank"]))
        if shape == "constant":
            x[:, column] = x[0, column]
        elif shape == "copy":  # the same partitions: a tie across features
            x[:, column] = x[:, draw(st.integers(0, d - 1))]
        elif shape == "rank":
            x[:, column] = np.arange(n)
    labels = st.floats(-20, 20, allow_nan=False, allow_infinity=False)
    y = np.array(draw(st.lists(labels, min_size=n, max_size=n)))
    if draw(st.booleans()):  # a palindrome: mirrored ties in a column
        y[n - n // 2 :] = y[: n // 2][::-1]
    return x, y, leaf, draw(st.integers(1, d)), draw(st.integers(0, 99))


@given(_nodes())
@example(  # two copies of one column, mirrored labels: ties everywhere
    (
        np.column_stack([np.arange(6.0), np.arange(6.0)]),
        np.array([0.1, 0.7, 0.3, 0.3, 0.7, 0.1]),
        1,
        2,
        0,
    )
)
@example(  # mirrored splits whose array gains order the other way round
    (
        np.arange(6.0)[:, None],
        np.array(
            [
                -0.30603851854198316,
                -1.5769096796483002,
                -0.2595091766744611,
                -0.2595091766744611,
                -1.5769096796483002,
                -0.30603851854198316,
            ]
        ),
        1,
        1,
        0,
    )
)
def test_array_scan_matches_loop(node):
    x, y, leaf, max_features, seed = node
    tree = _tree(leaf, max_features, seed)
    expected_rng = np.random.default_rng(seed)
    features = expected_rng.choice(
        x.shape[1], size=min(max_features, x.shape[1]), replace=False
    )
    expected = _loop_best_split(x, y, features, leaf)
    assert tree._best_split(x, y) == expected
    state = tree.rng.bit_generator.state
    assert state == expected_rng.bit_generator.state


def _walk(node):
    if node.feature is None:
        return [("leaf", node.value)]
    return [
        (node.feature, node.threshold),
        *_walk(node.left),
        *_walk(node.right),
    ]


@pytest.mark.parametrize("leaf", [1, 3])
def test_seeded_forest_matches_loop_forest(monkeypatch, leaf):
    dataset = _labelled_dataset(60)
    train, val, test = dataset.split(np.random.default_rng(0))
    fits = []
    for tree_class in (forest._RegressionTree, _LoopTree):
        monkeypatch.setattr(forest, "_RegressionTree", tree_class)
        model = RandomForestModel(
            max_trees=12, min_samples_leaf=leaf, patience=4
        )
        fits.append((model, model.fit(train, val, seed=7)))
    (array, array_fit), (loop, loop_fit) = fits
    assert isinstance(loop.trees[0], _LoopTree)
    assert [t.node_count for t in array.trees] == [
        t.node_count for t in loop.trees
    ]
    for mine, theirs in zip(array.trees, loop.trees):
        assert _walk(mine.root) == _walk(theirs.root)
    assert array_fit.val_losses == loop_fit.val_losses
    assert np.array_equal(array.predict(test), loop.predict(test))
    assert (
        array.trees[0].rng.bit_generator.state
        == loop.trees[0].rng.bit_generator.state
    )


def test_default_vocabulary_is_shared_and_draws_nothing():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    first = default_distribution(DataType.STRING, rng)
    assert default_distribution(DataType.STRING, rng) is first
    assert rng.bit_generator.state == before
    fresh = StringVocabulary()
    assert first.words == fresh.words
    drawn = first.sample_block(rng, 500)
    rng.bit_generator.state = before
    assert drawn.tolist() == fresh.sample_block(rng, 500).tolist()
