"""Random forest cost model.

The paper's third family [16]: bagged CART regression trees with feature
subsampling. Trees are added one at a time and the ensemble's validation
loss drives the same early-stopping protocol the neural models use (here:
stop adding trees once validation stops improving).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.common.errors import check_count
from repro.ml.dataset import Dataset
from repro.ml.models.base import CostModel
from repro.ml.training import EarlyStopping, TrainingResult

__all__ = ["RandomForestModel"]


@dataclass
class _Node:
    """One node of a regression tree (leaf iff ``feature`` is None)."""

    value: float
    feature: int | None = None
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None


class _RegressionTree:
    """A CART regression tree with random feature subsampling."""

    def __init__(
        self,
        max_depth: int,
        min_samples_leaf: int,
        max_features: int,
        rng: np.random.Generator,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self.root: _Node | None = None
        self.node_count = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> None:
        self.root = self._build(x, y, depth=0)

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        self.node_count += 1
        node = _Node(value=float(y.mean()))
        if (
            depth >= self.max_depth
            or len(y) < 2 * self.min_samples_leaf
            # np.allclose(y, y[0]) without its per-call overhead: the
            # same isclose test, exact for finite labels.
            or (np.abs(y - y[0]) <= 1e-8 + 1e-5 * abs(y[0])).all()
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

    def _best_split(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[int, float] | None:
        n, d = x.shape
        features = self.rng.choice(
            d, size=min(self.max_features, d), replace=False
        )
        leaf = self.min_samples_leaf
        parent_sse = float(((y - y.mean()) ** 2).sum())
        # Candidate columns as rows: one stable argsort, prefix sums, and
        # every split "rows 0..i go left" scored at once.
        cols = x.T[features]
        order = cols.argsort(axis=1, kind="stable")
        xs, ys = np.sort(cols, axis=1), y[order]
        c, c2 = ys.cumsum(axis=1), (ys * ys).cumsum(axis=1)
        at, n_left = slice(leaf - 1, n - leaf), np.arange(leaf, n - leaf + 1)
        cl, c2l, t, t2 = c[:, at], c2[:, at], c[:, -1:], c2[:, -1:]
        gain = (
            parent_sse
            - (c2l - cl * cl / n_left)
            - (t2 - c2l - (t - cl) ** 2 / (n - n_left))
        )
        gain[xs[:, at] == xs[:, leaf : n - leaf + 1]] = -np.inf
        # An array squares by x * x, a scalar's x ** 2 by libm pow, and
        # the two can differ in the last bit: the positions within a
        # rounding margin of the best are rescored one by one, in the
        # scalar arithmetic, and the first strict maximum wins.
        best_gain, best = 1e-12, None
        cut = max(gain.max(), best_gain) - 1e-9 * t2.max()
        for f, i in zip(*np.nonzero(gain >= cut)):
            i += leaf - 1
            ci, c2i, tf, t2f = c[f, i], c2[f, i], t[f, 0], t2[f, 0]
            gain_i = (
                parent_sse
                - (c2i - ci**2 / (i + 1))
                - (t2f - c2i - (tf - ci) ** 2 / (n - i - 1))
            )
            if gain_i > best_gain:
                best_gain = gain_i
                best = (int(features[f]), float((xs[f, i] + xs[f, i + 1]) / 2))
        return best

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(len(x))
        for i, row in enumerate(x):
            node = self.root
            while node.feature is not None:
                node = (
                    node.left
                    if row[node.feature] <= node.threshold
                    else node.right
                )
            out[i] = node.value
        return out


class RandomForestModel(CostModel):
    """Bagged regression trees on the flat feature vector."""

    name = "RF"

    def __init__(
        self,
        max_trees: int = 60,
        max_depth: int = 12,
        min_samples_leaf: int = 3,
        patience: int = 10,
    ) -> None:
        check_count("max_trees", max_trees)
        check_count("max_depth", max_depth)
        check_count("min_samples_leaf", min_samples_leaf)
        self.max_trees = max_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.patience = patience
        self.trees: list[_RegressionTree] | None = None

    def fit(
        self, train: Dataset, val: Dataset, seed: int = 0
    ) -> TrainingResult:
        start = time.perf_counter()
        rng = np.random.default_rng(seed)
        x_train, y_train = train.flat_matrix()
        x_val, y_val = val.flat_matrix()
        n, d = x_train.shape
        max_features = max(int(np.sqrt(d)), 1)
        trees: list[_RegressionTree] = []
        stopper = EarlyStopping(patience=self.patience)
        val_losses: list[float] = []
        val_sum = np.zeros(len(x_val))
        best_count = 0
        for index in range(self.max_trees):
            tree = _RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                rng=rng,
            )
            sample = rng.integers(0, n, size=n)  # bootstrap
            tree.fit(x_train[sample], y_train[sample])
            trees.append(tree)
            val_sum += tree.predict(x_val)
            val_loss = float(
                np.mean((val_sum / len(trees) - y_val) ** 2)
            )
            val_losses.append(val_loss)
            stop = stopper.step(val_loss, index)
            if stopper.should_snapshot:
                best_count = len(trees)
            if stop:
                break
        self.trees = trees[: best_count or len(trees)]
        return self._result(
            start, len(trees), train, stopper.best_loss, val_losses
        )

    def predict(self, data: Dataset) -> np.ndarray:
        self._check_fitted("trees")
        x, _ = data.flat_matrix()
        log_pred = np.mean([tree.predict(x) for tree in self.trees], axis=0)
        return np.exp(np.clip(log_pred, -20.0, 20.0))

    def num_parameters(self) -> int:
        """Split/leaf parameters across all trees (2 per node)."""
        if self.trees is None:
            return 0
        return int(sum(2 * tree.node_count for tree in self.trees))
