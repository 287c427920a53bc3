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

from repro.common.errors import ConfigurationError
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
            or np.allclose(y, y[0])
        ):
            return node
        split = self._best_split(x, y)
        if split is None:
            return node
        feature, threshold = split
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
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
        best_gain = 1e-12
        best: tuple[int, float] | None = None
        parent_sse = float(((y - y.mean()) ** 2).sum())
        for feature in features:
            order = np.argsort(x[:, feature], kind="stable")
            xs = x[order, feature]
            ys = y[order]
            # Prefix sums let every split position be scored in O(1).
            csum = np.cumsum(ys)
            csum_sq = np.cumsum(ys**2)
            total = csum[-1]
            total_sq = csum_sq[-1]
            leaf = self.min_samples_leaf
            for i in range(leaf - 1, n - leaf):
                if xs[i] == xs[i + 1]:
                    continue
                n_left = i + 1
                n_right = n - n_left
                left_sse = csum_sq[i] - csum[i] ** 2 / n_left
                right_sum = total - csum[i]
                right_sse = (
                    total_sq - csum_sq[i] - right_sum**2 / n_right
                )
                gain = parent_sse - left_sse - right_sse
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float((xs[i] + xs[i + 1]) / 2.0))
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
        if max_trees < 1:
            raise ConfigurationError("max_trees must be >= 1")
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
