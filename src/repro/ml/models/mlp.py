"""Multi-layer perceptron cost model.

The paper's second family [30]: "known for capturing nonlinear
relationships in data". Two ReLU hidden layers on the flat feature vector,
trained with Adam and the uniform early-stopping protocol.
"""

from __future__ import annotations

import time

import numpy as np

from repro.common.errors import check_count
from repro.ml.dataset import Dataset
from repro.ml.models.base import CostModel
from repro.ml.training import (
    Adam,
    EarlyStopping,
    Standardizer,
    TrainingResult,
)

__all__ = ["MLPCostModel"]


class MLPCostModel(CostModel):
    """[input -> hidden -> hidden -> 1] ReLU regressor on log latency."""

    name = "MLP"

    def __init__(
        self,
        hidden: tuple[int, int] = (64, 64),
        lr: float = 3e-3,
        batch_size: int = 32,
        max_epochs: int = 300,
        patience: int = 10,
    ) -> None:
        for size in hidden:
            check_count("hidden sizes", size)
        check_count("batch_size", batch_size)
        check_count("max_epochs", max_epochs)
        self.hidden = hidden
        self.lr = lr
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.params: dict[str, np.ndarray] | None = None
        self.scaler = Standardizer()

    # ----------------------------------------------------------- internals

    def _init_params(
        self, input_dim: int, rng: np.random.Generator
    ) -> dict[str, np.ndarray]:
        sizes = [input_dim, *self.hidden, 1]
        params: dict[str, np.ndarray] = {}
        for i in range(len(sizes) - 1):
            scale = np.sqrt(2.0 / sizes[i])
            params[f"W{i}"] = rng.normal(
                0.0, scale, size=(sizes[i], sizes[i + 1])
            )
            params[f"b{i}"] = np.zeros(sizes[i + 1])
        return params

    def _forward(
        self, x: np.ndarray, params: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        activations = [x]
        h = x
        layers = len(self.hidden) + 1
        for i in range(layers):
            z = h @ params[f"W{i}"] + params[f"b{i}"]
            h = np.maximum(z, 0.0) if i < layers - 1 else z
            activations.append(h)
        return h[:, 0], activations

    def _backward(
        self,
        y_pred: np.ndarray,
        y_true: np.ndarray,
        activations: list[np.ndarray],
        params: dict[str, np.ndarray],
    ) -> dict[str, np.ndarray]:
        n = y_true.shape[0]
        grads: dict[str, np.ndarray] = {}
        delta = (2.0 * (y_pred - y_true) / n)[:, None]
        layers = len(self.hidden) + 1
        for i in reversed(range(layers)):
            h_prev = activations[i]
            grads[f"W{i}"] = h_prev.T @ delta
            grads[f"b{i}"] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ params[f"W{i}"].T) * (h_prev > 0)
        return grads

    # -------------------------------------------------------------- public

    def fit(
        self, train: Dataset, val: Dataset, seed: int = 0
    ) -> TrainingResult:
        start = time.perf_counter()
        rng = np.random.default_rng(seed)
        x_train, y_train = train.flat_matrix()
        x_val, y_val = val.flat_matrix()
        self.scaler.fit(x_train)
        x_train = self.scaler.transform(x_train)
        x_val = self.scaler.transform(x_val)
        params = self._init_params(x_train.shape[1], rng)
        optimizer = Adam(params, lr=self.lr)
        stopper = EarlyStopping(patience=self.patience)
        best_params = {k: v.copy() for k, v in params.items()}
        val_losses: list[float] = []
        epochs_run = 0
        for epoch in range(self.max_epochs):
            epochs_run = epoch + 1
            order = rng.permutation(len(x_train))
            for begin in range(0, len(order), self.batch_size):
                batch = order[begin : begin + self.batch_size]
                y_pred, activations = self._forward(x_train[batch], params)
                grads = self._backward(
                    y_pred, y_train[batch], activations, params
                )
                optimizer.step(grads)
            val_pred, _ = self._forward(x_val, params)
            val_loss = float(np.mean((val_pred - y_val) ** 2))
            val_losses.append(val_loss)
            stop = stopper.step(val_loss, epoch)
            if stopper.should_snapshot:
                best_params = {k: v.copy() for k, v in params.items()}
            if stop:
                break
        self.params = best_params
        return self._result(
            start, epochs_run, train, stopper.best_loss, val_losses
        )

    def predict(self, data: Dataset) -> np.ndarray:
        self._check_fitted("params")
        x, _ = data.flat_matrix()
        log_pred, _ = self._forward(self.scaler.transform(x), self.params)
        return np.exp(np.clip(log_pred, -20.0, 20.0))
