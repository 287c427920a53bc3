"""Linear regression cost model (ridge, closed form).

The paper's baseline family [23]: "traditionally used for its simplicity
and effectiveness in prediction tasks". The ridge coefficient is selected
on the validation split from a small grid — the closest analogue of early
stopping for a closed-form model.
"""

from __future__ import annotations

import time

import numpy as np

from repro.ml.dataset import Dataset
from repro.ml.models.base import CostModel
from repro.ml.training import Standardizer, TrainingResult

__all__ = ["LinearRegressionModel"]


class LinearRegressionModel(CostModel):
    """Ridge regression on the flat feature vector."""

    name = "LR"

    def __init__(self, ridge_grid: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0)):
        self.ridge_grid = ridge_grid
        self.weights: np.ndarray | None = None
        self.bias = 0.0
        self.scaler = Standardizer()

    @staticmethod
    def _solve(
        x: np.ndarray, y: np.ndarray, ridge: float
    ) -> tuple[np.ndarray, float]:
        n, d = x.shape
        x_aug = np.hstack([x, np.ones((n, 1))])
        penalty = ridge * np.eye(d + 1)
        penalty[-1, -1] = 0.0  # do not penalise the intercept
        theta = np.linalg.solve(
            x_aug.T @ x_aug + penalty, x_aug.T @ y
        )
        return theta[:-1], float(theta[-1])

    def fit(
        self, train: Dataset, val: Dataset, seed: int = 0
    ) -> TrainingResult:
        start = time.perf_counter()
        x_train, y_train = train.flat_matrix()
        x_val, y_val = val.flat_matrix()
        self.scaler.fit(x_train)
        x_train = self.scaler.transform(x_train)
        x_val = self.scaler.transform(x_val)
        best_loss = float("inf")
        val_losses = []
        for ridge in self.ridge_grid:
            weights, bias = self._solve(x_train, y_train, ridge)
            residual = x_val @ weights + bias - y_val
            loss = float(np.mean(residual**2))
            val_losses.append(loss)
            if loss < best_loss:
                best_loss = loss
                self.weights, self.bias = weights, bias
        return self._result(
            start, len(self.ridge_grid), train, best_loss, val_losses
        )

    def predict(self, data: Dataset) -> np.ndarray:
        self._check_fitted("weights")
        x, _ = data.flat_matrix()
        log_pred = self.scaler.transform(x) @ self.weights + self.bias
        return np.exp(np.clip(log_pred, -20.0, 20.0))

    def num_parameters(self) -> int:
        if self.weights is None:
            return 0
        return int(self.weights.size) + 1
