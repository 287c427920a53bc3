"""Common interface of the learned cost models.

All models regress **log latency** and report predictions back in seconds;
all are trained with the same train/validation split and the same early
stopping protocol, which is the "fair comparison" requirement the paper's
ML Manager enforces.
"""

from __future__ import annotations

import time

import numpy as np

from repro.common.errors import TrainingError
from repro.ml.dataset import Dataset
from repro.ml.qerror import summarize_q_errors
from repro.ml.training import TrainingResult

__all__ = ["CostModel"]


class CostModel:
    """Base class: fit on a dataset, predict latencies in seconds."""

    name = "abstract"

    def fit(
        self, train: Dataset, val: Dataset, seed: int = 0
    ) -> TrainingResult:
        """Train on ``train``, early-stopping against ``val``."""
        raise NotImplementedError

    def predict(self, data: Dataset) -> np.ndarray:
        """Predicted latencies (seconds) for each record."""
        raise NotImplementedError

    def num_parameters(self) -> int:
        """Learned parameters (capacity metric); by default all ``params``."""
        params = getattr(self, "params", None) or {}
        return int(sum(p.size for p in params.values()))

    def evaluate(self, data: Dataset) -> dict[str, float]:
        """Q-error summary of this model on a dataset."""
        predictions = self.predict(data)
        return summarize_q_errors(data.latencies(), predictions)

    def _result(
        self, start: float, epochs: int, train: Dataset, best, val_losses
    ) -> TrainingResult:
        """What a fit reports: wall time since ``start`` and its size."""
        return TrainingResult(
            model_name=self.name,
            train_time_s=time.perf_counter() - start,
            epochs=epochs,
            num_parameters=self.num_parameters(),
            train_samples=len(train),
            best_val_loss=best,
            val_losses=val_losses,
        )

    def _check_fitted(self, attribute: str) -> None:
        if getattr(self, attribute, None) is None:
            raise TrainingError(f"{self.name}: fit() must be called first")
