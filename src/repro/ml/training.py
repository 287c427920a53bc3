"""Training utilities shared by all cost models.

The paper applies *uniform* early stopping ("halting training if the
validation loss did not improve for N consecutive epochs... applied across
all models to maintain consistency"); :class:`EarlyStopping` implements
exactly that, and :class:`TrainingResult` carries the training-efficiency
metrics (time, epochs, parameters) the ML Manager reports alongside
accuracy.

:class:`Adam` (MLP and GNN) steps parameters, gradients and moments as one
contiguous vector each, in place; per element the arithmetic and its order
are the textbook per-array loop's, so results are bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError, TrainingError

__all__ = ["EarlyStopping", "TrainingResult", "Adam", "Standardizer"]


@dataclass
class TrainingResult:
    """What one model training run produced and cost."""

    model_name: str
    train_time_s: float
    epochs: int
    num_parameters: int
    train_samples: int
    best_val_loss: float
    val_losses: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Plain-dict form for reports and storage."""
        return {
            "model": self.model_name,
            "train_time_s": self.train_time_s,
            "epochs": self.epochs,
            "num_parameters": self.num_parameters,
            "train_samples": self.train_samples,
            "best_val_loss": self.best_val_loss,
        }


class EarlyStopping:
    """Stop when validation loss hasn't improved for ``patience`` epochs."""

    def __init__(self, patience: int = 10, min_delta: float = 1e-5) -> None:
        if patience < 1:
            raise ConfigurationError("patience must be >= 1")
        self.patience = patience
        self.min_delta = min_delta
        self.best_loss = float("inf")
        self.best_epoch = -1
        self._stale = 0
        self.should_snapshot = False

    def step(self, val_loss: float, epoch: int) -> bool:
        """Record an epoch's validation loss; True means stop now.

        Sets :attr:`should_snapshot` when this epoch is the new best, so
        callers know to store a copy of the parameters. A NaN or infinite
        loss is a diverged run, not a stale epoch, and raises.
        """
        if not np.isfinite(val_loss):
            raise TrainingError(f"epoch {epoch}: validation loss {val_loss}")
        if val_loss < self.best_loss - self.min_delta:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self._stale = 0
            self.should_snapshot = True
            return False
        self.should_snapshot = False
        self._stale += 1
        return self._stale >= self.patience


class Adam:
    """The Adam optimiser over a dict of named parameter arrays.

    The arrays are packed in dict order into one flat vector; each entry of
    ``params`` becomes a view into it and :attr:`grads` holds like-shaped
    views into the flat gradient, which a caller may fill and pass to ``step``.
    """

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ConfigurationError("learning rate must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._flat = np.concatenate([v.ravel() for v in params.values()])
        n = self._flat.size
        self._grad, self._m, self._v, self._num, self._den = np.zeros((5, n))
        self.grads: dict[str, np.ndarray] = {}
        self._t = 0
        lo = 0
        for key, value in list(params.items()):
            span = slice(lo, lo + value.size)
            params[key] = self._flat[span].reshape(value.shape)
            self.grads[key] = self._grad[span].reshape(value.shape)
            lo = span.stop

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """Apply one update from gradients keyed like the parameters."""
        if grads.keys() != self.grads.keys():
            raise ConfigurationError(f"not the parameters: {sorted(grads)}")
        for key, grad in grads.items():
            self.grads[key][...] = grad
        self._t += 1
        grad, m, v = self._grad, self._m, self._v
        num, den = self._num, self._den
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=num)
        m += num
        v *= self.beta2
        np.multiply(grad, grad, out=num)
        num *= 1 - self.beta2
        v += num
        # p -= lr m_hat / (sqrt(v_hat) + eps)
        np.divide(v, 1 - self.beta2**self._t, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(m, 1 - self.beta1**self._t, out=num)
        num *= self.lr
        num /= den
        self._flat -= num


class Standardizer:
    """Column-wise (x - mean) / std, fit on the training split only."""

    def __init__(self) -> None:
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "Standardizer":
        """Learn mean/std; constant columns get std 1 to stay finite."""
        self.mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std < 1e-9] = 1.0
        self.std = std
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Apply the learned standardisation."""
        if self.mean is None or self.std is None:
            raise ConfigurationError("standardizer not fitted")
        return (x - self.mean) / self.std
