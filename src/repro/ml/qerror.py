"""The q-error accuracy metric.

The paper (after [39], "How good are query optimizers, really?"): for a
true cost ``c`` and prediction ``c'``, ``q(c, c') = max(c/c', c'/c)``; a
q-error of 1 is a perfect prediction. We report median and tail percentiles
over a test set, as is standard for learned cost models.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError

__all__ = [
    "q_error",
    "q_errors",
    "summarize_q_errors",
    "regression_metrics",
]


def q_error(true_cost: float, predicted_cost: float) -> float:
    """q(c, c') = max(c / c', c' / c); both costs must be positive."""
    if true_cost <= 0 or predicted_cost <= 0:
        raise ConfigurationError(
            f"q-error needs positive costs, got c={true_cost}, "
            f"c'={predicted_cost}"
        )
    ratio = true_cost / predicted_cost
    return max(ratio, 1.0 / ratio)


def _checked(true_costs, predicted_costs) -> tuple:
    """Both as float arrays of one shape, the predictions floored to a
    tiny positive; the true costs must be positive."""
    true_arr = np.asarray(true_costs, dtype=float)
    pred_arr = np.maximum(np.asarray(predicted_costs, dtype=float), 1e-9)
    if true_arr.shape != pred_arr.shape:
        raise ConfigurationError(
            f"shape mismatch: {true_arr.shape} vs {pred_arr.shape}"
        )
    if (true_arr <= 0).any():
        raise ConfigurationError("true costs must be positive")
    return true_arr, pred_arr


def q_errors(
    true_costs: np.ndarray, predicted_costs: np.ndarray
) -> np.ndarray:
    """Vectorised q-errors; predictions are floored to a tiny positive."""
    true_arr, pred_arr = _checked(true_costs, predicted_costs)
    ratio = true_arr / pred_arr
    return np.maximum(ratio, 1.0 / ratio)


def summarize_q_errors(
    true_costs: np.ndarray, predicted_costs: np.ndarray
) -> dict[str, float]:
    """Median / p90 / p95 / max q-error summary of a test set."""
    errors = q_errors(true_costs, predicted_costs)
    return {
        "median": float(np.median(errors)),
        "mean": float(errors.mean()),
        "p90": float(np.percentile(errors, 90)),
        "p95": float(np.percentile(errors, 95)),
        "max": float(errors.max()),
        "count": int(errors.size),
    }


def regression_metrics(
    true_costs: np.ndarray, predicted_costs: np.ndarray
) -> dict[str, float]:
    """Complementary regression metrics: MAPE, RMSE (log space), R^2.

    q-error is the headline metric (scale-free, tail-sensitive); these
    standard metrics round out the model reports.
    """
    true_arr, pred_arr = _checked(true_costs, predicted_costs)
    mape = float(
        np.mean(np.abs(pred_arr - true_arr) / true_arr)
    ) * 100.0
    log_true = np.log(true_arr)
    log_pred = np.log(pred_arr)
    rmse_log = float(np.sqrt(np.mean((log_pred - log_true) ** 2)))
    variance = float(np.var(log_true))
    if variance < 1e-12:
        r2 = 1.0 if rmse_log < 1e-9 else 0.0
    else:
        r2 = 1.0 - float(np.mean((log_pred - log_true) ** 2)) / variance
    return {"mape_pct": mape, "rmse_log": rmse_log, "r2_log": r2}
