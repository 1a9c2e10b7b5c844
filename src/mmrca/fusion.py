"""KPI-aware graph fusion.

Each modality earns an attention weight from how strongly its raw entity
series cross-correlate with the KPI; the two learned adjacencies are then
blended with those weights into one causal graph.
"""

from __future__ import annotations

import numpy as np

from .panel import ModalityPanel


def _lagged_correlation(x: np.ndarray, y: np.ndarray, lag: int) -> float:
    # pairs (x[t+lag], y[t]) over the overlapping support
    a = x[lag:]
    b = y[: len(y) - lag] if lag > 0 else y
    ca = a - a.mean()
    cb = b - b.mean()
    denom = np.linalg.norm(ca) * np.linalg.norm(cb)
    if denom == 0.0:
        return 0.0
    return float(np.dot(ca, cb) / denom)


def cross_correlation_scores(panel: ModalityPanel, max_lag: int) -> np.ndarray:
    """Per-entity max lagged Pearson correlation with the KPI over lags 0..max_lag.

    Returns one score per entity, KPI excluded. The KPI leads the entity
    series: at lag p the pairs are (x_i(t+p), y(t)), so an entity scores high
    when it follows the KPI by p steps. Both series are mean-centered over the
    overlap and divided by their norms. Entities with zero variance at every
    lag score 0.
    """
    if not 0 <= max_lag < panel.n_timesteps:
        raise ValueError(
            f"max_lag {max_lag} must be >= 0 and smaller than panel length {panel.n_timesteps}"
        )
    kpi = panel.kpi
    scores = np.empty(panel.n_nodes - 1)
    for i in range(panel.n_nodes - 1):
        best = -np.inf
        for lag in range(max_lag + 1):
            best = max(best, _lagged_correlation(panel.values[i], kpi, lag))
        scores[i] = best
    return scores


def modality_attention(score_log, score_metric, k: int) -> tuple[float, float]:
    """Two-way softmax over the top-k score sums of each modality.

    score_log and score_metric hold one cross_correlation_scores entry per
    entity. Returns (a_log, a_metric) with a_log + a_metric = 1. The softmax
    is computed max-subtracted, which leaves the values analytically unchanged.
    """
    score_log = np.asarray(score_log, dtype=float)
    score_metric = np.asarray(score_metric, dtype=float)
    if not (np.all(np.isfinite(score_log)) and np.all(np.isfinite(score_metric))):
        raise ValueError("modality scores must be finite")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(score_log) or k > len(score_metric):
        raise ValueError("k exceeds the number of entities")
    sums = np.array([np.sort(score_log)[-k:].sum(), np.sort(score_metric)[-k:].sum()])
    shifted = sums - sums.max()
    weights = np.exp(shifted)
    weights /= weights.sum()
    return float(weights[0]), float(weights[1])


def fuse(
    a_log: np.ndarray, a_metric: np.ndarray, weights: tuple[float, float], node_names: list[str]
) -> np.ndarray:
    """The fused adjacency w_log * A_log + w_metric * A_metric, float64, with zeroed diagonal.

    weights is (w_log, w_metric), the modality attention: non-negative and
    summing to 1. Both adjacencies must be n x n over the n node_names.
    """
    a_log_matrix = np.asarray(a_log, dtype=float)
    a_metric_matrix = np.asarray(a_metric, dtype=float)
    n = len(node_names)
    if not a_log_matrix.shape == a_metric_matrix.shape == (n, n):
        raise ValueError(f"both adjacencies must be {n} x {n}, one row per node name")
    w_log, w_metric = weights
    if w_log < 0 or w_metric < 0 or not np.isclose(w_log + w_metric, 1.0):
        raise ValueError("attention weights must be non-negative and sum to 1")
    fused = w_log * a_log_matrix + w_metric * a_metric_matrix
    np.fill_diagonal(fused, 0.0)
    return fused

