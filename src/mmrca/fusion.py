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
    lag score 0. max_lag must lie in [0, panel length): the pipeline's lags
    are learner.p, which a panel is at least twice as long as.
    """
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
    entity, and k lies in [1, entities]. Returns (a_log, a_metric) with
    a_log + a_metric = 1. The softmax is computed max-subtracted, which leaves
    the values analytically unchanged.
    """
    score_log = np.asarray(score_log, dtype=float)
    score_metric = np.asarray(score_metric, dtype=float)
    sums = np.array([np.sort(score_log)[-k:].sum(), np.sort(score_metric)[-k:].sum()])
    shifted = sums - sums.max()
    weights = np.exp(shifted)
    weights /= weights.sum()
    return float(weights[0]), float(weights[1])


def fuse(a_log: np.ndarray, a_metric: np.ndarray, weights: tuple[float, float]) -> np.ndarray:
    """The fused adjacency w_log * A_log + w_metric * A_metric, float64, with zeroed diagonal.

    weights is (w_log, w_metric), the modality attention: non-negative and
    summing to 1. Both adjacencies are n x n over the same nodes.
    """
    w_log, w_metric = weights
    fused = w_log * np.asarray(a_log, dtype=float) + w_metric * np.asarray(a_metric, dtype=float)
    np.fill_diagonal(fused, 0.0)
    return fused

