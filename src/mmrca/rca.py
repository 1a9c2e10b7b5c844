"""Root-cause localization on a fused causal graph via random walk with restart.

The walk runs on a reversed-edge transition matrix so that probability mass
flows from the KPI (the symptom) back toward its causes; the stationary
distribution ranks candidate root causes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RwrResult:
    scores: np.ndarray
    converged: bool
    iterations: int


@dataclass
class RankedRootCauses:
    ranking: list[tuple[str, float]]


def transition_matrix(adjacency: np.ndarray, beta: float = 0.1) -> np.ndarray:
    """Reverse-direction transition matrix P with self-retention beta.

    P[i, j] = (1-beta) * A[j, i] / sum_k A[k, i]: from node i the walk moves to
    the causes of i (rows of A are causes, columns effects). The beta mass
    stays on i; nodes with no incoming causal weight become pure self-loops so
    that P stays row-stochastic. A is square and non-negative, as fusion.fuse
    builds it, and beta lies in [0, 1].
    """
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    incoming = a.sum(axis=0)  # incoming[i] = sum_k A[k, i]
    caused = incoming > 0
    p = np.zeros((n, n))
    p[caused] = (1.0 - beta) * a.T[caused] / incoming[caused, None]
    p[np.diag_indices(n)] += np.where(caused, beta, 1.0)
    return p


def rwr(
    p: np.ndarray,
    p0: np.ndarray,
    c: float = 0.15,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> RwrResult:
    """Iterate p <- (1-c) P^T p + c p0 to its fixed point.

    P is row-stochastic (transition_matrix) and p0 a distribution. c is the
    restart probability, in (0, 1]: without restart a periodic chain need not
    converge. Convergence is declared when the L1 change drops below tol.
    """
    p = np.asarray(p, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    vec = p0.copy()
    for it in range(1, max_iter + 1):
        nxt = (1.0 - c) * (p.T @ vec) + c * p0
        delta = float(np.abs(nxt - vec).sum())
        vec = nxt
        if delta < tol:
            return RwrResult(scores=vec, converged=True, iterations=it)
    return RwrResult(scores=vec, converged=False, iterations=max_iter)


def rank_root_causes(scores: np.ndarray, node_names: list[str], k: int) -> RankedRootCauses:
    """Order entities by stationary score, KPI (last node) excluded.

    scores holds one score per node name. Ties break on ascending entity
    index; the list is truncated to k entries (no padding when k exceeds the
    entity count).
    """
    scores = np.asarray(scores, dtype=float)
    entity_scores = scores[:-1]
    order = sorted(range(len(entity_scores)), key=lambda i: (-entity_scores[i], i))
    ranking = [(node_names[i], float(entity_scores[i])) for i in order[:k]]
    return RankedRootCauses(ranking=ranking)

