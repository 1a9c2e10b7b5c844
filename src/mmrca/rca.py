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
    that P stays row-stochastic.
    """
    a = np.asarray(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    if np.any(a < 0):
        raise ValueError("adjacency entries must be non-negative")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
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

    c is the restart probability (c=0 is rejected: without restart a periodic
    chain need not converge). Convergence is declared when the L1 change drops
    below tol.
    """
    p = np.asarray(p, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if not 0.0 < c <= 1.0:
        raise ValueError("restart probability c must lie in (0, 1]")
    row_sums = p.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-9):
        raise ValueError("transition matrix rows must sum to 1")
    if not np.isclose(p0.sum(), 1.0, atol=1e-9):
        raise ValueError("initial distribution must sum to 1")
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

    Ties break on ascending entity index; the list is truncated to k entries
    (no padding when k exceeds the entity count).
    """
    scores = np.asarray(scores, dtype=float)
    if len(scores) != len(node_names):
        raise ValueError("scores and node_names must have equal length")
    if k < 1:
        raise ValueError("k must be >= 1")
    entity_scores = scores[:-1]
    order = sorted(range(len(entity_scores)), key=lambda i: (-entity_scores[i], i))
    ranking = [(node_names[i], float(entity_scores[i])) for i in order[:k]]
    return RankedRootCauses(ranking=ranking)

