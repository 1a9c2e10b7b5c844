"""Reference rankers that the pipeline's ranking accuracy is read against.

Each ranker returns entity names, best first, for one incident. They are not
gated; they give the pipeline's MRR a floor (random), a structure-only bound
(random walk on the true DAG) and a trivial evidence-based rival (earliest
anomaly).
"""

from __future__ import annotations

import numpy as np

from mmrca import rca

Z_THRESHOLD = 4.0  # |z| a series must exceed to count as anomalous
MIN_SEGMENT = 10  # shortest segment the KPI split may leave; also the settling time skipped


def mrr_random(n_entities: int) -> float:
    """Expected MRR of a uniformly random ranking of n entities: H_n / n."""
    return sum(1.0 / k for k in range(1, n_entities + 1)) / n_entities


def oracle_dag_ranking(truth: dict, rca_config: dict) -> list[str]:
    """Random walk with restart at the KPI on the ground-truth DAG (KPI included)."""
    n = truth["n_entities"]
    adjacency = np.zeros((n + 1, n + 1))
    adjacency[:n, :n] = truth["ground_truth_dag"]
    adjacency[truth["kpi_parents"], n] = 1.0
    transition = rca.transition_matrix(adjacency, beta=rca_config["beta"])
    p0 = np.zeros(n + 1)
    p0[-1] = 1.0
    result = rca.rwr(
        transition,
        p0,
        c=rca_config["restart"],
        tol=rca_config["tol"],
        max_iter=rca_config["max_iter"],
    )
    names = list(truth["entity_names"]) + ["kpi"]
    ranked = rca.rank_root_causes(result.scores, names, k=n)
    return [name for name, _ in ranked.ranking]


def mean_shift_onset(series: np.ndarray, min_segment: int = MIN_SEGMENT) -> int:
    """Split index s minimising the squared error of a two-mean fit (s = first post-shift step)."""
    x = np.asarray(series, dtype=float)
    t_len = len(x)
    splits = np.arange(min_segment, t_len - min_segment + 1)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    csq = np.concatenate([[0.0], np.cumsum(x * x)])
    left_sse = csq[splits] - csum[splits] ** 2 / splits
    right_n = t_len - splits
    right_sse = (csq[-1] - csq[splits]) - (csum[-1] - csum[splits]) ** 2 / right_n
    return int(splits[np.argmin(left_sse + right_sse)])


def earliest_anomaly_ranking(metric_values: np.ndarray, entity_names: list[str]) -> list[str]:
    """Rank entities by their first |z| > 4 crossing, z against pre-onset statistics.

    metric_values is the metric panel (entities, then the KPI as the last
    row). The onset is the best mean-shift split of the KPI. The first
    MIN_SEGMENT steps, where the series settle from their initial state, are
    left out of both the statistics and the search. Ties on the crossing step
    break on |z| at that step, then on entity index; entities that never
    cross follow, by their largest |z|.
    """
    settled = np.asarray(metric_values, dtype=float)[:, MIN_SEGMENT:]
    onset = mean_shift_onset(settled[-1])
    entities = settled[:-1]
    pre = entities[:, :onset]
    mean = pre.mean(axis=1, keepdims=True)
    std = np.maximum(pre.std(axis=1, keepdims=True), 1e-12)
    z = np.abs(entities - mean) / std
    keys = []
    for i, row in enumerate(z):
        crossed = np.flatnonzero(row > Z_THRESHOLD)
        if crossed.size:
            keys.append((0, int(crossed[0]), -row[crossed[0]], i))
        else:
            keys.append((1, 0, -row.max(), i))
    return [entity_names[key[-1]] for key in sorted(keys)]
