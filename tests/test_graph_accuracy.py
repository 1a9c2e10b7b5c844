"""How well the learned metric graph recovers the simulator's true DAG.

Edge AUROC scores A_metric's off-diagonal entity pairs against the DAG: the
chance that a true edge outweighs an absent one, ties counting half. The
yardstick fits the metric panel of simulated 6-entity incidents at
sample_scenario seeds 0-9, at the benchmark's budget and at the default one.
The log panel has its own fit, which the metric graph never reads, so the
yardstick skips it.
"""

import functools

import numpy as np
import pytest

from mmrca.simulate import generate_incident, sample_scenario
from mmrca.structure import LearnerConfig, fit


def edge_auroc(a, dag) -> float:
    """AUROC of the entries of a over the off-diagonal pairs of the n x n DAG.

    a may be larger than the DAG (the KPI row and column); only its leading
    n x n block is scored.
    """
    dag = np.asarray(dag, dtype=bool)
    n = dag.shape[0]
    off = ~np.eye(n, dtype=bool)
    scores, labels = np.asarray(a)[:n, :n][off], dag[off]
    pos, neg = scores[labels], scores[~labels]
    if not len(pos) or not len(neg):
        raise ValueError("edge AUROC needs both an edge and a non-edge")
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))


class TestEdgeAuroc:
    DAG = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])

    def test_perfect_reversed_and_tied_rankings(self):
        assert edge_auroc(self.DAG, self.DAG) == 1.0
        assert edge_auroc(1 - self.DAG, self.DAG) == 0.0
        assert edge_auroc(np.ones((3, 3)), self.DAG) == 0.5

    def test_hand_worked_value_ignores_the_diagonal_and_the_kpi(self):
        a = np.array([
            [9.0, 0.4, 0.5, 9.0],
            [0.1, 9.0, 0.3, 9.0],
            [0.2, 0.3, 9.0, 9.0],
            [9.0, 9.0, 9.0, 9.0],
        ])
        # edges 0.4 and 0.3 against non-edges 0.5, 0.1, 0.2 and 0.3:
        # 0.4 beats 3, 0.3 beats 2 and ties 1, so (3 + 2.5) / 8
        assert edge_auroc(a, self.DAG) == pytest.approx(5.5 / 8)

    @pytest.mark.parametrize("dag", [np.zeros((3, 3)), 1 - np.eye(3)])
    def test_undefined_without_an_edge_or_a_non_edge(self, dag):
        with pytest.raises(ValueError, match="both an edge and a non-edge"):
            edge_auroc(np.zeros((3, 3)), dag)


@functools.lru_cache(maxsize=None)
def incident(seed: int, fault_type: str):
    """The metric panel and the DAG of one 6-entity incident."""
    spec = sample_scenario(6, fault_type, 300, 0.05, seed)
    return generate_incident(spec).metric_panel, spec.ground_truth_dag


# Mean AUROC over seeds 0-9, each bound about 0.05 below the mean measured
# when the bound was set; a learner at chance reads 0.5:
#   24 epochs:  metric_only 0.870, log_only 0.982
#   600 epochs: metric_only 0.813, log_only 0.955
AUROC_BOUNDS = {
    (24, "metric_only"): 0.80,
    (24, "log_only"): 0.90,
    (600, "metric_only"): 0.75,
    (600, "log_only"): 0.90,
}


@pytest.mark.parametrize("epochs,acyclicity_every", [(24, 4), (600, 100)])
@pytest.mark.parametrize("fault_type", ["metric_only", "log_only"])
def test_the_metric_graph_ranks_true_edges_above_absent_ones(epochs, acyclicity_every, fault_type):
    config = LearnerConfig(epochs=epochs, acyclicity_every=acyclicity_every)
    scores = []
    for seed in range(10):
        metric_panel, dag = incident(seed, fault_type)
        scores.append(edge_auroc(fit(metric_panel, config).A, dag))
    assert np.mean(scores) > AUROC_BOUNDS[epochs, fault_type], np.round(scores, 3)
