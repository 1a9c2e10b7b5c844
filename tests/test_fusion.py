import numpy as np
import pytest

from mmrca.fusion import (
    cross_correlation_scores,
    fuse,
    modality_attention,
)
from mmrca.panel import ModalityPanel


def make_panel(rows, names=None):
    rows = np.asarray(rows, dtype=float)
    names = names or [f"svc-{i}" for i in range(rows.shape[0] - 1)]
    return ModalityPanel(rows, names)


def pearson_lag_oracle(x, y, max_lag):
    """Exhaustive lag scan with plain Pearson on the overlap."""
    best = -np.inf
    for lag in range(max_lag + 1):
        a = x[lag:]
        b = y[: len(y) - lag] if lag else y
        ca, cb = a - a.mean(), b - b.mean()
        denom = np.linalg.norm(ca) * np.linalg.norm(cb)
        best = max(best, (ca @ cb) / denom if denom else 0.0)
    return best


class TestCrossCorrelation:
    def test_identical_series_scores_one(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(50)
        panel = make_panel([y, y])
        score = cross_correlation_scores(panel, max_lag=0)
        assert score[0] == pytest.approx(1.0)

    def test_lead_by_two_peaks_at_lag_two(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(80)
        x = np.roll(y, 2)  # x(t) = y(t-2): the KPI leads the entity by 2
        x[:2] = 0.0
        panel = make_panel([x, y])
        score = cross_correlation_scores(panel, max_lag=4)
        # the exhaustive oracle on the overlap agrees
        assert score[0] == pytest.approx(pearson_lag_oracle(x, y, 4))
        assert score[0] > 0.99
        # and at the stated lag the correlation is exactly 1 on the overlap
        a = x[2:]
        b = y[:-2]
        ca, cb = a - a.mean(), b - b.mean()
        assert ca @ cb / (np.linalg.norm(ca) * np.linalg.norm(cb)) == pytest.approx(1.0)

    def test_constant_series_scores_zero(self):
        rng = np.random.default_rng(2)
        panel = make_panel([np.full(30, 3.5), rng.standard_normal(30)])
        assert cross_correlation_scores(panel, max_lag=3)[0] == 0.0



class TestModalityAttention:
    def score(self, values):
        return np.asarray(values, float)

    def test_equal_sums_split_evenly(self):
        a_log, a_metric = modality_attention(self.score([0.5, 0.2]), self.score([0.3, 0.4]), k=2)
        assert a_log == pytest.approx(0.5)
        assert a_metric == pytest.approx(0.5)

    def test_closed_form_softmax(self):
        a_log, a_metric = modality_attention(self.score([1.0, 0.0]), self.score([0.0, 0.0]), k=1)
        assert a_log == pytest.approx(np.e / (np.e + 1.0))
        assert a_metric == pytest.approx(1.0 / (np.e + 1.0))

    def test_shift_invariance(self):
        # adding c to every entry shifts both top-k sums by k*c and must leave
        # the softmax weights unchanged
        base = modality_attention(self.score([0.9, 0.1, 0.3]), self.score([0.2, 0.8, 0.1]), k=2)
        shifted = modality_attention(
            self.score(np.array([0.9, 0.1, 0.3]) + 2.0),
            self.score(np.array([0.2, 0.8, 0.1]) + 2.0),
            k=2,
        )
        assert shifted[0] == pytest.approx(base[0], abs=1e-12)
        assert shifted[1] == pytest.approx(base[1], abs=1e-12)

    def test_larger_weight_iff_larger_topk_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s_log = rng.standard_normal(5)
            s_metric = rng.standard_normal(5)
            k = int(rng.integers(1, 6))
            a_log, a_metric = modality_attention(self.score(s_log), self.score(s_metric), k)
            sum_log = np.sort(s_log)[-k:].sum()
            sum_metric = np.sort(s_metric)[-k:].sum()
            assert (a_log > a_metric) == (sum_log > sum_metric)


class TestFuse:
    def test_identical_inputs_are_fixed_point(self):
        a = np.array([[0.0, 0.7], [0.2, 0.0]])
        fused = fuse(a, a, (0.3, 0.7))
        assert np.allclose(fused, a)

    def test_degenerate_weight_selects_one_modality(self):
        a_log = np.array([[0.0, 0.9], [0.1, 0.0]])
        a_metric = np.array([[0.0, 0.2], [0.8, 0.0]])
        fused = fuse(a_log, a_metric, (1.0, 0.0))
        assert np.allclose(fused, a_log)

    def test_entrywise_hand_evaluation(self):
        a_log = np.array([[0.0, 0.4], [0.6, 0.0]])
        a_metric = np.array([[0.0, 0.8], [0.1, 0.0]])
        w = (0.7311, 0.2689)
        fused = fuse(a_log, a_metric, w)
        expected_01 = 0.7311 * 0.4 + 0.2689 * 0.8
        expected_10 = 0.7311 * 0.6 + 0.2689 * 0.1
        assert fused[0, 1] == pytest.approx(expected_01)
        assert fused[1, 0] == pytest.approx(expected_10)

    def test_convexity_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a_log = rng.uniform(size=(4, 4))
            a_metric = rng.uniform(size=(4, 4))
            np.fill_diagonal(a_log, 0.0)
            np.fill_diagonal(a_metric, 0.0)
            w_log = float(rng.uniform())
            fused = fuse(a_log, a_metric, (w_log, 1.0 - w_log))
            lo = np.minimum(a_log, a_metric)
            hi = np.maximum(a_log, a_metric)
            assert np.all(fused >= lo - 1e-12)
            assert np.all(fused <= hi + 1e-12)

    def test_diagonal_rezeroed(self):
        a = np.full((3, 3), 0.5)
        fused = fuse(a, a, (0.5, 0.5))
        assert np.all(np.diag(fused) == 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_the_attention_of_any_two_panels_is_a_weighting(self, seed):
        # fuse does not check its weights: the attention of the two panels' scores,
        # at any lag and any k the pipeline allows, must be non-negative and sum to 1,
        # for values of any scale up to read_panel_csv's bound; an overflow in the
        # correlations would raise its RuntimeWarning here
        rng = np.random.default_rng(seed)
        n, t_len = int(rng.integers(1, 8)), int(rng.integers(4, 40))
        max_lag = int(rng.integers(0, t_len // 2))
        bound = np.sqrt(np.finfo(float).max / (8 * t_len))
        panels = []
        for _ in range(2):
            rows = rng.standard_normal((n + 1, t_len)) * 10.0 ** rng.integers(-100, 170, (n + 1, 1))
            # a row whose largest value passes the bound is scaled to reach it exactly
            rows *= np.minimum(1.0, bound / np.abs(rows).max(axis=1, keepdims=True))
            rows[rng.random(n + 1) < 0.2] = 1.5  # a constant row scores 0
            panels.append(make_panel(rows))
        scores = [cross_correlation_scores(panel, max_lag) for panel in panels]
        weights = modality_attention(*scores, k=int(rng.integers(1, n + 1)))
        assert min(weights) >= 0.0 and sum(weights) == pytest.approx(1.0, abs=1e-12)
        a_log, a_metric = rng.uniform(0.0, 1.0, (2, n + 1, n + 1))
        np.fill_diagonal(a_log, 0.0)
        np.fill_diagonal(a_metric, 0.0)
        fused = fuse(a_log, a_metric, weights)
        assert np.all(fused >= np.minimum(a_log, a_metric) - 1e-12)
        assert np.all(fused <= np.maximum(a_log, a_metric) + 1e-12)
