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

    def test_max_lag_must_be_below_length(self):
        panel = make_panel([np.arange(5.0), np.arange(5.0)])
        with pytest.raises(ValueError):
            cross_correlation_scores(panel, max_lag=5)

    def test_max_lag_must_be_non_negative(self):
        panel = make_panel([np.arange(5.0), np.arange(5.0)])
        with pytest.raises(ValueError, match="max_lag -1 must be >= 0"):
            cross_correlation_scores(panel, max_lag=-1)


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

    def test_k_validation(self):
        with pytest.raises(ValueError):
            modality_attention(self.score([1.0]), self.score([1.0]), k=2)

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            modality_attention(self.score([1.0, np.nan]), self.score([1.0, 0.0]), k=1)


class TestFuse:
    def test_identical_inputs_are_fixed_point(self):
        a = np.array([[0.0, 0.7], [0.2, 0.0]])
        fused = fuse(a, a, (0.3, 0.7), ["e0", "kpi"])
        assert np.allclose(fused, a)

    def test_degenerate_weight_selects_one_modality(self):
        a_log = np.array([[0.0, 0.9], [0.1, 0.0]])
        a_metric = np.array([[0.0, 0.2], [0.8, 0.0]])
        fused = fuse(a_log, a_metric, (1.0, 0.0), ["e0", "kpi"])
        assert np.allclose(fused, a_log)

    def test_entrywise_hand_evaluation(self):
        a_log = np.array([[0.0, 0.4], [0.6, 0.0]])
        a_metric = np.array([[0.0, 0.8], [0.1, 0.0]])
        w = (0.7311, 0.2689)
        fused = fuse(a_log, a_metric, w, ["e0", "kpi"])
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
            fused = fuse(a_log, a_metric, (w_log, 1.0 - w_log), list("abcd"))
            lo = np.minimum(a_log, a_metric)
            hi = np.maximum(a_log, a_metric)
            assert np.all(fused >= lo - 1e-12)
            assert np.all(fused <= hi + 1e-12)

    def test_diagonal_rezeroed(self):
        a = np.full((3, 3), 0.5)
        fused = fuse(a, a, (0.5, 0.5), ["a", "b", "kpi"])
        assert np.all(np.diag(fused) == 0.0)

    def test_weights_must_sum_to_one(self):
        a = np.zeros((2, 2))
        with pytest.raises(ValueError, match="non-negative and sum to 1"):
            fuse(a, a, (0.6, 0.6), ["a", "kpi"])

    def test_weights_must_be_non_negative(self):
        a = np.zeros((2, 2))
        with pytest.raises(ValueError, match="non-negative and sum to 1"):
            fuse(a, a, (1.5, -0.5), ["a", "kpi"])

    @pytest.mark.parametrize(
        "log_shape,metric_shape,names",
        [
            ((2, 2), (2, 2), ["a", "b", "kpi"]),
            ((2, 3), (2, 3), ["a", "kpi"]),
            ((3, 3), (2, 2), ["a", "kpi"]),
            ((2, 2), (3, 3), ["a", "kpi"]),
        ],
    )
    def test_shapes_are_checked(self, log_shape, metric_shape, names):
        n = len(names)
        with pytest.raises(ValueError, match=f"both adjacencies must be {n} x {n}"):
            fuse(np.zeros(log_shape), np.zeros(metric_shape), (0.5, 0.5), names)
