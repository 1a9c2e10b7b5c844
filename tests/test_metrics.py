import numpy as np
import pytest

from mmrca.metrics import (
    EvaluationCase,
    evaluate_cases,
    map_at_k,
    mrr,
    precision_at_k,
    structural_hamming,
)


def case(predicted, truth):
    return EvaluationCase(predicted=predicted, truth=truth)


class TestPrecisionAtK:
    def test_exact_hit_at_one(self):
        assert precision_at_k([case(["a", "b", "c"], {"a"})], 1) == 1.0

    def test_miss_then_hit(self):
        cases = [case(["b", "a", "c"], {"a"})]
        assert precision_at_k(cases, 1) == 0.0
        assert precision_at_k(cases, 2) == 1.0  # 1 hit / min(2, 1)

    def test_partial_truth_set(self):
        assert precision_at_k([case(["a", "c", "b"], {"a", "b"})], 2) == 0.5

    def test_non_decreasing_in_k_single_truth(self):
        # the min(K, |truth|) denominator makes PR@K non-monotone for multi-
        # element truth sets (PR@1=1 vs PR@2=0.5 in test_partial_truth_set),
        # so monotonicity is asserted where it holds: one true root cause
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = 8
            predicted = list(rng.permutation(n))
            truth = {int(rng.integers(0, n))}
            values = [precision_at_k([case(predicted, truth)], k) for k in range(1, n + 1)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            predicted = list(rng.permutation(6))
            truth = {int(rng.integers(0, 6))}
            for k in (1, 3, 6):
                v = precision_at_k([case(predicted, truth)], k)
                assert 0.0 <= v <= 1.0

    def test_ignores_entities_beyond_k(self):
        a = case(["a", "b", "c", "d"], {"a"})
        b = case(["a", "b", "x", "y"], {"a"})
        assert precision_at_k([a], 2) == precision_at_k([b], 2)


class TestMapAtK:
    def test_hit_stays_counted(self):
        assert map_at_k([case(["a"], {"a"})], 3) == 1.0

    def test_miss_then_hit(self):
        assert map_at_k([case(["b", "a"], {"a"})], 2) == 0.5

    def test_full_miss(self):
        assert map_at_k([case(["b", "c"], {"a"})], 2) == 0.0

    def test_equals_pr_when_prefix_precision_constant(self):
        c = case(["a", "b"], {"a", "b"})  # PR@1 = PR@2 = 1
        assert map_at_k([c], 2) == precision_at_k([c], 2)

    def test_ignores_entities_beyond_k(self):
        a = case(["a", "b", "c", "d"], {"a"})
        b = case(["a", "b", "y", "z"], {"a"})
        assert map_at_k([a], 2) == map_at_k([b], 2)


class TestMrr:
    def test_rank_one(self):
        assert mrr([case(["a", "b"], {"a"})]) == 1.0

    def test_rank_two(self):
        assert mrr([case(["b", "a"], {"a"})]) == 0.5

    def test_average_over_cases(self):
        cases = [case(["a"], {"a"}), case(["x", "y", "z", "a"], {"a"})]
        assert mrr(cases) == pytest.approx(0.625)

    def test_miss_contributes_zero(self):
        assert mrr([case(["x", "y"], {"a"})]) == 0.0

    def test_bounds(self):
        assert 0.0 <= mrr([case(["b", "a"], {"a"}), case(["c"], {"a"})]) <= 1.0


class TestCaseValidation:
    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            case(["a"], set())

    def test_duplicate_predictions_rejected(self):
        with pytest.raises(ValueError):
            case(["a", "a"], {"a"})


def structural_hamming_loop(a, b):
    """Pair-by-pair reference for structural_hamming."""
    a, b = np.asarray(a).astype(bool), np.asarray(b).astype(bool)
    shd = 0
    for i in range(a.shape[0]):
        for j in range(i + 1, a.shape[0]):
            if (a[i, j], a[j, i]) != (b[i, j], b[j, i]):
                shd += 1
    return shd


class TestStructuralHamming:
    def test_identical(self):
        a = np.array([[0, 1], [0, 0]])
        assert structural_hamming(a, a) == 0

    def test_reversed_edge_counts_once(self):
        a = np.array([[0, 1], [0, 0]])
        b = np.array([[0, 0], [1, 0]])
        assert structural_hamming(a, b) == 1

    def test_missing_and_extra(self):
        a = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        b = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        assert structural_hamming(a, b) == 2

    def test_equal_to_the_pair_loop(self):
        rng = np.random.default_rng(0)
        for n in range(1, 45):
            a = rng.random((n, n)) < rng.uniform(0.0, 0.5)
            b = rng.random((n, n)) < rng.uniform(0.0, 0.5)
            a[:, rng.random(n) < 0.3] = False  # nodes with no incoming edge
            for x, y in ((a, b), (a, a), (a, a.T), (a.astype(int), b.astype(float))):
                assert structural_hamming(x, y) == structural_hamming_loop(x, y), n


def test_evaluate_cases_report():
    cases = [case(["a", "b"], {"a"}), case(["b", "a"], {"a"})]
    report = evaluate_cases(cases, [1, 2])
    assert report["n_cases"] == 2
    assert report["mrr"] == pytest.approx(0.75)
    assert report["pr@1"] == pytest.approx(0.5)
    assert report["pr@2"] == pytest.approx(1.0)
