"""Ranking metrics for root-cause localization: PR@K, MAP@K, MRR.

A case pairs one ordered prediction list, each entity once, with the
non-empty set of true root causes; case_from_files builds it from the files.
Predictions shorter than K are treated as padded with misses. Each metric
takes a non-empty list of cases and K >= 1: the evaluate stage passes its one
case and pipeline.K_VALUES.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .atomic import read_json_object
from .nn import check_type, get_field


@dataclass
class EvaluationCase:
    predicted: list
    truth: set


def _case_precision_at(case: EvaluationCase, k: int) -> float:
    hits = sum(1 for p in case.predicted[:k] if p in case.truth)
    return hits / min(k, len(case.truth))


def precision_at_k(cases: list[EvaluationCase], k: int) -> float:
    """Mean over cases of (#hits in the first K) / min(K, #true causes)."""
    return float(np.mean([_case_precision_at(c, k) for c in cases]))


def map_at_k(cases: list[EvaluationCase], k: int) -> float:
    """Mean over j=1..K of the per-case prefix precision, averaged over cases."""
    per_case = [
        np.mean([_case_precision_at(c, j) for j in range(1, k + 1)]) for c in cases
    ]
    return float(np.mean(per_case))


def mrr(cases: list[EvaluationCase]) -> float:
    """Mean reciprocal rank of the first correct prediction; a full miss counts 0."""
    total = 0.0
    for case in cases:
        for rank, p in enumerate(case.predicted, start=1):
            if p in case.truth:
                total += 1.0 / rank
                break
    return total / len(cases)


def structural_hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Structural Hamming distance between two binary directed adjacency matrices.

    Counts node pairs whose edge configuration differs (missing, extra, or
    reversed edges each contribute 1 per pair).
    """
    a = np.asarray(a).astype(bool)
    b = np.asarray(b).astype(bool)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency matrices must share a square shape")
    differs = (a != b) | (a.T != b.T)
    return int(np.count_nonzero(np.triu(differs, k=1)))


def evaluate_cases(cases: list[EvaluationCase], k_values: Sequence[int]) -> dict:
    """Compute PR@K and MAP@K for each K plus MRR over all cases."""
    report = {"n_cases": len(cases), "mrr": mrr(cases)}
    for k in k_values:
        report[f"pr@{k}"] = precision_at_k(cases, k)
        report[f"map@{k}"] = map_at_k(cases, k)
    return report


def case_from_files(ranking_path, truth_path) -> EvaluationCase | None:
    """Build a case from an exported ranking JSON and a ground-truth JSON sidecar;
    None when the ground truth names no root cause (no fault was planted).

    root_cause_name must be null or a string naming a ranked entity, and each
    ranking entry must name its entity by a string that no earlier entry names;
    else ValueError names the file and the field.
    """
    root = get_field(read_json_object(truth_path), "root_cause_name", truth_path)
    if root is None:
        return None
    check_type(f"{truth_path} root_cause_name", root, str)
    entries = get_field(read_json_object(ranking_path), "ranking", ranking_path)
    check_type(f"{ranking_path} ranking", entries, list)
    predicted = {}  # the ranked entities, in order: a dict as an ordered set
    for rank, entry in enumerate(entries, start=1):
        check_type(f"{ranking_path} ranking entry {rank}", entry, dict)
        entity = get_field(entry, "entity", f"{ranking_path} ranking entry {rank}")
        check_type(f"{ranking_path} ranking entry {rank} entity", entity, str)
        if entity in predicted:
            raise ValueError(f"{ranking_path} ranking entry {rank} repeats entity {entity!r}")
        predicted[entity] = None
    if root not in predicted:
        raise ValueError(
            f"{truth_path} root_cause_name {root!r} is not an entity that {ranking_path} ranks"
        )
    return EvaluationCase(predicted=list(predicted), truth={root})

