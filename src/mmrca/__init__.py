"""Multi-modal causal structure learning and root cause analysis.

Converts system logs into time series, learns one causal graph from the
metrics and one from the logs, each a sparse linear lag model under an
acyclicity penalty, fuses them with KPI-aware attention, and ranks root-cause
entities by random walk with restart.
"""

from .encoder import (
    EncoderConfig,
    LogSequenceEncoder,
    embed_windows,
    log_series,
    reduce_to_series,
    train_log_encoder,
)
from .fusion import cross_correlation_scores, fuse, modality_attention
from .logs import WindowTable, parse_templates, window_sequences
from .metrics import EvaluationCase, map_at_k, mrr, precision_at_k, structural_hamming
from .panel import ModalityPanel, aggregate_windows
from .rca import RankedRootCauses, rank_root_causes, rwr, transition_matrix
from .simulate import IncidentDataset, ScenarioSpec, generate_incident, sample_scenario
from .structure import LearnerConfig, ModalityFit, acyclicity, fit

__version__ = "0.1.0"

__all__ = [
    "EncoderConfig",
    "EvaluationCase",
    "IncidentDataset",
    "LearnerConfig",
    "LogSequenceEncoder",
    "ModalityFit",
    "ModalityPanel",
    "RankedRootCauses",
    "ScenarioSpec",
    "WindowTable",
    "acyclicity",
    "aggregate_windows",
    "cross_correlation_scores",
    "embed_windows",
    "fit",
    "fuse",
    "generate_incident",
    "log_series",
    "map_at_k",
    "modality_attention",
    "mrr",
    "parse_templates",
    "precision_at_k",
    "rank_root_causes",
    "reduce_to_series",
    "rwr",
    "sample_scenario",
    "structural_hamming",
    "train_log_encoder",
    "transition_matrix",
    "window_sequences",
]
