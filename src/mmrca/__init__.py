"""Multi-modal causal structure learning and root cause analysis.

Converts system logs into time series, co-learns per-modality causal graphs
from metrics and logs under contrastive and acyclicity constraints, fuses
them with KPI-aware attention, and ranks root-cause entities by random walk
with restart.
"""

from .encoder import (
    EncoderConfig,
    LogSequenceEncoder,
    LogTokenizer,
    TokenSequence,
    embed_windows,
    reduce_to_series,
    train_log_encoder,
)
from .fusion import (
    FusedCausalGraph,
    ModalityScore,
    cross_correlation_scores,
    fuse,
    modality_attention,
)
from .logs import (
    LogSequenceWindow,
    LogTemplate,
    label_anomaly,
    parse_templates,
    window_sequences,
)
from .metrics import EvaluationCase, map_at_k, mrr, precision_at_k, structural_hamming
from .panel import ModalityPanel, aggregate_windows
from .rca import RankedRootCauses, rank_root_causes, rwr, transition_matrix
from .simulate import IncidentDataset, ScenarioSpec, generate_incident, sample_scenario
from .structure import (
    LaggedBatch,
    LearnedStructure,
    LearnerConfig,
    acyclicity,
    build_lagged,
    encode,
    fit,
    loss_edge,
    loss_node,
    loss_orth,
    loss_var,
)

__version__ = "0.1.0"

__all__ = [
    "EncoderConfig",
    "EvaluationCase",
    "FusedCausalGraph",
    "IncidentDataset",
    "LaggedBatch",
    "LearnedStructure",
    "LearnerConfig",
    "LogSequenceEncoder",
    "LogSequenceWindow",
    "LogTemplate",
    "LogTokenizer",
    "ModalityPanel",
    "ModalityScore",
    "RankedRootCauses",
    "ScenarioSpec",
    "TokenSequence",
    "acyclicity",
    "aggregate_windows",
    "build_lagged",
    "cross_correlation_scores",
    "embed_windows",
    "encode",
    "fit",
    "fuse",
    "generate_incident",
    "label_anomaly",
    "loss_edge",
    "loss_node",
    "loss_orth",
    "loss_var",
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
