"""End-to-end pipeline wiring with persisted stage artifacts.

Stage order: ingest logs -> score every window with the log encoder's
regression head and place the scores into one series per entity (when every
window label is the same, the encoder is neither trained nor run over the
windows: its untrained head scores every window 0.5) -> KPI-aware attention ->
joint structure learning -> fuse -> random walk -> rank -> evaluate. Every
stage writes each of its artifacts atomically (atomic.atomic_open: the bytes
go to a .partial file that is renamed onto the final name once complete, so a
failed write leaves the earlier artifact intact and a .partial behind), and a
manifest records the resolved config hash, seed and stage timings.

Every stage runs through run_stage, which sets each OpenBLAS library that
numpy and scipy bundle to one thread for the stage and restores the previous
counts afterwards. This is a fixed policy, not an option, for two reasons.
The matrices are tiny (n x n adjacencies with n <= 41, 16-wide hidden
layers), so a second thread costs more than it saves: at n=41 with 24
learner epochs, structure.fit took 5.36 s on 2 OpenBLAS threads (burning
9.4 s of CPU) and 3.38 s on one, and scipy's expm was 11x slower on two
threads. And a product split across threads sums in another order, so with
the library default the artifacts of the same seed changed with the
machine's core count.

Precision is also a fixed policy: the two trained models, the log encoder
(encoder.train_log_encoder) and the structure learner (structure.fit), train
and run in float32, because on one thread both are bound by memory traffic
and by numpy's tanh, not by arithmetic, and single precision halves the
first and speeds up the second several times. Everything else, the
z-scoring, the panels, the attention, the fused graph and the random walk,
stays in float64, and so do the artifacts on disk: log_panel.csv and
adjacency.json hold float64 values, while encoder.npz and structure.npz hold
the trained float32 parameters (the untrained encoder of a constant-label
incident stays float64). The encode stage tokenizes each window once and
hands the same token sequences to training and to embedding.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import time

import numpy as np
import scipy

from . import encoder as encoder_mod
from . import fusion as fusion_mod
from . import logs as logs_mod
from . import metrics as metrics_mod
from . import rca as rca_mod
from . import structure as structure_mod
from .atomic import atomic_open
from .panel import aggregate_windows, read_panel_csv, write_panel_csv
from .simulate import (
    ScenarioSpec,
    generate_incident,
    read_ground_truth,
    sample_scenario,
    write_incident,
)

ENV_DATA_DIR = "MMRCA_DATA_DIR"
ENV_OUT_DIR = "MMRCA_OUT_DIR"
ENV_SEED = "MMRCA_SEED"


def _defaults(config_class) -> dict:
    """The default fields of a config dataclass, with the seed left to the global seed."""
    return dict(dataclasses.asdict(config_class()), seed=None)


DEFAULT_CONFIG: dict = {
    "paths": {"data_dir": "data", "out_dir": "out"},
    "seed": 7,
    "window_size": 1,
    "metric_kind": None,
    "scenario": {
        "n_entities": 6,
        "fault_type": "both",
        "horizon_T": 300,
        "noise_std": 0.05,
        "edge_prob": 0.35,
        "metric_kinds": ["cpu"],
        "log_lag": 1,
        "dag": None,
        "root_cause": None,
        "seed": None,
    },
    # the trained models' defaults live in their config classes
    "encoder": _defaults(encoder_mod.EncoderConfig),
    "learner": _defaults(structure_mod.LearnerConfig),
    "fusion": {"max_lag": None, "top_k": 3, "edge_threshold": 0.3},
    "rca": {"beta": 0.1, "restart": 0.15, "tol": 1e-10, "max_iter": 10000},
    "evaluation": {"k_values": [1, 3, 5]},
}


class StageError(Exception):
    """Wraps a stage failure with the stage name for error routing."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage
        self.cause = cause


# --- configuration -----------------------------------------------------------------


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if key in merged and isinstance(merged[key], dict) and isinstance(value, dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _reject_unknown_keys(override, defaults: dict, prefix: str = "") -> None:
    """ValueError naming the first section or field of override that defaults lacks."""
    if not isinstance(override, dict):
        raise ValueError(f"config {prefix.rstrip('.') or 'file'} must be a JSON object")
    for key, value in override.items():
        if key not in defaults:
            raise ValueError(f"unknown config key {prefix + key!r}")
        if isinstance(defaults[key], dict):
            _reject_unknown_keys(value, defaults[key], f"{prefix}{key}.")


def load_config(
    path=None, seed: int | None = None, out_dir: str | None = None, environ=None
) -> dict:
    """Resolve the pipeline config: defaults <- file <- env vars <- CLI flags.

    A file may set only the sections and fields DEFAULT_CONFIG has; any other
    name raises ValueError. Environment variables override only paths and the
    seed. Component seeds left null derive from the global seed (scenario:
    seed, encoder: seed+1, learner: seed+2) so one flag reseeds the whole
    pipeline.
    """
    environ = os.environ if environ is None else environ
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            loaded = json.load(fh)
        _reject_unknown_keys(loaded, DEFAULT_CONFIG)
        config = _deep_merge(config, loaded)
    if environ.get(ENV_DATA_DIR):
        config["paths"]["data_dir"] = environ[ENV_DATA_DIR]
    if environ.get(ENV_OUT_DIR):
        config["paths"]["out_dir"] = environ[ENV_OUT_DIR]
    if environ.get(ENV_SEED):
        config["seed"] = int(environ[ENV_SEED])
    if seed is not None:
        config["seed"] = seed
    if out_dir is not None:
        config["paths"]["out_dir"] = out_dir

    base_seed = int(config["seed"])
    if config["scenario"].get("seed") is None:
        config["scenario"]["seed"] = base_seed
    if config["encoder"].get("seed") is None:
        config["encoder"]["seed"] = base_seed + 1
    if config["learner"].get("seed") is None:
        config["learner"]["seed"] = base_seed + 2
    if config.get("metric_kind") is None:
        config["metric_kind"] = config["scenario"]["metric_kinds"][0]
    if config["fusion"].get("max_lag") is None:
        config["fusion"]["max_lag"] = config["learner"]["p"]
    return config


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def scenario_from_config(config: dict) -> ScenarioSpec:
    sc = config["scenario"]
    if sc.get("dag") is not None:
        if sc.get("root_cause") is None:
            raise ValueError("an explicit dag requires an explicit root_cause")
        return ScenarioSpec(
            n_entities=sc["n_entities"],
            ground_truth_dag=np.asarray(sc["dag"], dtype=int),
            root_cause=sc["root_cause"],
            fault_type=sc["fault_type"],
            horizon_T=sc["horizon_T"],
            noise_std=sc["noise_std"],
            seed=sc["seed"],
            metric_kinds=tuple(sc["metric_kinds"]),
            log_lag=sc["log_lag"],
        )
    return sample_scenario(
        n_entities=sc["n_entities"],
        fault_type=sc["fault_type"],
        horizon_T=sc["horizon_T"],
        noise_std=sc["noise_std"],
        seed=sc["seed"],
        edge_prob=sc["edge_prob"],
        metric_kinds=tuple(sc["metric_kinds"]),
        log_lag=sc["log_lag"],
    )


def encoder_config_from(config: dict) -> encoder_mod.EncoderConfig:
    return encoder_mod.EncoderConfig(**config["encoder"])


def learner_config_from(config: dict) -> structure_mod.LearnerConfig:
    return structure_mod.LearnerConfig(**config["learner"])


# --- artifact helpers ----------------------------------------------------------------


def _write_text(path: str, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _paths(config: dict) -> dict:
    data_dir = config["paths"]["data_dir"]
    out_dir = config["paths"]["out_dir"]
    return {
        "metrics": os.path.join(data_dir, "metrics.csv"),
        "logs": os.path.join(data_dir, "logs.jsonl"),
        "ground_truth": os.path.join(data_dir, "ground_truth.json"),
        "vocabulary": os.path.join(out_dir, "vocabulary.json"),
        "windows": os.path.join(out_dir, "windows.jsonl"),
        "encoder": os.path.join(out_dir, "encoder.npz"),
        "encoder_manifest": os.path.join(out_dir, "encoder_manifest.json"),
        "log_panel": os.path.join(out_dir, "log_panel.csv"),
        "metric_panel": os.path.join(out_dir, "metric_panel.csv"),
        "attention": os.path.join(out_dir, "attention.json"),
        "structure": os.path.join(out_dir, "structure.npz"),
        "adjacency": os.path.join(out_dir, "adjacency.json"),
        "fused_graph": os.path.join(out_dir, "fused_graph.json"),
        "fused_dot": os.path.join(out_dir, "fused_graph.dot"),
        "ranking": os.path.join(out_dir, "ranking.json"),
        "report": os.path.join(out_dir, "metrics_report.json"),
        "report_txt": os.path.join(out_dir, "metrics_report.txt"),
        "manifest": os.path.join(out_dir, "manifest.json"),
    }


def _n_windows(horizon: int, window_size: int) -> int:
    return -(-horizon // window_size)


# --- stages ------------------------------------------------------------------------


def stage_simulate(config: dict) -> dict:
    spec = scenario_from_config(config)
    dataset = generate_incident(spec)
    return write_incident(dataset, config["paths"]["data_dir"])


def stage_ingest(config: dict) -> None:
    paths = _paths(config)
    os.makedirs(config["paths"]["out_dir"], exist_ok=True)
    records = logs_mod.read_logs_jsonl(paths["logs"])
    truth = read_ground_truth(paths["ground_truth"])
    vocabulary, events = logs_mod.parse_templates(records)
    windows = logs_mod.window_sequences(
        events,
        vocabulary,
        window_size=config["window_size"],
        n_entities=truth["n_entities"],
        n_windows=_n_windows(truth["horizon_T"], config["window_size"]),
    )
    logs_mod.label_windows(windows, vocabulary)
    _write_text(paths["vocabulary"], logs_mod.vocabulary_to_json(vocabulary))
    _write_text(paths["windows"], logs_mod.windows_to_jsonl(windows))


def stage_encode(config: dict) -> None:
    paths = _paths(config)
    with open(paths["vocabulary"]) as fh:
        vocabulary = logs_mod.vocabulary_from_json(fh.read())
    with open(paths["windows"]) as fh:
        windows = logs_mod.windows_from_jsonl(fh.read())
    truth = read_ground_truth(paths["ground_truth"])

    enc_config = encoder_config_from(config)
    tokenizer = encoder_mod.LogTokenizer(len(vocabulary), enc_config)
    sequences = [tokenizer.tokenize(w) for w in windows]
    labels = [w.label for w in windows]
    if len(set(labels)) > 1:
        encoder = encoder_mod.train_log_encoder(sequences, labels, enc_config, len(vocabulary))
        cls = encoder_mod.embed_windows(encoder, sequences)
    else:
        # one label value leaves nothing to regress: the untrained head's zero
        # weights score any [CLS] state 0.5, so the transformer need not run
        encoder = encoder_mod.LogSequenceEncoder(enc_config, len(vocabulary))
        _, encoder.diagnostics = encoder_mod.group_windows(sequences, labels)
        cls = np.zeros((len(windows), enc_config.d_model))
    scores = encoder.score(cls)

    metric_native = read_panel_csv(paths["metrics"], metric_name=config["metric_kind"])
    metric_panel = aggregate_windows(metric_native, config["window_size"])
    panel = encoder_mod.reduce_to_series(
        scores,
        [(w.entity, w.window_index) for w in windows],
        n_entities=truth["n_entities"],
        kpi=metric_panel.kpi,
        entity_names=truth["entity_names"],
    )
    encoder_mod.save_encoder(encoder, paths["encoder"], paths["encoder_manifest"], vocabulary)
    write_panel_csv(panel, paths["log_panel"], "log_score")
    write_panel_csv(metric_panel, paths["metric_panel"], config["metric_kind"])


def stage_learn(config: dict) -> None:
    paths = _paths(config)
    metric_panel = read_panel_csv(paths["metric_panel"], metric_name=config["metric_kind"])
    log_panel = read_panel_csv(paths["log_panel"], metric_name="log_score")

    max_lag = config["fusion"]["max_lag"]
    score_metric = fusion_mod.cross_correlation_scores(metric_panel, max_lag, "metric")
    score_log = fusion_mod.cross_correlation_scores(log_panel, max_lag, "log")
    a_log, a_metric = fusion_mod.modality_attention(
        score_log, score_metric, k=min(config["fusion"]["top_k"], len(score_log.scores))
    )
    _write_text(
        paths["attention"],
        json.dumps(
            {
                "a_log": a_log,
                "a_metric": a_metric,
                "scores_log": score_log.scores.tolist(),
                "scores_metric": score_metric.scores.tolist(),
                "max_lag": max_lag,
                "top_k": config["fusion"]["top_k"],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )

    learner_config = learner_config_from(config)
    structure = structure_mod.fit(metric_panel, log_panel, (a_log, a_metric), learner_config)
    structure_mod.save_structure(structure, paths["structure"])
    _write_text(paths["adjacency"], structure_mod.structure_to_adjacency_json(structure))


def stage_localize(config: dict) -> None:
    paths = _paths(config)
    with open(paths["adjacency"]) as fh:
        adjacency = json.load(fh)
    with open(paths["attention"]) as fh:
        attention = json.load(fh)
    truth = read_ground_truth(paths["ground_truth"])

    graph = fusion_mod.fuse(
        np.asarray(adjacency["A_log"]),
        np.asarray(adjacency["A_metric"]),
        (attention["a_log"], attention["a_metric"]),
        adjacency["node_names"],
    )
    _write_text(paths["fused_graph"], fusion_mod.graph_to_json(graph))
    _write_text(
        paths["fused_dot"],
        fusion_mod.graph_to_dot(graph, threshold=config["fusion"]["edge_threshold"]),
    )

    transition = rca_mod.transition_matrix(graph.adjacency, beta=config["rca"]["beta"])
    p0 = np.zeros(len(graph.node_names))
    p0[-1] = 1.0  # restart at the KPI: the walk traces back from the symptom
    result = rca_mod.rwr(
        transition,
        p0,
        c=config["rca"]["restart"],
        tol=config["rca"]["tol"],
        max_iter=config["rca"]["max_iter"],
    )
    ranked = rca_mod.rank_root_causes(
        result.scores,
        graph.node_names,
        k=len(graph.node_names) - 1,
        converged=result.converged,
        iterations=result.iterations,
    )
    incident_id = f"incident-{truth['seed']}"
    _write_text(paths["ranking"], rca_mod.ranking_to_json(ranked, incident_id))


def stage_evaluate(config: dict) -> dict:
    paths = _paths(config)
    case = metrics_mod.case_from_files(paths["ranking"], paths["ground_truth"])
    report = metrics_mod.evaluate_cases([case], config["evaluation"]["k_values"])
    _write_text(paths["report"], json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_text(paths["report_txt"], metrics_mod.format_report(report))
    return report


PIPELINE_STAGES = (
    ("log_ingest", stage_ingest),
    ("log_encoder", stage_encode),
    ("causal_learner", stage_learn),
    ("rca", stage_localize),
    ("metrics", stage_evaluate),
)


# --- BLAS threads ------------------------------------------------------------------


# (getter, setter) symbol pairs: scipy-openblas builds prefix the OpenBLAS names,
# and builds with 64-bit integer indices add a 64_ suffix
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS that numpy and scipy bundle."""
    controls = []
    for package in (np, scipy):
        site = os.path.dirname(os.path.dirname(package.__file__))
        for lib in sorted(glob.glob(os.path.join(site, package.__name__ + ".libs", "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for get_name, set_name in _OPENBLAS_SYMBOLS:
                get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
                    break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every bundled OpenBLAS on one thread; restore the counts after."""
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def run_stage(name: str, config: dict):
    """Run the stage called name in PIPELINE_STAGES on one BLAS thread; return its result.

    The stage is looked up at call time. Any failure is raised as StageError.
    """
    stage = dict(PIPELINE_STAGES)[name]
    try:
        with _one_blas_thread():
            return stage(config)
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_pipeline(config: dict) -> dict:
    """Run ingest -> encode -> learn -> localize -> evaluate, with a manifest."""
    paths = _paths(config)
    os.makedirs(config["paths"]["out_dir"], exist_ok=True)
    timings = []
    for name, _ in PIPELINE_STAGES:
        start = time.perf_counter()
        run_stage(name, config)
        timings.append({"name": name, "seconds": time.perf_counter() - start})
    manifest = {
        "config_hash": config_hash(config),
        "seed": config["seed"],
        "stages": timings,
    }
    _write_text(paths["manifest"], json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
