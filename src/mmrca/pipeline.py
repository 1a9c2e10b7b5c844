"""End-to-end pipeline wiring with persisted stage artifacts.

Stage order: ingest logs -> train the log encoder and reduce to a series ->
KPI-aware attention -> joint structure learning -> fuse -> random walk ->
rank -> evaluate. Every stage writes its artifact (atomically: a .partial
file is renamed on success, so failures leave a .partial behind) and a
manifest records the resolved config hash, seed and stage timings.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import time
from types import SimpleNamespace

import numpy as np

from . import encoder as encoder_mod
from . import fusion as fusion_mod
from . import logs as logs_mod
from . import metrics as metrics_mod
from . import rca as rca_mod
from . import structure as structure_mod
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
    "encoder": {
        "d_model": 64,
        "n_layers": 2,
        "n_heads": 4,
        "max_len": 128,
        "lr": 0.03,
        "epochs": 150,
        "freq_buckets": 16,
        "seed": None,
    },
    "learner": {
        "p": 3,
        "d1": 16,
        "d2": 16,
        "lambda1": 50.0,
        "lambda2": 1.0,
        "lambda3": 20.0,
        "lambda4": 20.0,
        "lambda5": 0.1,
        "lr": 0.02,
        "epochs": 600,
        "seed": None,
        "temperature": 0.5,
        "contrastive_mode": "infonce",
        "acyclicity_base": 1.0,
        "acyclicity_factor": 2.0,
        "acyclicity_every": 100,
        "h_tol": 1e-3,
        "standardize": True,
    },
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
    partial = path + ".partial"
    with open(partial, "w") as fh:
        fh.write(text)
    os.replace(partial, path)


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
    trained = encoder_mod.train_log_encoder(windows, enc_config, vocab_size=len(vocabulary))
    embeddings = encoder_mod.embed_windows(trained, windows)

    metric_native = read_panel_csv(paths["metrics"], metric_name=config["metric_kind"])
    metric_panel = aggregate_windows(metric_native, config["window_size"])
    labels = np.array([w.label for w in windows])
    panel, pca = encoder_mod.reduce_to_series(
        embeddings,
        [(w.entity, w.window_index) for w in windows],
        n_entities=truth["n_entities"],
        kpi=metric_panel.kpi,
        labels=labels,
        entity_names=truth["entity_names"],
        return_projection=True,
    )
    encoder_mod.save_encoder(trained, paths["encoder"], paths["encoder_manifest"], vocabulary, pca)
    write_panel_csv(panel, paths["log_panel"], "log_pc1")


def stage_learn(config: dict) -> None:
    paths = _paths(config)
    metric_native = read_panel_csv(paths["metrics"], metric_name=config["metric_kind"])
    metric_panel = aggregate_windows(metric_native, config["window_size"])
    log_panel = read_panel_csv(paths["log_panel"], metric_name="log_pc1")

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
    write_panel_csv(metric_panel, paths["metric_panel"], config["metric_kind"])
    structure_mod.save_structure(structure, paths["structure"])
    _write_text(paths["adjacency"], structure_mod.structure_to_adjacency_json(structure))


def stage_localize(config: dict) -> None:
    paths = _paths(config)
    with open(paths["adjacency"]) as fh:
        adjacency = json.load(fh)
    with open(paths["attention"]) as fh:
        attention = json.load(fh)
    truth = read_ground_truth(paths["ground_truth"])

    mats = SimpleNamespace(
        A_metric=np.asarray(adjacency["A_metric"]), A_log=np.asarray(adjacency["A_log"])
    )
    graph = fusion_mod.fuse(
        mats, (attention["a_log"], attention["a_metric"]), adjacency["node_names"]
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


def run_pipeline(config: dict) -> dict:
    """Run ingest -> encode -> learn -> localize -> evaluate, with a manifest."""
    paths = _paths(config)
    os.makedirs(config["paths"]["out_dir"], exist_ok=True)
    timings = []
    for name, stage in PIPELINE_STAGES:
        start = time.perf_counter()
        try:
            stage(config)
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc
        timings.append({"name": name, "seconds": time.perf_counter() - start})
    manifest = {
        "config_hash": config_hash(config),
        "seed": config["seed"],
        "stages": timings,
    }
    _write_text(paths["manifest"], json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
