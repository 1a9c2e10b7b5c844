"""End-to-end pipeline wiring with persisted stage artifacts.

The simulate command writes one metric panel to metrics.csv under the name
config["metric_kind"]. The metric panel is the rows of that name averaged
over window_size steps; encode, and learn run alone, build it from there.
Stage order: ingest logs -> score every window with the log encoder's
regression head and place the scores into one series per entity
(encoder.log_series) -> KPI-aware attention -> one structure fit per
modality panel -> fuse -> random walk -> rank -> evaluate, whose one
artifact is metrics_report.json (mmrca evaluate also prints it). Every stage
writes each of its artifacts atomically (atomic.atomic_open: the bytes go to
a .partial file that is renamed onto the final name once complete, so a
failed write leaves the earlier artifact intact and a .partial behind), and
a manifest records the resolved config hash, seed and stage timings.

Every JSON file is written by atomic.write_json, the one place that turns a
payload into JSON text, and loaded by atomic.read_json_object, the one
reader, which names a file that is not one JSON object. Each stage builds
the payload of each JSON artifact it writes, so those schemas live here and
the models return arrays, not files. The two JSON files a stage reads have
checked readers that name a bad field: ground_truth.json's, beside its
writer in simulate (read_ground_truth), and ranking.json's, in metrics
(case_from_files).

run_stages runs every stage with each OpenBLAS library that numpy bundles
set to one thread, and restores the previous counts afterwards. This is a
fixed policy, not an option, for two reasons. The matrices are small (n x n
adjacencies and (p n) x n lag weights with n <= 41, an encoder of width
d_model), so a second thread costs more than it saves. And a product split
across threads sums in another order, so with the library default the
artifacts of the same seed changed with the machine's core count.

Precision is also a fixed policy: the two trained models, the log encoder
(encoder.train_log_encoder) and the structure learner (structure.fit), train
and run in float32. On one thread the encoder is bound by memory traffic and
by numpy's tanh, not by arithmetic, and single precision halves the first
and speeds up the second several times. The learner's epoch is a few lag
products: single precision fits a 41-node panel faster but a 7-node one a
little slower (see structure.py). Everything else, the z-scoring, the
panels, the attention, the fused graph and the random walk, stays in
float64, and so do the artifacts on disk: log_panel.csv and adjacency.json
hold float64 values. The trained parameters are not written.

The log data moves between the stages in columns. Ingest parses the records
into one event array and windows and labels them into a logs.WindowTable,
which it also writes to windows.jsonl, one line per cell; a window without
events holds no template, and its line lists none. Encode makes one call on
that table, encoder.log_series, which tokenizes the cells into one token
table, trains and embeds on its distinct rows, and places the scores into the
log panel in the table's entity-major cell order. When every label is the same it does
none of that and scores each cell 0.5. Panels go to and from disk
through panel.write_panel_csv and panel.read_panel_csv.

Every command runs a contiguous slice of PIPELINE_STAGES through one loop,
run_stages: parse runs ingest, encode runs ingest and encode, learn runs
learn, localize runs learn and localize, evaluate runs evaluate, and
run-pipeline runs all five and then writes the manifest. Within a slice each
stage hands its result in memory to the next: the vocabulary, the window
table and the entity names to encode, the two panels to learn, the two
learned adjacencies and the attention weights to localize. Every stage still
writes all of its artifacts, the same bytes in any slice. A slice starts
from the data directory (ingest), from the one checkpoint log_panel.csv
(learn, which reads it with metrics.csv) or from ranking.json (evaluate,
which reads it with ground_truth.json). log_panel.csv is the one checkpoint
because what it saves is costly: training the encoder takes seconds at the
default config, while learn fits both graphs in a fraction of a second, so
localize fits them again rather than read adjacency.json and attention.json.
No stage reads vocabulary.json, windows.jsonl, encoder_manifest.json,
attention.json, adjacency.json or fused_graph.json back: they are reports.

Every outside input is checked once, where it enters, and a value that the
program computed from checked input is not checked again. load_config and
run_pipeline check each of the 29 settable values against its one row of
_SETTINGS; the config classes of the two models only hold values. The
readers check the files: read_ground_truth, logs.read_logs_jsonl and
logs.parse_templates, panel.read_panel_csv, metrics.case_from_files. The
stages check only what ties the inputs together: the lags against the
incident's horizon (ingest), the log events against the grid
(logs.window_sequences), and, in the one grid check _check_grid, the metric
panel against ingest's entities and windows (encode, before the encoder
trains) and, when learn starts a slice, log_panel.csv against the metric
panel, before the lags. The models take what these checks let through and do
not check their arguments again; a caller that builds its own arguments must
keep to what their docstrings state. Only arithmetic that can overflow on
checked input is still caught where it happens: the two models' divergence
checks.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import dataclasses
import glob
import hashlib
import json
import math
import os
import time

import numpy as np

from . import encoder as encoder_mod
from . import fusion as fusion_mod
from . import logs as logs_mod
from . import metrics as metrics_mod
from . import rca as rca_mod
from . import structure as structure_mod
from .atomic import atomic_open, read_json_object, write_json
from .nn import check_type
from .panel import ModalityPanel, aggregate_windows, read_panel_csv, write_panel_csv
from .simulate import (
    FAULT_TYPES,
    LAG_ORDER,
    generate_incident,
    read_ground_truth,
    sample_scenario,
    write_incident,
)

ENV_DATA_DIR = "MMRCA_DATA_DIR"
ENV_OUT_DIR = "MMRCA_OUT_DIR"
ENV_SEED = "MMRCA_SEED"


def _defaults(config_class) -> dict:
    """The default fields of a config dataclass but a seed, which the global seed sets."""
    fields = dataclasses.asdict(config_class())
    fields.pop("seed", None)
    return fields


DEFAULT_CONFIG: dict = {
    "paths": {"data_dir": "data", "out_dir": "out"},
    "seed": 7,
    "window_size": 1,
    "metric_kind": "cpu",
    "scenario": {
        "n_entities": 6,
        "fault_type": "both",
        "horizon_T": 300,
        "noise_std": 0.05,
        "edge_prob": 0.35,
        "log_lag": 1,
    },
    # the trained models' defaults live in their config classes
    "encoder": _defaults(encoder_mod.EncoderConfig),
    "learner": _defaults(structure_mod.LearnerConfig),
    "fusion": {"edge_threshold": 0.3},
    "rca": {"beta": 0.1, "restart": 0.15, "tol": 1e-10, "max_iter": 10000},
}


class StageError(Exception):
    """A stage failure: the message names the stage, and cause is the exception
    that the command's exit code is chosen by."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage} failed: {cause}")
        self.cause = cause


# --- configuration -----------------------------------------------------------------


def load_config(
    path=None, seed: int | None = None, out_dir: str | None = None, environ=None
) -> dict:
    """Resolve the pipeline config: defaults <- file <- env vars <- CLI flags.

    A file may set only the sections and fields DEFAULT_CONFIG has; any other
    name raises ValueError. Environment variables override only paths and the
    seed. The global seed is the only seed a config sets: the scenario draws
    from it and the encoder from seed+1, so one flag reseeds the whole
    pipeline; the learner draws nothing. Every value is then checked against
    its row of _SETTINGS (_check_config), so a bad value fails here, before
    any stage runs or any directory is made; the messages start with the
    value's dotted key. Only learner.p's fit to the panel length waits for
    the incident or the panels (_check_lags_fit).
    """
    environ = os.environ if environ is None else environ
    config = copy.deepcopy(DEFAULT_CONFIG)
    loaded = read_json_object(path) if path is not None else {}
    # DEFAULT_CONFIG has two levels: settings, and sections of settings
    for key, value in loaded.items():
        if key not in config:
            raise ValueError(f"unknown config key {key!r}")
        if not isinstance(config[key], dict):
            config[key] = value
            continue
        if not isinstance(value, dict):
            raise ValueError(f"config {key} must be a JSON object")
        for field, field_value in value.items():
            if field not in config[key]:
                raise ValueError(f"unknown config key {key + '.' + field!r}")
            config[key][field] = field_value
    if environ.get(ENV_DATA_DIR):
        config["paths"]["data_dir"] = environ[ENV_DATA_DIR]
    if environ.get(ENV_OUT_DIR):
        config["paths"]["out_dir"] = environ[ENV_OUT_DIR]
    if environ.get(ENV_SEED):
        try:
            config["seed"] = int(environ[ENV_SEED])
        except ValueError:
            raise ValueError(f"{ENV_SEED} must be an int; {environ[ENV_SEED]!r} is not") from None
    if seed is not None:
        config["seed"] = seed
    if out_dir is not None:
        config["paths"]["out_dir"] = out_dir

    _check_config(config)
    return config


# Both models train in float32, so a step size or a loss weight beyond its range
# would overflow in the first epoch
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_IN_FLOAT32 = f"at most {_FLOAT32_MAX!r}, float32's largest finite value"

# Every settable value: its dotted key, the test its value must pass and the words
# that describe that test. A key's type is the type of its DEFAULT_CONFIG default:
# an int default takes an int, and a float default any real number, ints
# included, which must also be finite.
_SETTINGS = {
    "paths.data_dir": (bool, "non-empty"),
    "paths.out_dir": (bool, "non-empty"),
    "seed": (lambda v: v >= 0, ">= 0"),
    "window_size": (lambda v: v >= 1, ">= 1"),
    "metric_kind": (bool, "non-empty"),
    "scenario.n_entities": (lambda v: v >= 1, ">= 1"),
    "scenario.fault_type": (lambda v: v in FAULT_TYPES, f"one of {FAULT_TYPES}"),
    "scenario.horizon_T": (lambda v: v >= 4 * LAG_ORDER, f">= {4 * LAG_ORDER}"),
    "scenario.noise_std": (lambda v: v >= 0, "finite and >= 0"),
    "scenario.edge_prob": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "scenario.log_lag": (lambda v: v >= 1, ">= 1"),
    "encoder.d_model": (lambda v: v >= 1, ">= 1"),
    "encoder.n_layers": (lambda v: v >= 1, ">= 1"),
    "encoder.n_heads": (lambda v: v >= 1, ">= 1"),
    # [CLS] and one (template, bucket) pair: below 3 every window is [CLS] alone
    "encoder.max_len": (lambda v: v >= 3, ">= 3"),
    "encoder.lr": (lambda v: 0 < v <= _FLOAT32_MAX, f"positive and {_IN_FLOAT32}"),
    "encoder.epochs": (lambda v: v >= 1, ">= 1"),
    "encoder.freq_buckets": (lambda v: v >= 1, ">= 1"),
    "learner.p": (lambda v: v >= 1, ">= 1"),
    "learner.lambda1": (lambda v: 0 <= v <= _FLOAT32_MAX, f">= 0 and {_IN_FLOAT32}"),
    "learner.lambda5": (lambda v: 0 <= v <= _FLOAT32_MAX, f">= 0 and {_IN_FLOAT32}"),
    "learner.lr": (lambda v: 0 < v <= _FLOAT32_MAX, f"positive and {_IN_FLOAT32}"),
    "learner.epochs": (lambda v: v >= 1, ">= 1"),
    "learner.acyclicity_every": (lambda v: v >= 1, ">= 1"),
    "fusion.edge_threshold": (lambda v: True, "any number"),
    "rca.beta": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "rca.restart": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "rca.tol": (lambda v: v > 0, "positive"),
    "rca.max_iter": (lambda v: v >= 1, ">= 1"),
}


def _setting(config: dict, key: str):
    section, _, field = key.rpartition(".")
    return (config[section] if section else config)[field]


def _check_config(config: dict) -> None:
    """ValueError naming the first key of _SETTINGS whose value has the wrong type, is
    a float that is NaN or infinite, or fails its test; then the one rule across
    keys, that encoder.n_heads divides encoder.d_model."""
    for key, (passes, requirement) in _SETTINGS.items():
        value, kind = _setting(config, key), type(_setting(DEFAULT_CONFIG, key))
        check_type(key, value, kind)
        if kind is float and not -math.inf < value < math.inf:
            raise ValueError(f"{key} must be finite; {value!r} is not")
        if not passes(value):
            raise ValueError(f"{key} must be {requirement}; {value!r} is not")
    d_model, n_heads = config["encoder"]["d_model"], config["encoder"]["n_heads"]
    if d_model % n_heads:
        raise ValueError(
            f"encoder.d_model must be divisible by encoder.n_heads {n_heads}; {d_model} is not"
        )


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def encoder_config_from(config: dict) -> encoder_mod.EncoderConfig:
    return encoder_mod.EncoderConfig(**config["encoder"], seed=config["seed"] + 1)


def learner_config_from(config: dict) -> structure_mod.LearnerConfig:
    return structure_mod.LearnerConfig(**config["learner"])


# --- artifact helpers ----------------------------------------------------------------


def _paths(config: dict) -> dict:
    data_dir = config["paths"]["data_dir"]
    out_dir = config["paths"]["out_dir"]
    return {
        "metrics": os.path.join(data_dir, "metrics.csv"),
        "logs": os.path.join(data_dir, "logs.jsonl"),
        "ground_truth": os.path.join(data_dir, "ground_truth.json"),
        "vocabulary": os.path.join(out_dir, "vocabulary.json"),
        "windows": os.path.join(out_dir, "windows.jsonl"),
        "encoder_manifest": os.path.join(out_dir, "encoder_manifest.json"),
        "log_panel": os.path.join(out_dir, "log_panel.csv"),
        "attention": os.path.join(out_dir, "attention.json"),
        "adjacency": os.path.join(out_dir, "adjacency.json"),
        "fused_graph": os.path.join(out_dir, "fused_graph.json"),
        "ranking": os.path.join(out_dir, "ranking.json"),
        "report": os.path.join(out_dir, "metrics_report.json"),
        "manifest": os.path.join(out_dir, "manifest.json"),
    }


def _read_metric_panel(config: dict) -> ModalityPanel:
    """metrics.csv's rows of config["metric_kind"], averaged over window_size steps."""
    native = read_panel_csv(_paths(config)["metrics"], metric_name=config["metric_kind"])
    return aggregate_windows(native, config["window_size"])


def _check_grid(panel: ModalityPanel, entity_names: list, n_windows: int, path, source) -> None:
    """ValueError naming path unless its panel lists entity_names, in order, over n_windows."""
    if panel.entity_names != entity_names or panel.n_timesteps != n_windows:
        raise ValueError(
            f"{path} must list the entities {entity_names} in that order over {n_windows} "
            f"windows, as {source} does; it lists {panel.entity_names} over {panel.n_timesteps}"
        )


def _check_lags_fit(config: dict, n_windows: int, source: str) -> None:
    """ValueError if learner.p's lags need more than the n_windows windows of source.

    A panel must be at least twice learner.p long, which also keeps the
    attention's lags 0..p below its length. This depends on the incident, so
    load_config cannot check it. A slice checks it where its panels' length is
    first known, before it writes anything: ingest from the incident's
    horizon, learn from log_panel.csv.
    """
    p = config["learner"]["p"]
    if n_windows < 2 * p:
        raise ValueError(
            f"learner.p {p} needs at least {2 * p} windows, more than the {n_windows} "
            f"windows of {source}"
        )


# --- stages ------------------------------------------------------------------------


def stage_simulate(config: dict) -> dict:
    spec = sample_scenario(**config["scenario"], seed=config["seed"])
    dataset = generate_incident(spec)
    return write_incident(dataset, config["paths"]["data_dir"], config["metric_kind"])


def stage_ingest(config: dict) -> tuple:
    """Window and label the logs; write vocabulary.json and windows.jsonl.

    Returns (vocabulary, windows, entity_names), the template list, the
    logs.WindowTable and ground_truth.json's entity names, for the encode stage.
    """
    paths = _paths(config)
    truth = read_ground_truth(paths["ground_truth"])
    n_windows = -(-truth["horizon_T"] // config["window_size"])
    incident = (
        f"the incident (horizon_T {truth['horizon_T']}, window_size {config['window_size']})"
    )
    _check_lags_fit(config, n_windows, incident)
    # read_logs_jsonl decodes a block of lines at a time and parse_templates keeps
    # only each block's events, so the record dicts of the whole file are never
    # alive at once: they would otherwise set the run's peak memory
    records = logs_mod.read_logs_jsonl(paths["logs"])
    vocabulary, events = logs_mod.parse_templates(records)
    windows = logs_mod.window_sequences(
        events, vocabulary, config["window_size"], truth["n_entities"], n_windows
    )
    windows = logs_mod.label_windows(windows, vocabulary)
    write_json(paths["vocabulary"], {str(i): pattern for i, pattern in enumerate(vocabulary)})
    with atomic_open(paths["windows"]) as fh:
        fh.write(logs_mod.windows_to_jsonl(windows))
    return vocabulary, windows, truth["entity_names"]


def stage_encode(config: dict, handed: tuple) -> tuple:
    """Score the log windows (encoder.log_series), write encoder_manifest.json and
    log_panel.csv; return (metric_panel, log_panel).

    handed is ingest's (vocabulary, windows, entity_names).
    """
    paths = _paths(config)
    vocabulary, windows, entity_names = handed
    metric_panel = _read_metric_panel(config)
    # before the encoder trains or encode writes anything
    _check_grid(
        metric_panel, entity_names, windows.n_windows, paths["metrics"], paths["ground_truth"]
    )
    log_panel, training = encoder_mod.log_series(
        windows, len(vocabulary), encoder_config_from(config), metric_panel.kpi, entity_names
    )
    write_json(paths["encoder_manifest"], training)
    write_panel_csv(log_panel, paths["log_panel"], "log_score")
    return metric_panel, log_panel


# the attention scores each modality by its TOP_K strongest entities
TOP_K = 3


def stage_learn(config: dict, handed=None) -> tuple:
    """Fit one lag model per panel; write attention.json and adjacency.json.

    Returns ((A_log, A_metric, node_names), (a_log, a_metric)), the two
    learned adjacencies with their node names and the attention weights.

    handed is encode's (metric_panel, log_panel), which encode built on one
    grid: row i of each is the same entity, and the panels are at least twice
    learner.p steps long. None, when learn starts a slice, builds them from
    metrics.csv and log_panel.csv, which are checked for the same before
    anything is written.
    """
    paths = _paths(config)
    if handed is None:
        metric_panel = _read_metric_panel(config)
        log_panel = read_panel_csv(paths["log_panel"], metric_name="log_score")
        names, n_windows = metric_panel.entity_names, metric_panel.n_timesteps
        _check_grid(log_panel, names, n_windows, paths["log_panel"], paths["metrics"])
        _check_lags_fit(config, log_panel.n_timesteps, paths["log_panel"])
    else:
        metric_panel, log_panel = handed

    # the attention scans the learner's lags 0..p
    max_lag = config["learner"]["p"]
    score_metric = fusion_mod.cross_correlation_scores(metric_panel, max_lag)
    score_log = fusion_mod.cross_correlation_scores(log_panel, max_lag)
    a_log, a_metric = fusion_mod.modality_attention(
        score_log, score_metric, k=min(TOP_K, len(score_log))
    )
    write_json(paths["attention"], {
        "a_log": a_log,
        "a_metric": a_metric,
        "scores_log": score_log.tolist(),
        "scores_metric": score_metric.tolist(),
        "max_lag": max_lag,
        "top_k": TOP_K,
    })

    learner_config = learner_config_from(config)
    fits = {
        "metric": structure_mod.fit(metric_panel, learner_config),
        "log": structure_mod.fit(log_panel, learner_config),
    }
    node_names = metric_panel.node_names
    write_json(paths["adjacency"], {
        "node_names": node_names,
        # every modality's final acyclicity penalty is at most H_TOL
        "converged": all(result.h <= structure_mod.H_TOL for result in fits.values()),
        "final_losses": {
            modality: {key: values[-1] for key, values in result.loss_history.items()}
            for modality, result in fits.items()
        },
        **{f"A_{modality}": result.A.tolist() for modality, result in fits.items()},
        **{f"h_{modality}": result.h for modality, result in fits.items()},
    })
    return (fits["log"].A, fits["metric"].A, node_names), (a_log, a_metric)


def stage_localize(config: dict, handed: tuple) -> None:
    """Fuse the graphs into fused_graph.json and rank the root causes into ranking.json.

    handed is learn's ((A_log, A_metric, node_names), (a_log, a_metric)).
    """
    paths = _paths(config)
    # fuse reads the learner's float32 adjacencies in float64, which gives the
    # values adjacency.json holds
    (a_log, a_metric, node_names), weights = handed
    fused = fusion_mod.fuse(a_log, a_metric, weights)
    write_json(paths["fused_graph"], {
        "a_log": weights[0],
        "a_metric": weights[1],
        "node_names": node_names,
        "adjacency": fused.tolist(),
    })

    transition = rca_mod.transition_matrix(fused, beta=config["rca"]["beta"])
    p0 = np.zeros(len(node_names))
    p0[-1] = 1.0  # restart at the KPI: the walk traces back from the symptom
    walk = rca_mod.rwr(
        transition,
        p0,
        c=config["rca"]["restart"],
        tol=config["rca"]["tol"],
        max_iter=config["rca"]["max_iter"],
    )
    ranked = rca_mod.rank_root_causes(walk.scores, node_names, k=len(node_names) - 1)
    write_json(paths["ranking"], {
        "ranking": [
            {"entity": name, "score": score, "rank": rank}
            for rank, (name, score) in enumerate(ranked.ranking, start=1)
        ],
        "converged": walk.converged,
        "iterations": walk.iterations,
    })


# the report's PR@K and MAP@K cut-offs
K_VALUES = (1, 3, 5)


def stage_evaluate(config: dict) -> dict:
    """Score the ranking against the ground truth into metrics_report.json, the
    stage's one artifact, and return the report. An incident with no planted
    fault has no root cause to score, so its report holds no case."""
    paths = _paths(config)
    case = metrics_mod.case_from_files(paths["ranking"], paths["ground_truth"])
    if case is None:
        report = {"n_cases": 0}
    else:
        report = metrics_mod.evaluate_cases([case], K_VALUES)
    write_json(paths["report"], report)
    return report


PIPELINE_STAGES = (
    ("log_ingest", stage_ingest),
    ("log_encoder", stage_encode),
    ("causal_learner", stage_learn),
    ("rca", stage_localize),
    ("metrics", stage_evaluate),
)


# --- BLAS threads ------------------------------------------------------------------


# (getter, setter) symbol pairs: the scipy-openblas builds that numpy wheels bundle
# prefix the OpenBLAS names, and builds with 64-bit integer indices add a 64_ suffix
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS that numpy bundles.

    numpy is the only BLAS user: mmrca does not import scipy, so the OpenBLAS
    that scipy bundles is never loaded.
    """
    controls = []
    site = os.path.dirname(os.path.dirname(np.__file__))
    for lib in sorted(glob.glob(os.path.join(site, "numpy.libs", "*openblas*"))):
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


def run_stages(config: dict, first: str, last: str) -> tuple:
    """Run the stages of PIPELINE_STAGES from first through last; return (the last
    stage's result, a {"name", "seconds"} timing per stage).

    This one loop serves every command (see the module docstring). Each stage
    runs on one BLAS thread and is handed the previous stage's result, if that
    stage returned one, so a slice reads from disk only what its first stage
    reads. The table is looked up at call time. Any failure of a stage is
    raised as StageError.
    """
    stages = PIPELINE_STAGES
    names = [name for name, _ in stages]
    os.makedirs(config["paths"]["out_dir"], exist_ok=True)
    handed, timings = None, []
    for name, stage in stages[names.index(first) : names.index(last) + 1]:
        start = time.perf_counter()
        try:
            with _one_blas_thread():
                handed = stage(config) if handed is None else stage(config, handed)
        except Exception as exc:
            raise StageError(name, exc) from exc
        timings.append({"name": name, "seconds": time.perf_counter() - start})
    return handed, timings


def run_pipeline(config: dict) -> dict:
    """Run ingest -> encode -> learn -> localize -> evaluate, with a manifest.

    The whole slice of run_stages: of the artifacts this run writes only
    ranking.json is read back, by evaluate, and each artifact has the bytes the
    stage commands write. Only the latest result is held: the log windows are
    freed once encode returns. Callers edit the config that load_config
    returns, so it is checked again: a bad value raises ValueError before
    anything is written.
    """
    _check_config(config)
    _, timings = run_stages(config, PIPELINE_STAGES[0][0], PIPELINE_STAGES[-1][0])
    manifest = {
        "config_hash": config_hash(config),
        "seed": config["seed"],
        "stages": timings,
    }
    write_json(_paths(config)["manifest"], manifest)
    return manifest
