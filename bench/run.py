"""Benchmark of the mmrca pipeline: cost, memory and ranking accuracy per incident.

Run from the repository root (the benchmark imports mmrca from ./src):

    python3 bench/run.py --workload logs-n6 --seed 0 --seconds 26 --trace 0

Setup imports mmrca and simulates the workload's incidents into
.bench_run/. Each incident then goes once through the public entry
pipeline.run_pipeline(config): untraced with --trace 0, traced with
--trace 1, where spans around each layer's public functions give the
per-layer numbers. Untraced repeats, from the last incident backwards, fill
the rest of --seconds (at least one repeat). Every execution's ranking.json is
checked, and every repeat must hash exactly like the incident's first
execution.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A record of the run (environment, per-incident facts,
hashes, all metrics) and the spans go to .bench_run/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
WORK_ROOT = os.path.join(REPO_ROOT, ".bench_run")

# The default base seed, and one kept back for re-checking a claim on a seed
# that no change was tuned on.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

SETUP_REPS = 3  # setup_s is the median of this many import-and-simulate rounds


@dataclass(frozen=True)
class Workload:
    name: str
    n_entities: int
    fault_types: tuple[str, ...]  # incident i of base seed b gets [(b + i) % len]
    incidents: int
    horizon_T: int = 300
    # one twenty-fifth of the default training budget (150 / 600 epochs,
    # multiplier doubling every 100): small enough that the 40-entity
    # incident and its repeat fit one run, and exact for all three numbers,
    # so the multiplier still climbs to the default schedule's final 32
    encoder_epochs: int = 6
    learner_epochs: int = 24
    acyclicity_every: int = 4


WORKLOADS = {
    # encoder-bound, labels vary: training is useful work
    "logs-n6": Workload("logs-n6", 6, ("both", "log_only"), incidents=6),
    # every window label is 0: encoder training is wasted work, and the log
    # branch carries no signal for the ranking
    "metrics-n6": Workload("metrics-n6", 6, ("metric_only",), incidents=6),
    # n^2 learner, all-window embedding memory and ingest volume grow here.
    # One incident per run fits the time budget, so its fault type fixes the
    # padded window length of all 12,000 windows: log bursts make it 11, 13
    # or 15 tokens by seed, moving time by up to a third and memory by up to
    # 45%. metric_only keeps it at 11, so runs compare; logs-n6 covers log
    # faults.
    "fleet-n40": Workload("fleet-n40", 40, ("metric_only",), incidents=1),
    # exercised by test_smoke.py only; not a BENCHMARK.json workload
    "smoke": Workload(
        "smoke", 3, ("both", "metric_only"), incidents=2, horizon_T=40,
        encoder_epochs=2, learner_epochs=2, acyclicity_every=1,
    ),
}

END_TO_END_UNITS = {"setup_s": "s", "incident_s": "s", "peak_rss_mb": "MB"}

# Spans that sit directly under a pipeline stage, each giving the metric
# <name>_s; together with pipeline.io_s they cover the traced incident time
TOP_LEVEL_SPANS = (
    "logs.parse", "logs.window", "encoder.train", "encoder.embed", "encoder.reduce",
    "panel.read", "panel.write", "panel.aggregate", "fusion.scores", "fusion.fuse",
    "structure.fit", "rca.rwr", "rca.rank", "metrics.evaluate",
)
NESTED_SPANS = (
    "nn.gelu", "nn.gelu_grad", "nn.layer_norm", "nn.layer_norm_backward", "nn.softmax",
    "nn.adam_step", "structure.objective", "structure.expm", "structure.adam_step",
)
STAGE_SPANS = (
    "pipeline.log_ingest", "pipeline.log_encoder", "pipeline.causal_learner", "pipeline.rca",
    "pipeline.metrics",
)

PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in TOP_LEVEL_SPANS + NESTED_SPANS},
    "encoder.epoch_ms": "ms",
    "encoder.embed_peak_mb": "MB",
    "encoder.unique_rows": "count",
    "encoder.windows": "count",
    "encoder.dedup_ratio": "ratio",
    "encoder.constant_label_frac": "ratio",
    "structure.epoch_ms": "ms",
    "structure.h_max": "1",
    "structure.shd": "count",
    "logs.records": "count",
    "logs.templates": "count",
    "fusion.a_log": "ratio",
    "rca.rwr_iterations": "count",
    **{f"{name}_s": "s" for name in STAGE_SPANS},
    "pipeline.io_s": "s",
    "simulate.generate_s": "s",
    "simulate.write_s": "s",
    "trace.incident_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "mrr": "ratio",
    "pr_at_1": "ratio",
    "map_at_3": "ratio",
    "converged_frac": "ratio",
    "error_rate": "ratio",
    "ref.mrr_random": "ratio",
    "ref.mrr_oracle_dag": "ratio",
    "ref.mrr_earliest_anomaly": "ratio",
}

HASHED_ARTIFACTS = ("ranking.json", "adjacency.json")


@dataclass
class Incident:
    id: str
    seed: int
    fault_type: str
    config: dict
    executions: list[dict] = field(default_factory=list)
    facts: dict = field(default_factory=dict)  # read back after the first execution
    references: dict = field(default_factory=dict)  # reference rankings (traced runs)

    @property
    def data_dir(self) -> str:
        return self.config["paths"]["data_dir"]

    @property
    def out_dir(self) -> str:
        return self.config["paths"]["out_dir"]


class BenchmarkError(Exception):
    """The benchmark cannot run here (sources missing or the wrong mmrca found)."""


# --- environment ----------------------------------------------------------------------


def _openblas_threads(packages) -> dict:
    """Thread count of each OpenBLAS copy bundled in the given packages' .libs dirs."""
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    threads = {}
    for package in packages:
        site = os.path.dirname(os.path.dirname(package.__file__))
        for lib in sorted(glob.glob(os.path.join(site, package.__name__ + ".libs", "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for symbol in symbols:
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    threads[package.__name__] = int(fn())
                    break
    return threads


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads((numpy, scipy)) or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
    }


# --- incidents --------------------------------------------------------------------------


def incident_seed(workload: str, base_seed: int, index: int) -> int:
    """A distinct 31-bit seed per (workload, base seed, incident index)."""
    digest = hashlib.sha256(f"{workload}/{base_seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def make_incidents(workload: Workload, base_seed: int, root: str) -> list[Incident]:
    from mmrca import pipeline

    incidents = []
    for i in range(workload.incidents):
        seed = incident_seed(workload.name, base_seed, i)
        fault = workload.fault_types[(base_seed + i) % len(workload.fault_types)]
        config = pipeline.load_config(seed=seed, environ={})
        incident_dir = os.path.join(root, f"incident-{i}")
        config["paths"] = {
            "data_dir": os.path.join(incident_dir, "data"),
            "out_dir": os.path.join(incident_dir, "out"),
        }
        config["scenario"].update(
            n_entities=workload.n_entities, fault_type=fault, horizon_T=workload.horizon_T
        )
        config["encoder"]["epochs"] = workload.encoder_epochs
        config["learner"]["epochs"] = workload.learner_epochs
        config["learner"]["acyclicity_every"] = workload.acyclicity_every
        incidents.append(Incident(f"incident-{seed}", seed, fault, config))
    return incidents


def trace_targets():
    """(owner, attribute, factory) for every patched name, as the caller binds it."""
    from mmrca import encoder, fusion, logs, metrics, pipeline, rca, structure

    def span(name, peak_memory=False):
        return lambda tracer, fn: tracer.wrap(name, fn, peak_memory)

    def adam(name):
        return lambda tracer, cls: type(cls.__name__, (cls,), {"step": tracer.wrap(name, cls.step)})

    def stages(tracer, table):
        return tuple((stage, tracer.wrap(f"pipeline.{stage}", fn)) for stage, fn in table)

    return [
        (pipeline, "run_pipeline", span("pipeline.run")),
        (pipeline, "PIPELINE_STAGES", stages),
        (pipeline, "generate_incident", span("simulate.generate")),
        (pipeline, "write_incident", span("simulate.write")),
        (pipeline, "read_panel_csv", span("panel.read")),
        (pipeline, "write_panel_csv", span("panel.write")),
        (pipeline, "aggregate_windows", span("panel.aggregate")),
        (logs, "read_logs_jsonl", span("logs.parse")),
        (logs, "parse_templates", span("logs.parse")),
        (logs, "window_sequences", span("logs.window")),
        (logs, "label_windows", span("logs.window")),
        (encoder, "train_log_encoder", span("encoder.train")),
        (encoder, "embed_windows", span("encoder.embed", peak_memory=True)),
        (encoder, "reduce_to_series", span("encoder.reduce")),
        (encoder, "gelu", span("nn.gelu")),
        (encoder, "gelu_grad", span("nn.gelu_grad")),
        (encoder, "layer_norm", span("nn.layer_norm")),
        (encoder, "layer_norm_backward", span("nn.layer_norm_backward")),
        (encoder, "softmax", span("nn.softmax")),
        (encoder, "Adam", adam("nn.adam_step")),
        (fusion, "cross_correlation_scores", span("fusion.scores")),
        (fusion, "modality_attention", span("fusion.fuse")),
        (fusion, "fuse", span("fusion.fuse")),
        (structure, "fit", span("structure.fit")),
        (structure, "objective_gradients", span("structure.objective")),
        (structure, "expm", span("structure.expm")),
        (structure, "Adam", adam("structure.adam_step")),
        (rca, "transition_matrix", span("rca.rank")),
        (rca, "rwr", span("rca.rwr")),
        (rca, "rank_root_causes", span("rca.rank")),
        (metrics, "case_from_files", span("metrics.evaluate")),
        (metrics, "evaluate_cases", span("metrics.evaluate")),
    ]


def _tracing(tracer, targets):
    return contextlib.nullcontext() if tracer is None else tracer.installed(targets)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_ranking(ranking: dict, truth: dict) -> list[str]:
    """Problems with one ranking.json: each entity exactly once, every score finite."""
    problems = []
    entries = ranking.get("ranking", [])
    names = [entry.get("entity") for entry in entries]
    if sorted(names, key=str) != sorted(truth["entity_names"]):
        problems.append(f"ranking names {names}, expected each of {truth['entity_names']} once")
    for entry in entries:
        score = entry.get("score")
        if not isinstance(score, (int, float)) or not math.isfinite(score):
            problems.append(f"score {score!r} of {entry.get('entity')} is not finite")
    return problems


def execute(incident: Incident, tracer=None, targets=None) -> dict:
    """Run one incident through pipeline.run_pipeline and check its outputs."""
    from mmrca import pipeline

    shutil.rmtree(incident.out_dir, ignore_errors=True)
    record = {"traced": tracer is not None, "problems": []}
    if tracer is not None:
        tracer.incident = f"{incident.id}/run"
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        with _tracing(tracer, targets):
            pipeline.run_pipeline(incident.config)
    except pipeline.StageError as exc:
        record["problems"].append(str(exc))
    record["wall_s"] = time.perf_counter() - start
    record["cpu_s"] = time.process_time() - start_cpu
    if record["problems"]:
        return record
    out = incident.out_dir
    try:
        ranking = _load_json(os.path.join(out, "ranking.json"))
        truth = _load_json(os.path.join(incident.data_dir, "ground_truth.json"))
        record["problems"] += check_ranking(ranking, truth)
        record["hashes"] = {name: _sha256(os.path.join(out, name)) for name in HASHED_ARTIFACTS}
    except (OSError, ValueError) as exc:
        record["problems"].append(f"unreadable output: {exc}")
    return record


def incident_facts(incident: Incident) -> dict:
    """Counts, diagnostics and the ranking read back from one incident's artifacts."""
    import numpy as np
    from mmrca import metrics

    data, out = incident.data_dir, incident.out_dir
    truth = _load_json(os.path.join(data, "ground_truth.json"))
    ranking = _load_json(os.path.join(out, "ranking.json"))
    adjacency = _load_json(os.path.join(out, "adjacency.json"))
    fused = _load_json(os.path.join(out, "fused_graph.json"))
    with open(os.path.join(out, "windows.jsonl")) as fh:
        labels = [json.loads(line)["label"] for line in fh if line.strip()]
    with open(os.path.join(data, "logs.jsonl")) as fh:
        records = sum(1 for line in fh if line.strip())

    n = truth["n_entities"]
    true_graph = np.zeros((n + 1, n + 1), dtype=int)
    true_graph[:n, :n] = truth["ground_truth_dag"]
    true_graph[truth["kpi_parents"], n] = 1
    threshold = incident.config["fusion"]["edge_threshold"]
    learned_graph = np.asarray(fused["adjacency"]) > threshold
    return {
        "root_cause": truth["root_cause_name"],
        "ranked": [entry["entity"] for entry in ranking["ranking"]],
        "rwr_iterations": ranking["iterations"],
        "converged": bool(adjacency["converged"]),
        "h_max": max(adjacency["h_metric"], adjacency["h_log"]),
        "shd": metrics.structural_hamming(learned_graph, true_graph),
        "a_log": _load_json(os.path.join(out, "attention.json"))["a_log"],
        "windows": len(labels),
        "constant_labels": len(set(labels)) <= 1,
        # an encoder that skips training reports no rows
        "unique_rows": _load_json(os.path.join(out, "encoder_manifest.json"))
        .get("diagnostics", {})
        .get("unique_sequences", 0),
        "templates": len(_load_json(os.path.join(out, "vocabulary.json"))),
        "records": records,
    }


def reference_rankings(incident: Incident) -> dict:
    import reference
    from mmrca.panel import read_panel_csv

    truth = _load_json(os.path.join(incident.data_dir, "ground_truth.json"))
    panel = read_panel_csv(
        os.path.join(incident.data_dir, "metrics.csv"), metric_name=incident.config["metric_kind"]
    )
    return {
        "ref.mrr_oracle_dag": reference.oracle_dag_ranking(truth, incident.config["rca"]),
        "ref.mrr_earliest_anomaly": reference.earliest_anomaly_ranking(
            panel.values, truth["entity_names"]
        ),
    }


def ranking_accuracy(rankings: list[tuple[list[str], str]]) -> dict:
    """MRR, PR@1 and MAP@3 over (ranked names, root cause) pairs, via metrics.evaluate_cases."""
    from mmrca import metrics

    if not rankings:
        return {"mrr": 0.0, "pr_at_1": 0.0, "map_at_3": 0.0}
    cases = [metrics.EvaluationCase(predicted=ranked, truth={root}) for ranked, root in rankings]
    report = metrics.evaluate_cases(cases, [1, 3])
    return {"mrr": report["mrr"], "pr_at_1": report["pr@1"], "map_at_3": report["map@3"]}


# --- the run ----------------------------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import mmrca from this checkout."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
        "import mmrca; print(time.perf_counter() - start)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, SRC_DIR], capture_output=True, text=True, check=True, timeout=120
    )
    return float(proc.stdout)


def setup(incidents: list[Incident], tracer=None, targets=None) -> list[dict]:
    """SETUP_REPS rounds of importing mmrca and simulating and writing every incident."""
    from mmrca import pipeline

    rounds = []
    for _ in range(SETUP_REPS):
        import_s = import_seconds()
        start = time.perf_counter()
        for incident in incidents:
            if tracer is not None:
                tracer.incident = f"{incident.id}/setup"
            with _tracing(tracer, targets):
                pipeline.stage_simulate(incident.config)
        rounds.append({"import_s": import_s, "simulate_s": time.perf_counter() - start})
    return rounds


def layer_metrics(tracer, incidents: list[Incident], workload: Workload) -> dict:
    """Per-incident means of span totals over the traced executions."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    io: dict[str, float] = defaultdict(float)
    peaks: dict[str, int] = defaultdict(int)
    by_id = {s["id"]: s for s in tracer.spans}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        key = span["incident"]
        totals[key][span["name"]] += span["end"] - span["start"]
        if span["name"] == "pipeline.run" or span["name"] in STAGE_SPANS:
            io[key] += self_s
        if "peak_bytes" in span:
            peaks[key] = max(peaks[key], span["peak_bytes"])
        parent = by_id.get(span["parent"])
        if span["name"] in TOP_LEVEL_SPANS and (parent is None or parent["name"] not in STAGE_SPANS):
            raise RuntimeError(f"span {span['name']} is not directly under a pipeline stage")

    traced = [f"{inc.id}/run" for inc in incidents]
    setups = [f"{inc.id}/setup" for inc in incidents]
    out = {}
    for name in TOP_LEVEL_SPANS + NESTED_SPANS:
        out[f"{name}_s"] = _mean(totals[key][name] for key in traced)
    for name in STAGE_SPANS:
        out[f"{name}_s"] = _mean(totals[key][name] for key in traced)
    out["pipeline.io_s"] = _mean(io[key] for key in traced)
    out["trace.incident_s"] = _mean(totals[key]["pipeline.run"] for key in traced)
    out["trace.unaccounted_s"] = out["trace.incident_s"] - out["pipeline.io_s"] - sum(
        out[f"{name}_s"] for name in TOP_LEVEL_SPANS
    )
    for name in ("generate", "write"):
        out[f"simulate.{name}_s"] = (
            _mean(totals[key][f"simulate.{name}"] for key in setups) / SETUP_REPS
        )
    out["encoder.epoch_ms"] = 1000.0 * out["encoder.train_s"] / workload.encoder_epochs
    out["structure.epoch_ms"] = 1000.0 * out["structure.fit_s"] / workload.learner_epochs
    out["encoder.embed_peak_mb"] = max(peaks[key] for key in traced) / 2**20
    trained_on_constant = [
        inc for inc in incidents
        if inc.facts.get("constant_labels") and totals[f"{inc.id}/run"]["encoder.train"] > 0
    ]
    out["encoder.constant_label_frac"] = len(trained_on_constant) / len(incidents)
    return out


def run(workload: Workload, base_seed: int, seconds: float, trace: bool) -> dict:
    """Set up, execute and check the workload; the result plus a full record of the run."""
    from tracer import Tracer

    tag = f"{workload.name}-seed{base_seed}-trace{int(trace)}"
    os.makedirs(WORK_ROOT, exist_ok=True)
    scratch = os.path.join(WORK_ROOT, f"tmp-{tag}-{os.getpid()}")
    tracer = Tracer() if trace else None
    targets = trace_targets() if trace else None
    try:
        incidents = make_incidents(workload, base_seed, scratch)
        setup_rounds = setup(incidents, tracer, targets)
        begin = time.perf_counter()
        # one pass over every incident, traced with --trace 1 ...
        for incident in incidents:
            record = execute(incident, tracer, targets)
            incident.executions.append(record)
            if not record["problems"]:
                try:
                    incident.facts = incident_facts(incident)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    record["problems"].append(f"unreadable artifact: {exc!r}")
                if trace:
                    incident.references = reference_rankings(incident)
        # ... then untraced repeats until --seconds are spent, last incident
        # first: the process's first execution also pays its warm-up, so a
        # traced-minus-untraced pair is fair only for a later incident
        for n in itertools.count():
            incident = incidents[-1 - n % len(incidents)]
            record = execute(incident)
            incident.executions.append(record)
            if time.perf_counter() - begin + record["wall_s"] > seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # every repeat of an incident must reproduce its first execution's artifacts
    for incident in incidents:
        first = incident.executions[0]
        for record in incident.executions[1:]:
            if not record["problems"] and first.get("hashes") != record.get("hashes"):
                record["problems"].append(
                    f"repeated seed {incident.seed} hashed differently: "
                    f"{first.get('hashes')} then {record.get('hashes')}"
                )
                print(f"DETERMINISM FAILURE in {incident.id}: {record['problems'][-1]}",
                      file=sys.stderr)

    records = [r for inc in incidents for r in inc.executions]
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    # mean over incidents, not a median, so that a saving on one fault type
    # of a mixed workload shows
    untraced = {
        inc.id: _mean(r["wall_s"] for r in inc.executions if not r["traced"])
        for inc in incidents
        if any(not r["traced"] for r in inc.executions)
    }
    end_to_end = {
        "setup_s": statistics.median(r["import_s"] + r["simulate_s"] for r in setup_rounds),
        "incident_s": _mean(untraced.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    ok = [inc for inc in incidents if inc.facts]
    facts = [inc.facts for inc in ok]
    layers = {
        **ranking_accuracy([(f["ranked"], f["root_cause"]) for f in facts]),
        "converged_frac": _mean(f["converged"] for f in facts),
        "error_rate": failed / attempted,
    }
    if trace:
        import reference

        layers.update(layer_metrics(tracer, incidents, workload))
        layers["trace.overhead_s"] = _mean(
            inc.executions[0]["wall_s"] - untraced[inc.id] for inc in incidents if inc.id in untraced
        )
        for key in ("unique_rows", "windows"):
            layers[f"encoder.{key}"] = _mean(f[key] for f in facts)
        for key in ("records", "templates"):
            layers[f"logs.{key}"] = _mean(f[key] for f in facts)
        layers["encoder.dedup_ratio"] = layers["encoder.unique_rows"] / max(
            layers["encoder.windows"], 1
        )
        layers["structure.h_max"] = _mean(f["h_max"] for f in facts)
        layers["structure.shd"] = _mean(f["shd"] for f in facts)
        layers["fusion.a_log"] = _mean(f["a_log"] for f in facts)
        layers["rca.rwr_iterations"] = _mean(f["rwr_iterations"] for f in facts)
        layers["ref.mrr_random"] = reference.mrr_random(workload.n_entities)
        for name in ("ref.mrr_oracle_dag", "ref.mrr_earliest_anomaly"):
            layers[name] = ranking_accuracy(
                [(inc.references[name], inc.facts["root_cause"]) for inc in ok]
            )["mrr"]

    record = {
        "workload": asdict(workload),
        "base_seed": base_seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "setup_rounds": setup_rounds,
        "incidents": [
            {
                "id": inc.id,
                "seed": inc.seed,
                "fault_type": inc.fault_type,
                "executions": inc.executions,
                "facts": inc.facts,
            }
            for inc in incidents
        ],
        "end_to_end": end_to_end,
        "per_layer": layers,
    }
    with open(os.path.join(WORK_ROOT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if tracer is not None:
        tracer.write_jsonl(os.path.join(WORK_ROOT, f"{tag}.spans.jsonl"))

    reported = layers if trace else end_to_end
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    missing = set(units) - set(reported)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": unit} for name, unit in units.items()},
        "record": record,
    }


def import_mmrca() -> None:
    """Import mmrca from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC_DIR, "mmrca", "__init__.py")):
        raise BenchmarkError(f"no mmrca sources under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    import mmrca

    if os.path.dirname(os.path.abspath(mmrca.__file__)) != os.path.join(SRC_DIR, "mmrca"):
        raise BenchmarkError(f"imported mmrca from {mmrca.__file__}, not from {SRC_DIR}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"base seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_mmrca()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    record = result.pop("record")
    print("env " + json.dumps(record["environment"], sort_keys=True))
    for inc in record["incidents"]:
        walls = " ".join(f"{e['wall_s']:.3f}" for e in inc["executions"])
        problems = [p for e in inc["executions"] for p in e["problems"]]
        print(f"incident {inc['id']} {inc['fault_type']}: wall_s {walls}"
              + (f" PROBLEMS {problems}" if problems else ""))
    shown = {**record["end_to_end"], **record["per_layer"]}
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    for name, value in shown.items():
        print(f"{name:32s} {value:14.6f} {units[name]}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
