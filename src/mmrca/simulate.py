"""Synthetic incidents with known causal structure and planted root causes.

An incident is one metric panel (a series per entity, with the KPI as the
last row) and a raw log stream. Entity metrics follow a lag-1 linear
structural process along a ground-truth DAG; the KPI is an extra node fed by
the DAG's sink entities. A fault injects a sustained shock at the root-cause
entity (metric faults), a burst of golden-signal log messages propagating
along the DAG (log faults), or both. Faults that are invisible in metrics
still degrade the KPI directly, since the KPI is the symptom that defines
the incident.

All randomness of an incident flows from one generator seeded with spec.seed,
drawn in this order: the scenario (sample_scenario's own generator draws the
DAG and the root cause); the metric panel (edge weights, initial state, noise);
the normal log counts, one Poisson draw per (step, entity), and their message
fields; then the fault burst (its size, offsets and message fields). The log
stream is drawn in bulk, one array per field, after every metric draw, so
changing how logs are drawn never changes metrics.csv or ground_truth.json.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .atomic import atomic_open, read_json_object, write_json
from .nn import check_type, get_field
from .panel import ModalityPanel, write_panel_csv

FAULT_TYPES = ("none", "metric_only", "log_only", "both")

# lag order of the generating process; horizons shorter than 4 lags are rejected
LAG_ORDER = 1

SELF_DECAY = 0.5
EDGE_WEIGHT_RANGE = (0.3, 0.8)
FAULT_ONSET_FRACTION = 0.6
SHOCK_NOISE_MULTIPLIER = 8.0
SHOCK_FLOOR = 1.0
NORMAL_LOG_RATE = 2.0
BURST_RANGE = (10, 30)
BURST_HOP_DECAY = 0.6
BURST_SPREAD = 12


@dataclass
class ScenarioSpec:
    n_entities: int
    ground_truth_dag: np.ndarray
    root_cause: int
    fault_type: str
    horizon_T: int
    noise_std: float
    seed: int
    log_lag: int = 1  # per-hop delay (timesteps) of the log burst propagation

    def __post_init__(self):
        self.ground_truth_dag = np.asarray(self.ground_truth_dag, dtype=int)

    def validate(self) -> None:
        dag = self.ground_truth_dag
        if self.n_entities < 1:
            raise ValueError("n_entities must be positive")
        if dag.shape != (self.n_entities, self.n_entities):
            raise ValueError("ground_truth_dag must be n_entities x n_entities")
        if not np.isin(dag, (0, 1)).all():
            raise ValueError("ground_truth_dag must be binary")
        if np.any(np.diag(dag) != 0):
            raise ValueError("ground_truth_dag must have a zero diagonal")
        if topological_order(dag) is None:
            raise ValueError("ground_truth_dag must be acyclic")
        if not 0 <= self.root_cause < self.n_entities:
            raise ValueError("root_cause must be a valid entity index")
        if self.fault_type not in FAULT_TYPES:
            raise ValueError(f"fault_type must be one of {FAULT_TYPES}")
        if self.horizon_T < 4 * LAG_ORDER:
            raise ValueError(
                f"horizon_T={self.horizon_T} is below 4x the lag order ({4 * LAG_ORDER})"
            )
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if self.log_lag < 1:
            raise ValueError("log_lag must be >= 1")


@dataclass
class IncidentDataset:
    metric_panel: ModalityPanel
    raw_logs: list[dict]
    ground_truth: ScenarioSpec
    kpi_parents: list[int]
    fault_onset: int
    shock_magnitude: float
    generator_matrix: np.ndarray


def topological_order(dag: np.ndarray) -> list[int] | None:
    """Kahn's algorithm; None if the graph has a directed cycle."""
    dag = np.asarray(dag)
    n = dag.shape[0]
    indegree = dag.sum(axis=0).astype(int).copy()
    queue = [i for i in range(n) if indegree[i] == 0]
    order = []
    while queue:
        node = queue.pop(0)
        order.append(node)
        for j in np.flatnonzero(dag[node]):
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(int(j))
    return order if len(order) == n else None


def hop_distances(dag: np.ndarray, source: int) -> dict[int, int]:
    """BFS hop distance from source along DAG edges (source included at 0)."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for j in np.flatnonzero(dag[node]):
                j = int(j)
                if j not in dist:
                    dist[j] = dist[node] + 1
                    nxt.append(j)
        frontier = nxt
    return dist


def kpi_parents(dag: np.ndarray) -> list[int]:
    """Sink entities (no outgoing edges) feed the KPI node."""
    dag = np.asarray(dag)
    return [int(i) for i in range(dag.shape[0]) if dag[i].sum() == 0]


def entity_name(index: int) -> str:
    return f"svc-{index}"


# --- log message templates ---------------------------------------------------

# Each format lists its fields in order: _ENTITY is the record's entity index,
# a (lo, hi) pair a number drawn uniformly from [lo, hi).
_ENTITY = None

_NORMAL_FORMATS = (
    ("GET /api/svc-%d/items took %d ms", (_ENTITY, (1, 500))),
    ("heartbeat ok from svc-%d seq %d", (_ENTITY, (0, 100000))),
    ("connection pool for svc-%d at %d of %d", (_ENTITY, (1, 50), (50, 100))),
    ("request 0x%08x completed with status ok in %d ms", ((0, 2**32), (1, 500))),
    ("cache refresh on svc-%d finished in %d ms entries %d", (_ENTITY, (1, 200), (0, 5000))),
)

_FAULT_FORMATS = (
    ("ERROR request to svc-%d failed with timeout after %d ms", (_ENTITY, (1000, 9000))),
    ("CRITICAL worker %d terminated unexpectedly: out of memory", ((0, 64),)),
    ("WARN retries exhausted calling svc-%d: service unavailable", (_ENTITY,)),
)


def _draw_messages(rng: np.random.Generator, entities: np.ndarray, formats) -> np.ndarray:
    """One message per entry of entities, as an object array of str.

    Draws one array of format choices, then, format by format, one array per
    numeric field for the records that chose it.
    """
    choice = rng.integers(0, len(formats), size=entities.size)
    messages = np.empty(entities.size, dtype=object)
    for k, (fmt, fields) in enumerate(formats):
        rows = np.flatnonzero(choice == k)
        columns = [
            entities[rows].tolist() if field is _ENTITY
            else rng.integers(*field, size=rows.size).tolist()
            for field in fields
        ]
        messages[rows] = [fmt % values for values in zip(*columns)]
    return messages


# --- generation --------------------------------------------------------------

def _generator_matrix(rng: np.random.Generator, dag: np.ndarray, parents: list[int]) -> np.ndarray:
    """Linear map M with x_t = M x_{t-1} over the entities and the KPI (the last node).

    M[effect, cause] carries the edge weight.
    """
    n = dag.shape[0]
    m = np.zeros((n + 1, n + 1))
    np.fill_diagonal(m, SELF_DECAY)
    lo, hi = EDGE_WEIGHT_RANGE
    for i in range(n):
        for j in np.flatnonzero(dag[i]):
            m[int(j), i] = rng.uniform(lo, hi)
    for p in parents:
        m[n, p] = rng.uniform(lo, hi)
    return m


def generate_incident(spec: ScenarioSpec) -> IncidentDataset:
    """Simulate one incident: a metric panel plus a raw log stream.

    Deterministic for a fixed spec (all randomness flows from spec.seed).
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n, t_len = spec.n_entities, spec.horizon_T
    dag = spec.ground_truth_dag
    parents = kpi_parents(dag)
    onset = int(FAULT_ONSET_FRACTION * t_len)
    shock = max(SHOCK_NOISE_MULTIPLIER * spec.noise_std, SHOCK_FLOOR)
    names = [entity_name(i) for i in range(n)]

    metric_fault = spec.fault_type in ("metric_only", "both")
    log_fault = spec.fault_type in ("log_only", "both")

    m = _generator_matrix(rng, dag, parents)
    x = np.zeros((n + 1, t_len))
    x[:, 0] = rng.standard_normal(n + 1)
    noise = spec.noise_std * rng.standard_normal((n + 1, t_len))
    for t in range(1, t_len):
        x[:, t] = m @ x[:, t - 1] + noise[:, t]
        # the shock is exogenous: it enters the root cause's equation from
        # the onset on and propagates through m afterwards
        if metric_fault and t >= onset:
            x[spec.root_cause, t] += shock
    if spec.fault_type == "log_only":
        # metrics stay clean but the symptom must still appear: the KPI
        # degrades after the fault has propagated to its feeding sinks
        x[n, onset + _kpi_delay(dag, spec.root_cause, parents):] += shock

    raw_logs = _generate_logs(rng, spec, onset, log_fault)
    return IncidentDataset(
        metric_panel=ModalityPanel(x, names),
        raw_logs=raw_logs,
        ground_truth=spec,
        kpi_parents=parents,
        fault_onset=onset,
        shock_magnitude=shock,
        generator_matrix=m,
    )


def _kpi_delay(dag: np.ndarray, root: int, parents: list[int]) -> int:
    dist = hop_distances(dag, root)
    return min(dist[p] for p in parents if p in dist) + 1


def _generate_logs(
    rng: np.random.Generator, spec: ScenarioSpec, onset: int, log_fault: bool
) -> list[dict]:
    """The raw log stream, ordered by (ts, entity), normal records before fault
    records at a tie; drawn in bulk after the metric panel's draws."""
    n, t_len = spec.n_entities, spec.horizon_T
    counts = rng.poisson(NORMAL_LOG_RATE, size=(t_len, n))
    # row-major cells: the normal records come out ordered by (ts, entity)
    ts, entity = np.divmod(np.repeat(np.arange(t_len * n), counts.ravel()), n)
    msg = _draw_messages(rng, entity, _NORMAL_FORMATS)
    if log_fault:
        lo, hi = BURST_RANGE
        burst_root = int(rng.integers(lo, hi + 1))
        dist = hop_distances(spec.ground_truth_dag, spec.root_cause)
        reached, hops = np.array(sorted(dist.items())).T
        burst = np.rint(burst_root * BURST_HOP_DECAY**hops).astype(np.int64)
        fault_entity = np.repeat(reached, burst)
        fault_ts = np.repeat(onset + hops * spec.log_lag, burst)
        fault_ts += rng.integers(0, BURST_SPREAD, size=fault_ts.size)
        keep = fault_ts < t_len
        fault_entity, fault_ts = fault_entity[keep], fault_ts[keep]
        fault_msg = _draw_messages(rng, fault_entity, _FAULT_FORMATS)
        ts = np.concatenate([ts, fault_ts])
        entity = np.concatenate([entity, fault_entity])
        msg = np.concatenate([msg, fault_msg])
        order = np.lexsort((entity, ts))  # stable: normal records stay first at a tie
        ts, entity, msg = ts[order], entity[order], msg[order]
    return [
        {"ts": t, "entity": e, "msg": m}
        for t, e, m in zip(ts.tolist(), entity.tolist(), msg.tolist())
    ]


def sample_scenario(
    n_entities: int,
    fault_type: str,
    horizon_T: int,
    noise_std: float,
    seed: int,
    edge_prob: float = 0.35,
    log_lag: int = 1,
) -> ScenarioSpec:
    """Draw a random DAG (upper-triangular under a random order) and plant a root cause.

    The root cause is chosen among entities with at least one outgoing edge
    when any exist, so the fault has somewhere to propagate.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_entities)
    dag = np.zeros((n_entities, n_entities), dtype=int)
    for a in range(n_entities):
        for b in range(a + 1, n_entities):
            if rng.random() < edge_prob:
                dag[order[a], order[b]] = 1
    candidates = [i for i in range(n_entities) if dag[i].sum() > 0]
    if not candidates:
        candidates = list(range(n_entities))
    root = int(candidates[rng.integers(0, len(candidates))])
    return ScenarioSpec(
        n_entities=n_entities,
        ground_truth_dag=dag,
        root_cause=root,
        fault_type=fault_type,
        horizon_T=horizon_T,
        noise_std=noise_std,
        seed=seed,
        log_lag=log_lag,
    )


# --- persistence --------------------------------------------------------------

def write_incident(dataset: IncidentDataset, directory, metric_name: str) -> dict:
    """Write metrics.csv (the metric panel, named metric_name), logs.jsonl and
    ground_truth.json, each atomically; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = {
        "metrics": os.path.join(directory, "metrics.csv"),
        "logs": os.path.join(directory, "logs.jsonl"),
        "ground_truth": os.path.join(directory, "ground_truth.json"),
    }
    write_panel_csv(dataset.metric_panel, paths["metrics"], metric_name)
    # each line is the bytes json.dumps(record, sort_keys=True) gives, formatted directly
    with atomic_open(paths["logs"]) as fh:
        fh.writelines(
            f'{{"entity": {r["entity"]}, "msg": {encode_basestring_ascii(r["msg"])}, "ts": {r["ts"]}}}\n'
            for r in dataset.raw_logs
        )
    write_json(paths["ground_truth"], ground_truth_payload(dataset))
    return paths


def ground_truth_payload(dataset: IncidentDataset) -> dict:
    """ground_truth.json's payload. A "none" incident planted no fault, so its
    root_cause and root_cause_name are null, whatever entity the spec drew."""
    spec, names = dataset.ground_truth, dataset.metric_panel.entity_names
    root = None if spec.fault_type == "none" else spec.root_cause
    return {
        "n_entities": spec.n_entities,
        "entity_names": names,
        "ground_truth_dag": spec.ground_truth_dag.tolist(),
        "root_cause": root,
        "root_cause_name": None if root is None else names[root],
        "fault_type": spec.fault_type,
        "horizon_T": spec.horizon_T,
        "noise_std": spec.noise_std,
        "seed": spec.seed,
        "log_lag": spec.log_lag,
        "kpi_parents": dataset.kpi_parents,
        "fault_onset": dataset.fault_onset,
        "shock_magnitude": dataset.shock_magnitude,
        "generator_matrix": dataset.generator_matrix.tolist(),
    }


def read_ground_truth(path) -> dict:
    """ground_truth.json's payload, with the fields the stages read checked.

    n_entities and horizon_T must be ints >= 1 and entity_names a list of
    n_entities distinct strings; else ValueError names the file and the field.
    """
    truth = read_json_object(path)
    for key in ("n_entities", "horizon_T"):
        check_type(f"{path} {key}", get_field(truth, key, path), int)
        if truth[key] < 1:
            raise ValueError(f"{path} {key} must be >= 1; {truth[key]!r} is not")
    names = get_field(truth, "entity_names", path)
    check_type(f"{path} entity_names", names, list)
    for name in names:
        check_type(f"{path} entity name", name, str)
    if len(names) != truth["n_entities"] or len(set(names)) != len(names):
        raise ValueError(f"{path} entity_names must be {truth['n_entities']} distinct strings")
    return truth
