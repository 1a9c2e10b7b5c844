import json
import re

import numpy as np
import pytest

from mmrca import simulate
from mmrca.logs import DEFAULT_GOLDEN_SIGNALS
from mmrca.panel import read_panel_csv
from mmrca.simulate import (
    FAULT_TYPES,
    IncidentDataset,
    ScenarioSpec,
    generate_incident,
    ground_truth_payload,
    kpi_parents,
    read_ground_truth,
    sample_scenario,
    topological_order,
    write_incident,
)

CHAIN = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def chain_spec(**overrides):
    base = dict(
        n_entities=3,
        ground_truth_dag=CHAIN,
        root_cause=0,
        fault_type="both",
        horizon_T=120,
        noise_std=0.05,
        seed=5,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def contains_golden_signal(message: str) -> bool:
    low = message.lower()
    return any(s in low for s in DEFAULT_GOLDEN_SIGNALS)


class TestScenarioValidation:
    def test_cyclic_dag_rejected(self):
        cyclic = np.array([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="acyclic"):
            chain_spec(n_entities=2, ground_truth_dag=cyclic, root_cause=0).validate()

    def test_topological_order_oracle(self):
        assert topological_order(CHAIN) == [0, 1, 2]
        assert topological_order(np.array([[0, 1], [1, 0]])) is None

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon_T"):
            chain_spec(horizon_T=3).validate()

    def test_bad_root_rejected(self):
        with pytest.raises(ValueError, match="root_cause"):
            chain_spec(root_cause=7).validate()

    def test_bad_fault_type_rejected(self):
        with pytest.raises(ValueError, match="fault_type"):
            chain_spec(fault_type="weird").validate()

    def test_sampled_scenarios_are_acyclic(self):
        for seed in range(100):
            spec = sample_scenario(6, "both", 40, 0.1, seed=seed)
            assert topological_order(spec.ground_truth_dag) is not None
            spec.validate()


class TestNoiselessPropagation:
    def test_kpi_is_exact_linear_propagation(self):
        spec = chain_spec(noise_std=0.0, fault_type="none")
        ds = generate_incident(spec)
        x = ds.metric_panel.values
        m = ds.generator_matrix
        for t in range(1, spec.horizon_T):
            assert np.allclose(x[:, t], m @ x[:, t - 1], atol=1e-12)

    def test_zero_residual_under_true_weights(self):
        spec = chain_spec(noise_std=0.0, fault_type="none")
        ds = generate_incident(spec)
        x = ds.metric_panel.values
        m = ds.generator_matrix
        residual = x[:, 1:] - m @ x[:, :-1]
        assert np.abs(residual).max() < 1e-12


class TestFaultSignatures:
    def test_metric_only_has_no_golden_logs_and_visible_shock(self):
        spec = chain_spec(fault_type="metric_only", seed=9)
        ds = generate_incident(spec)
        assert not any(contains_golden_signal(r["msg"]) for r in ds.raw_logs)
        row = ds.metric_panel.values[spec.root_cause]
        pre = row[: ds.fault_onset]
        assert row.max() - pre.mean() >= 5.0 * pre.std()

    def test_log_only_has_no_entity_metric_shock(self):
        spec = chain_spec(fault_type="log_only", seed=9)
        clean = generate_incident(chain_spec(fault_type="none", seed=9))
        faulty = generate_incident(spec)
        # entity rows identical to the fault-free run; only the KPI deviates
        assert np.allclose(
            clean.metric_panel.values[:-1], faulty.metric_panel.values[:-1]
        )
        assert not np.allclose(
            clean.metric_panel.values[-1], faulty.metric_panel.values[-1]
        )
        assert any(contains_golden_signal(r["msg"]) for r in faulty.raw_logs)

    def test_log_fault_burst_near_root(self):
        spec = chain_spec(fault_type="both", seed=10)
        ds = generate_incident(spec)
        golden = [r for r in ds.raw_logs if contains_golden_signal(r["msg"])]
        assert golden, "log fault must emit golden-signal messages"
        at_root = [r for r in golden if r["entity"] == spec.root_cause]
        assert 10 <= len(at_root) <= 30
        assert all(r["ts"] >= ds.fault_onset for r in golden)

    def test_none_fault_has_neither(self):
        ds = generate_incident(chain_spec(fault_type="none", noise_std=0.1))
        assert not any(contains_golden_signal(r["msg"]) for r in ds.raw_logs)


class TestNoFault:
    def test_the_ground_truth_names_no_root_cause(self, tmp_path):
        ds = generate_incident(chain_spec(fault_type="none"))
        truth = read_ground_truth(write_incident(ds, tmp_path / "inc", "cpu")["ground_truth"])
        assert truth["fault_type"] == "none"
        assert truth["root_cause"] is None and truth["root_cause_name"] is None

    @pytest.mark.parametrize("seed", range(10))
    def test_the_scenario_draws_do_not_depend_on_the_fault_type(self, seed):
        first, *rest = [sample_scenario(6, fault, 40, 0.1, seed=seed) for fault in FAULT_TYPES]
        for spec in rest:
            assert np.array_equal(spec.ground_truth_dag, first.ground_truth_dag)
            assert spec.root_cause == first.root_cause


class TestDeterminismAndShapes:
    @pytest.mark.parametrize("fault_type", FAULT_TYPES)
    def test_identical_specs_give_identical_datasets(self, tmp_path, fault_type):
        a = generate_incident(chain_spec(seed=42, fault_type=fault_type))
        b = generate_incident(chain_spec(seed=42, fault_type=fault_type))
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_incident(a, dir_a, "cpu")
        write_incident(b, dir_b, "cpu")
        for name in ("metrics.csv", "logs.jsonl", "ground_truth.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    @pytest.mark.parametrize("fault_type", FAULT_TYPES)
    def test_the_log_draws_cannot_move_the_metrics(self, monkeypatch, fault_type):
        spec = sample_scenario(6, fault_type, 120, 0.1, seed=4)
        runs = []
        for rate in (2.0, 0.5):
            monkeypatch.setattr(simulate, "NORMAL_LOG_RATE", rate)
            runs.append(generate_incident(spec))
        dense, sparse = runs
        assert len(sparse.raw_logs) < len(dense.raw_logs)
        assert np.array_equal(dense.metric_panel.values, sparse.metric_panel.values)
        assert np.array_equal(dense.generator_matrix, sparse.generator_matrix)
        assert ground_truth_payload(dense) == ground_truth_payload(sparse)

    def test_different_seeds_differ(self):
        a = generate_incident(chain_spec(seed=1))
        b = generate_incident(chain_spec(seed=2))
        assert not np.allclose(a.metric_panel.values, b.metric_panel.values)

    def test_panel_shapes_and_log_timestamps(self):
        spec = chain_spec()
        ds = generate_incident(spec)
        assert ds.metric_panel.values.shape == (spec.n_entities + 1, spec.horizon_T)
        assert ds.generator_matrix.shape == (spec.n_entities + 1, spec.n_entities + 1)
        assert all(0 <= r["ts"] < spec.horizon_T for r in ds.raw_logs)


# one (pattern, fields) pair per message format: "entity" is the record's own
# entity, a (lo, hi) pair a number in [lo, hi)
NORMAL_FORMATS = (
    (r"GET /api/svc-(\d+)/items took (\d+) ms", ("entity", (1, 500))),
    (r"heartbeat ok from svc-(\d+) seq (\d+)", ("entity", (0, 100000))),
    (r"connection pool for svc-(\d+) at (\d+) of (\d+)", ("entity", (1, 50), (50, 100))),
    (r"request (0x[0-9a-f]{8}) completed with status ok in (\d+) ms", ((0, 2**32), (1, 500))),
    (r"cache refresh on svc-(\d+) finished in (\d+) ms entries (\d+)",
     ("entity", (1, 200), (0, 5000))),
)
FAULT_FORMATS = (
    (r"ERROR request to svc-(\d+) failed with timeout after (\d+) ms", ("entity", (1000, 9000))),
    (r"CRITICAL worker (\d+) terminated unexpectedly: out of memory", ((0, 64),)),
    (r"WARN retries exhausted calling svc-(\d+): service unavailable", ("entity",)),
)
FORMATS = NORMAL_FORMATS + FAULT_FORMATS


def message_formats(record) -> list[int]:
    """Indices into FORMATS of the formats the record's message matches with
    every field in range."""
    matched = []
    for k, (pattern, fields) in enumerate(FORMATS):
        found = re.fullmatch(pattern, record["msg"])
        if found is None:
            continue
        values = [int(text, 0) for text in found.groups()]
        if all(
            value == record["entity"] if field == "entity" else field[0] <= value < field[1]
            for value, field in zip(values, fields, strict=True)
        ):
            matched.append(k)
    return matched


class TestLogStream:
    """The bulk-drawn stream keeps the distribution of one draw per number."""

    @pytest.fixture(scope="class")
    def stream(self):
        ds = generate_incident(sample_scenario(40, "both", 300, 0.1, seed=3))
        matches = [message_formats(r) for r in ds.raw_logs]
        kinds = np.array([m[0] if len(m) == 1 else -1 for m in matches])
        return ds, kinds

    def test_every_message_matches_exactly_one_format_with_its_fields_in_range(self, stream):
        ds, kinds = stream
        assert [r for r, k in zip(ds.raw_logs, kinds) if k < 0] == []

    def test_the_normal_formats_are_equally_likely(self, stream):
        _, kinds = stream
        normal = kinds[(kinds >= 0) & (kinds < len(NORMAL_FORMATS))]
        shares = np.bincount(normal, minlength=len(NORMAL_FORMATS)) / normal.size
        assert np.abs(shares - 1 / len(NORMAL_FORMATS)).max() <= 0.02

    def test_the_mean_count_per_step_and_entity_is_the_rate(self, stream):
        ds, kinds = stream
        spec = ds.ground_truth
        normal = np.count_nonzero((kinds >= 0) & (kinds < len(NORMAL_FORMATS)))
        mean = normal / (spec.horizon_T * spec.n_entities)
        assert abs(mean - simulate.NORMAL_LOG_RATE) <= 0.05

    def test_records_are_ordered_with_normal_before_fault_at_a_tie(self, stream):
        ds, kinds = stream
        fault = (kinds >= len(NORMAL_FORMATS)).tolist()
        keys = [(r["ts"], r["entity"], f) for r, f in zip(ds.raw_logs, fault)]
        assert keys == sorted(keys)
        # the tie rule is exercised: a fault record follows a normal one in its cell
        assert any(a[:2] == b[:2] and a[2] < b[2] for a, b in zip(keys, keys[1:]))


class TestPersistence:
    def test_ground_truth_round_trip(self, tmp_path):
        spec = chain_spec(seed=3)
        ds = generate_incident(spec)
        paths = write_incident(ds, tmp_path / "inc", "cpu")
        truth = read_ground_truth(paths["ground_truth"])
        assert truth["ground_truth_dag"] == spec.ground_truth_dag.tolist()
        for attr in ("n_entities", "root_cause", "fault_type", "horizon_T",
                     "noise_std", "seed", "log_lag"):
            assert truth[attr] == getattr(spec, attr)
        assert truth["root_cause_name"] == "svc-0"
        assert truth["kpi_parents"] == kpi_parents(CHAIN)

    def test_metrics_csv_schema(self, tmp_path):
        ds = generate_incident(chain_spec(seed=3))
        paths = write_incident(ds, tmp_path / "inc", "mem")
        with open(paths["metrics"]) as fh:
            header = fh.readline().strip()
        assert header == "timestamp,entity,metric_name,value"
        panel = read_panel_csv(paths["metrics"], metric_name="mem")
        assert panel.entity_names == ds.metric_panel.entity_names
        assert np.array_equal(panel.values, ds.metric_panel.values)

    def test_logs_jsonl_schema(self, tmp_path):
        ds = generate_incident(chain_spec(seed=3))
        paths = write_incident(ds, tmp_path / "inc", "cpu")
        with open(paths["logs"]) as fh:
            record = json.loads(fh.readline())
        assert set(record) == {"ts", "entity", "msg"}

    @pytest.mark.parametrize("fault_type", FAULT_TYPES)
    def test_logs_jsonl_is_json_dumps_of_each_record(self, tmp_path, fault_type):
        ds = generate_incident(chain_spec(seed=3, fault_type=fault_type))
        ds.raw_logs.append({"ts": 119, "entity": 2, "msg": 'say "hi" to C:\\tmp at caf\u00e9 \u2603'})
        paths = write_incident(ds, tmp_path / "inc", "cpu")
        expected = "".join(json.dumps(record, sort_keys=True) + "\n" for record in ds.raw_logs)
        with open(paths["logs"], "rb") as fh:
            assert fh.read() == expected.encode()

    def test_a_failed_write_keeps_the_earlier_file_and_leaves_a_partial(self, tmp_path):
        ds = generate_incident(chain_spec(seed=3))
        paths = write_incident(ds, tmp_path / "inc", "cpu")
        with open(paths["logs"], "rb") as fh:
            before = fh.read()
        first = json.dumps(ds.raw_logs[0], sort_keys=True) + "\n"
        ds.raw_logs[1] = {"ts": 0, "entity": 0, "msg": object()}
        with pytest.raises(TypeError):
            write_incident(ds, tmp_path / "inc", "cpu")
        with open(paths["logs"], "rb") as fh:
            assert fh.read() == before
        with open(paths["logs"] + ".partial") as fh:
            assert fh.read() == first
