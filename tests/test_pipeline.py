import copy
import json
import os
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import mmrca
from mmrca import cli, pipeline
from mmrca import encoder as encoder_mod
from mmrca import fusion as fusion_mod
from mmrca import logs as logs_mod
from mmrca import structure as structure_mod
from mmrca.nn import sigmoid
from mmrca.panel import ModalityPanel, aggregate_windows, read_panel_csv, write_panel_csv


def thread_counts(controls):
    return [get() for get, _ in controls]


class TestOneBlasThread:
    @pytest.fixture
    def controls(self):
        controls = pipeline._openblas_thread_controls()
        if not controls:
            pytest.skip("numpy bundles no OpenBLAS library here")
        before = thread_counts(controls)
        for _, set_ in controls:
            set_(2)
        yield controls
        for (_, set_), count in zip(controls, before):
            set_(count)

    def test_one_thread_inside_and_previous_count_after(self, controls):
        with pipeline._one_blas_thread():
            assert thread_counts(controls) == [1] * len(controls)
        assert thread_counts(controls) == [2] * len(controls)

    def test_previous_count_restored_when_the_block_raises(self, controls):
        with pytest.raises(RuntimeError, match="boom"):
            with pipeline._one_blas_thread():
                assert thread_counts(controls) == [1] * len(controls)
                raise RuntimeError("boom")
        assert thread_counts(controls) == [2] * len(controls)

    def test_artifacts_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # big enough (6 entities, d_model 64) that, left at the library's
        # thread count, these artifacts differ in bytes between 1 and 2 threads
        if not pipeline._openblas_thread_controls():
            pytest.skip("numpy bundles no OpenBLAS library here")
        payload = {
            "paths": {"data_dir": str(tmp_path / "data"), "out_dir": str(tmp_path / "out")},
            "seed": 3,
            "scenario": {"n_entities": 6, "horizon_T": 100},
            "encoder": {"epochs": 2},
            "learner": {"epochs": 4},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        pipeline.stage_simulate(pipeline.load_config(str(config_path), environ={}))

        src_dir = os.path.dirname(os.path.dirname(mmrca.__file__))
        outs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"out-{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
            command = [sys.executable, "-m", "mmrca.cli", "--config", str(config_path)]
            subprocess.run(command + ["--out", str(out), "run-pipeline"], env=env, check=True,
                           capture_output=True, timeout=300)
            outs[threads] = out
        names = sorted(p.name for p in outs["1"].iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in outs["2"].iterdir() if p.name != "manifest.json")
        assert "log_panel.csv" in names and "ranking.json" in names
        for name in names:
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


class TestImport:
    def test_the_cli_loads_the_pipeline_and_both_models_without_scipy(self):
        # scipy is no runtime dependency; importing it took about 0.3 s of every mmrca call
        src_dir = os.path.dirname(os.path.dirname(mmrca.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        code = "import json, sys, mmrca.cli; print(json.dumps(sorted(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        modules = json.loads(proc.stdout)
        assert {"mmrca.pipeline", "mmrca.encoder", "mmrca.structure"} <= set(modules)
        assert [name for name in modules if name.startswith("scipy")] == []


class TestDefaults:
    @pytest.mark.parametrize(
        "section,config_class",
        [("encoder", encoder_mod.EncoderConfig), ("learner", structure_mod.LearnerConfig)],
    )
    def test_config_classes_default_to_the_pipeline_defaults(self, section, config_class):
        # the pipeline's section leaves a seed to the global seed
        seed = {"seed": config_class().seed} if hasattr(config_class(), "seed") else {}
        assert config_class(**pipeline.DEFAULT_CONFIG[section], **seed) == config_class()


class TestRunPipelineConfig:
    def test_a_bad_value_set_after_load_config_raises_before_any_file(self, tmp_path):
        config = pipeline.load_config(environ={})
        config["paths"] = {"data_dir": str(tmp_path / "data"), "out_dir": str(tmp_path / "out")}
        config["scenario"].update(n_entities=3, horizon_T=40)
        pipeline.stage_simulate(config)
        data = sorted(path.name for path in (tmp_path / "data").iterdir())
        config["rca"]["tol"] = float("inf")
        with pytest.raises(ValueError, match=r"^rca\.tol must be finite; inf is not$"):
            pipeline.run_pipeline(config)
        assert not (tmp_path / "out").exists()
        assert sorted(path.name for path in (tmp_path / "data").iterdir()) == data


class TestAtomicWrites:
    def test_failed_panel_write_leaves_the_earlier_panel_and_a_partial(self, tmp_path):
        path = tmp_path / "log_panel.csv"
        panel = ModalityPanel(np.arange(6.0).reshape(2, 3), ["e0"])
        write_panel_csv(panel, path, "log_pc1")
        before = path.read_bytes()
        panel.values = np.array([[1.0, 2.0, "not a number"], [0.0, 0.0, 0.0]], dtype=object)
        with pytest.raises(ValueError):
            write_panel_csv(panel, path, "log_pc1")
        assert path.read_bytes() == before
        partial = (tmp_path / "log_panel.csv.partial").read_text()
        assert partial.startswith("timestamp,entity,metric_name,value\n0,e0,log_pc1,1.0\n")


class TestReadPanel:
    def write_rows(self, tmp_path, rows):
        path = tmp_path / "metrics.csv"
        lines = ["timestamp,entity,metric_name,value"] + [",".join(map(str, r)) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_a_missing_cell_names_the_file_entity_and_timestamp(self, tmp_path):
        path = self.write_rows(tmp_path, [
            (0, "e0", "cpu", 1.0), (0, "kpi", "kpi", 2.0), (1, "kpi", "kpi", 3.0),
        ])
        with pytest.raises(ValueError, match=rf"{path} has no row for entity 'e0' at timestamp 1$"):
            read_panel_csv(path, "cpu")

    def test_a_missing_kpi_cell_is_named_too(self, tmp_path):
        path = self.write_rows(tmp_path, [
            (0, "e0", "cpu", 1.0), (0, "kpi", "kpi", 2.0), (1, "e0", "cpu", 3.0),
        ])
        with pytest.raises(ValueError, match="no row for entity 'kpi' at timestamp 1"):
            read_panel_csv(path, "cpu")

    def test_a_repeated_cell_is_rejected(self, tmp_path):
        path = self.write_rows(tmp_path, [
            (0, "e0", "cpu", 1.0), (0, "kpi", "kpi", 2.0), (0, "e0", "cpu", 5.0),
        ])
        with pytest.raises(ValueError, match="more than one row for entity 'e0' at timestamp 0"):
            read_panel_csv(path, "cpu")

    def test_a_value_that_is_not_a_number_names_the_file_entity_and_timestamp(self, tmp_path):
        path = self.write_rows(tmp_path, [
            (0, "e0", "cpu", 1.0), (0, "kpi", "kpi", 2.0), (1, "e0", "cpu", "abc"),
            (1, "kpi", "kpi", "also bad"),
        ])
        named = f"{path} has value 'abc' for entity 'e0' at timestamp 1, which is not a number"
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            read_panel_csv(path, "cpu")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_value_that_is_not_finite_is_named_in_file_order(self, tmp_path, value):
        rows = [(0, "e0", "cpu", 1.0), (0, "kpi", "kpi", 2.0), (1, "e0", "cpu", value),
                (1, "kpi", "kpi", "abc")]
        path = self.write_rows(tmp_path, rows)
        named = f"{path} has value {value!r} for entity 'e0' at timestamp 1, which is not finite"
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            read_panel_csv(path, "cpu")
        # a value that is not a number, earlier in the file, is named first
        self.write_rows(tmp_path, rows[:2] + rows[3:] + rows[2:3])
        with pytest.raises(ValueError, match="value 'abc' for entity 'kpi' at timestamp 1, which"):
            read_panel_csv(path, "cpu")

    def test_a_timestamp_that_is_not_an_int_names_the_file_and_entity(self, tmp_path):
        path = self.write_rows(tmp_path, [
            (0, "e0", "cpu", 1.0), (0, "kpi", "kpi", 2.0), ("1.5", "kpi", "kpi", 3.0),
        ])
        named = f"{path} has timestamp '1.5' for entity 'kpi', which is not a 64-bit int"
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            read_panel_csv(path, "cpu")

    def test_the_first_bad_row_is_named(self, tmp_path):
        path = self.write_rows(tmp_path, [
            (0, "e0", "cpu", 1.0), (0, "kpi", "kpi", "x"), (0, "e0", "cpu", 5.0),
            ("y", "e0", "cpu", 1.0), (2**64, "e0", "cpu", 1.0),
        ])
        with pytest.raises(ValueError, match="value 'x' for entity 'kpi' at timestamp 0"):
            read_panel_csv(path, "cpu")
        self.write_rows(tmp_path, [(0, "e0", "cpu", 1.0), (2**64, "e0", "cpu", 1.0)])
        with pytest.raises(ValueError, match=f"timestamp '{2**64}' for entity 'e0', which is not"):
            read_panel_csv(path, "cpu")

    def test_a_short_row_is_rejected(self, tmp_path):
        path = self.write_rows(tmp_path, [(0, "e0", "cpu", 1.0), (0, "kpi", "kpi")])
        with pytest.raises(ValueError, match="has a row with fewer fields than its header"):
            read_panel_csv(path, "cpu")

    def test_a_row_short_of_only_the_metric_name_is_rejected(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("timestamp,entity,value,metric_name\n0,e0,1.0,cpu\n0,kpi,2.0\n")
        named = f"{path} has a row with fewer fields than its header: ['0', 'kpi', '2.0']"
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            read_panel_csv(path, "cpu")

    def test_the_columns_come_from_the_header(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(
            "note,value,metric_name,entity,timestamp\n"
            "a,1.0,cpu,e0,0\nb,2.0,kpi,kpi,0\nc,3.0,cpu,e0,1\nd,4.0,kpi,kpi,1\n"
        )
        panel = read_panel_csv(path, "cpu")
        assert panel.entity_names == ["e0"]
        assert panel.values.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_a_row_with_a_bad_timestamp_and_value_names_the_timestamp(self, tmp_path):
        path = self.write_rows(tmp_path, [(0, "e0", "cpu", 1.0), ("t", "kpi", "kpi", "v")])
        named = f"{path} has timestamp 't' for entity 'kpi', which is not a 64-bit int"
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            read_panel_csv(path, "cpu")

    def test_timestamps_span_the_64_bit_range(self, tmp_path):
        path = self.write_rows(tmp_path, [
            (-(2**63), "e0", "cpu", 1.0), (-(2**63), "kpi", "kpi", 2.0),
            (2**63 - 1, "e0", "cpu", 3.0), (2**63 - 1, "kpi", "kpi", 4.0),
        ])
        assert read_panel_csv(path, "cpu").values.tolist() == [[1.0, 3.0], [2.0, 4.0]]
        self.write_rows(tmp_path, [(0, "e0", "cpu", 1.0), (-(2**63) - 1, "kpi", "kpi", 2.0)])
        with pytest.raises(ValueError, match=f"timestamp '{-(2**63) - 1}' for entity 'kpi'"):
            read_panel_csv(path, "cpu")

    def test_rows_of_another_metric_are_skipped(self, tmp_path):
        path = self.write_rows(tmp_path, [
            (0, "e0", "cpu", 1.0), (0, "e0", "mem", 9.0), (0, "kpi", "kpi", 2.0),
        ])
        assert read_panel_csv(path, "cpu").values.tolist() == [[1.0], [2.0]]


def loop_aggregate(values: np.ndarray, window_size: int) -> np.ndarray:
    """The per-window loop that aggregate_windows replaced: the reference."""
    n_windows = -(-values.shape[1] // window_size)
    out = np.empty((values.shape[0], n_windows))
    for w in range(n_windows):
        out[:, w] = values[:, w * window_size:(w + 1) * window_size].mean(axis=1)
    return out


class TestAggregateWindows:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_loop_it_replaced(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n, t = int(rng.integers(1, 6)), int(rng.integers(1, 120))
            window_size = int(rng.integers(1, 40))
            names = [f"e{i}" for i in range(n)]
            panel = ModalityPanel(rng.standard_normal((n + 1, t)) * 100.0, names)
            got = aggregate_windows(panel, window_size)
            assert np.array_equal(got.values, loop_aggregate(panel.values, window_size))
            assert got.entity_names == panel.entity_names

    def test_one_step_windows_keep_the_values(self):
        panel = ModalityPanel(np.arange(6.0).reshape(2, 3) / 7.0, ["e0"])
        assert np.array_equal(aggregate_windows(panel, 1).values, panel.values)

    def test_the_last_window_may_be_short(self):
        panel = ModalityPanel([[1.0, 2.0, 3.0, 4.0, 6.0], [0.0, 0.0, 0.0, 0.0, 1.0]], ["e0"])
        assert aggregate_windows(panel, 2).values.tolist() == [[1.5, 3.5, 6.0], [0.0, 0.0, 1.0]]
        assert aggregate_windows(panel, 9).values.tolist() == [[3.2], [0.2]]


class TestLogSeries:
    TINY = {"encoder": {"epochs": 2, "d_model": 8}, "learner": {"epochs": 2}}

    def run(self, tmp_path, fault_type, command):
        payload = dict(
            self.TINY,
            scenario={"n_entities": 3, "horizon_T": 40, "fault_type": fault_type},
            paths={"data_dir": str(tmp_path / "data"), "out_dir": str(tmp_path / "out")},
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        return cli.main(["--config", str(config), "--seed", "3", command])

    def outputs(self, tmp_path):
        out = tmp_path / "out"
        # windows.jsonl holds the table's cells, entity-major, one JSON object each
        rows = [json.loads(line) for line in (out / "windows.jsonl").read_text().splitlines()]
        n_windows = rows[-1]["window_index"] + 1
        windows = logs_mod.WindowTable(
            rows[-1]["entity"] + 1, n_windows,
            np.cumsum([0] + [len(row["templates"]) for row in rows]),
            [t for row in rows for t in row["templates"]],
            [f for row in rows for f in row["frequencies"]],
            [row["label"] for row in rows],
        )
        panel = read_panel_csv(out / "log_panel.csv", metric_name="log_score")
        manifest = json.loads((out / "encoder_manifest.json").read_text())
        return windows, panel, manifest

    def encoder_inputs(self, tmp_path, windows):
        """The encoder config and vocabulary size of the run, and the windows' token table."""
        config = pipeline.load_config(str(tmp_path / "config.json"), seed=3, environ={})
        encoder_config = pipeline.encoder_config_from(config)
        vocab_size = len(payload(tmp_path / "out" / "vocabulary.json"))
        tokens, offsets, truncated = encoder_mod.tokenize(windows, encoder_config)
        return encoder_config, vocab_size, tokens, offsets, truncated

    def test_each_cell_is_the_head_score_of_its_window(self, tmp_path):
        for command in ("simulate", "parse", "encode"):
            assert self.run(tmp_path, "both", command) == 0, command
        windows, panel, manifest = self.outputs(tmp_path)
        assert len(set(windows.labels)) > 1
        assert manifest["epochs_run"] == 2

        # training is deterministic: the same call gives the encoder that encode trained
        encoder_config, vocab_size, tokens, offsets, truncated = self.encoder_inputs(
            tmp_path, windows
        )
        groups = encoder_mod.group_sequences(tokens, offsets, windows.labels)
        assert manifest["diagnostics"] == {
            "truncated_windows": int(truncated.sum()),
            "unique_sequences": len(groups.counts),
        }
        with pipeline._one_blas_thread():
            encoder = encoder_mod.train_log_encoder(
                groups, windows.labels, encoder_config, vocab_size
            )
            cls = encoder_mod.embed_windows(encoder, groups)
        assert manifest["final_loss"] == encoder.history[-1]
        logits = (cls @ encoder.params["head_w"]).ravel() + encoder.params["head_b"][0]
        expected = sigmoid(logits)
        values_of = defaultdict(set)
        for cell, score in enumerate(expected):
            entity, index = divmod(cell, windows.n_windows)
            assert panel.values[entity, index] == score, (entity, index)
            sequence = tuple(tokens[offsets[cell]:offsets[cell + 1]])
            values_of[sequence].add(panel.values[entity, index])
        assert len(values_of) < windows.n_cells
        assert all(len(values) == 1 for values in values_of.values())

    def test_constant_labels_tokenize_nothing_and_give_a_constant_series(
        self, tmp_path, monkeypatch
    ):
        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called on constant labels")

            return call

        for name in ("tokenize", "group_sequences", "LogSequenceEncoder", "train_log_encoder",
                     "embed_windows"):
            monkeypatch.setattr(encoder_mod, name, refuse(name))
        for command in ("simulate", "parse", "encode"):
            assert self.run(tmp_path, "metric_only", command) == 0, command
        monkeypatch.undo()
        windows, panel, manifest = self.outputs(tmp_path)
        assert len(set(windows.labels)) == 1
        for row in panel.values[:-1]:
            assert np.all(row == row[0])
        assert "diagnostics" not in manifest
        assert manifest["epochs_run"] == 0
        assert manifest["final_loss"] is None

        out = tmp_path / "out"
        encoder_config, vocab_size, tokens, offsets, _ = self.encoder_inputs(tmp_path, windows)
        # reference: the panel that embedding every window with an untrained encoder gives
        encoder = encoder_mod.LogSequenceEncoder(encoder_config, vocab_size)
        with pipeline._one_blas_thread():
            groups = encoder_mod.group_sequences(tokens, offsets, windows.labels)
            scores = encoder.score(encoder_mod.embed_windows(encoder, groups))
        truth = json.loads((tmp_path / "data" / "ground_truth.json").read_text())
        reference = encoder_mod.reduce_to_series(
            scores,
            windows,
            kpi=read_panel_csv(tmp_path / "data" / "metrics.csv", "cpu").kpi,
            entity_names=truth["entity_names"],
        )
        write_panel_csv(reference, tmp_path / "reference.csv", "log_score")
        assert (out / "log_panel.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        for command in ("learn", "localize", "evaluate"):
            assert self.run(tmp_path, "metric_only", command) == 0, command


class TestInvariance:
    """A ranking must not depend on a metric series' units or on the entities' names."""

    def incident(self, tmp_path, fault_type, seed):
        config = pipeline.load_config(seed=seed, environ={})
        config["scenario"].update(n_entities=5, horizon_T=80, fault_type=fault_type)
        config["encoder"].update(epochs=3, d_model=8)
        config["learner"].update(epochs=24, acyclicity_every=4)
        config["paths"] = {"data_dir": str(tmp_path / "data"), "out_dir": str(tmp_path / "out")}
        pipeline.stage_simulate(config)
        return config

    @staticmethod
    def ranking(config, edit, name) -> list:
        """(entity, score) pairs of ranking.json after edit rewrote a copy of the data."""
        config = copy.deepcopy(config)
        root = Path(config["paths"]["data_dir"]).parent
        data, out = root / f"data-{name}", root / f"out-{name}"
        shutil.copytree(config["paths"]["data_dir"], data)
        edit(data)
        config["paths"] = {"data_dir": str(data), "out_dir": str(out)}
        pipeline.run_pipeline(config)
        ranking = payload(out / "ranking.json")["ranking"]
        return [(entry["entity"], entry["score"]) for entry in ranking]

    @staticmethod
    def rewrite_metrics(data, rewrite_row) -> None:
        header, *rows = (data / "metrics.csv").read_text().splitlines()
        rows = [",".join(rewrite_row(row.split(","))) for row in rows]
        (data / "metrics.csv").write_text("\n".join([header] + rows) + "\n")

    @pytest.mark.parametrize(
        "fault_type,seed", [("metric_only", 11), ("both", 12), ("log_only", 13)]
    )
    def test_rescaling_one_metric_series_keeps_the_ranking(self, tmp_path, fault_type, seed):
        config = self.incident(tmp_path, fault_type, seed)
        truth = payload(tmp_path / "data" / "ground_truth.json")
        root = truth["root_cause_name"]

        def rescale(data):
            def row(fields):
                t, entity, metric, value = fields
                return [t, entity, metric, repr(float(value) * 1000.0 + 50.0) if entity == root
                        else value]

            self.rewrite_metrics(data, row)

        base = self.ranking(config, lambda data: None, "base")
        scores = [score for _, score in base]
        assert min(a - b for a, b in zip(scores, scores[1:])) > 1e-9  # no near-ties to flip
        rescaled = self.ranking(config, rescale, "rescaled")
        assert [entity for entity, _ in rescaled] == [entity for entity, _ in base]
        for (_, got), (_, want) in zip(rescaled, base):
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize(
        "fault_type,seed", [("metric_only", 11), ("both", 12), ("log_only", 13)]
    )
    def test_renaming_the_entities_renames_the_ranking(self, tmp_path, fault_type, seed):
        config = self.incident(tmp_path, fault_type, seed)
        names = payload(tmp_path / "data" / "ground_truth.json")["entity_names"]
        # a new name sorts against the old order, so no order can come from the names
        renamed = {name: f"host-{chr(ord('z') - i)}" for i, name in enumerate(names)}

        def rename(data):
            self.rewrite_metrics(data, lambda fields: [
                fields[0], renamed.get(fields[1], fields[1]), *fields[2:]
            ])
            truth = payload(data / "ground_truth.json")
            truth["entity_names"] = [renamed[name] for name in truth["entity_names"]]
            truth["root_cause_name"] = renamed[truth["root_cause_name"]]
            (data / "ground_truth.json").write_text(json.dumps(truth))

        base = self.ranking(config, lambda data: None, "base")
        assert self.ranking(config, rename, "renamed") == [
            (renamed[entity], score) for entity, score in base
        ]


class TestLearn:
    def test_each_modality_is_fitted_on_its_own_panel(self, tmp_path):
        rng = np.random.default_rng(4)
        names = ["e0", "e1", "e2"]
        metric, log, other_log = (ModalityPanel(rng.standard_normal((4, 30)), names) for _ in range(3))
        config = pipeline.load_config(environ={}, out_dir=str(tmp_path / "out"))
        config["learner"].update(p=2, epochs=6)
        os.makedirs(tmp_path / "out")
        learner_config = pipeline.learner_config_from(config)
        (a_log, a_metric, node_names), _ = pipeline.stage_learn(config, (metric, log))
        assert node_names == names + ["kpi"]
        assert a_metric.tobytes() == structure_mod.fit(metric, learner_config).A.tobytes()
        assert a_log.tobytes() == structure_mod.fit(log, learner_config).A.tobytes()
        adjacency = json.loads((tmp_path / "out" / "adjacency.json").read_text())
        assert adjacency["A_metric"] == a_metric.astype(float).tolist()
        assert adjacency["A_log"] == a_log.astype(float).tolist()
        (a_other, a_metric_again, _), _ = pipeline.stage_learn(config, (metric, other_log))
        assert a_metric_again.tobytes() == a_metric.tobytes()
        assert not np.array_equal(a_other, a_log)


def payload(path):
    return json.loads(path.read_text())


class TestArtifacts:
    """The JSON files of one run, checked against what the stages compute."""

    TINY = {
        "scenario": {"n_entities": 3, "horizon_T": 40, "fault_type": "both"},
        "encoder": {"epochs": 2, "d_model": 8},
        "learner": {"epochs": 2},
    }

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("run")
        paths = {"data_dir": str(root / "data"), "out_dir": str(root / "out")}
        (root / "config.json").write_text(json.dumps(dict(self.TINY, paths=paths)))
        config = pipeline.load_config(str(root / "config.json"), seed=3, environ={})
        pipeline.stage_simulate(config)
        pipeline.run_pipeline(config)
        return config, root / "data", root / "out"

    def panels(self, config, out):
        metric = pipeline._read_metric_panel(config)
        return metric, read_panel_csv(out / "log_panel.csv", metric_name="log_score")

    def test_every_json_file_has_the_one_format(self, artifacts):
        _, data, out = artifacts
        names = sorted(path.name for path in out.iterdir() if path.suffix == ".json")
        assert names == [
            "adjacency.json", "attention.json", "encoder_manifest.json", "fused_graph.json",
            "manifest.json", "metrics_report.json", "ranking.json", "vocabulary.json",
        ]
        for path in [out / name for name in names] + [data / "ground_truth.json"]:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name

    def test_vocabulary_maps_each_template_id_to_its_pattern(self, artifacts):
        _, data, out = artifacts
        vocabulary, _ = logs_mod.parse_templates(logs_mod.read_logs_jsonl(data / "logs.jsonl"))
        assert len(vocabulary) > 1
        assert payload(out / "vocabulary.json") == {
            str(i): pattern for i, pattern in enumerate(vocabulary)
        }

    def test_encoder_manifest_records_only_the_training(self, artifacts):
        _, _, out = artifacts
        manifest = payload(out / "encoder_manifest.json")
        assert set(manifest) == {"epochs_run", "final_loss", "diagnostics"}
        assert manifest["epochs_run"] == 2 and isinstance(manifest["final_loss"], float)
        assert set(manifest["diagnostics"]) == {"truncated_windows", "unique_sequences"}

    def test_attention_records_the_weights_and_the_scores_behind_them(self, artifacts):
        config, _, out = artifacts
        metric, log = self.panels(config, out)
        attention = payload(out / "attention.json")
        p, top_k = config["learner"]["p"], pipeline.TOP_K
        scores_log = fusion_mod.cross_correlation_scores(log, p)
        scores_metric = fusion_mod.cross_correlation_scores(metric, p)
        a_log, a_metric = fusion_mod.modality_attention(
            scores_log, scores_metric, k=min(top_k, len(scores_log))
        )
        assert attention == {
            "a_log": a_log, "a_metric": a_metric, "scores_log": scores_log.tolist(),
            "scores_metric": scores_metric.tolist(), "max_lag": p, "top_k": top_k,
        }

    def test_adjacency_keeps_both_graphs_and_splits_the_final_losses(self, artifacts):
        config, _, out = artifacts
        adjacency = payload(out / "adjacency.json")
        assert set(adjacency) == {
            "node_names", "A_metric", "A_log", "h_metric", "h_log", "converged", "final_losses",
        }
        metric, log = self.panels(config, out)
        assert adjacency["node_names"] == metric.node_names
        for modality, panel in (("metric", metric), ("log", log)):
            with pipeline._one_blas_thread():
                result = structure_mod.fit(panel, pipeline.learner_config_from(config))
            assert adjacency[f"A_{modality}"] == result.A.astype(float).tolist()
            assert adjacency[f"h_{modality}"] == result.h
            assert adjacency["final_losses"][modality] == {
                term: values[-1] for term, values in result.loss_history.items()
            }
        h_max = max(adjacency["h_metric"], adjacency["h_log"])
        assert adjacency["converged"] is (h_max <= structure_mod.H_TOL)

    @pytest.mark.parametrize("h_log,converged", [(1e-3, True), (2e-3, False)])
    def test_converged_needs_every_modality_within_h_tol(
        self, artifacts, tmp_path, monkeypatch, h_log, converged
    ):
        config, _, out = artifacts
        metric, log = self.panels(config, out)
        fit = structure_mod.fit

        def fit_with_h(panel, learner_config):
            result = fit(panel, learner_config)
            result.h = h_log if panel is log else 0.0
            return result

        monkeypatch.setattr(structure_mod, "fit", fit_with_h)
        config = copy.deepcopy(config)
        config["paths"]["out_dir"] = str(tmp_path)
        pipeline.stage_learn(config, (metric, log))
        adjacency = payload(tmp_path / "adjacency.json")
        assert (adjacency["h_metric"], adjacency["h_log"]) == (0.0, h_log)
        assert adjacency["converged"] is converged

    def test_fused_graph_is_the_attention_weighted_blend_it_names(self, artifacts):
        _, _, out = artifacts
        adjacency, attention = payload(out / "adjacency.json"), payload(out / "attention.json")
        weights = (attention["a_log"], attention["a_metric"])
        names = adjacency["node_names"]
        fused = fusion_mod.fuse(adjacency["A_log"], adjacency["A_metric"], weights)
        assert payload(out / "fused_graph.json") == {
            "a_log": weights[0], "a_metric": weights[1], "node_names": names,
            "adjacency": fused.tolist(),
        }

    def test_ranking_lists_every_entity_once_with_the_walk_that_scored_it(self, artifacts):
        _, data, out = artifacts
        ranking, truth = payload(out / "ranking.json"), payload(data / "ground_truth.json")
        assert set(ranking) == {"ranking", "converged", "iterations"}
        entries = ranking["ranking"]
        assert [set(entry) for entry in entries] == [{"entity", "score", "rank"}] * 3
        assert [entry["rank"] for entry in entries] == [1, 2, 3]
        assert sorted(entry["entity"] for entry in entries) == truth["entity_names"]
        scores = [entry["score"] for entry in entries]
        assert scores == sorted(scores, reverse=True)
        assert ranking["converged"] is True and ranking["iterations"] > 1

    def test_ranking_says_when_the_walk_stopped_short(self, artifacts, tmp_path):
        config, _, out = artifacts
        config = copy.deepcopy(config)
        config["paths"]["out_dir"] = str(tmp_path)
        config["rca"]["max_iter"] = 1
        (tmp_path / "log_panel.csv").write_bytes((out / "log_panel.csv").read_bytes())
        pipeline.run_stages(config, "causal_learner", "rca")
        ranking = payload(tmp_path / "ranking.json")
        assert (ranking["converged"], ranking["iterations"]) == (False, 1)
        assert [entry["rank"] for entry in ranking["ranking"]] == [1, 2, 3]

    def test_the_reports_record_the_run(self, artifacts):
        config, _, out = artifacts
        report = payload(out / "metrics_report.json")
        assert set(report) == {"n_cases", "mrr"} | {
            f"{metric}@{k}" for metric in ("pr", "map") for k in pipeline.K_VALUES
        }
        assert report["n_cases"] == 1
        manifest = payload(out / "manifest.json")
        assert set(manifest) == {"config_hash", "seed", "stages"}
        assert manifest["config_hash"] == pipeline.config_hash(config)
        assert manifest["seed"] == 3
        stages = [name for name, _ in pipeline.PIPELINE_STAGES]
        assert [stage["name"] for stage in manifest["stages"]] == stages
