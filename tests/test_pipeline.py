import json
import os
import subprocess
import sys
from collections import defaultdict

import numpy as np
import pytest
from scipy.special import expit

import mmrca
from mmrca import cli, pipeline
from mmrca import encoder as encoder_mod
from mmrca import structure as structure_mod
from mmrca.logs import windows_from_jsonl
from mmrca.panel import ModalityPanel, read_panel_csv, write_panel_csv


def thread_counts(controls):
    return [get() for get, _ in controls]


class TestOneBlasThread:
    @pytest.fixture
    def controls(self):
        controls = pipeline._openblas_thread_controls()
        if not controls:
            pytest.skip("numpy and scipy bundle no OpenBLAS library here")
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
            pytest.skip("numpy and scipy bundle no OpenBLAS library here")
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
        assert "encoder.npz" in names and "ranking.json" in names
        for name in names:
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


class TestDefaults:
    @pytest.mark.parametrize(
        "section,config_class",
        [("encoder", encoder_mod.EncoderConfig), ("learner", structure_mod.LearnerConfig)],
    )
    def test_config_classes_default_to_the_pipeline_defaults(self, section, config_class):
        # the pipeline's section leaves the seed to the global seed
        defaults = dict(pipeline.DEFAULT_CONFIG[section], seed=config_class().seed)
        assert config_class(**defaults) == config_class()


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
        windows = windows_from_jsonl((out / "windows.jsonl").read_text())
        panel = read_panel_csv(out / "log_panel.csv", metric_name="log_score")
        manifest = json.loads((out / "encoder_manifest.json").read_text())
        return windows, panel, manifest

    def test_each_cell_is_the_head_score_of_its_window(self, tmp_path):
        for command in ("simulate", "parse", "encode"):
            assert self.run(tmp_path, "both", command) == 0, command
        windows, panel, manifest = self.outputs(tmp_path)
        assert len({w.label for w in windows}) > 1
        assert manifest["epochs_run"] == 2

        out = tmp_path / "out"
        encoder = encoder_mod.load_encoder(out / "encoder.npz", out / "encoder_manifest.json")
        sequences = [encoder.tokenizer.tokenize(w) for w in windows]
        with pipeline._one_blas_thread():
            cls = encoder_mod.embed_windows(encoder, sequences)
        logits = (cls @ encoder.params["head_w"]).ravel() + encoder.params["head_b"][0]
        expected = expit(logits)
        values_of = defaultdict(set)
        for w, sequence, score in zip(windows, sequences, expected):
            value = panel.values[w.entity, w.window_index]
            assert value == score, (w.entity, w.window_index)
            values_of[tuple(sequence.tokens)].add(value)
        assert len(values_of) < len(windows)
        assert all(len(values) == 1 for values in values_of.values())

    def test_constant_labels_train_nothing_and_give_a_constant_series(
        self, tmp_path, monkeypatch
    ):
        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called on constant labels")

            return call

        for name in ("train_log_encoder", "embed_windows"):
            monkeypatch.setattr(encoder_mod, name, refuse(name))
        for command in ("simulate", "parse", "encode"):
            assert self.run(tmp_path, "metric_only", command) == 0, command
        windows, panel, manifest = self.outputs(tmp_path)
        assert len({w.label for w in windows}) == 1
        for row in panel.values[:-1]:
            assert np.all(row == row[0])
        assert manifest["epochs_run"] == 0
        assert manifest["final_loss"] is None

        out = tmp_path / "out"
        encoder = encoder_mod.load_encoder(out / "encoder.npz", out / "encoder_manifest.json")
        sequences = [encoder.tokenizer.tokenize(w) for w in windows]
        assert manifest["diagnostics"] == {
            "truncated_windows": sum(s.truncated for s in sequences),
            "unique_sequences": len({tuple(s.tokens) for s in sequences}),
        }
        # reference: the panel that embedding every window with the untrained encoder gives
        with pipeline._one_blas_thread():
            scores = encoder.score(encoder.embed(sequences))
        truth = json.loads((tmp_path / "data" / "ground_truth.json").read_text())
        reference = encoder_mod.reduce_to_series(
            scores,
            [(w.entity, w.window_index) for w in windows],
            n_entities=truth["n_entities"],
            kpi=read_panel_csv(out / "metric_panel.csv").kpi,
            entity_names=truth["entity_names"],
        )
        write_panel_csv(reference, tmp_path / "reference.csv", "log_score")
        assert (out / "log_panel.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        for command in ("learn", "localize", "evaluate"):
            assert self.run(tmp_path, "metric_only", command) == 0, command
