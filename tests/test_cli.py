import builtins
import json
import os
import warnings

import numpy as np
import pytest

from mmrca import atomic, cli, encoder, pipeline


# every setting whose default is a float
FLOAT_KEYS = [
    ("scenario", "noise_std"), ("scenario", "edge_prob"), ("encoder", "lr"),
    ("learner", "lambda1"), ("learner", "lambda5"), ("learner", "lr"),
    ("fusion", "edge_threshold"), ("rca", "beta"), ("rca", "restart"), ("rca", "tol"),
]


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def without(payload: dict, key: str) -> dict:
    return {name: value for name, value in payload.items() if name != key}


def with_entry(matrix: list, value) -> list:
    """A copy of matrix with entry [0][1] set to value."""
    copied = [list(row) for row in matrix]
    copied[0][1] = value
    return copied


def edited_json(edit):
    """A corruption of a JSON file's text: edit applied to its payload."""
    return lambda text: json.dumps(edit(json.loads(text)))


# the words of the settings that the float32 models use directly
IN_FLOAT32 = "at most 3.4028234663852886e+38, float32's largest finite value"


class TestConfigKeys:
    @pytest.mark.parametrize(
        "payload,named",
        [
            ({"encoder": {"epoch": 3}}, "encoder.epoch"),
            ({"encodr": {"epochs": 3}}, "encodr"),
            ({"fusion": {"edge_threshold": 0.2}, "rca": {"restart": 0.2, "tolerance": 1e-9}},
             "rca.tolerance"),
            ({"learner": {"lambda3": 20}}, "learner.lambda3"),
            ({"scenario": {"dag": [[0]], "root_cause": 0}}, "scenario.dag"),
            ({"scenario": {"root_cause": 0}}, "scenario.root_cause"),
            ({"scenario": {"seed": 3}}, "scenario.seed"),
            ({"encoder": {"seed": 3}}, "encoder.seed"),
            ({"learner": {"seed": 3}}, "learner.seed"),
            ({"learner": {"acyclicity_base": 1.0}}, "learner.acyclicity_base"),
            ({"learner": {"acyclicity_factor": 2.0}}, "learner.acyclicity_factor"),
            ({"learner": {"h_tol": 1e-3}}, "learner.h_tol"),
            ({"fusion": {"max_lag": 2}}, "fusion.max_lag"),
            ({"learner": {"d1": 16}}, "learner.d1"),
            ({"learner": {"lambda2": 1.0}}, "learner.lambda2"),
            ({"fusion": {"top_k": 3}}, "fusion.top_k"),
            ({"evaluation": {"k_values": [1]}}, "evaluation"),
        ],
    )
    def test_unknown_key_exits_as_invalid_configuration(self, tmp_path, capsys, payload, named):
        config = write_config(tmp_path, payload)
        code = cli.main(["--config", config, "--out", str(tmp_path / "out"), "run-pipeline"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"invalid configuration: unknown config key {named!r}")

    @pytest.mark.parametrize("payload", [{"encoder": 3}, {"scenario": "x"}, [1, 2]])
    def test_a_section_that_is_not_an_object_is_rejected(self, tmp_path, payload):
        with pytest.raises(ValueError, match="must be a JSON object"):
            pipeline.load_config(write_config(tmp_path, payload), environ={})

    def test_a_config_file_that_is_not_json_is_named(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 3,')
        assert cli.main(["--config", str(path), "run-pipeline"]) == 1
        assert f"invalid configuration: {path} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload,named",
        [
            ({"learner": {"lr": 0}}, f"learner.lr must be positive and {IN_FLOAT32}; 0 is not"),
            ({"learner": {"lr": -0.02}},
             f"learner.lr must be positive and {IN_FLOAT32}; -0.02 is not"),
            ({"learner": {"epochs": 0}}, "learner.epochs must be >= 1; 0 is not"),
            ({"learner": {"p": 0}}, "learner.p must be >= 1; 0 is not"),
            ({"learner": {"lambda1": -1.0}},
             f"learner.lambda1 must be >= 0 and {IN_FLOAT32}; -1.0 is not"),
            ({"learner": {"lambda5": -1.0}},
             f"learner.lambda5 must be >= 0 and {IN_FLOAT32}; -1.0 is not"),
            ({"learner": {"acyclicity_every": 0}}, "learner.acyclicity_every must be >= 1"),
            ({"encoder": {"lr": 0}}, f"encoder.lr must be positive and {IN_FLOAT32}; 0 is not"),
            # finite in float64, but the models train in float32
            *(
                ({section: {field: value}},
                 f"{section}.{field} must be {floor} and {IN_FLOAT32}; {value!r} is not")
                for section, field, floor in (
                    ("encoder", "lr", "positive"), ("learner", "lr", "positive"),
                    ("learner", "lambda1", ">= 0"), ("learner", "lambda5", ">= 0"),
                )
                for value in (1e300, 3.5e38, 2**128)
            ),
            ({"encoder": {"epochs": 0}}, "encoder.epochs must be >= 1; 0 is not"),
            ({"encoder": {"max_len": 2}}, "encoder.max_len must be >= 3; 2 is not"),
            ({"encoder": {"max_len": 1}}, "encoder.max_len must be >= 3; 1 is not"),
            ({"encoder": {"d_model": 10, "n_heads": 4}},
             "encoder.d_model must be divisible by encoder.n_heads 4; 10 is not"),
            ({"learner": {"lr": "fast"}}, "learner.lr must be a number; str 'fast' is not"),
            ({"learner": {"epochs": 2.5}}, "learner.epochs must be an int; float 2.5"),
            ({"encoder": {"d_model": 8.0}}, "encoder.d_model must be an int; float 8.0"),
            ({"learner": {"lr": True}}, "learner.lr must be a number; bool True"),
            ({"window_size": 0}, "window_size must be >= 1; 0 is not"),
            ({"window_size": 2.0}, "window_size must be an int; float 2.0"),
            ({"metric_kind": ""}, "metric_kind must be non-empty"),
            ({"metric_kind": 3}, "metric_kind must be a string; int 3"),
            ({"scenario": {"n_entities": "x"}}, "scenario.n_entities must be an int; str 'x'"),
            ({"scenario": {"n_entities": 0}}, "scenario.n_entities must be >= 1"),
            ({"scenario": {"horizon_T": 3}}, "scenario.horizon_T must be >= 4"),
            ({"scenario": {"noise_std": -0.1}}, "scenario.noise_std must be finite and >= 0"),
            ({"scenario": {"edge_prob": 1.5}}, "scenario.edge_prob must be in [0, 1]"),
            ({"scenario": {"log_lag": 0}}, "scenario.log_lag must be >= 1"),
            ({"scenario": {"fault_type": "disk"}}, "scenario.fault_type must be one of"),
            ({"seed": 1.5}, "seed must be an int; float 1.5"),
            ({"seed": "x"}, "seed must be an int; str 'x'"),
            ({"seed": -1}, "seed must be >= 0; -1 is not"),
            ({"rca": {"beta": "x"}}, "rca.beta must be a number; str 'x'"),
            ({"rca": {"beta": 1.5}}, "rca.beta must be in [0, 1]"),
            ({"rca": {"restart": 0}}, "rca.restart must be in (0, 1]"),
            ({"rca": {"max_iter": 0}}, "rca.max_iter must be >= 1"),
            # the walk stopped after one step and reported converged
            ({"rca": {"tol": float("inf")}}, "rca.tol must be finite; inf is not"),
            ({"paths": {"data_dir": 5}}, "paths.data_dir must be a string; int 5"),
            ({"paths": {"data_dir": None}}, "paths.data_dir must be a string; NoneType None"),
            ({"paths": {"data_dir": ""}}, "paths.data_dir must be non-empty; '' is not"),
            ({"paths": {"out_dir": 5}}, "paths.out_dir must be a string; int 5"),
            ({"paths": {"out_dir": None}}, "paths.out_dir must be a string; NoneType None"),
            ({"paths": {"out_dir": ""}}, "paths.out_dir must be non-empty; '' is not"),
            *(
                ({section: {field: value}}, f"{section}.{field} must be finite; {value!r} is not")
                for section, field in FLOAT_KEYS
                for value in (float("nan"), float("inf"), float("-inf"))
            ),
        ],
    )
    def test_a_bad_value_exits_as_invalid_configuration_before_any_stage(
        self, tmp_path, monkeypatch, capsys, payload, named
    ):
        monkeypatch.chdir(tmp_path)  # a relative path that got past the check lands here
        paths = {"data_dir": str(tmp_path / "data"), "out_dir": str(tmp_path / "out")}
        paths.update(payload.get("paths", {}))
        config = write_config(tmp_path, dict(payload, paths=paths))
        code = cli.main(["--config", config, "run-pipeline"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"invalid configuration: {named}")
        assert not (tmp_path / "data").exists() and not (tmp_path / "out").exists()

    def test_every_setting_has_one_row_and_its_default_passes(self):
        leaves = {}
        for key, value in pipeline.DEFAULT_CONFIG.items():
            fields = value if isinstance(value, dict) else {None: value}
            leaves.update({key if f is None else f"{key}.{f}": v for f, v in fields.items()})
        assert set(pipeline._SETTINGS) == set(leaves) and len(leaves) == 29
        pipeline._check_config(pipeline.DEFAULT_CONFIG)
        floats = {key for key, value in leaves.items() if type(value) is float}
        assert floats == {f"{section}.{field}" for section, field in FLOAT_KEYS}

    def test_float32s_largest_finite_value_is_a_valid_step_and_weight(self, tmp_path):
        largest = float(np.finfo(np.float32).max)
        payload = {"encoder": {"lr": largest}, "learner": dict.fromkeys(
            ("lr", "lambda1", "lambda5"), largest)}
        config = pipeline.load_config(write_config(tmp_path, payload), environ={})
        assert config["learner"]["lr"] == config["encoder"]["lr"] == largest

    def test_an_int_is_a_valid_float(self, tmp_path):
        payload = {"learner": {"lambda1": 50}, "encoder": {"lr": 1}}
        config = pipeline.load_config(write_config(tmp_path, payload), environ={})
        assert pipeline.learner_config_from(config).lambda1 == 50
        assert pipeline.encoder_config_from(config).lr == 1

    def test_a_seed_variable_that_is_not_an_int_is_named(self, monkeypatch, capsys):
        monkeypatch.setenv(pipeline.ENV_SEED, "x")
        assert cli.main(["run-pipeline"]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration: MMRCA_SEED must be an int; 'x' is not" in err

    def test_known_keys_load(self, tmp_path):
        payload = {"encoder": {"epochs": 3}, "scenario": {"n_entities": 4}}
        config = pipeline.load_config(write_config(tmp_path, payload), environ={})
        assert config["encoder"]["epochs"] == 3
        assert config["encoder"]["d_model"] == pipeline.DEFAULT_CONFIG["encoder"]["d_model"]
        assert config["scenario"]["n_entities"] == 4

    def test_component_seeds_derive_from_the_global_seed(self, tmp_path):
        config = pipeline.load_config(write_config(tmp_path, {"seed": 11}), environ={})
        assert pipeline.encoder_config_from(config).seed == 12
        assert not hasattr(pipeline.learner_config_from(config), "seed")


class TestStageCommands:
    TINY = {
        "scenario": {"n_entities": 3, "horizon_T": 40},
        "encoder": {"epochs": 2, "d_model": 8},
        "learner": {"epochs": 2},
    }

    def run(self, tmp_path, command, out, **settings):
        paths = {"data_dir": str(tmp_path / "data"), "out_dir": str(out)}
        payload = dict(self.TINY, paths=paths, **settings)
        return cli.main(["--config", write_config(tmp_path, payload), "--seed", "3", command])

    @pytest.mark.parametrize("window_size", [1, 2])
    @pytest.mark.parametrize("fault_type", ["both", "metric_only"])
    def test_stage_by_stage_matches_run_pipeline(self, tmp_path, fault_type, window_size):
        settings = dict(
            scenario=dict(self.TINY["scenario"], fault_type=fault_type), window_size=window_size
        )
        staged, full = tmp_path / "staged", tmp_path / "full"
        assert self.run(tmp_path, "simulate", staged, **settings) == 0
        for command in ("parse", "encode", "learn", "localize", "evaluate"):
            assert self.run(tmp_path, command, staged, **settings) == 0, command
        assert self.run(tmp_path, "run-pipeline", full, **settings) == 0
        names = sorted(p.name for p in staged.iterdir())
        assert names == sorted(p.name for p in full.iterdir() if p.name != "manifest.json")
        assert names == [
            "adjacency.json", "attention.json", "encoder_manifest.json", "fused_graph.json",
            "log_panel.csv", "metrics_report.json", "ranking.json", "vocabulary.json",
            "windows.jsonl",
        ]
        for name in names:
            assert (staged / name).read_bytes() == (full / name).read_bytes(), name

    def reads(self, tmp_path, monkeypatch, command, out) -> tuple:
        """(the panel files that read_panel_csv reads, the files of out opened for
        reading) in one run of command, which must succeed."""
        panels_read, files_read = [], []
        read_panel_csv, real_open = pipeline.read_panel_csv, builtins.open

        def recording_read_panel_csv(path, *args, **kwargs):
            panels_read.append(str(path))
            return read_panel_csv(path, *args, **kwargs)

        def recording_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
                files_read.append(os.path.abspath(file))
            return real_open(file, mode, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "read_panel_csv", recording_read_panel_csv)
            patch.setattr(builtins, "open", recording_open)
            assert self.run(tmp_path, command, out) == 0, command
        return panels_read, [path for path in files_read if os.path.dirname(path) == str(out)]

    def test_run_pipeline_reads_back_only_the_ranking(self, tmp_path, monkeypatch):
        out, staged = tmp_path / "out", tmp_path / "staged"
        assert self.run(tmp_path, "simulate", out) == 0
        panels_read, read_from_out = self.reads(tmp_path, monkeypatch, "run-pipeline", out)
        assert panels_read == [str(tmp_path / "data" / "metrics.csv")]
        assert read_from_out == [str(out / "ranking.json")]
        # stage by stage, learn and localize start from the log panel, and
        # evaluate scores ranking.json
        for command, read in (
            ("parse", []),
            ("encode", []),
            ("learn", ["log_panel.csv"]),
            ("localize", ["log_panel.csv"]),
            ("evaluate", ["ranking.json"]),
        ):
            _, read_from_out = self.reads(tmp_path, monkeypatch, command, staged)
            assert read_from_out == [str(staged / name) for name in read], command

    # what the ingest stage writes, and what the encode stage writes
    ENCODE_ALONE = ["encoder_manifest.json", "log_panel.csv", "vocabulary.json", "windows.jsonl"]

    def test_encode_without_parse_writes_both_stages_files_with_run_pipelines_bytes(
        self, tmp_path
    ):
        alone, full = tmp_path / "alone", tmp_path / "full"
        assert self.run(tmp_path, "simulate", full) == 0
        assert self.run(tmp_path, "run-pipeline", full) == 0
        assert self.run(tmp_path, "encode", alone) == 0
        assert sorted(path.name for path in alone.iterdir()) == self.ENCODE_ALONE
        for name in self.ENCODE_ALONE:
            assert (alone / name).read_bytes() == (full / name).read_bytes(), name

    @pytest.mark.parametrize(
        "name,corrupt",
        [
            ("windows.jsonl", lambda lines: ["{" + lines[0]] + lines[1:]),
            ("windows.jsonl", lambda lines: [line.replace('"label": 0.0', '"label": 1.0')
                                             for line in lines]),
            ("windows.jsonl", lambda lines: lines[:-1]),
            ("vocabulary.json", lambda lines: ["[]"]),
        ],
        ids=["windows-not-json", "windows-relabelled", "windows-short", "vocabulary-list"],
    )
    def test_encode_ignores_an_edited_ingest_file_and_rewrites_it(self, tmp_path, name, corrupt):
        out, full = tmp_path / "out", tmp_path / "full"
        assert self.run(tmp_path, "simulate", full) == 0
        assert self.run(tmp_path, "run-pipeline", full) == 0
        assert self.run(tmp_path, "parse", out) == 0
        path = out / name
        edited = "\n".join(corrupt(path.read_text().splitlines())) + "\n"
        assert edited != path.read_text()
        path.write_text(edited)
        assert self.run(tmp_path, "encode", out) == 0
        for written in self.ENCODE_ALONE:
            assert (out / written).read_bytes() == (full / written).read_bytes(), written

    def test_localize_reads_no_ground_truth(self, tmp_path):
        out, full = tmp_path / "out", tmp_path / "full"
        assert self.run(tmp_path, "simulate", full) == 0
        assert self.run(tmp_path, "run-pipeline", full) == 0
        for command in ("encode", "learn"):
            assert self.run(tmp_path, command, out) == 0, command
        truth = tmp_path / "data" / "ground_truth.json"
        truth.rename(tmp_path / "ground_truth.json")
        assert self.run(tmp_path, "localize", out) == 0
        ranking = json.loads((out / "ranking.json").read_text())
        assert set(ranking) == {"ranking", "converged", "iterations"}
        for name in ("fused_graph.json", "ranking.json"):
            assert (out / name).read_bytes() == (full / name).read_bytes(), name

    def test_learn_names_the_file_entity_and_timestamp_of_a_missing_panel_row(
        self, tmp_path, capsys
    ):
        out = tmp_path / "out"
        for command in ("simulate", "parse", "encode"):
            assert self.run(tmp_path, command, out) == 0, command
        # learn run alone builds the metric panel from metrics.csv
        metrics = tmp_path / "data" / "metrics.csv"
        lines = metrics.read_text().splitlines()
        assert lines[5].split(",")[:2] == ["1", "svc-0"]
        metrics.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        assert self.run(tmp_path, "learn", out) == 1
        named = f"{metrics} has no row for entity 'svc-0' at timestamp 1"
        assert f"stage causal_learner failed: {named}" in capsys.readouterr().err
        assert not (out / "adjacency.json").exists()

    def encoded_log_panel(self, tmp_path, out):
        for command in ("simulate", "parse", "encode"):
            assert self.run(tmp_path, command, out) == 0, command
        panel = out / "log_panel.csv"
        return panel, panel.read_text().splitlines()

    def assert_learn_rejects(self, tmp_path, out, capsys, named):
        assert self.run(tmp_path, "learn", out) == 1
        assert f"stage causal_learner failed: {named}" in capsys.readouterr().err
        # the panels are checked before the attention or either fit writes anything
        for name in ("attention.json", "adjacency.json"):
            assert not (out / name).exists(), name

    def test_learn_names_a_log_panel_value_that_is_not_finite(self, tmp_path, capsys):
        out = tmp_path / "out"
        panel, (header, first, *rest) = self.encoded_log_panel(tmp_path, out)
        assert first.split(",")[:2] == ["0", "svc-0"]
        panel.write_text("\n".join([header, first.rsplit(",", 1)[0] + ",nan", *rest]) + "\n")
        assert self.run(tmp_path, "learn", out) == 1
        named = f"{panel} has value 'nan' for entity 'svc-0' at timestamp 0, which is not finite"
        assert f"stage causal_learner failed: {named}" in capsys.readouterr().err
        assert not (out / "attention.json").exists()

    def test_learn_rejects_a_log_panel_in_another_entity_order(self, tmp_path, capsys):
        out = tmp_path / "out"
        panel, (header, first, second, *rest) = self.encoded_log_panel(tmp_path, out)
        assert first.split(",")[:2] == ["0", "svc-0"] and second.split(",")[:2] == ["0", "svc-1"]
        # svc-1 now appears first, so the log panel lists it first; the metric panel does not
        panel.write_text("\n".join([header, second, first, *rest]) + "\n")
        metrics = tmp_path / "data" / "metrics.csv"
        named = (
            f"{panel} must list the entities ['svc-0', 'svc-1', 'svc-2'] in that order over 40 "
            f"windows, as {metrics} does; it lists ['svc-1', 'svc-0', 'svc-2'] over 40"
        )
        self.assert_learn_rejects(tmp_path, out, capsys, named)

    def test_learn_rejects_a_log_panel_one_timestamp_short(self, tmp_path, capsys):
        out = tmp_path / "out"
        panel, lines = self.encoded_log_panel(tmp_path, out)
        # 3 entities and the KPI: the last 4 rows are the last timestamp, 39
        assert {line.split(",")[0] for line in lines[-4:]} == {"39"}
        assert lines[-5].split(",")[0] == "38"
        panel.write_text("\n".join(lines[:-4]) + "\n")
        metrics = tmp_path / "data" / "metrics.csv"
        named = (
            f"{panel} must list the entities ['svc-0', 'svc-1', 'svc-2'] in that order over 40 "
            f"windows, as {metrics} does; it lists ['svc-0', 'svc-1', 'svc-2'] over 39"
        )
        self.assert_learn_rejects(tmp_path, out, capsys, named)

    def test_learn_rejects_panels_shorter_than_twice_the_lag_order(self, tmp_path, capsys):
        # encode at lag order 2 writes panels of 5 steps, too short for learn at 3
        out = tmp_path / "out"
        short = {"scenario": {"n_entities": 3, "horizon_T": 5}}
        for command in ("simulate", "parse", "encode"):
            assert self.run(tmp_path, command, out, **short, learner={"p": 2}) == 0, command
        assert self.run(tmp_path, "learn", out, **short, learner={"p": 3}) == 1
        named = f"learner.p 3 needs at least 6 windows, more than the 5 windows of {out}"
        assert f"stage causal_learner failed: {named}" in capsys.readouterr().err
        for name in ("attention.json", "adjacency.json"):
            assert not (out / name).exists(), name

    # what the learn stage writes, and what the localize stage writes
    LOCALIZE_ALONE = ["adjacency.json", "attention.json", "fused_graph.json", "ranking.json"]

    def test_localize_without_learn_writes_both_stages_files_with_run_pipelines_bytes(
        self, tmp_path
    ):
        out, full = tmp_path / "out", tmp_path / "full"
        assert self.run(tmp_path, "simulate", full) == 0
        assert self.run(tmp_path, "run-pipeline", full) == 0
        assert self.run(tmp_path, "encode", out) == 0
        assert self.run(tmp_path, "localize", out) == 0
        assert sorted(path.name for path in out.iterdir()) == sorted(
            self.ENCODE_ALONE + self.LOCALIZE_ALONE
        )
        for name in self.LOCALIZE_ALONE:
            assert (out / name).read_bytes() == (full / name).read_bytes(), name

    # every edit that localize rejected while it read these files
    @pytest.mark.parametrize(
        "name,corrupt",
        [
            ("adjacency.json", lambda text: text[: len(text) // 2]),
            ("adjacency.json", edited_json(lambda payload: [1, 2])),
            ("attention.json", edited_json(lambda payload: [0.5])),
            ("adjacency.json", edited_json(lambda payload: {**payload, "node_names": 5})),
            ("adjacency.json", edited_json(
                lambda payload: {**payload, "node_names": ["svc-0", 1, 2, 3]})),
            ("attention.json", edited_json(lambda payload: {**payload, "a_log": "0.5"})),
            ("attention.json", edited_json(lambda payload: {**payload, "a_log": None})),
            ("attention.json", edited_json(lambda payload: without(payload, "a_metric"))),
            ("adjacency.json", edited_json(lambda payload: without(payload, "A_log"))),
            ("adjacency.json", edited_json(
                lambda payload: {**payload, "A_log": with_entry(payload["A_log"], None)})),
            ("adjacency.json", edited_json(lambda payload: {
                **payload, "A_metric": with_entry(payload["A_metric"], float("nan"))})),
            ("adjacency.json", edited_json(
                lambda payload: {**payload, "A_metric": with_entry(payload["A_metric"], True)})),
            ("adjacency.json", edited_json(
                lambda payload: {**payload, "A_metric": payload["A_metric"][:3]})),
            ("adjacency.json", edited_json(
                lambda payload: {**payload, "A_log": [row[:3] for row in payload["A_log"]]})),
            ("adjacency.json", edited_json(lambda payload: {**payload, "A_log": 0.5})),
            ("adjacency.json", edited_json(
                lambda payload: {**payload, "A_log": with_entry(payload["A_log"], -0.05)})),
            ("adjacency.json", edited_json(
                lambda payload: {**payload, "A_metric": with_entry(payload["A_metric"], -5.0)})),
            ("adjacency.json", edited_json(
                lambda payload: {**payload, "A_metric": with_entry(payload["A_metric"], -1)})),
        ],
        ids=[
            "adjacency-truncated", "adjacency-list", "attention-list", "node-names-int",
            "node-name-int", "a-log-string", "a-log-null", "a-metric-missing", "A-log-missing",
            "A-log-null", "A-metric-nan", "A-metric-bool", "A-metric-short", "A-log-ragged",
            "A-log-number", "A-log-negative", "A-metric-negative", "A-metric-negative-int",
        ],
    )
    def test_localize_ignores_an_edited_learn_file_and_rewrites_it(self, tmp_path, name, corrupt):
        out, full = tmp_path / "out", tmp_path / "full"
        assert self.run(tmp_path, "simulate", full) == 0
        assert self.run(tmp_path, "run-pipeline", full) == 0
        for command in ("encode", "learn"):
            assert self.run(tmp_path, command, out) == 0, command
        path = out / name
        edited = corrupt(path.read_text())
        assert edited != path.read_text()
        path.write_text(edited)
        assert self.run(tmp_path, "localize", out) == 0
        for written in self.LOCALIZE_ALONE:
            assert (out / written).read_bytes() == (full / written).read_bytes(), written

    @pytest.mark.parametrize(
        "name,corrupt,named",
        [
            ("ground_truth.json", lambda payload: {**payload, "root_cause_name": 5},
             "root_cause_name must be a string; int 5"),
            ("ground_truth.json", lambda payload: {**payload, "root_cause_name": "svc-9"},
             "root_cause_name 'svc-9' is not an entity that"),
            ("ground_truth.json", lambda payload: without(payload, "root_cause_name"),
             "is missing field 'root_cause_name'"),
            ("ranking.json", lambda payload: without(payload, "ranking"),
             "is missing field 'ranking'"),
            ("ranking.json", lambda payload: {**payload, "ranking": [{"rank": 1}]},
             "ranking entry 1 is missing field 'entity'"),
            ("ranking.json", lambda payload: {**payload, "ranking": [{"entity": 0}]},
             "ranking entry 1 entity must be a string; int 0"),
            ("ranking.json", lambda payload: {**payload, "ranking": [
                {"entity": "svc-0"}, {"entity": "svc-1"}, {"entity": "svc-0"}]},
             "ranking entry 3 repeats entity 'svc-0'"),
        ],
        ids=["root-int", "root-unranked", "root-missing", "ranking-missing",
             "entity-missing", "entity-int", "entity-repeat"],
    )
    def test_evaluate_rejects_a_malformed_input_and_writes_nothing(
        self, tmp_path, capsys, name, corrupt, named
    ):
        out = tmp_path / "out"
        for command in ("simulate", "parse", "encode", "learn", "localize"):
            assert self.run(tmp_path, command, out) == 0, command
        path = (tmp_path / "data" if name == "ground_truth.json" else out) / name
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        assert self.run(tmp_path, "evaluate", out) == 1
        assert f"stage metrics failed: {path} {named}" in capsys.readouterr().err
        assert not (out / "metrics_report.json").exists()

    @pytest.mark.parametrize(
        "corrupt,named",
        [
            (lambda truth: [1, 2], "must be a JSON object; list [1, 2]"),
            (lambda truth: {**truth, "n_entities": "3"}, "n_entities must be an int; str '3'"),
            (lambda truth: {**truth, "n_entities": 0}, "n_entities must be >= 1; 0 is not"),
            (lambda truth: without(truth, "entity_names"), "is missing field 'entity_names'"),
            (lambda truth: {**truth, "entity_names": "svc-0"},
             "entity_names must be a list; str 'svc-0'"),
            (lambda truth: {**truth, "entity_names": ["svc-0", 1, "svc-2"]},
             "entity name must be a string; int 1"),
            (lambda truth: {**truth, "entity_names": ["svc-0", "svc-1"]},
             "entity_names must be 3 distinct strings"),
            (lambda truth: {**truth, "entity_names": ["svc-0", "svc-0", "svc-2"]},
             "entity_names must be 3 distinct strings"),
            (lambda truth: without(truth, "horizon_T"), "is missing field 'horizon_T'"),
            (lambda truth: {**truth, "horizon_T": 40.0}, "horizon_T must be an int; float 40.0"),
            (lambda truth: {**truth, "horizon_T": 0}, "horizon_T must be >= 1; 0 is not"),
        ],
        ids=["list", "n-entities-string", "n-entities-zero", "names-missing", "names-string",
             "name-int", "names-short", "names-repeated", "horizon-missing", "horizon-float",
             "horizon-zero"],
    )
    def test_each_stage_that_reads_a_bad_ground_truth_rejects_it_and_writes_nothing(
        self, tmp_path, capsys, corrupt, named
    ):
        out = tmp_path / "out"
        for command in ("simulate", "parse", "encode", "learn"):
            assert self.run(tmp_path, command, out) == 0, command
        truth = tmp_path / "data" / "ground_truth.json"
        truth.write_text(json.dumps(corrupt(json.loads(truth.read_text()))))
        capsys.readouterr()
        # each stage runs with its inputs in place and its outputs removed; encode
        # runs the ingest stage first, so it writes neither ingest's files nor its own
        for command, stage, written in (
            ("encode", "log_ingest", ("encoder_manifest.json", "log_panel.csv",
                                      "vocabulary.json", "windows.jsonl")),
            ("parse", "log_ingest", ("vocabulary.json", "windows.jsonl")),
        ):
            for name in written:
                (out / name).unlink(missing_ok=True)
            assert self.run(tmp_path, command, out) == 1, command
            assert f"stage {stage} failed: {truth} {named}" in capsys.readouterr().err
            for name in written:
                assert not (out / name).exists(), (command, name)

    @pytest.mark.parametrize(
        "corrupt",
        [lambda truth: {**truth, "seed": None}, lambda truth: without(truth, "seed")],
        ids=["seed-null", "seed-missing"],
    )
    def test_run_pipeline_reads_no_seed_from_the_ground_truth(self, tmp_path, corrupt):
        out, full = tmp_path / "out", tmp_path / "full"
        assert self.run(tmp_path, "simulate", full) == 0
        assert self.run(tmp_path, "run-pipeline", full) == 0
        truth = tmp_path / "data" / "ground_truth.json"
        truth.write_text(json.dumps(corrupt(json.loads(truth.read_text()))))
        assert self.run(tmp_path, "run-pipeline", out) == 0
        names = sorted(path.name for path in full.iterdir())
        assert sorted(path.name for path in out.iterdir()) == names
        for name in names:
            if name != "manifest.json":  # it holds the stage timings
                assert (out / name).read_bytes() == (full / name).read_bytes(), name

    def test_the_simulator_writes_the_metric_kind_that_the_pipeline_reads(self, tmp_path):
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out, metric_kind="mem") == 0
        assert self.run(tmp_path, "run-pipeline", out, metric_kind="mem") == 0
        lines = (tmp_path / "data" / "metrics.csv").read_text().splitlines()
        assert {line.split(",")[2] for line in lines[1:]} == {"mem", "kpi"}
        assert (out / "ranking.json").exists()

    def test_an_incident_without_a_fault_is_reported_apart(self, tmp_path, capsys):
        out = tmp_path / "out"
        scenario = dict(self.TINY["scenario"], fault_type="none")
        assert self.run(tmp_path, "simulate", out, scenario=scenario) == 0
        assert self.run(tmp_path, "run-pipeline", out, scenario=scenario) == 0
        truth = json.loads((tmp_path / "data" / "ground_truth.json").read_text())
        assert truth["root_cause"] is None and truth["root_cause_name"] is None
        assert json.loads((out / "metrics_report.json").read_text()) == {"n_cases": 0}
        capsys.readouterr()
        assert self.run(tmp_path, "evaluate", out, scenario=scenario) == 0
        assert json.loads(capsys.readouterr().out) == {"n_cases": 0}

    def test_learn_before_encode_is_a_validation_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0
        assert self.run(tmp_path, "parse", out) == 0
        assert self.run(tmp_path, "learn", out) == 1
        assert "stage causal_learner failed" in capsys.readouterr().err

    def test_a_metrics_file_in_another_entity_order_is_a_validation_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0
        metrics = tmp_path / "data" / "metrics.csv"
        header, first, second, *rest = metrics.read_text().splitlines()
        assert first.split(",")[:2] == ["0", "svc-0"] and second.split(",")[:2] == ["0", "svc-1"]
        # svc-1 now appears first, so the metric panel lists it first; the log panel does not
        metrics.write_text("\n".join([header, second, first, *rest]) + "\n")
        assert self.run(tmp_path, "run-pipeline", out) == 1
        truth = tmp_path / "data" / "ground_truth.json"
        named = (
            f"{metrics} must list the entities ['svc-0', 'svc-1', 'svc-2'] in that order over 40 "
            f"windows, as {truth} does; it lists ['svc-1', 'svc-0', 'svc-2'] over 40"
        )
        assert f"stage log_encoder failed: {named}" in capsys.readouterr().err
        assert not (out / "adjacency.json").exists()
        # the encode stage fails before it trains or writes anything
        assert not (out / "encoder_manifest.json").exists()
        assert not (out / "log_panel.csv").exists()

    def test_a_metrics_file_missing_a_row_is_a_validation_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0
        metrics = tmp_path / "data" / "metrics.csv"
        lines = metrics.read_text().splitlines()
        assert lines[5].split(",")[:2] == ["1", "svc-0"]
        metrics.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        assert self.run(tmp_path, "run-pipeline", out) == 1
        err = capsys.readouterr().err
        named = f"{metrics} has no row for entity 'svc-0' at timestamp 1"
        assert f"stage log_encoder failed: {named}" in err

    def test_a_metrics_value_that_is_not_a_number_is_a_validation_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0
        metrics = tmp_path / "data" / "metrics.csv"
        lines = metrics.read_text().splitlines()
        assert lines[2].split(",")[:2] == ["0", "svc-1"]
        lines[2] = "0,svc-1,cpu,abc"
        metrics.write_text("\n".join(lines) + "\n")
        assert self.run(tmp_path, "run-pipeline", out) == 1
        named = f"{metrics} has value 'abc' for entity 'svc-1' at timestamp 0, which is not a number"
        assert f"stage log_encoder failed: {named}" in capsys.readouterr().err

    def scaled_rows(self, tmp_path, scale) -> list:
        """Rewrite metrics.csv with each svc-0 and KPI value multiplied by scale(entity);
        return the rewritten rows."""
        metrics = tmp_path / "data" / "metrics.csv"
        header, *rows = metrics.read_text().splitlines()
        for i, row in enumerate(rows):
            t, entity, name, value = row.split(",")
            if entity in ("svc-0", "kpi"):
                rows[i] = f"{t},{entity},{name},{float(value) * scale(entity)!r}"
        metrics.write_text("\n".join([header, *rows]) + "\n")
        return rows

    def test_metric_values_beyond_the_readers_bound_are_a_validation_failure(
        self, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0
        # finite values whose squares overflow the z-scoring and the correlations
        rows = self.scaled_rows(tmp_path, lambda entity: 1e300)
        assert rows[0].split(",")[:2] == ["0", "svc-0"]
        metrics = tmp_path / "data" / "metrics.csv"
        bound = float(np.sqrt(np.finfo(float).max / (8 * 40)))
        named = (
            f"{metrics} has value {float(rows[0].split(',')[3])!r} for entity 'svc-0' at "
            f"timestamp 0, beyond {bound!r}, the bound for 40 timestamps"
        )
        assert self.run(tmp_path, "run-pipeline", out) == 1
        assert f"stage log_encoder failed: {named}" in capsys.readouterr().err
        for name in ("log_panel.csv", "attention.json", "adjacency.json", "ranking.json"):
            assert not (out / name).exists(), name

    def test_metric_values_within_the_readers_bound_rank_as_unscaled(self, tmp_path, capsys):
        out, full = tmp_path / "out", tmp_path / "full"
        assert self.run(tmp_path, "simulate", out) == 0
        assert self.run(tmp_path, "run-pipeline", full) == 0
        metrics = tmp_path / "data" / "metrics.csv"
        largest = {}
        for row in metrics.read_text().splitlines()[1:]:
            _, entity, _, value = row.split(",")
            largest[entity] = max(largest.get(entity, 0.0), abs(float(value)))
        # each of the two rows reaches 0.999 of the bound
        bound = float(np.sqrt(np.finfo(float).max / (8 * 40)))
        self.scaled_rows(tmp_path, lambda entity: 0.999 * bound / largest[entity])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run(tmp_path, "run-pipeline", out) == 0
        assert caught == [] and capsys.readouterr().err == ""

        def ranked(directory):
            return [entry["entity"] for entry in
                    json.loads((directory / "ranking.json").read_text())["ranking"]]

        assert ranked(out) == ranked(full)

    def test_a_log_message_that_is_not_a_string_is_a_validation_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0
        logs = tmp_path / "data" / "logs.jsonl"
        lines = logs.read_text().splitlines()
        lines[3] = json.dumps(dict(json.loads(lines[3]), msg=5))
        logs.write_text("\n".join(lines) + "\n")
        assert self.run(tmp_path, "parse", out) == 1
        err = capsys.readouterr().err
        assert "stage log_ingest failed: log record 3 field 'msg' must be a string; int 5" in err

    def test_a_log_line_that_is_not_json_is_a_validation_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0
        logs = tmp_path / "data" / "logs.jsonl"
        lines = logs.read_text().splitlines()
        lines[4] = lines[4][:-1]
        logs.write_text("\n".join(lines) + "\n")
        assert self.run(tmp_path, "run-pipeline", out) == 1
        assert f"stage log_ingest failed: {logs} line 5 is not valid JSON" in capsys.readouterr().err

    # window_sequences is the only check of a record's place on the grid: the
    # window table, the tokenizer and the encoder do not check it again
    @pytest.mark.parametrize(
        "field,value,named",
        [
            ("entity", 3, "entity index 3 out of range"),
            ("ts", 40, "log event of entity 0 at ts 40 falls outside the grid of 40 windows"),
        ],
    )
    def test_a_log_record_outside_the_grid_is_a_validation_failure(
        self, tmp_path, capsys, field, value, named
    ):
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0
        logs = tmp_path / "data" / "logs.jsonl"
        lines = logs.read_text().splitlines()
        lines[1] = json.dumps(dict(json.loads(lines[1]), **{field: value}))
        logs.write_text("\n".join(lines) + "\n")
        assert self.run(tmp_path, "parse", out) == 1
        assert f"stage log_ingest failed: {named}" in capsys.readouterr().err
        assert not (out / "windows.jsonl").exists()

    def test_a_metrics_file_one_timestamp_short_fails_before_the_encoder_trains(
        self, tmp_path, monkeypatch, capsys
    ):
        # the encode stage checks the metric panel against ingest's grid first: the
        # labels of this both-fault incident vary, so the encoder would train next
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0
        metrics = tmp_path / "data" / "metrics.csv"
        lines = metrics.read_text().splitlines()
        metrics.write_text("\n".join(line for line in lines if not line.startswith("39,")) + "\n")

        def train_log_encoder(*args, **kwargs):
            raise RuntimeError("the encoder trained")

        monkeypatch.setattr(encoder, "train_log_encoder", train_log_encoder)
        assert self.run(tmp_path, "run-pipeline", out) == 1
        truth = tmp_path / "data" / "ground_truth.json"
        named = (
            f"{metrics} must list the entities ['svc-0', 'svc-1', 'svc-2'] in that order over 40 "
            f"windows, as {truth} does; it lists ['svc-0', 'svc-1', 'svc-2'] over 39"
        )
        assert f"stage log_encoder failed: {named}" in capsys.readouterr().err
        for name in ("encoder_manifest.json", "log_panel.csv"):
            assert not (out / name).exists(), name

    @pytest.mark.parametrize(
        "settings,named",
        [
            ({"learner": {"p": 21}}, "learner.p 21 needs at least 42 windows"),
            ({"learner": {"p": 30}}, "learner.p 30 needs at least 60 windows"),
        ],
    )
    def test_lags_longer_than_the_incident_fail_before_any_artifact(
        self, tmp_path, capsys, settings, named
    ):
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0
        assert self.run(tmp_path, "run-pipeline", out, **settings) == 1
        assert f"stage log_ingest failed: {named}" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        # the encode command, which runs the ingest stage itself, also fails first
        assert self.run(tmp_path, "encode", out, **settings) == 1
        assert f"stage log_ingest failed: {named}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command,artifact",
        [
            ("encode", "encoder_manifest.json"),
            ("learn", "adjacency.json"),
            ("localize", "fused_graph.json"),
            ("localize", "ranking.json"),
        ],
    )
    def test_failed_save_exits_2_and_keeps_the_earlier_artifact(
        self, tmp_path, monkeypatch, capsys, command, artifact
    ):
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0
        assert self.run(tmp_path, "run-pipeline", out) == 0
        before = (out / artifact).read_bytes()
        room = 40  # bytes the disk takes before it fills, partway through the artifact
        assert len(before) > room

        class DiskFills:
            def __init__(self, fh):
                self.fh, self.written = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                fits = text[: room - self.written]
                self.written += self.fh.write(fits)
                if len(fits) < len(text):
                    raise OSError(28, "No space left on device")
                return len(text)

        partial = out / (artifact + ".partial")

        def open_until_the_disk_fills(file, *args, **kwargs):
            fh = builtins.open(file, *args, **kwargs)
            return DiskFills(fh) if os.fspath(file) == str(partial) else fh

        # atomic_open opens the .partial file through the name open of its module
        monkeypatch.setattr(atomic, "open", open_until_the_disk_fills, raising=False)
        assert self.run(tmp_path, command, out) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert (out / artifact).read_bytes() == before
        assert partial.read_bytes() == before[:room]

    def test_runtime_failure_in_a_stage_exits_2(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0

        def diverge(*args, **kwargs):
            raise FloatingPointError("loss is NaN")

        monkeypatch.setattr(pipeline.structure_mod, "fit", diverge)
        assert self.run(tmp_path, "run-pipeline", out) == 2
        assert "stage causal_learner failed: loss is NaN" in capsys.readouterr().err

    def test_a_diverging_learner_is_a_runtime_failure(self, tmp_path, capsys):
        # 3e38 is finite in float32, but after the first step the sum of the
        # absolute weights over the lags is not
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0
        assert self.run(tmp_path, "run-pipeline", out, learner={"epochs": 2, "lr": 3e38}) == 2
        named = "the learned adjacency became non-finite at epoch 0"
        assert f"stage causal_learner failed: {named}" in capsys.readouterr().err
        assert not (out / "adjacency.json").exists()

    def test_a_key_error_in_a_stage_is_a_runtime_failure(self, tmp_path, monkeypatch, capsys):
        # every checked reader turns a missing field into ValueError, so a KeyError
        # is a fault of the program, not of its input
        out = tmp_path / "out"
        assert self.run(tmp_path, "simulate", out) == 0

        def lookup(*args, **kwargs):
            raise KeyError("a_log")

        monkeypatch.setattr(pipeline.fusion_mod, "fuse", lookup)
        assert self.run(tmp_path, "run-pipeline", out) == 2
        assert "stage rca failed: 'a_log'" in capsys.readouterr().err
