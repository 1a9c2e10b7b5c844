import json

import pytest

from mmrca import cli, pipeline


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfigKeys:
    @pytest.mark.parametrize(
        "payload,named",
        [
            ({"encoder": {"epoch": 3}}, "encoder.epoch"),
            ({"encodr": {"epochs": 3}}, "encodr"),
            ({"fusion": {"top_k": 2}, "rca": {"restart": 0.2, "tolerance": 1e-9}}, "rca.tolerance"),
        ],
    )
    def test_unknown_key_exits_as_invalid_configuration(self, tmp_path, capsys, payload, named):
        config = write_config(tmp_path, payload)
        code = cli.main(["--config", config, "--out", str(tmp_path / "out"), "run-pipeline"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("invalid configuration:")
        assert repr(named) in err

    @pytest.mark.parametrize("payload", [{"encoder": 3}, [1, 2]])
    def test_a_section_that_is_not_an_object_is_rejected(self, tmp_path, payload):
        with pytest.raises(ValueError, match="must be a JSON object"):
            pipeline.load_config(write_config(tmp_path, payload), environ={})

    def test_known_keys_load(self, tmp_path):
        payload = {"encoder": {"epochs": 3}, "scenario": {"dag": [[0, 1], [0, 0]], "root_cause": 0}}
        config = pipeline.load_config(write_config(tmp_path, payload), environ={})
        assert config["encoder"]["epochs"] == 3
        assert config["encoder"]["d_model"] == pipeline.DEFAULT_CONFIG["encoder"]["d_model"]
        assert config["scenario"]["dag"] == [[0, 1], [0, 0]]
