"""Versioned key-value pipeline configuration."""

import pytest

from tdsv.config import HEADER, PipelineConfig, load_config, save_config
from tdsv.resnet import PRESETS
from tdsv.errors import ConfigError


def _write(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return path


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = PipelineConfig()
        assert cfg.preset == "desk"
        assert cfg.snorm is True

    @pytest.mark.parametrize("kwargs", [
        {"preset": "gigantic"},
        {"epochs": 0},
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"cohort_size": -1},
        {"cohort_size": 1},
        {"fusion_l2": -0.5},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"fusion_l2": float("nan")},
        {"fusion_l2": float("inf")},
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    def test_presets_are_the_network_presets(self):
        for name in PRESETS:
            assert PipelineConfig(preset=name).preset == name
        with pytest.raises(ConfigError, match=r"\['desk', 'full'\], got 'huge'"):
            PipelineConfig(preset="huge")


class TestLoad:
    def test_binary_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "bin.cfg"
        path.write_bytes(b"svconfig 1\n\xff\xfe\x00")
        with pytest.raises(ConfigError, match="bin.cfg: not UTF-8"):
            load_config(path)

    def test_round_trip(self, tmp_path):
        cfg = PipelineConfig(preset="full", epochs=5, batch_size=8,
                             learning_rate=3e-4, snorm=False, cohort_size=12,
                             fusion_l2=0.01)
        path = tmp_path / "run.cfg"
        save_config(path, cfg)
        assert load_config(path) == cfg
        assert path.read_text().splitlines()[0] == HEADER

    def test_partial_file_keeps_defaults(self, tmp_path):
        path = _write(tmp_path, f"{HEADER}\nepochs=3\n")
        cfg = load_config(path)
        assert cfg.epochs == 3
        assert cfg.batch_size == PipelineConfig().batch_size

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = _write(tmp_path,
                      f"# run settings\n\n{HEADER}\n# training\nepochs=2\n\n")
        assert load_config(path).epochs == 2

    def test_missing_header(self, tmp_path):
        path = _write(tmp_path, "epochs=3\n")
        with pytest.raises(ConfigError, match="header"):
            load_config(path)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ConfigError, match="header"):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = _write(tmp_path, f"{HEADER}\nepochz=3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = _write(tmp_path, f"{HEADER}\nepochs=3\nepochs=4\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_malformed_line(self, tmp_path):
        path = _write(tmp_path, f"{HEADER}\nepochs\n")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(path)

    def test_bad_int(self, tmp_path):
        path = _write(tmp_path, f"{HEADER}\nepochs=three\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    def test_bad_bool(self, tmp_path):
        path = _write(tmp_path, f"{HEADER}\nsnorm=yes\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    def test_bool_spellings(self, tmp_path):
        for text, value in (("true", True), ("1", True),
                            ("false", False), ("0", False)):
            path = _write(tmp_path, f"{HEADER}\nsnorm={text}\n")
            assert load_config(path).snorm is value

    def test_out_of_range_value_rejected_at_load(self, tmp_path):
        path = _write(tmp_path, f"{HEADER}\nepochs=0\n")
        with pytest.raises(ConfigError, match="epochs"):
            load_config(path)

    def test_non_finite_value_rejected_at_load(self, tmp_path):
        path = _write(tmp_path, f"{HEADER}\nfusion_l2=nan\n")
        with pytest.raises(ConfigError, match="^fusion_l2 must be finite"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.cfg")
