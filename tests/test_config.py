"""Run-configuration loading, validation, and hashing."""

import pytest

from bundleshape.checkpoint import TrainConfig
from bundleshape.config import ConfigError, RunConfig, config_hash, describe_keys, load_config


class TestLoad:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg == RunConfig()

    def test_file_overrides(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[dataset]\nn_bundles = 12\nmaster_seed = 9\n[train]\nepochs = 3\n")
        cfg = load_config(str(p))
        assert cfg.n_bundles == 12
        assert cfg.master_seed == 9
        assert cfg.epochs == 3
        assert cfg.voxel_size == 1.0  # untouched default

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[bogus]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[dataset]\nnot_a_key = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_bad_value_type(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[dataset]\nn_bundles = many\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/does/not/exist.ini")

    def test_validation(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides={"train_frac": 0.9, "val_frac": 0.2})
        for voxel_size in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                load_config(None, overrides={"voxel_size": voxel_size})
        with pytest.raises(ConfigError):
            load_config(None, overrides={"variant": "nope"})
        with pytest.raises(ConfigError):
            load_config(None, overrides={"batch_size": 5})
        with pytest.raises(ConfigError):
            load_config(None, overrides={"pca_k": 0})

    @pytest.mark.parametrize(
        "override", [{"variant": "nope"}, {"batch_size": 0}, {"batch_size": 7}, {"lam_pair": -1.0}]
    )
    def test_train_settings_refused_as_train_config_refuses_them(self, override):
        with pytest.raises(ValueError) as train_exc:
            TrainConfig(**override)
        with pytest.raises(ConfigError) as config_exc:
            load_config(None, overrides=override)
        assert str(config_exc.value) == str(train_exc.value)

    def test_train_config_carries_the_train_section(self):
        cfg = load_config(None, overrides={"batch_size": 16, "train_seed": 3, "n_points": 128})
        assert cfg.train_config() == TrainConfig(batch_size=16, seed=3, n_points=128)
        assert cfg.train_config("vanilla").variant == "vanilla"


class TestHash:
    def test_stable_and_sensitive(self):
        h1 = config_hash(RunConfig())
        h2 = config_hash(RunConfig())
        h3 = config_hash(RunConfig(master_seed=8))
        assert h1 == h2
        assert h1 != h3
        assert len(h1) == 16

    def test_describe_lists_every_key(self):
        text = describe_keys()
        from bundleshape.config import _SCHEMA

        for keys in _SCHEMA.values():
            for key in keys:
                assert key in text
