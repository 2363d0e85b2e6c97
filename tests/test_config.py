"""Run-configuration loading, validation, and hashing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        "override",
        [
            {"variant": "nope"},
            {"batch_size": 0},
            {"batch_size": 7},
            {"lam_pair": -1.0},
            {"epochs": 0},
            {"sched_period": 0},
            {"sched_period": -200},
        ],
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


MALFORMED_CONFIGS = {
    "no_section_header": b"work_dir = x\n",
    "bare_line": b"[paths]\nwork_dir\n",
    "repeated_key": b"[paths]\nwork_dir = a\nwork_dir = b\n",
    "repeated_section": b"[paths]\n[paths]\n",
    "not_utf8": b"[paths]\nwork_dir = \xff\n",
    "negative_n_bundles": b"[dataset]\nn_bundles = -3\n",
    "zero_n_points": b"[features]\nn_points = 0\n",
    "zero_epochs": b"[train]\nepochs = 0\n",
    "zero_sched_period": b"[train]\nsched_period = 0\n",
}


class TestMalformedFiles:
    @pytest.mark.parametrize("body", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
    def test_config_error(self, tmp_path, body):
        p = tmp_path / "run.ini"
        p.write_bytes(body)
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_percent_is_literal(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[paths]\nwork_dir = run%1\n")
        assert load_config(str(p)).work_dir == "run%1"
        p.write_text("[paths]\nwork_dir = %(here)s/run\n")
        assert load_config(str(p)).work_dir == "%(here)s/run"

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=200), st.text(max_size=200).map(str.encode)))
    def test_fuzz(self, tmp_path_factory, body):
        p = tmp_path_factory.mktemp("ini") / "run.ini"
        p.write_bytes(body)
        try:
            load_config(str(p))
        except ConfigError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["[paths]", "[dataset]", "[shape]", "[features]", "[DEFAULT]"]),
                st.builds(
                    "{} = {}".format,
                    st.sampled_from(["work_dir", "n_bundles", "n_points", "voxel_size", "variant"]),
                    st.text(max_size=12),
                ),
                st.text(max_size=20),
            ),
            max_size=8,
        )
    )
    def test_fuzz_near_valid(self, tmp_path_factory, lines):
        p = tmp_path_factory.mktemp("ini") / "run.ini"
        p.write_bytes("\n".join(lines).encode())
        try:
            load_config(str(p))
        except ConfigError:
            pass


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
