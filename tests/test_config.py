"""Run-configuration loading, validation, and hashing."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleshape.checkpoint import TrainConfig
from bundleshape.config import ConfigError, RunConfig, config_hash, describe_keys, load_config
from bundleshape.synth import DatasetConfig


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
            {"n_points": 0},
            {"n_points": 2},
            {"pca_k": 0},
            {"pca_k": 11},
        ],
    )
    def test_train_settings_refused_as_train_config_refuses_them(self, override):
        with pytest.raises(ValueError) as train_exc:
            TrainConfig(**override)
        with pytest.raises(ConfigError) as config_exc:
            load_config(None, overrides=override)
        assert str(config_exc.value) == str(train_exc.value)

    @pytest.mark.parametrize(
        "override",
        [
            {"n_bundles": 0},
            {"train_frac": 0.9, "val_frac": 0.2},
            {"train_frac": 0.85, "val_frac": 0.15},
            {"train_frac": 0.0},
            {"val_frac": 1.0},
            {"cylinder_weight": 0.0, "arc_weight": 0.0, "helix_weight": 0.0},
            {"arc_weight": -0.1},
            {"helix_weight": float("nan")},
            {"points_min": 1, "points_max": 1},
            {"points_min": 101},
            {"length_min": 120.0, "length_max": 40.0},
            {"tube_radius_min": 6.0},
            {"jitter_max": 0.05},
            {"tube_radius_min": -1.0, "tube_radius_max": -0.5},
            {"tube_radius_min": -1.0},
            {"jitter_min": -0.1},
        ],
    )
    def test_dataset_settings_refused_as_dataset_config_refuses_them(self, override, tmp_path):
        with pytest.raises(ValueError) as dataset_exc:
            DatasetConfig(out_dir=str(tmp_path / "bundles"), **override)
        with pytest.raises(ConfigError) as config_exc:
            load_config(None, overrides=override)
        assert str(config_exc.value) == str(dataset_exc.value)
        assert not (tmp_path / "bundles").exists()

    def test_train_config_carries_the_train_section(self):
        cfg = load_config(None, overrides={"batch_size": 16, "train_seed": 3, "n_points": 128})
        assert cfg.train_config() == TrainConfig(batch_size=16, seed=3, n_points=128)
        assert cfg.train_config("vanilla").variant == "vanilla"


# One non-default value for every stage config field, under its INI section
# and key; out_dir is set from work_dir, and train_seed sets TrainConfig.seed.
NON_DEFAULT_KEYS = {
    "dataset": {
        "n_bundles": 61,
        "master_seed": 8,
        "train_frac": 0.6,
        "val_frac": 0.2,
        "cylinder_weight": 0.5,
        "arc_weight": 0.25,
        "helix_weight": 0.25,
        "length_min": 41.0,
        "length_max": 121.0,
        "tube_radius_min": 1.6,
        "tube_radius_max": 5.1,
        "jitter_min": 0.2,
        "jitter_max": 0.5,
        "points_min": 41,
        "points_max": 101,
        "streamline_density": 4.5,
    },
    "features": {"n_points": 512},
    "pca": {"pca_k": 4},
    "train": {
        "variant": "pca",
        "batch_size": 16,
        "epochs": 3,
        "lr0": 0.001,
        "sched_period": 100,
        "sched_gamma": 0.5,
        "lam_pair": 0.5,
        "weight_decay": 0.01,
        "train_seed": 2,
    },
}
FIELD_OF_KEY = {"train_seed": "seed"}


def write_every_key(path):
    lines = ["[paths]", "work_dir = elsewhere", "[shape]", "voxel_size = 0.5"]
    for section, keys in NON_DEFAULT_KEYS.items():
        lines += [f"[{section}]", *(f"{key} = {value}" for key, value in keys.items())]
    path.write_text("\n".join(lines) + "\n")


class TestStageConfigs:
    """Every stage config field is a key: set in a file, it reaches the stage
    config, and the run's default is the stage config's default."""

    def test_every_field_has_a_key(self):
        keys = {FIELD_OF_KEY.get(k, k) for section in NON_DEFAULT_KEYS.values() for k in section}
        stage_fields = {f.name for f in fields(TrainConfig)} | {f.name for f in fields(DatasetConfig)}
        assert keys == stage_fields - {"out_dir"}

    def test_set_key_reaches_its_stage_config(self, tmp_path):
        write_every_key(tmp_path / "run.ini")
        cfg = load_config(str(tmp_path / "run.ini"))
        train, dataset = cfg.train_config(), cfg.dataset_config(out_dir="b")
        for section, keys in NON_DEFAULT_KEYS.items():
            stage = dataset if section == "dataset" else train
            for key, value in keys.items():
                got = getattr(stage, FIELD_OF_KEY.get(key, key))
                assert got == value and type(got) is type(value), key

    def test_run_defaults_are_the_stage_defaults(self):
        run = RunConfig()
        assert run.train_config() == TrainConfig()
        assert run.dataset_config(out_dir="b") == DatasetConfig(out_dir="b")

    def test_hashes_are_pinned(self, tmp_path):
        # config_hash stamps every output file: a renamed key, a moved
        # section or a changed default shows here.
        assert config_hash(RunConfig()) == "a383af865201b985"
        write_every_key(tmp_path / "run.ini")
        assert config_hash(load_config(str(tmp_path / "run.ini"))) == "81604bb2a5da6024"


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
