"""Sectioned key=value run configuration.

Every key has a documented default; unknown sections or keys are
rejected. A key's default and bounds are declared once, in the stage
config that reads it (``synth.DatasetConfig``, ``checkpoint.TrainConfig``);
``RunConfig`` is the flat set of keys derived from them, and the one
carrier of a run's settings: a command-line override such as ``--variant``
enters through ``load_config``'s ``overrides`` and a Python caller uses
``dataclasses.replace``. A stable hash of the resolved settings, every
section but [paths], is embedded in every output file so results can be
traced back to their settings.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import field, fields, make_dataclass, replace

from .checkpoint import TrainConfig
from .synth import DatasetConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "config_hash", "describe_keys"]


class ConfigError(ValueError):
    pass


# Each key sets the stage config field of its own name, but for TrainConfig.seed
# (so named in checkpoint headers), which the key train_seed sets.
_KEY_OF_FIELD = {"seed": "train_seed"}
_TRAIN_SECTIONS = {"n_points": "features", "pca_k": "pca"}  # the other TrainConfig fields are [train]

# (section, key, type, default) of every key. work_dir and voxel_size are the
# two that no stage config reads.
_KEYS = (
    ("paths", "work_dir", "str", "run"),
    *(("dataset", f.name, f.type, f.default) for f in fields(DatasetConfig) if f.name != "out_dir"),
    ("shape", "voxel_size", "float", 1.0),
    *(
        (_TRAIN_SECTIONS.get(f.name, "train"), _KEY_OF_FIELD.get(f.name, f.name), f.type, f.default)
        for f in fields(TrainConfig)
    ),
)
_SCHEMA: dict[str, tuple[str, ...]] = {
    section: tuple(key for s, key, _, _ in _KEYS if s == section)
    for section in ("paths", "dataset", "shape", "features", "pca", "train")
}


class _StageConfigs:
    def train_config(self) -> TrainConfig:
        """The [train], [features] n_points and [pca] pca_k settings, variant
        included; raises ValueError for a setting TrainConfig refuses."""
        return self._stage(TrainConfig)

    def dataset_config(self, out_dir: str) -> DatasetConfig:
        """The [dataset] settings, writing under ``out_dir``; raises
        ValueError for a setting DatasetConfig refuses."""
        return self._stage(DatasetConfig, out_dir=out_dir)

    def _stage(self, stage, **given):
        keys = (f.name for f in fields(stage) if f.name not in given)
        return stage(**{k: getattr(self, _KEY_OF_FIELD.get(k, k)) for k in keys}, **given)


RunConfig = make_dataclass(
    "RunConfig",
    [(key, kind, field(default=default)) for _, key, kind, default in _KEYS],
    bases=(_StageConfigs,),
    namespace={"__module__": __name__, "__doc__": "Every key of a run, defaulting as its stage config does."},
    frozen=True,
)

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r} (expected {kind})") from None


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Load a sectioned key=value file; missing keys take their defaults.
    Values are read literally (no ``%`` interpolation)."""
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                values[key] = _convert(key, raw)
    cfg = RunConfig(**values)
    if overrides:
        cfg = replace(cfg, **overrides)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if not 0 < cfg.voxel_size < math.inf:  # also refuses NaN
        raise ConfigError("voxel_size must be positive and finite")
    try:
        cfg.dataset_config(out_dir=cfg.work_dir)
        cfg.train_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def config_hash(cfg: RunConfig) -> str:
    """Short stable hash over the resolved section.key=value lines of the run
    settings. [paths] says where a run writes, not what it computes, so it is
    left out: the same run stamps one hash in every work_dir."""
    lines = []
    for section, keys in sorted(_SCHEMA.items()):
        if section == "paths":
            continue
        for key in sorted(keys):
            lines.append(f"{section}.{key}={getattr(cfg, key)!r}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:16]


def describe_keys() -> str:
    """One line per config key with its default, for --help output."""
    defaults = RunConfig()
    out = []
    for section, keys in _SCHEMA.items():
        out.append(f"[{section}]")
        for key in keys:
            out.append(f"  {key} = {getattr(defaults, key)}")
    return "\n".join(out)
