"""Sectioned key=value run configuration.

Every key has a documented default; unknown sections or keys are
rejected. A stable hash of the resolved configuration is embedded in
every output file so results can be traced back to their settings.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields, replace

from .checkpoint import TrainConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "config_hash", "describe_keys"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    # [paths]
    work_dir: str = "run"
    # [dataset]
    n_bundles: int = 600
    master_seed: int = 7
    train_frac: float = 0.70
    val_frac: float = 0.15
    cylinder_weight: float = 0.4
    arc_weight: float = 0.3
    helix_weight: float = 0.3
    length_min: float = 40.0
    length_max: float = 120.0
    tube_radius_min: float = 1.5
    tube_radius_max: float = 5.0
    jitter_min: float = 0.1
    jitter_max: float = 0.4
    points_min: int = 40
    points_max: int = 100
    streamline_density: float = 4.0
    # [shape]
    voxel_size: float = 1.0
    # [features]
    n_points: int = 1024
    # [pca]
    pca_k: int = 5
    # [train]
    variant: str = "full"
    batch_size: int = 32
    epochs: int = 30
    lr0: float = 2e-3
    sched_period: int = 200
    sched_gamma: float = 0.1
    lam_pair: float = 1.0
    weight_decay: float = 0.005
    train_seed: int = 0

    def train_config(self, variant: str | None = None) -> TrainConfig:
        """The [train] settings (``variant`` overrides the configured one);
        raises ValueError for a setting TrainConfig refuses."""
        return TrainConfig(
            variant=variant or self.variant,
            batch_size=self.batch_size,
            epochs=self.epochs,
            lr0=self.lr0,
            sched_period=self.sched_period,
            sched_gamma=self.sched_gamma,
            lam_pair=self.lam_pair,
            weight_decay=self.weight_decay,
            n_points=self.n_points,
            pca_k=self.pca_k,
            seed=self.train_seed,
        )


_SCHEMA: dict[str, tuple[str, ...]] = {
    "paths": ("work_dir",),
    "dataset": (
        "n_bundles",
        "master_seed",
        "train_frac",
        "val_frac",
        "cylinder_weight",
        "arc_weight",
        "helix_weight",
        "length_min",
        "length_max",
        "tube_radius_min",
        "tube_radius_max",
        "jitter_min",
        "jitter_max",
        "points_min",
        "points_max",
        "streamline_density",
    ),
    "shape": ("voxel_size",),
    "features": ("n_points",),
    "pca": ("pca_k",),
    "train": (
        "variant",
        "batch_size",
        "epochs",
        "lr0",
        "sched_period",
        "sched_gamma",
        "lam_pair",
        "weight_decay",
        "train_seed",
    ),
}

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
    if not 0 < cfg.train_frac < 1 or not 0 < cfg.val_frac < 1:
        raise ConfigError("split fractions must be in (0, 1)")
    if cfg.train_frac + cfg.val_frac >= 1:
        raise ConfigError("train_frac + val_frac must leave room for a test split")
    for key in ("n_bundles", "n_points"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1, got {getattr(cfg, key)}")
    if not 0 < cfg.voxel_size < math.inf:  # also refuses NaN
        raise ConfigError("voxel_size must be positive and finite")
    if not 1 <= cfg.pca_k <= 10:
        raise ConfigError("pca_k must be in [1, 10]")
    try:
        cfg.train_config()  # checks variant, batch size, lam_pair, epochs, sched_period
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def config_hash(cfg: RunConfig) -> str:
    """Short stable hash over the resolved section.key=value lines."""
    lines = []
    for section, keys in sorted(_SCHEMA.items()):
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
