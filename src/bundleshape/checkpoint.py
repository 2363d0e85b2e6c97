"""Versioned checkpoint container: network weights, PCA model, tabular
standardizer, and the training configuration in one self-describing file.

Layout: magic ``T2S1``, version byte, little-endian u32 JSON header
length, JSON header (config plus an array name/shape table), then the
raw array payloads as little-endian float64 in table order, up to the end
of the file. Every array is a scalar, vector or matrix. Round trips are
bit-exact.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .features import TabStandardizer
from .io import BadMagic, BadVersion, MalformedHeader, TruncatedFile
from .net import check_variant, param_shapes
from .pca import PcaModel

__all__ = ["TrainConfig", "Checkpoint", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_MAGIC = b"T2S1"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """The [train] settings plus [features] n_points and [pca] pca_k: the one
    place their defaults and bounds are declared. Raises ValueError for a
    value out of bounds, whether it comes from a run config, a checkpoint
    header or a caller."""

    variant: str = "full"
    batch_size: int = 32
    epochs: int = 30
    lr0: float = 2e-3
    sched_period: int = 200
    sched_gamma: float = 0.1
    lam_pair: float = 1.0
    weight_decay: float = 0.005
    n_points: int = 1024
    pca_k: int = 5
    seed: int = 0

    def __post_init__(self):
        check_variant(self.variant)
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ValueError("batch_size must be even and >= 2 (Siamese pairing)")
        if self.lam_pair < 0:
            raise ValueError("lam_pair must be >= 0")
        for key in ("epochs", "sched_period"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.n_points < 3:  # fewer points give no 3-D principal frame
            raise ValueError(f"n_points must be >= 3, got {self.n_points}")
        if not 1 <= self.pca_k <= 10:
            raise ValueError(f"pca_k must be in [1, 10], got {self.pca_k}")


@dataclass(frozen=True)
class Checkpoint:
    config: TrainConfig
    params: dict  # name -> float64 array
    pca: PcaModel
    standardizer: TabStandardizer | None  # None for point-only variants


_PCA_FIELDS = (
    "feature_mean",
    "feature_sd",
    "components",
    "explained_variance",
    "explained_variance_ratio",
    "score_sd",
)


def save_checkpoint(ckpt: Checkpoint) -> bytes:
    arrays: dict[str, np.ndarray] = {}
    for name in sorted(ckpt.params):
        arrays[f"net.{name}"] = np.asarray(ckpt.params[name], dtype=np.float64)
    for field_name in _PCA_FIELDS:
        arrays[f"pca.{field_name}"] = np.asarray(getattr(ckpt.pca, field_name), dtype=np.float64)
    if ckpt.standardizer is not None:
        arrays["tab.mean"] = np.asarray(ckpt.standardizer.mean, dtype=np.float64)
        arrays["tab.sd"] = np.asarray(ckpt.standardizer.sd, dtype=np.float64)

    table = [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()]
    header = {
        "config": asdict(ckpt.config),
        "has_standardizer": ckpt.standardizer is not None,
        "arrays": table,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<B", CHECKPOINT_VERSION),
        struct.pack("<I", len(header_bytes)),
        header_bytes,
    ]
    for entry in table:
        parts.append(arrays[entry["name"]].astype("<f8").tobytes())
    return b"".join(parts)


def load_checkpoint(data: bytes) -> Checkpoint:
    if len(data) < 4:
        raise TruncatedFile("shorter than magic")
    if data[:4] != CHECKPOINT_MAGIC:
        raise BadMagic(f"bad checkpoint magic {data[:4]!r}")
    if len(data) < 9:
        raise TruncatedFile("missing version/header length")
    if data[4] != CHECKPOINT_VERSION:
        raise BadVersion(f"unsupported checkpoint version {data[4]}")
    (hlen,) = struct.unpack_from("<I", data, 5)
    if len(data) < 9 + hlen:
        raise TruncatedFile("header truncated")
    try:
        header = json.loads(data[9 : 9 + hlen].decode("utf-8"))
        table = [(entry["name"], list(entry["shape"])) for entry in header["arrays"]]
        config = TrainConfig(**header["config"])
        has_standardizer = header["has_standardizer"]
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: not UTF-8 JSON, bad config value
        raise MalformedHeader(f"bad checkpoint header: {exc!r}") from None

    pos = 9 + hlen
    arrays: dict[str, np.ndarray] = {}
    for name, shape in table:
        if not isinstance(name, str) or len(shape) > 2 or not all(type(n) is int and n >= 0 for n in shape):
            raise MalformedHeader(f"bad array table entry {name!r} with shape {shape!r}")
        count = math.prod(shape)
        if pos + 8 * count > len(data):
            raise TruncatedFile(f"array {name!r} truncated")
        arrays[name] = np.frombuffer(data, dtype="<f8", count=count, offset=pos).reshape(shape).copy()
        pos += 8 * count
    if pos != len(data):
        raise MalformedHeader(f"{len(data) - pos} trailing bytes after the last array")

    def array(name: str) -> np.ndarray:
        if name not in arrays:
            raise MalformedHeader(f"checkpoint has no array {name!r}")
        return arrays[name]

    params = {}
    for name, shape in param_shapes(config.variant).items():
        params[name] = array(f"net.{name}")
        if params[name].shape != shape:
            raise MalformedHeader(f"array 'net.{name}' has shape {params[name].shape}, not {shape}")
    pca = PcaModel(**{f: array(f"pca.{f}") for f in _PCA_FIELDS})
    standardizer = None
    if has_standardizer:
        standardizer = TabStandardizer(mean=array("tab.mean"), sd=array("tab.sd"))
    return Checkpoint(config=config, params=params, pca=pca, standardizer=standardizer)
