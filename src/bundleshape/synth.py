"""Deterministic synthetic fiber bundles with analytically known geometry.

Three centerline families (straight cylinder, circular arc, helix) are
swept with a coherent tube of streamlines: each streamline keeps a fixed
radial offset within the tube cross-section, plus optional per-point
Gaussian jitter. All randomness flows through counter-based Philox
generators keyed by (seed, stream id), so generation is reproducible.
"""

from __future__ import annotations

import typing
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np
from scipy.stats import qmc

from .io import Bundle, read_csv, write_csv, write_native

__all__ = [
    "FAMILIES",
    "BundleSpec",
    "ManifestRow",
    "DatasetConfig",
    "generate_bundle",
    "generate_dataset",
    "read_manifest",
    "write_manifest",
]

FAMILIES = ("cylinder", "arc", "helix")

# Sentinel stream ids keying the independent Philox streams of one bundle.
_BUNDLE_LEVEL_STREAM = 0xFFFFFFFF  # dataset-level parameter draws
_DISC_STREAM = 0xFFFFFFFE  # toroidal shift of the cross-section layout
_JITTER_STREAM = 0xFFFFFFFD  # per-point Gaussian jitter


def _gen(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream]))


_sobol_cache: dict[int, np.ndarray] = {}


def _disc_layout(n: int) -> np.ndarray:
    """First n rows of the unscrambled 2-d Sobol sequence (cached)."""
    size = 1
    while size < n:
        size *= 2
    if size not in _sobol_cache:
        _sobol_cache[size] = qmc.Sobol(d=2, scramble=False).random(size)
    return _sobol_cache[size][:n]


@dataclass(frozen=True)
class BundleSpec:
    """Full recipe for one synthetic bundle."""

    family: str
    length_mm: float  # centerline arc length
    tube_radius: float
    n_streamlines: int
    points_per_streamline: int
    jitter_sd: float = 0.0
    angle_rad: float = 1.0  # swept angle for arc/helix centerlines
    pitch_mm: float = 20.0  # helix rise per full turn
    rotation: tuple = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    translation: tuple = (0.0, 0.0, 0.0)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.tube_radius < 0:
            raise ValueError("tube_radius must be >= 0")
        if self.n_streamlines < 1:
            raise ValueError("need at least one streamline")
        if self.points_per_streamline < 2:
            raise ValueError("need at least two points per streamline")
        if self.family in ("arc", "helix") and not (0 < self.angle_rad < 2 * np.pi):
            raise ValueError("angle must be in (0, 2*pi)")
        if self.family == "helix":
            rise = self.pitch_mm / (2 * np.pi)
            if (self.length_mm / self.angle_rad) ** 2 <= rise ** 2:
                raise ValueError("helix length too short for the requested pitch/angle")


def _centerline_frame(spec: BundleSpec, u: np.ndarray):
    """Centerline points plus (normal, binormal) frame at each parameter.

    All parameterizations are constant-speed, so uniform u is arc-uniform.
    """
    if spec.family == "cylinder":
        c = np.zeros((u.shape[0], 3))
        c[:, 2] = u * spec.length_mm
        n = np.tile([1.0, 0.0, 0.0], (u.shape[0], 1))
        b = np.tile([0.0, 1.0, 0.0], (u.shape[0], 1))
        return c, n, b
    if spec.family == "arc":
        radius = spec.length_mm / spec.angle_rad
        phi = u * spec.angle_rad
        c = np.stack([radius * np.sin(phi), radius * (1 - np.cos(phi)), np.zeros_like(phi)], axis=1)
        n = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=1)
        b = np.tile([0.0, 0.0, 1.0], (u.shape[0], 1))
        return c, n, b
    # helix
    rise = spec.pitch_mm / (2 * np.pi)
    radius = np.sqrt((spec.length_mm / spec.angle_rad) ** 2 - rise ** 2)
    phi = u * spec.angle_rad
    c = np.stack([radius * np.cos(phi), radius * np.sin(phi), rise * phi], axis=1)
    n = np.stack([-np.cos(phi), -np.sin(phi), np.zeros_like(phi)], axis=1)
    speed = np.sqrt(radius ** 2 + rise ** 2)
    t = np.stack([-radius * np.sin(phi), radius * np.cos(phi), np.full_like(phi, rise)], axis=1) / speed
    b = np.cross(t, n)
    return c, n, b


def generate_bundle(spec: BundleSpec) -> Bundle:
    """Generate the bundle described by a spec; fully determined by spec.seed."""
    u = np.linspace(0.0, 1.0, spec.points_per_streamline)
    center, normal, binormal = _centerline_frame(spec, u)
    rot = np.asarray(spec.rotation, dtype=np.float64)
    trans = np.asarray(spec.translation, dtype=np.float64)

    # Fixed per-streamline offsets, uniform over the cross-section disc.
    # A low-discrepancy layout with a seeded toroidal shift (rather than
    # iid draws) keeps the tube evenly filled, which the voxel measures
    # are sensitive to.
    shift = _gen(spec.seed, _DISC_STREAM).random(2)
    uv = (_disc_layout(spec.n_streamlines) + shift) % 1.0
    radii = spec.tube_radius * np.sqrt(uv[:, 0])
    angles = 2 * np.pi * uv[:, 1]

    a = radii * np.cos(angles)
    b = radii * np.sin(angles)
    pts = center[None, :, :] + a[:, None, None] * normal[None] + b[:, None, None] * binormal[None]
    if spec.jitter_sd > 0:
        jitter = _gen(spec.seed, _JITTER_STREAM)
        pts = pts + jitter.normal(0.0, spec.jitter_sd, size=pts.shape)
    pts = pts @ rot.T + trans
    return Bundle.from_streamlines(pts)


# ---------------------------------------------------------------------------
# Dataset generation


@dataclass(frozen=True)
class ManifestRow:
    path: str
    family: str
    split: str
    seed: int
    tube_radius: float
    n_streamlines: int
    points_per_streamline: int
    jitter_sd: float
    length_mm: float
    angle_rad: float
    pitch_mm: float


_MANIFEST_TYPES = typing.get_type_hints(ManifestRow)
MANIFEST_FIELDS = list(_MANIFEST_TYPES)


@dataclass(frozen=True)
class DatasetConfig:
    """Counts, parameter ranges, split fractions, and the master seed: the
    [dataset] settings under their key names, declared with their defaults
    and bounds here only. Bundles not in the train or val split are test."""

    out_dir: str
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
    streamline_density: float = 4.0  # streamlines per mm^2 of cross-section

    def __post_init__(self):
        if self.n_bundles < 1:
            raise ValueError(f"n_bundles must be >= 1, got {self.n_bundles}")
        if not 0 < self.train_frac < 1 or not 0 < self.val_frac < 1:
            raise ValueError("split fractions must be in (0, 1)")
        if self.train_frac + self.val_frac >= 1:
            raise ValueError("train_frac + val_frac must leave room for a test split")
        weights = (self.cylinder_weight, self.arc_weight, self.helix_weight)
        if not (all(w >= 0 for w in weights) and 0 < sum(weights) < np.inf):
            raise ValueError("family weights must be >= 0 with a positive, finite sum")
        for name in ("length", "tube_radius", "jitter", "points"):
            if not getattr(self, f"{name}_min") <= getattr(self, f"{name}_max"):
                raise ValueError(f"{name}_min must be <= {name}_max")
        if self.points_min < 2:
            raise ValueError(f"points_min must be >= 2, got {self.points_min}")
        if not (self.tube_radius_min >= 0 and self.jitter_min >= 0):
            raise ValueError("tube_radius_min and jitter_min must be >= 0")


# Swept angle and pitch ranges of the curved families; no setting varies them.
ARC_ANGLE_RANGE = (0.5, 2.5)
HELIX_ANGLE_RANGE = (1.0, 3.0)
HELIX_PITCH_RANGE = (30.0, 80.0)


def _lerp(lo: float, hi: float, t) -> np.ndarray:
    return lo + (hi - lo) * t


def _rotation_matrix(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _draw_spec(config: DatasetConfig, index: int, sobol_row: np.ndarray) -> BundleSpec:
    """Map one low-discrepancy row plus keyed noise to a BundleSpec."""
    bundle_seed = (config.master_seed << 24) + index
    rng = _gen(bundle_seed, _BUNDLE_LEVEL_STREAM)

    weights = (config.cylinder_weight, config.arc_weight, config.helix_weight)
    fam_cdf = np.cumsum(weights) / np.sum(weights)
    family = FAMILIES[int(np.searchsorted(fam_cdf, sobol_row[0], side="right"))]

    length = float(_lerp(config.length_min, config.length_max, sobol_row[1]))
    tube_radius = float(_lerp(config.tube_radius_min, config.tube_radius_max, sobol_row[2]))
    jitter = float(_lerp(config.jitter_min, config.jitter_max, sobol_row[3]))
    pps = int(round(_lerp(config.points_min, config.points_max, sobol_row[4])))

    # NoS tracks cross-section area (with noise), so the tabular modality
    # genuinely carries size information.
    base = config.streamline_density * np.pi * tube_radius ** 2
    nos = int(np.clip(round(base * rng.lognormal(0.0, 0.25)), 16, 400))

    angle = 1.0
    pitch = 20.0
    if family == "arc":
        angle = float(_lerp(*ARC_ANGLE_RANGE, sobol_row[5]))
    elif family == "helix":
        angle = float(_lerp(*HELIX_ANGLE_RANGE, sobol_row[5]))
        pitch = float(_lerp(*HELIX_PITCH_RANGE, sobol_row[6]))
        max_pitch = 2 * np.pi * length / angle * 0.8
        pitch = min(pitch, max_pitch)

    rot = _rotation_matrix(rng)
    trans = rng.uniform(-50.0, 50.0, size=3)
    return BundleSpec(
        family=family,
        length_mm=length,
        tube_radius=tube_radius,
        n_streamlines=nos,
        points_per_streamline=pps,
        jitter_sd=jitter,
        angle_rad=angle,
        pitch_mm=pitch,
        rotation=tuple(map(tuple, rot)),
        translation=tuple(trans),
        seed=bundle_seed,
    )


def generate_dataset(config: DatasetConfig, header_comment: str | None = None) -> list[ManifestRow]:
    """Write native bundle files plus a manifest CSV; returns the rows."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    sobol = qmc.Sobol(d=7, scramble=True, seed=config.master_seed)
    size = 1
    while size < config.n_bundles:
        size *= 2
    table = sobol.random(size)[: config.n_bundles]

    n = config.n_bundles
    n_train = int(n * config.train_frac)
    n_val = int(n * config.val_frac)
    order = np.random.Generator(np.random.Philox(key=[config.master_seed, 0])).permutation(n)
    split_of = {}
    for rank, idx in enumerate(order):
        if rank < n_train:
            split_of[int(idx)] = "train"
        elif rank < n_train + n_val:
            split_of[int(idx)] = "val"
        else:
            split_of[int(idx)] = "test"

    rows = []
    for i in range(n):
        spec = _draw_spec(config, i, table[i])
        path = out / f"bundle_{i:05d}.t2sb"
        path.write_bytes(write_native(generate_bundle(spec)))
        rows.append(
            ManifestRow(
                path=str(path),
                family=spec.family,
                split=split_of[i],
                seed=spec.seed,
                tube_radius=spec.tube_radius,
                n_streamlines=spec.n_streamlines,
                points_per_streamline=spec.points_per_streamline,
                jitter_sd=spec.jitter_sd,
                length_mm=spec.length_mm,
                angle_rad=spec.angle_rad,
                pitch_mm=spec.pitch_mm,
            )
        )
    write_manifest(rows, out / "manifest.csv", header_comment=header_comment)
    return rows


def write_manifest(rows, path, header_comment: str | None = None) -> None:
    write_csv(path, MANIFEST_FIELDS, map(astuple, rows), header_comment)


def read_manifest(path) -> list[ManifestRow]:
    """The manifest's rows, each field converted to its ManifestRow type;
    raises ValueError naming ``path`` for a malformed or empty manifest."""
    rows = []
    for rec in read_csv(path, MANIFEST_FIELDS):
        try:
            rows.append(ManifestRow(*(_MANIFEST_TYPES[k](v) for k, v in zip(MANIFEST_FIELDS, rec))))
        except ValueError as exc:
            raise ValueError(f"{path}: bad manifest record for {rec[0]}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: the manifest lists no bundles")
    return rows
