"""Ten bundle shape measures from streamline geometry.

Measures: length, span, curl, elongation, diameter, volume, total surface
area, total radius of end regions, total area of end regions, and
irregularity. Volume and surface quantities come from a dense boolean
occupancy grid over the supersampled streamlines; everything else is
computed directly from coordinates. The grid is bounded: a bundle whose
voxelization would need more than MAX_SAMPLES samples or MAX_GRID_CELLS
cells raises GridTooLarge instead of exhausting memory.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .io import Bundle

__all__ = [
    "DegenerateBundle",
    "DegenerateSpan",
    "GridTooLarge",
    "VoxelGrid",
    "ShapeMeasures",
    "MEASURE_NAMES",
    "align_orientations",
    "voxelize",
    "voxelize_points",
    "count_surface_voxels",
    "compute_measures",
]

SPAN_EPS = 1e-6  # mm; spans below this are treated as degenerate

# Memory bounds of one voxelization: each supersample holds ~72 bytes at the
# peak of sampling, each grid cell ~3 bytes while surfaces are counted. The
# largest bundle of the default dataset at 1 mm needs ~9e4 samples and
# ~4e5 cells; an axis of more than 2**21 cells must still fit.
MAX_SAMPLES = 1 << 23
MAX_GRID_CELLS = 1 << 26


class DegenerateBundle(ValueError):
    """Bundle has zero total arc length; no geometry to measure."""


class DegenerateSpan(ValueError):
    """Mean endpoints coincide (closed loop); span-based measures undefined."""


class GridTooLarge(ValueError):
    """Voxelization would exceed MAX_SAMPLES samples or MAX_GRID_CELLS cells."""


@dataclass(frozen=True)
class VoxelGrid:
    """Occupied voxels of a bundle, indexed from its bounding-box min corner.

    ``indices`` lists each occupied voxel once, in lexicographic (i, j, k)
    order, which is the C order of the dense grid they are read from.
    """

    voxel_size: float
    origin: np.ndarray  # (3,) min corner of the bounding box
    indices: np.ndarray  # (n, 3) unique occupied voxel indices, int64

    def __len__(self) -> int:
        return self.indices.shape[0]

    @property
    def occupied(self) -> frozenset:
        """Occupied voxels as a set of (i, j, k) tuples."""
        return frozenset(map(tuple, self.indices))


@dataclass(frozen=True)
class ShapeMeasures:
    """The ten shape scalars for one bundle. Units: mm, mm^2, mm^3."""

    length: float
    span: float
    curl: float
    elongation: float
    diameter: float
    volume: float
    total_surface_area: float
    total_radius_end_regions: float
    total_area_end_regions: float
    irregularity: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=np.float64)

    @classmethod
    def from_array(cls, values) -> "ShapeMeasures":
        vals = np.asarray(values, dtype=np.float64).reshape(10)
        return cls(*(float(v) for v in vals))


MEASURE_NAMES = tuple(f.name for f in fields(ShapeMeasures))


def align_orientations(bundle: Bundle) -> Bundle:
    """Flip streamlines so all run the same way as the longest one.

    The reference is the longest streamline (lowest index on ties). A
    streamline is reversed iff matching its endpoints to the reference
    same-way costs more than matching them swapped. Idempotent.
    """
    cat = bundle.all_points()
    off = _offsets(bundle)
    flips = _flips(cat[off[:-1]], cat[off[1:] - 1], _arc_lengths_cat(cat, off))
    aligned = [s[::-1] if flip else s for s, flip in zip(bundle.streamlines, flips)]
    return Bundle(
        tuple(aligned),
        subject_id=bundle.subject_id,
        cluster_id=bundle.cluster_id,
        tract_label=bundle.tract_label,
    )


def _flips(firsts: np.ndarray, lasts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per streamline, whether :func:`align_orientations` reverses it."""
    ref = int(np.argmax(lengths))
    ref_first, ref_last = firsts[ref], lasts[ref]
    keep = np.linalg.norm(firsts - ref_first, axis=1) + np.linalg.norm(lasts - ref_last, axis=1)
    swap = np.linalg.norm(firsts - ref_last, axis=1) + np.linalg.norm(lasts - ref_first, axis=1)
    return keep > swap


def _offsets(bundle: Bundle) -> np.ndarray:
    """Row boundaries of each streamline in the concatenated point array."""
    counts = np.array([s.shape[0] for s in bundle.streamlines])
    return np.concatenate(([0], np.cumsum(counts)))


def _arc_lengths_cat(cat: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Per-streamline arc lengths in one vectorized pass."""
    seg = np.diff(cat, axis=0)
    valid = np.ones(seg.shape[0], dtype=bool)
    valid[off[1:-1] - 1] = False  # drop rows straddling two streamlines
    seg_len = np.sqrt(np.einsum("ij,ij->i", seg, seg))[valid]
    # After compression, streamline j's segments start at off[j] - j. Plain
    # slice sums keep the rounding independent of neighboring streamlines
    # (np.add.reduceat's grouping depends on bucket alignment).
    n = off.shape[0] - 1
    starts = off - np.arange(n + 1)
    return np.array([seg_len[starts[j] : starts[j + 1]].sum() for j in range(n)])


def _bundle_samples(cat: np.ndarray, off: np.ndarray, max_step: float) -> np.ndarray:
    """Supersample every streamline of a bundle in one vectorized pass.

    Each segment is split into ceil(length / max_step) equal steps (at
    least one) and sampled at the end of every step; each streamline's
    first vertex is added once. The order of the samples carries no
    meaning; callers only use them as an unordered set.
    """
    seg = np.diff(cat, axis=0)
    valid = np.ones(seg.shape[0], dtype=bool)
    valid[off[1:-1] - 1] = False  # drop segments straddling two streamlines
    seg = seg[valid]
    base = cat[:-1][valid]
    seg_len = np.sqrt(np.einsum("ij,ij->i", seg, seg))
    if float(seg_len.sum()) <= 0.0:
        raise DegenerateBundle("total arc length is zero")
    steps = np.maximum(np.ceil(seg_len / max_step), 1.0)  # float: cannot wrap around
    n_samples = float(steps.sum()) + (off.shape[0] - 1)
    if not n_samples <= MAX_SAMPLES:
        raise GridTooLarge(f"{n_samples:.3g} samples exceed {MAX_SAMPLES}; use a larger voxel_size")
    counts = steps.astype(np.int64)
    total = int(counts.sum())
    seg_id = np.repeat(np.arange(counts.shape[0]), counts)
    offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    within = np.arange(total) - offsets[seg_id] + 1
    t = within / counts[seg_id]
    samples = seg[seg_id]
    samples *= t[:, None]
    samples += base[seg_id]
    return np.concatenate((cat[off[:-1]], samples), axis=0)


def _occupancy(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boolean grid of the given integer-valued voxel indices.

    The grid spans the indices' bounding box plus one empty cell on each
    side, so every occupied cell has all six neighbors inside the grid.
    Returns the grid and the voxel index of its cell [0, 0, 0]. Shifts
    ``idx`` in place to grid coordinates.
    """
    lo = idx.min(axis=0) - 1
    shape = idx.max(axis=0) - lo + 2
    cells = float(np.prod(shape, dtype=np.float64))  # float: cannot overflow
    if not cells <= MAX_GRID_CELLS:
        raise GridTooLarge(f"{cells:.3g} grid cells exceed {MAX_GRID_CELLS}; use a larger voxel_size")
    grid = np.zeros(shape.astype(np.intp), dtype=bool)
    idx -= lo
    grid[tuple(idx.astype(np.intp, copy=False).T)] = True
    return grid, lo.astype(np.int64)


def _sample_grid(cat: np.ndarray, off: np.ndarray, voxel_size: float) -> tuple:
    """Occupancy grid of a bundle's samples: (grid, low corner, origin)."""
    if not 0 < voxel_size < np.inf:
        raise ValueError(f"voxel_size must be positive and finite, got {voxel_size}")
    idx = _bundle_samples(cat, off, voxel_size / 2.0)
    origin = cat.min(axis=0)
    idx -= origin
    idx /= voxel_size
    grid, lo = _occupancy(np.floor(idx, out=idx))
    return grid, lo, origin


def _surface_count(grid: np.ndarray) -> int:
    """Occupied cells of a padded grid with at least one empty 6-neighbor."""
    covered = grid[1:-1, 1:-1, 1:-1] & grid[2:, 1:-1, 1:-1]
    covered &= grid[:-2, 1:-1, 1:-1]
    covered &= grid[1:-1, 2:, 1:-1]
    covered &= grid[1:-1, :-2, 1:-1]
    covered &= grid[1:-1, 1:-1, 2:]
    covered &= grid[1:-1, 1:-1, :-2]
    return int(np.count_nonzero(grid)) - int(np.count_nonzero(covered))


def voxelize(bundle: Bundle, voxel_size: float = 1.0) -> VoxelGrid:
    """Rasterize streamlines onto an occupancy grid.

    Segments are supersampled at arc step <= voxel_size/2 (endpoints
    included), and each sample marks floor((p - origin)/voxel_size).
    The origin is the bundle bounding-box min corner, so the result is
    invariant under translation of the whole bundle.
    """
    grid, lo, origin = _sample_grid(bundle.all_points(), _offsets(bundle), voxel_size)
    return VoxelGrid(voxel_size=float(voxel_size), origin=origin, indices=np.argwhere(grid) + lo)


def voxelize_points(points: np.ndarray, origin: np.ndarray, voxel_size: float) -> np.ndarray:
    """Unique voxel indices of a raw point set on the given grid."""
    idx = np.floor((np.asarray(points, dtype=np.float64) - origin) / voxel_size)
    return np.unique(idx.astype(np.int64), axis=0)


def count_surface_voxels(indices: np.ndarray) -> int:
    """Number of occupied voxels with at least one unoccupied 6-neighbor.

    Repeated indices name the same voxel and count once.
    """
    idx = np.array(indices, dtype=np.int64)
    if idx.shape[0] == 0:
        return 0
    return _surface_count(_occupancy(idx)[0])


def compute_measures(bundle: Bundle, voxel_size: float = 1.0) -> ShapeMeasures:
    """Compute the ten shape measures for one bundle.

    Streamline orientations are aligned first so end regions are
    well defined. Length is the mean streamline arc length; span is the
    distance between the mean first and mean last endpoints; volume and
    surface quantities come from the occupancy grid.
    """
    v = float(voxel_size)
    cat = bundle.all_points()
    off = _offsets(bundle)

    lengths = _arc_lengths_cat(cat, off)
    length = float(lengths.mean())
    if length <= 0.0:
        raise DegenerateBundle("total arc length is zero")

    # Orientation alignment only affects which endpoint counts as "first";
    # apply the flip decisions of align_orientations to the endpoints
    # directly instead of materializing a flipped bundle.
    firsts, lasts = cat[off[:-1]], cat[off[1:] - 1]
    flip = _flips(firsts, lasts, lengths)[:, None]
    firsts, lasts = np.where(flip, lasts, firsts), np.where(flip, firsts, lasts)
    span = float(np.linalg.norm(firsts.mean(axis=0) - lasts.mean(axis=0)))
    if span < SPAN_EPS:
        raise DegenerateSpan(f"span {span:.3e} mm below {SPAN_EPS} mm")
    curl = length / span

    grid, _, origin = _sample_grid(cat, off, v)
    volume = int(np.count_nonzero(grid)) * v ** 3
    diameter = 2.0 * np.sqrt(volume / (np.pi * length))
    elongation = length / diameter
    surface_area = _surface_count(grid) * v ** 2

    total_radius = 0.0
    total_end_area = 0.0
    for ends in (firsts, lasts):
        centroid = ends.mean(axis=0)
        total_radius += float(np.linalg.norm(ends - centroid, axis=1).mean())
        total_end_area += voxelize_points(ends, origin, v).shape[0] * v ** 2

    irregularity = surface_area / (np.pi * diameter * length)

    return ShapeMeasures(
        length=length,
        span=span,
        curl=curl,
        elongation=float(elongation),
        diameter=float(diameter),
        volume=float(volume),
        total_surface_area=float(surface_area),
        total_radius_end_regions=total_radius,
        total_area_end_regions=total_end_area,
        irregularity=float(irregularity),
    )
