"""Ten bundle shape measures from streamline geometry.

Measures: length, span, curl, elongation, diameter, volume, total surface
area, total radius of end regions, total area of end regions, and
irregularity. Volume and surface quantities come from a dense boolean
occupancy grid over the supersampled streamlines, and each end region's
area from one over its endpoints; everything else is computed directly
from coordinates. Samples are gathered one coordinate axis at a time,
straight into contiguous 1-D columns of voxel indices, and mark the grid
through one flat index built in one buffer. The grid is bounded: a bundle
whose voxelization would need more than MAX_SAMPLES samples or
MAX_GRID_CELLS cells raises GridTooLarge instead of exhausting memory.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .io import Bundle

__all__ = [
    "DegenerateSpan",
    "GridTooLarge",
    "VoxelGrid",
    "ShapeMeasures",
    "MEASURE_NAMES",
    "align_orientations",
    "voxelize",
    "count_surface_voxels",
    "compute_measures",
]

SPAN_EPS = 1e-6  # mm; spans below this are treated as degenerate

# Memory bounds of one voxelization: each supersample holds 48 bytes at the
# peak of sampling (three coordinate columns, segment id, step fraction, one
# gather buffer; 8 bytes each), each grid cell ~3 bytes while surfaces are
# counted; compute_measures peaks at 55-61 bytes per sample in all. The
# largest bundle of the default dataset at 1 mm needs ~9e4 samples and ~4e5
# cells; an axis of more than 2**21 cells must still fit.
MAX_SAMPLES = 1 << 23
MAX_GRID_CELLS = 1 << 26


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


MEASURE_NAMES = tuple(f.name for f in fields(ShapeMeasures))


def align_orientations(bundle: Bundle) -> Bundle:
    """Flip streamlines so all run the same way as the longest one.

    The reference is the longest streamline (lowest index on ties). A
    streamline is reversed iff matching its endpoints to the reference
    same-way costs more than matching them swapped. Idempotent.
    """
    cat, off = bundle.points, bundle.offsets
    flips = _flips(cat[off[:-1]], cat[off[1:] - 1], _arc_lengths(_segments(cat, off)[2], off))
    row = np.arange(cat.shape[0])
    j = np.repeat(np.arange(flips.shape[0]), np.diff(off))  # streamline of each row
    return replace(bundle, points=cat[np.where(flips[j], off[j] + off[j + 1] - 1 - row, row)])


def _flips(firsts: np.ndarray, lasts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per streamline, whether :func:`align_orientations` reverses it."""
    ref = int(np.argmax(lengths))
    ref_first, ref_last = firsts[ref], lasts[ref]
    keep = np.linalg.norm(firsts - ref_first, axis=1) + np.linalg.norm(lasts - ref_last, axis=1)
    swap = np.linalg.norm(firsts - ref_last, axis=1) + np.linalg.norm(lasts - ref_first, axis=1)
    return keep > swap


def _segments(cat: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segments between consecutive rows of the concatenated point array.

    Returns (vectors, start points, lengths). Streamline j's segments are
    rows off[j] to off[j + 1] - 2; the row at off[j + 1] - 1 joins it to
    the next streamline and gets length 0.
    """
    seg = np.diff(cat, axis=0)
    seg_len = np.sqrt(np.einsum("ij,ij->i", seg, seg))
    seg_len[off[1:-1] - 1] = 0.0
    return seg, cat[:-1], seg_len


def _arc_lengths(seg_len: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Per-streamline arc lengths from the segment lengths of :func:`_segments`."""
    # One contiguous row per streamline, gathered by point count: NumPy sums
    # each row pairwise like a 1-D slice, independent of its neighbors
    # (np.add.reduceat's grouping depends on bucket alignment).
    counts = np.diff(off)
    lengths = np.empty(counts.shape[0])
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        lengths[rows] = seg_len[off[rows, None] + np.arange(k - 1)].sum(axis=1)
    return lengths


def _occupancy(cols) -> tuple[np.ndarray, np.ndarray]:
    """Boolean grid of integer-valued voxel indices given as three columns.

    The grid spans the indices' bounding box plus one empty cell on each
    side, so every occupied cell has all six neighbors inside the grid.
    Returns the grid and the voxel index of its cell [0, 0, 0].
    """
    lo = np.array([c.min() for c in cols]) - 1
    shape = np.array([c.max() for c in cols]) - lo + 2
    cells = float(np.prod(shape, dtype=np.float64))  # float: cannot overflow
    if not cells <= MAX_GRID_CELLS:
        raise GridTooLarge(f"{cells:.3g} grid cells exceed {MAX_GRID_CELLS}; use a larger voxel_size")
    i, j, k = cols
    flat = np.subtract(i, lo[0])  # ((i - lo0) * s1 + (j - lo1)) * s2 + (k - lo2), exact below MAX_GRID_CELLS
    flat *= shape[1]
    tmp = np.subtract(j, lo[1])
    flat += tmp
    flat *= shape[2]
    flat += np.subtract(k, lo[2], out=tmp)
    del tmp
    grid = np.zeros(int(cells), dtype=bool)
    grid[flat.astype(np.intp, copy=False)] = True
    return grid.reshape(shape.astype(np.intp)), lo.astype(np.int64)


def _sample_grid(cat: np.ndarray, off: np.ndarray, segments: tuple, voxel_size: float) -> tuple:
    """Occupancy grid of a bundle's supersamples: (grid, low corner, origin).

    Each segment is split into ceil(length / (voxel_size/2)) equal steps (at
    least one) and sampled at the end of every step; each streamline's
    first vertex is added once.
    """
    if not 0 < voxel_size < np.inf:
        raise ValueError(f"voxel_size must be positive and finite, got {voxel_size}")
    seg, base, seg_len = segments
    steps = np.maximum(np.ceil(seg_len / (voxel_size / 2.0)), 1.0)  # float: cannot wrap around
    steps[off[1:-1] - 1] = 0.0  # no samples between two streamlines
    n_first = off.shape[0] - 1
    n_samples = float(steps.sum()) + n_first
    if not n_samples <= MAX_SAMPLES:
        raise GridTooLarge(f"{n_samples:.3g} samples exceed {MAX_SAMPLES}; use a larger voxel_size")
    seg_id = np.repeat(np.arange(steps.shape[0]), steps.astype(np.int64))
    # mode="raise" would buffer every gather's `out`; seg_id is in range by construction.
    tmp = np.empty(seg_id.shape[0])
    t = np.arange(1.0, seg_id.shape[0] + 1)  # integers below 2**53: exact in float64
    t -= np.take(np.cumsum(steps) - steps, seg_id, out=tmp, mode="clip")
    t /= np.take(steps, seg_id, out=tmp, mode="clip")  # step fractions j / count, j = 1..count
    origin = np.array([cat[:, a].min() for a in range(3)])  # ~10x faster than cat.min(axis=0)
    cols = []
    for a in range(3):
        x = np.empty(n_first + t.shape[0])
        x[:n_first] = cat[off[:-1], a]
        samples = np.take(seg[:, a], seg_id, out=x[n_first:], mode="clip")
        samples *= t
        samples += np.take(base[:, a], seg_id, out=tmp, mode="clip")
        x -= origin[a]
        x /= voxel_size
        cols.append(np.floor(x, out=x))
    del seg_id, t, tmp
    grid, lo = _occupancy(cols)
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
    cat, off = bundle.points, bundle.offsets
    grid, lo, origin = _sample_grid(cat, off, _segments(cat, off), voxel_size)
    return VoxelGrid(voxel_size=float(voxel_size), origin=origin, indices=np.argwhere(grid) + lo)


def count_surface_voxels(indices: np.ndarray) -> int:
    """Number of occupied voxels with at least one unoccupied 6-neighbor.

    Repeated indices name the same voxel and count once.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != 3:
        raise ValueError(f"indices must have shape (n, 3), got {idx.shape}")
    if idx.shape[0] == 0:
        return 0
    return _surface_count(_occupancy(idx.T)[0])


def compute_measures(bundle: Bundle, voxel_size: float = 1.0) -> ShapeMeasures:
    """Compute the ten shape measures for one bundle.

    Streamline orientations are aligned first so end regions are
    well defined. Length is the mean streamline arc length; span is the
    distance between the mean first and mean last endpoints; volume and
    surface quantities come from the occupancy grid.
    """
    v = float(voxel_size)
    cat, off = bundle.points, bundle.offsets
    segments = _segments(cat, off)

    lengths = _arc_lengths(segments[2], off)
    length = float(lengths.mean())

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

    grid, _, origin = _sample_grid(cat, off, segments, v)
    try:
        volume = int(np.count_nonzero(grid)) * v ** 3  # inf if only the product overflows
    except OverflowError:
        volume = np.inf
    if volume == np.inf:
        raise FloatingPointError(f"volume overflows a float at voxel_size = {v:g} mm")
    diameter = 2.0 * np.sqrt(volume / (np.pi * length))
    elongation = length / diameter
    surface_area = _surface_count(grid) * v ** 2

    total_radius = 0.0
    total_end_area = 0.0
    for ends in (firsts, lasts):
        centroid = ends.mean(axis=0)
        total_radius += float(np.linalg.norm(ends - centroid, axis=1).mean())
        cells = np.floor((ends - origin) / v)  # the voxel of each endpoint, as on the bundle grid
        total_end_area += int(np.count_nonzero(_occupancy(cells.T)[0])) * v ** 2

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
