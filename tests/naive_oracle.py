"""Naive dense-array reimplementation of the shape oracle, for testing.

Deliberately simple: a full boolean occupancy array plus per-segment
Python loops. The continuous per-segment arithmetic mirrors the library's
floating-point expressions exactly, so results must match bit for bit;
the voxel bookkeeping (per-voxel Python loops vs. the library's vectorized
grid slices) is the independently implemented part under test.
"""

import numpy as np

from bundleshape.shapes import SPAN_EPS, ShapeMeasures


def _naive_segment_lengths(s):
    """Lengths of a streamline's segments, by the library's einsum: its sum
    of three squares rounds in its own order, which a step count at a voxel
    face can tell from ``x*x + y*y + z*z``."""
    d = np.diff(s, axis=0)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _naive_arc_length(s):
    return float(_naive_segment_lengths(s).sum())


def _naive_samples(s, max_step):
    out = [s[0].copy()]
    for i, seg_len in enumerate(_naive_segment_lengths(s)):
        seg = s[i + 1] - s[i]
        n = max(int(np.ceil(seg_len / max_step)), 1)
        for j in range(1, n + 1):
            t = np.float64(j) / np.float64(n)
            out.append(s[i] + t * seg)
    return np.array(out)


def naive_voxel_indices(bundle, voxel_size):
    """Voxel index of every supersample, one row each, from the bounding-box min corner."""
    v = float(voxel_size)
    origin = np.concatenate(bundle.streamlines, axis=0).min(axis=0)
    all_idx = []
    for s in bundle.streamlines:
        samples = _naive_samples(s, v / 2.0)
        all_idx.append(np.floor((samples - origin) / v).astype(np.int64))
    return np.concatenate(all_idx, axis=0)


def naive_measures(bundle, voxel_size=1.0):
    v = float(voxel_size)

    lengths = np.array([_naive_arc_length(s) for s in bundle.streamlines])
    length = float(lengths.mean())

    firsts = np.array([s[0] for s in bundle.streamlines])
    lasts = np.array([s[-1] for s in bundle.streamlines])

    ref = int(np.argmax(lengths))
    ref_first, ref_last = firsts[ref], lasts[ref]
    keep = np.linalg.norm(firsts - ref_first, axis=1) + np.linalg.norm(lasts - ref_last, axis=1)
    swap = np.linalg.norm(firsts - ref_last, axis=1) + np.linalg.norm(lasts - ref_first, axis=1)
    flip = (keep > swap)[:, None]
    firsts, lasts = np.where(flip, lasts, firsts), np.where(flip, firsts, lasts)

    span = float(np.linalg.norm(firsts.mean(axis=0) - lasts.mean(axis=0)))
    if span < SPAN_EPS:
        raise ValueError("degenerate span")
    curl = length / span

    origin = np.concatenate(bundle.streamlines, axis=0).min(axis=0)

    # Dense occupancy array.
    all_idx = naive_voxel_indices(bundle, v)
    lo = all_idx.min(axis=0)
    hi = all_idx.max(axis=0)
    shape = tuple(hi - lo + 1)
    occ = np.zeros(shape, dtype=bool)
    for i, j, k in all_idx - lo:
        occ[i, j, k] = True

    volume = int(occ.sum()) * v ** 3
    diameter = 2.0 * np.sqrt(volume / (np.pi * length))
    elongation = length / diameter

    padded = np.zeros((shape[0] + 2, shape[1] + 2, shape[2] + 2), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = occ
    surface = 0
    for i, j, k in np.argwhere(occ) + 1:
        if not (
            padded[i + 1, j, k]
            and padded[i - 1, j, k]
            and padded[i, j + 1, k]
            and padded[i, j - 1, k]
            and padded[i, j, k + 1]
            and padded[i, j, k - 1]
        ):
            surface += 1
    surface_area = surface * v ** 2

    total_radius = 0.0
    total_end_area = 0.0
    for ends in (firsts, lasts):
        centroid = ends.mean(axis=0)
        total_radius += float(np.linalg.norm(ends - centroid, axis=1).mean())
        cells = {tuple(c) for c in np.floor((ends - origin) / v).astype(np.int64)}
        total_end_area += len(cells) * v ** 2

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
