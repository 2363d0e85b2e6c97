"""Model input features: fixed-size centered point clouds plus scalar
tractography descriptors (NoS, NoP) standardized with training statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import Bundle

__all__ = [
    "DEFAULT_N_POINTS",
    "ZeroVariance",
    "TabStandardizer",
    "sample_points",
    "extract_tabular",
    "fit_standardizer",
]

DEFAULT_N_POINTS = 1024

# Fixed unit change applied to sampled clouds: raw coordinates span tens of
# millimetres, which puts He-initialized activations far from O(1) and slows
# optimization badly. Dividing by a constant keeps absolute scale information
# (it is a unit change, identical for every bundle) while conditioning the
# network inputs.
POINT_SCALE = 0.05


class ZeroVariance(ValueError):
    """A column or vector has no variance; standardization or correlation is undefined."""


def sample_points(bundle: Bundle, n: int = DEFAULT_N_POINTS, seed: int = 0) -> np.ndarray:
    """Randomly sample n points from the bundle in a canonical pose.

    Sampling is without replacement when the bundle has at least n
    points, with replacement otherwise. The cloud is centered on the
    sampled centroid and rotated into its principal axes (signs fixed so
    the third moment along each axis is non-negative), so the result is
    invariant to rigid placement of the bundle while keeping absolute
    scale up to the fixed POINT_SCALE unit change. Shape measures are
    reflection-invariant, so the canonical frame is allowed to flip
    handedness.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = bundle.points
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    replace = pts.shape[0] < n
    idx = rng.choice(pts.shape[0], size=n, replace=replace)
    sampled = pts.take(idx, axis=0)
    centered = sampled - sampled.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    rotated = centered @ vt.T
    # Only the signs of the sums of cubes are read; einsum spares the libm
    # pow that ``rotated ** 3`` calls per element.
    skew = np.einsum("ij,ij,ij->j", rotated, rotated, rotated)
    rotated[:, skew < 0] *= -1.0
    rotated *= POINT_SCALE
    return rotated


def extract_tabular(bundle: Bundle) -> tuple[int, int]:
    """(NoS, NoP) of the raw bundle, before any point sampling."""
    return bundle.n_streamlines, bundle.n_points


@dataclass(frozen=True)
class TabStandardizer:
    """Per-column z-scoring with training-split statistics (population sd)."""

    mean: np.ndarray  # (d,)
    sd: np.ndarray  # (d,)

    def apply_many(self, rows) -> np.ndarray:
        """z-scores of one row or an (n, d) matrix of rows."""
        return (np.asarray(rows, dtype=np.float64) - self.mean) / self.sd


def fit_standardizer(rows) -> TabStandardizer:
    """Fit column means/sds on an (n, d) matrix of training rows."""
    data = np.asarray(rows, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need an (n, d) matrix with n >= 2")
    mean = data.mean(axis=0)
    sd = data.std(axis=0)  # population sd
    if np.any(sd <= 0):
        raise ZeroVariance(f"zero-variance column(s): {np.where(sd <= 0)[0].tolist()}")
    return TabStandardizer(mean=mean, sd=sd)
