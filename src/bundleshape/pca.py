"""PCA over the ten shape measures, with exact inverse reconstruction.

Columns are z-scored (population sd) before the SVD, since the measures
mix units spanning several orders of magnitude. The sign of each
component is fixed so its largest-magnitude loading is positive, making
the decomposition deterministic. ``score_sd`` holds the training-score
standard deviations used to standardize network targets.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .features import fit_standardizer

__all__ = [
    "RankDeficientWarning",
    "PcaModel",
    "fit",
]


class RankDeficientWarning(UserWarning):
    pass


@dataclass(frozen=True)
class PcaModel:
    feature_mean: np.ndarray  # (d,)
    feature_sd: np.ndarray  # (d,) population sd
    components: np.ndarray  # (k, d) orthonormal rows
    explained_variance: np.ndarray  # (k,) population variance of scores
    explained_variance_ratio: np.ndarray  # (k,)
    score_sd: np.ndarray  # (k,) = sqrt(explained_variance)

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def d(self) -> int:
        return self.components.shape[1]

    def transform(self, rows) -> np.ndarray:
        """Project measure rows onto the principal axes: ((x - mean)/sd) @ C^T."""
        z = (np.asarray(rows, dtype=np.float64) - self.feature_mean) / self.feature_sd
        return z @ self.components.T

    def inverse_transform(self, scores) -> np.ndarray:
        """Reconstruct measure rows from scores: (s @ C) * sd + mean."""
        z = np.asarray(scores, dtype=np.float64) @ self.components
        return z * self.feature_sd + self.feature_mean

    def standardize_scores(self, scores) -> np.ndarray:
        return np.asarray(scores, dtype=np.float64) / self.score_sd

    def unstandardize_scores(self, scores) -> np.ndarray:
        return np.asarray(scores, dtype=np.float64) * self.score_sd


def fit(rows, k: int) -> PcaModel:
    """Fit a k-component PCA of the (n, d) measure matrix via SVD; raises
    ZeroVariance for a constant column."""
    standardizer = fit_standardizer(rows)
    z = standardizer.apply_many(rows)
    n, d = z.shape
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")

    _, sigma, vt = np.linalg.svd(z, full_matrices=False)
    nonzero = int(np.sum(sigma > sigma[0] * 1e-12)) if sigma[0] > 0 else 0
    if nonzero < k:
        warnings.warn(
            f"only {nonzero} nonzero singular values for k={k}",
            RankDeficientWarning,
            stacklevel=2,
        )

    components = vt[:k].copy()
    # deterministic sign: largest-|loading| entry of each component is positive
    flip = components[np.arange(k), np.argmax(np.abs(components), axis=1)] < 0
    components[flip] *= -1.0

    all_var = sigma ** 2 / n
    explained = all_var[:k]
    ratio = explained / all_var.sum()
    return PcaModel(
        feature_mean=standardizer.mean,
        feature_sd=standardizer.sd,
        components=components,
        explained_variance=explained,
        explained_variance_ratio=ratio,
        score_sd=np.sqrt(explained),
    )
