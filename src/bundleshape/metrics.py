"""Evaluation metrics and the statistical transforms used for reporting:
Pearson's r, variance-normalized MSE, Fisher's r-to-z, and the paired
t-test (p-value via SciPy's regularized incomplete beta function).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import ZeroVariance
from .io import write_csv
from .shapes import MEASURE_NAMES

__all__ = [
    "ZeroVariance",
    "ZeroVarianceDiffs",
    "OutOfRange",
    "EvalReport",
    "pearson_r",
    "nmse",
    "fisher_z",
    "paired_t",
    "evaluate",
    "write_report",
]


class ZeroVarianceDiffs(ValueError):
    pass


class OutOfRange(ValueError):
    pass


def _pow2_scaled(*arrays):
    """``arrays`` times the power of two taking their top magnitude into [0.5, 1); exact."""
    exp = np.frexp(max(np.abs(a).max() for a in arrays))[1]
    return [np.ldexp(a, -exp) for a in arrays]


def _paired_vectors(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as float64 arrays; ValueError unless they are two
    equal-length 1-d vectors with n >= 2."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 2:
        raise ValueError("need two equal-length 1-d vectors with n >= 2")
    return a, b


def pearson_r(x, y) -> float:
    """Sample Pearson correlation of two equal-length vectors."""
    x, y = _paired_vectors(x, y)
    x, y = _pow2_scaled(x) + _pow2_scaled(y)
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom <= 0:
        raise ZeroVariance("an input vector has zero variance")
    return float(np.clip((dx * dy).sum() / denom, -1.0, 1.0))  # rounding can pass |r| = 1


def nmse(pred, gt) -> float:
    """Mean squared error normalized by ground-truth population variance.

    Near 0 means a close match; a predictor worse than the ground-truth
    mean can exceed 1.
    """
    pred, gt = _pow2_scaled(*_paired_vectors(pred, gt))
    var = gt.var()
    if var <= 0:
        raise ZeroVariance("ground truth has zero variance")
    return float(np.mean((pred - gt) ** 2) / var)


def fisher_z(r: float) -> float:
    """Fisher r-to-z transform: atanh(r)."""
    if not abs(r) < 1:
        raise OutOfRange(f"|r| must be < 1, got {r}")
    return math.atanh(r)


def paired_t(a, b) -> tuple[float, int, float]:
    """Paired t-test; returns (t, dof, two-sided p)."""
    from scipy import special

    a, b = _paired_vectors(a, b)
    d = a - b
    n = d.shape[0]
    sd = d.std(ddof=1)
    if sd <= 0:
        raise ZeroVarianceDiffs("differences have zero variance")
    t = float(d.mean() / (sd / math.sqrt(n)))
    dof = n - 1
    p = float(special.betainc(dof / 2.0, 0.5, dof / (dof + t * t)))
    return t, dof, p


@dataclass(frozen=True)
class EvalReport:
    """Per-measure Pearson r and nMSE over a test set, plus summaries."""

    variant: str
    n_bundles: int
    pearson: np.ndarray  # (10,)
    nmse: np.ndarray  # (10,)

    @property
    def mean_pearson(self) -> float:
        return float(self.pearson.mean())

    @property
    def sd_pearson(self) -> float:
        return float(self.pearson.std(ddof=1))

    @property
    def mean_nmse(self) -> float:
        return float(self.nmse.mean())

    @property
    def sd_nmse(self) -> float:
        return float(self.nmse.std(ddof=1))

    def average(self, metric: str) -> str:
        """``mean±sd`` over the ten measures of ``metric`` ("pearson" or "nmse")."""
        return f"{getattr(self, f'mean_{metric}'):.6f}±{getattr(self, f'sd_{metric}'):.6f}"


def evaluate(predictions, ground_truth, variant: str = "full") -> EvalReport:
    """Per-measure metrics for (n, 10) prediction/ground-truth matrices."""
    pred = np.asarray(predictions, dtype=np.float64)
    gt = np.asarray(ground_truth, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != len(MEASURE_NAMES):
        raise ValueError(f"expected matching (n, {len(MEASURE_NAMES)}) matrices")
    rs = np.array([pearson_r(pred[:, j], gt[:, j]) for j in range(pred.shape[1])])
    errs = np.array([nmse(pred[:, j], gt[:, j]) for j in range(pred.shape[1])])
    return EvalReport(variant=variant, n_bundles=pred.shape[0], pearson=rs, nmse=errs)


def write_report(report: EvalReport, path, header_comment: str | None = None) -> None:
    """CSV: one row per measure plus a trailing average row with mean±sd."""
    scores = zip(MEASURE_NAMES, report.pearson, report.nmse)
    rows = [[name, f"{r:.6f}", f"{e:.6f}"] for name, r, e in scores]
    rows.append(["average", report.average("pearson"), report.average("nmse")])
    write_csv(path, ["measure", "pearson_r", "nmse"], rows, header_comment)
