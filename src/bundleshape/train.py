"""Training loop, prediction path, and dataset assembly for the
dual-encoder regressor.

Each bundle becomes one sample: a fixed random point cloud plus raw
(NoS, NoP). Targets are standardized PCA scores for the latent variants
and z-scored measures for the direct-regression variants; predictions
are mapped back to the ten measures either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pca as shape_pca
from .checkpoint import Checkpoint, TrainConfig
from .features import extract_tabular, fit_standardizer, sample_points
from .io import read_native, write_csv
from .net import ShapeMismatch, backward, forward, init_params, paired_loss, uses_tabular
from .optim import AdamState, adam_step, lr_at

__all__ = [
    "TrainData",
    "sample_seed_for",
    "load_training_arrays",
    "train",
    "predict_measures",
    "write_train_log",
]


@dataclass(frozen=True)
class TrainData:
    points: np.ndarray  # (n, N, 3) centered clouds
    tabular: np.ndarray  # (n, 2) raw NoS/NoP
    measures: np.ndarray  # (n, 10) ground-truth shape measures
    splits: tuple  # of "train" | "val" | "test"

    def indices(self, split: str) -> np.ndarray:
        return np.array([i for i, s in enumerate(self.splits) if s == split], dtype=np.int64)


def sample_seed_for(master_seed: int, index: int) -> int:
    """Per-bundle point-sampling seed derived from one master seed."""
    return (master_seed << 20) + index


def load_training_arrays(manifest_rows, measures, n_points: int, seed: int) -> TrainData:
    """Load bundle files from a manifest and build the sample arrays.

    `measures` is the (n, 10) ground-truth matrix aligned with the rows.
    """
    measures = np.asarray(measures, dtype=np.float64)
    if measures.shape != (len(manifest_rows), 10):
        raise ValueError(f"measures must be ({len(manifest_rows)}, 10), got {measures.shape}")
    points = np.empty((len(manifest_rows), n_points, 3))
    tabular = np.empty((len(manifest_rows), 2))
    splits = []
    for i, row in enumerate(manifest_rows):
        bundle = read_native(Path(row.path).read_bytes())
        points[i] = sample_points(bundle, n_points, seed=sample_seed_for(seed, i))
        tabular[i] = extract_tabular(bundle)
        splits.append(row.split)
    return TrainData(points=points, tabular=tabular, measures=measures, splits=tuple(splits))


def _targets_for(variant: str, model: shape_pca.PcaModel, measures: np.ndarray) -> np.ndarray:
    if variant in ("pca", "full"):
        return model.standardize_scores(model.transform(measures))
    return (measures - model.feature_mean) / model.feature_sd


def _measures_from_outputs(ckpt: Checkpoint, outputs: np.ndarray) -> np.ndarray:
    if ckpt.config.variant in ("pca", "full"):
        scores = ckpt.pca.unstandardize_scores(outputs)
        return ckpt.pca.inverse_transform(scores)
    return outputs * ckpt.pca.feature_sd + ckpt.pca.feature_mean


@np.errstate(over="ignore", invalid="ignore")
def train(data: TrainData, cfg: TrainConfig):
    """Train on the train split; returns (Checkpoint, per-epoch log rows).

    Raises FloatingPointError (and no NumPy overflow warnings) at the end of the
    first epoch whose train or val loss is not finite: a diverged run yields no checkpoint."""
    idx_train = data.indices("train")
    idx_val = data.indices("val")
    if idx_train.size == 0 or idx_val.size == 0:
        raise ValueError("train and val splits must both be nonempty")
    if idx_train.size < cfg.batch_size:
        raise ValueError(
            f"train split ({idx_train.size}) smaller than batch_size ({cfg.batch_size})"
        )

    model = shape_pca.fit(data.measures[idx_train], k=cfg.pca_k)
    targets = _targets_for(cfg.variant, model, data.measures)

    standardizer = None
    tab = None
    if uses_tabular(cfg.variant):
        standardizer = fit_standardizer(data.tabular[idx_train])
        tab = standardizer.apply_many(data.tabular)

    params = init_params(cfg.variant, seed=cfg.seed)
    opt = AdamState(
        lr0=cfg.lr0,
        weight_decay=cfg.weight_decay,
        sched_period=cfg.sched_period,
        sched_gamma=cfg.sched_gamma,
    )

    half = cfg.batch_size // 2
    log = []
    for epoch in range(cfg.epochs):
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed + 1, epoch]))
        order = idx_train[rng.permutation(idx_train.size)]
        n_batches = idx_train.size // cfg.batch_size
        epoch_loss = 0.0
        for b in range(n_batches):
            batch = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            pts = data.points[batch]
            tb = tab[batch] if tab is not None else None
            preds, cache = forward(params, pts, tb, cfg.variant, want_cache=True)
            loss, d_a, d_b = paired_loss(
                preds[:half], preds[half:], targets[batch[:half]], targets[batch[half:]],
                cfg.lam_pair,
            )
            grads = backward(params, cache, np.concatenate([d_a, d_b], axis=0))
            adam_step(opt, params, grads)
            epoch_loss += loss
        train_loss = epoch_loss / max(n_batches, 1)

        val_preds = forward(
            params, data.points[idx_val], tab[idx_val] if tab is not None else None, cfg.variant
        )
        val_loss = float(np.mean((val_preds - targets[idx_val]) ** 2))
        if not np.isfinite([train_loss, val_loss]).all():
            raise FloatingPointError(
                f"training diverged in epoch {epoch}: train loss {train_loss}, val loss {val_loss}"
            )
        log.append(
            {
                "epoch": epoch,
                "step": opt.t,
                "lr": lr_at(opt.t, cfg.lr0, cfg.sched_period, cfg.sched_gamma),
                "train_loss": train_loss,
                "val_loss": val_loss,
            }
        )

    ckpt = Checkpoint(config=cfg, params=params, pca=model, standardizer=standardizer)
    return ckpt, log


def predict_measures(ckpt: Checkpoint, points: np.ndarray, tabular_raw: np.ndarray) -> np.ndarray:
    """Predict the ten measures for pre-sampled clouds + raw descriptors.

    Inference runs the network in float32 (deterministic, ~1e-6 relative
    output error vs float64) through ``net.forward``'s cache-free path:
    the point encoder goes over chunks of whole clouds and max-pools
    before its last bias and ReLU, so no full-size activation is built.
    Raises ShapeMismatch for clouds of another size than the model's.
    """
    if points.ndim == 3 and points.shape[1] != ckpt.config.n_points:
        raise ShapeMismatch(
            f"clouds of {points.shape[1]} points, but the model was trained on {ckpt.config.n_points}"
        )
    tab = None
    if uses_tabular(ckpt.config.variant):
        if ckpt.standardizer is None:
            raise ValueError("checkpoint is missing the tabular standardizer")
        tab = ckpt.standardizer.apply_many(tabular_raw)
    outputs = forward(ckpt.params, points, tab, ckpt.config.variant, dtype=np.float32)
    return _measures_from_outputs(ckpt, outputs.astype(np.float64))


def write_train_log(log, path, header_comment: str | None = None) -> None:
    header = ["epoch", "step", "lr", "train_loss", "val_loss"]
    write_csv(path, header, ([row[k] for k in header] for row in log), header_comment)
