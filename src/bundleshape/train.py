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
from .net import ShapeMismatch, backward, forward, init_params, paired_loss, predicts_scores, uses_tabular
from .optim import AdamState, adam_step, lr_at

__all__ = [
    "TrainData",
    "sample_seed_for",
    "model_inputs",
    "load_training_arrays",
    "train",
    "check_cloud_size",
    "predict_measures",
    "write_train_log",
]


# Compute dtype of every forward here: training (its cache feeds the float64
# backward), validation and predict_measures; also of run_bench's training step,
# and of model_inputs' clouds, so that rounding them changes no forward's bits.
_FORWARD_DTYPE = np.float32


@dataclass(frozen=True)
class TrainData:
    points: np.ndarray  # (n, N, 3) centered float32 clouds
    tabular: np.ndarray  # (n, 2) raw NoS/NoP
    measures: np.ndarray  # (n, 10) ground-truth shape measures
    splits: tuple  # of "train" | "val" | "test"

    def indices(self, split: str) -> np.ndarray:
        return np.array([i for i, s in enumerate(self.splits) if s == split], dtype=np.int64)


def sample_seed_for(master_seed: int, index: int) -> int:
    """Per-bundle point-sampling seed derived from one master seed."""
    return (master_seed << 20) + index


def model_inputs(indexed_bundles, n_points: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The network inputs of ``indexed_bundles``, (i, bundle) pairs read once:
    the (n, N, 3) float32 clouds, bundle i's drawn by ``sample_points`` at
    ``sample_seed_for(seed, i)`` and rounded once, and the (n, 2) raw (NoS, NoP)
    rows. The one place clouds are sampled; it holds one bundle at a time."""
    tabular = []

    def clouds():
        for i, bundle in indexed_bundles:
            tabular.append(extract_tabular(bundle))
            yield sample_points(bundle, n_points, seed=sample_seed_for(seed, i))

    points = np.fromiter(clouds(), np.dtype((_FORWARD_DTYPE, (n_points, 3))))
    return points, np.array(tabular, dtype=np.float64).reshape(-1, 2)


def load_training_arrays(manifest_rows, measures, n_points: int, seed: int) -> TrainData:
    """Load bundle files from a manifest and build the sample arrays.

    `measures` is the (n, 10) ground-truth matrix aligned with the rows.
    """
    measures = np.asarray(measures, dtype=np.float64)
    if measures.shape != (len(manifest_rows), 10):
        raise ValueError(f"measures must be ({len(manifest_rows)}, 10), got {measures.shape}")
    bundles = (read_native(Path(row.path).read_bytes()) for row in manifest_rows)
    points, tabular = model_inputs(enumerate(bundles), n_points, seed)
    splits = tuple(row.split for row in manifest_rows)
    return TrainData(points=points, tabular=tabular, measures=measures, splits=splits)


def _targets_for(variant: str, model: shape_pca.PcaModel, measures: np.ndarray) -> np.ndarray:
    if predicts_scores(variant):
        return model.standardize_scores(model.transform(measures))
    return (measures - model.feature_mean) / model.feature_sd


def _measures_from_outputs(ckpt: Checkpoint, outputs: np.ndarray) -> np.ndarray:
    if predicts_scores(ckpt.config.variant):
        scores = ckpt.pca.unstandardize_scores(outputs)
        return ckpt.pca.inverse_transform(scores)
    return outputs * ckpt.pca.feature_sd + ckpt.pca.feature_mean


@np.errstate(over="ignore", invalid="ignore")
def train(data: TrainData, cfg: TrainConfig):
    """Train on the train split; returns (Checkpoint, per-epoch log rows).

    Mixed precision: every forward runs in float32 (``_FORWARD_DTYPE``, as in
    ``predict_measures``), while the parameters, ``backward`` (which recomputes the
    cached critical rows against them), ``paired_loss`` and Adam stay float64; no
    parameter depends on ``val_loss``. Raises FloatingPointError (and no NumPy overflow
    warnings) at the end of the first epoch whose train or val loss is not finite: a
    diverged run yields no checkpoint."""
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

    params = init_params(cfg.variant, seed=cfg.seed, pca_k=cfg.pca_k)
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
            preds, cache = forward(
                params, pts, tb, cfg.variant, want_cache=True, dtype=_FORWARD_DTYPE
            )
            loss, d_a, d_b = paired_loss(
                preds[:half], preds[half:], targets[batch[:half]], targets[batch[half:]],
                cfg.lam_pair,
            )
            adam_step(opt, params, backward(params, cache, np.concatenate([d_a, d_b], axis=0)))
            del cache  # free the critical rows before the next forward
            epoch_loss += loss
        train_loss = epoch_loss / max(n_batches, 1)

        tab_val = tab[idx_val] if tab is not None else None
        val_preds = forward(
            params, data.points[idx_val], tab_val, cfg.variant, dtype=_FORWARD_DTYPE
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


def check_cloud_size(ckpt: Checkpoint, n_points: int) -> None:
    """Raises ShapeMismatch unless the model was trained on clouds of ``n_points``."""
    if n_points != ckpt.config.n_points:
        raise ShapeMismatch(
            f"clouds of {n_points} points, but the model was trained on {ckpt.config.n_points}"
        )


def predict_measures(ckpt: Checkpoint, points: np.ndarray, tabular_raw: np.ndarray) -> np.ndarray:
    """Predict the ten measures for pre-sampled clouds + raw descriptors.

    Inference runs the network in float32 (deterministic, ~1e-6 relative
    output error vs float64) through ``net.forward``'s cache-free path:
    the point encoder goes over chunks of whole clouds and max-pools
    before its last bias and ReLU, so no full-size activation is built.
    Raises ShapeMismatch for clouds of another size than the model's.
    """
    if points.ndim == 3:
        check_cloud_size(ckpt, points.shape[1])
    tab = ckpt.standardizer.apply_many(tabular_raw) if ckpt.standardizer is not None else None
    outputs = forward(ckpt.params, points, tab, ckpt.config.variant, dtype=_FORWARD_DTYPE)
    return _measures_from_outputs(ckpt, outputs.astype(np.float64))


def write_train_log(log, path, header_comment: str | None = None) -> None:
    header = ["epoch", "step", "lr", "train_loss", "val_loss"]
    write_csv(path, header, ([row[k] for k in header] for row in log), header_comment)
