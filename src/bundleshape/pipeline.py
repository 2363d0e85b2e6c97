"""High-level pipeline stages wiring the library modules together.

Each function here corresponds to one CLI subcommand and is directly
usable from Python with one ``RunConfig``, the variant included. Outputs
land under ``cfg.work_dir`` and embed its config hash plus master seed.
"""

from __future__ import annotations

import time
import tracemalloc
from pathlib import Path

import numpy as np

from . import pca as shape_pca
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, config_hash
from .io import read_csv, read_native, replace_on_success, write_csv
from .metrics import EvalReport, evaluate, write_report
from .net import VARIANTS, backward, forward, init_params, paired_loss
from .shapes import MEASURE_NAMES, compute_measures
from .synth import generate_dataset, read_manifest
from .train import (
    _FORWARD_DTYPE,
    check_cloud_size,
    load_training_arrays,
    model_inputs,
    predict_measures,
    train,
    write_train_log,
)

__all__ = [
    "stamp",
    "run_synth",
    "run_shape",
    "run_pca",
    "run_train",
    "run_predict",
    "run_eval",
    "run_gradcheck",
    "run_bench",
    "read_measures_csv",
    "write_measures_csv",
]

SUBJECT_EQUIVALENT_BUNDLES = 73  # fiber clusters per subject in typical atlases
MEASURES_HEADER = ("path", *MEASURE_NAMES)


def stamp(cfg: RunConfig) -> str:
    return f"config_hash={config_hash(cfg)} seed={cfg.master_seed}"


def _work(cfg: RunConfig) -> Path:
    return Path(cfg.work_dir)


def manifest_path(cfg: RunConfig) -> Path:
    return _work(cfg) / "bundles" / "manifest.csv"


def measures_path(cfg: RunConfig) -> Path:
    return _work(cfg) / "measures.csv"


def checkpoint_path(cfg: RunConfig) -> Path:
    return _work(cfg) / f"model_{cfg.variant}.ckpt"


def predictions_path(cfg: RunConfig) -> Path:
    return _work(cfg) / f"predictions_{cfg.variant}.csv"


def report_path(cfg: RunConfig) -> Path:
    return _work(cfg) / f"report_{cfg.variant}.csv"


def run_synth(cfg: RunConfig):
    """Generate the synthetic dataset and its manifest."""
    return generate_dataset(cfg.dataset_config(str(_work(cfg) / "bundles")), header_comment=stamp(cfg))


def run_shape(cfg: RunConfig) -> Path:
    """Compute ground-truth measures for every bundle in the manifest."""
    paths = [row.path for row in read_manifest(manifest_path(cfg))]
    bundles = (read_native(Path(p).read_bytes()) for p in paths)
    measures = (compute_measures(b, cfg.voxel_size).as_array() for b in bundles)
    out = measures_path(cfg)
    write_measures_csv(out, paths, measures, stamp(cfg))
    return out


def write_measures_csv(path, bundle_paths, measures, comment: str) -> None:
    """The measures (or predictions) CSV: one row of ten measures per bundle.
    Raises FloatingPointError, before ``path`` is replaced, for a non-finite
    measure."""

    def records():
        for bundle_path, m in zip(bundle_paths, measures, strict=True):
            if not np.isfinite(m).all():
                raise FloatingPointError(f"non-finite measures for bundle {bundle_path}")
            yield [bundle_path] + _reprs(m)

    write_csv(path, MEASURES_HEADER, records(), comment)


def _reprs(values) -> list[str]:
    """Shortest round-tripping text of each value."""
    return [repr(float(v)) for v in values]


def read_measures_csv(path) -> tuple[list[str], np.ndarray]:
    """Returns (bundle paths, (n, 10) measure matrix); raises ValueError naming
    ``path`` for a malformed file or a non-numeric or non-finite measure."""
    paths, rows = [], []
    for rec in read_csv(path, MEASURES_HEADER):
        try:
            values = [float(v) for v in rec[1:]]
        except ValueError:
            raise ValueError(f"{path}: non-numeric measure for bundle {rec[0]}") from None
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: non-finite measure for bundle {rec[0]}")
        paths.append(rec[0])
        rows.append(values)
    return paths, np.asarray(rows, dtype=np.float64)


def run_pca(cfg: RunConfig) -> Path:
    """Fit the PCA on train-split measures and export it as CSV."""
    rows = read_manifest(manifest_path(cfg))
    paths, measures = read_measures_csv(measures_path(cfg))
    _check_alignment(rows, paths)
    train_rows = measures[[i for i, r in enumerate(rows) if r.split == "train"]]
    model = shape_pca.fit(train_rows, k=cfg.pca_k)
    out = _work(cfg) / "pca_model.csv"
    rows = [
        ["feature_mean", ""] + _reprs(model.feature_mean),
        ["feature_sd", ""] + _reprs(model.feature_sd),
        *(["component", str(i)] + _reprs(c) for i, c in enumerate(model.components)),
        ["explained_variance_ratio", ""]
        + _reprs(model.explained_variance_ratio)
        + [""] * (len(MEASURE_NAMES) - model.k),
    ]
    write_csv(out, ["quantity", "component", *MEASURE_NAMES], rows, stamp(cfg))
    return out


def _check_alignment(manifest_rows, measure_paths) -> None:
    if [r.path for r in manifest_rows] != list(measure_paths):
        raise ValueError("measures CSV does not align with the manifest; rerun `shape`")


def _load_data(cfg: RunConfig, families: tuple | None = None):
    rows = read_manifest(manifest_path(cfg))
    paths, measures = read_measures_csv(measures_path(cfg))
    _check_alignment(rows, paths)
    if families is not None:
        keep = [i for i, r in enumerate(rows) if r.family in families]
        rows = [rows[i] for i in keep]
        measures = measures[keep]
    data = load_training_arrays(rows, measures, cfg.n_points, seed=cfg.master_seed)
    return rows, data


def run_train(cfg: RunConfig, families: tuple | None = None) -> Path:
    """Train the configured variant; writes the checkpoint and the training log."""
    _, data = _load_data(cfg, families)
    ckpt, log = train(data, cfg.train_config())
    out = checkpoint_path(cfg)
    with replace_on_success(out, binary=True) as fh:
        fh.write(save_checkpoint(ckpt))
    write_train_log(log, _work(cfg) / f"train_log_{cfg.variant}.csv", header_comment=stamp(cfg))
    return out


def run_predict(cfg: RunConfig, split: str = "test", families: tuple | None = None) -> Path:
    """Predict measures for one split from the manifest and the checkpoint
    alone, decoding only that split's bundles; writes the predictions CSV.
    Raises ValueError, before the CSV is replaced, when the split selects no
    bundle, and before any bundle is decoded when the checkpoint was trained
    on another cloud size."""
    ckpt = load_checkpoint(checkpoint_path(cfg).read_bytes())
    check_cloud_size(ckpt, cfg.n_points)
    rows = read_manifest(manifest_path(cfg))
    rows = [r for r in rows if families is None or r.family in families]
    # A row's position in the family-filtered manifest seeds its cloud, as in training.
    chosen = [(i, r) for i, r in enumerate(rows) if r.split == split]
    if not chosen:
        which = f" of families {','.join(families)}" if families is not None else ""
        raise ValueError(f"no bundles to predict in the {split} split{which}")
    bundles = ((i, read_native(Path(r.path).read_bytes())) for i, r in chosen)
    preds = predict_measures(ckpt, *model_inputs(bundles, cfg.n_points, cfg.master_seed))
    out = predictions_path(cfg)
    write_measures_csv(out, [r.path for _, r in chosen], preds, stamp(cfg))
    return out


def run_eval(cfg: RunConfig) -> EvalReport:
    """Score predictions against ground truth; writes the report CSV."""
    pred_paths, preds = read_measures_csv(predictions_path(cfg))
    gt_paths, gt = read_measures_csv(measures_path(cfg))
    gt_by_path = {p: gt[i] for i, p in enumerate(gt_paths)}
    missing = [p for p in pred_paths if p not in gt_by_path]
    if missing:
        raise ValueError(f"predictions reference unknown bundles, e.g. {missing[0]!r}")
    gt_matched = np.array([gt_by_path[p] for p in pred_paths])
    report = evaluate(preds, gt_matched, variant=cfg.variant)
    write_report(report, report_path(cfg), header_comment=stamp(cfg))
    return report


def write_ablation_tables(cfg: RunConfig, reports: dict[str, EvalReport]) -> tuple[Path, Path]:
    """Combined per-measure tables (one column per variant), r and nMSE."""
    variants = [v for v in VARIANTS if v in reports]
    paths = []
    for metric in ("pearson", "nmse"):
        out = _work(cfg) / f"ablation_{metric}.csv"
        rows = [
            [name] + [f"{getattr(reports[v], metric)[j]:.6f}" for v in variants]
            for j, name in enumerate(MEASURE_NAMES)
        ]
        rows.append(["average"] + [reports[v].average(metric) for v in variants])
        write_csv(out, ["measure", *variants], rows, stamp(cfg))
        paths.append(out)
    return tuple(paths)


def run_gradcheck(n_probes: int = 120, seed: int = 0) -> float:
    """Finite-difference check on a reduced batch; returns max relative error."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    variant = "full"
    params = init_params(variant, seed=seed)
    pts = rng.normal(size=(2, 8, 3))
    tab = rng.normal(size=(2, 2))
    y = rng.normal(size=(2, 5))

    def loss_value():
        preds = forward(params, pts, tab, variant)
        loss, _, _ = paired_loss(preds[:1], preds[1:], y[:1], y[1:], lam=1.0)
        return loss

    preds, cache = forward(params, pts, tab, variant, want_cache=True)
    _, d_a, d_b = paired_loss(preds[:1], preds[1:], y[:1], y[1:], lam=1.0)
    grads = backward(params, cache, np.concatenate([d_a, d_b], axis=0))

    names = sorted(params)
    h = 1e-5
    max_rel = 0.0
    for _ in range(n_probes):
        name = names[rng.integers(len(names))]
        flat = params[name].reshape(-1)
        j = int(rng.integers(flat.size))
        orig = flat[j]
        flat[j] = orig + h
        up = loss_value()
        flat[j] = orig - h
        down = loss_value()
        flat[j] = orig
        fd = (up - down) / (2 * h)
        an = grads[name].reshape(-1)[j]
        denom = max(abs(fd), abs(an), 1e-8)
        max_rel = max(max_rel, abs(fd - an) / denom)
    return max_rel


def run_bench(cfg: RunConfig) -> dict:
    """Per-subject-equivalent wall times for the oracle and the model, and
    the oracle's tracemalloc peak in MB; the model's best repetition is also
    split into point sampling and predict.
    Also times one training step on the subject's first clouds, a batch of
    the checkpoint's size: ``train.train``'s cached forward and its backward
    (with d_out = 1 / size), against the checkpoint's parameters. Refuses a
    checkpoint of another cloud size (ValueError) before it times anything."""
    ckpt = load_checkpoint(checkpoint_path(cfg).read_bytes())
    check_cloud_size(ckpt, cfg.n_points)
    rows = read_manifest(manifest_path(cfg))[:SUBJECT_EQUIVALENT_BUNDLES]
    bundles = [read_native(Path(r.path).read_bytes()) for r in rows]

    # Best of three repetitions after a warmup pass, so the report measures
    # the code rather than scheduler noise on a shared machine.
    repeats = 3
    compute_measures(bundles[0], cfg.voxel_size)
    # One untimed oracle pass under tracemalloc gives its allocation peak. A
    # trace the caller started keeps running, with its peak reset.
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for b in bundles:
            compute_measures(b, cfg.voxel_size)
        oracle_peak_mb = (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()
    oracle_s = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for b in bundles:
            compute_measures(b, cfg.voxel_size)
        oracle_s = min(oracle_s, time.perf_counter() - t0)

    predict_measures(ckpt, np.zeros((1, cfg.n_points, 3)), np.zeros((1, 2)))
    model_s = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        inputs = model_inputs(enumerate(bundles), cfg.n_points, cfg.master_seed)
        t1 = time.perf_counter()
        predict_measures(ckpt, *inputs)
        t2 = time.perf_counter()
        if t2 - t0 < model_s:
            model_s, sample_s, predict_s = t2 - t0, t1 - t0, t2 - t1

    points, tabular = inputs
    batch = slice(0, min(ckpt.config.batch_size, len(points)))
    tab = ckpt.standardizer.apply_many(tabular[batch]) if ckpt.standardizer is not None else None
    step_s = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        preds, cache = forward(
            ckpt.params, points[batch], tab, ckpt.config.variant, want_cache=True, dtype=_FORWARD_DTYPE
        )
        t1 = time.perf_counter()
        backward(ckpt.params, cache, np.full(preds.shape, 1.0 / preds.size))
        t2 = time.perf_counter()
        if t2 - t0 < step_s:
            step_s, train_forward_s, backward_s = t2 - t0, t1 - t0, t2 - t1
    return {
        "n_bundles": len(bundles),
        "oracle_s": oracle_s,
        "oracle_peak_mb": oracle_peak_mb,
        "model_s": model_s,
        "sample_s": sample_s,
        "predict_s": predict_s,
        "train_forward_s": train_forward_s,
        "backward_s": backward_s,
    }
