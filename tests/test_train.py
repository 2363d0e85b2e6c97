"""Training loop tests on a miniature dataset."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bundleshape
import bundleshape.train
from bundleshape.checkpoint import TrainConfig, load_checkpoint, save_checkpoint
from bundleshape.features import extract_tabular, sample_points
from bundleshape.io import read_native
from bundleshape.net import backward, forward, init_params, paired_loss
from bundleshape.optim import adam_step
from bundleshape.shapes import compute_measures
from bundleshape.synth import DatasetConfig, generate_dataset
from bundleshape.train import (
    TrainData,
    load_training_arrays,
    model_inputs,
    predict_measures,
    sample_seed_for,
    train,
    write_train_log,
)


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cfg = DatasetConfig(out_dir=str(out), n_bundles=24, master_seed=5)
    rows = generate_dataset(cfg)
    measures = np.array(
        [
            compute_measures(read_native(open(r.path, "rb").read()), 1.0).as_array()
            for r in rows
        ]
    )
    data = load_training_arrays(rows, measures, n_points=64, seed=5)
    return rows, data


def tiny_config(**kw):
    base = dict(variant="full", batch_size=8, epochs=2, n_points=64, pca_k=5, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestModelInputs:
    def test_samples_each_bundle_at_its_seed(self, tiny_data):
        rows, _ = tiny_data
        bundles = [read_native(Path(r.path).read_bytes()) for r in rows[:5]]
        points, tabular = model_inputs(enumerate(bundles), 64, seed=9)
        assert points.shape == (5, 64, 3) and points.dtype == np.float32
        assert tabular.shape == (5, 2) and tabular.dtype == np.float64
        for i, b in enumerate(bundles):
            cloud = sample_points(b, 64, seed=sample_seed_for(9, i))
            assert np.array_equal(points[i], cloud.astype(np.float32))
            assert np.array_equal(tabular[i], extract_tabular(b))

    def test_samples_at_the_given_indices(self, tiny_data):
        rows, _ = tiny_data
        b0, b1 = (read_native(Path(r.path).read_bytes()) for r in rows[:2])
        points, tabular = model_inputs(iter([(3, b0), (7, b1)]), 64, seed=9)
        for cloud, b, i in ((points[0], b0, 3), (points[1], b1, 7)):
            assert np.array_equal(cloud, sample_points(b, 64, seed=sample_seed_for(9, i)).astype(np.float32))
        assert np.array_equal(tabular, [extract_tabular(b0), extract_tabular(b1)])

    def test_no_bundles(self):
        points, tabular = model_inputs(enumerate(()), 64, seed=0)
        assert points.shape == (0, 64, 3) and tabular.shape == (0, 2)

    def test_training_arrays_hold_one_bundle_at_a_time(self, tiny_data):
        rows, data = tiny_data
        decoded = sum(read_native(Path(r.path).read_bytes()).points.nbytes for r in rows)
        tracemalloc.start()
        try:
            again = load_training_arrays(rows, data.measures, n_points=64, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(again.points, data.points)
        # ~2.1 MB: the largest bundle's decode (0.62 MB of points) and the
        # clouds; holding all 24 decoded bundles takes 5.7 MB.
        assert peak < decoded / 2


class TestTrain:
    def test_runs_and_logs(self, tiny_data):
        _, data = tiny_data
        ckpt, log = train(data, tiny_config())
        assert len(log) == 2
        assert log[0]["step"] == 2  # 16 train samples / batch 8
        assert log[1]["step"] == 4
        for row in log:
            assert np.isfinite(row["train_loss"]) and np.isfinite(row["val_loss"])

    def test_deterministic_checkpoint_bytes(self, tiny_data):
        _, data = tiny_data
        c1, _ = train(data, tiny_config())
        c2, _ = train(data, tiny_config())
        assert save_checkpoint(c1) == save_checkpoint(c2)

    def test_seed_changes_results(self, tiny_data):
        _, data = tiny_data
        c1, _ = train(data, tiny_config(seed=0))
        c2, _ = train(data, tiny_config(seed=1))
        assert save_checkpoint(c1) != save_checkpoint(c2)

    @pytest.mark.parametrize("variant", ["vanilla", "multimodal", "pca", "full"])
    def test_all_variants_run(self, tiny_data, variant):
        _, data = tiny_data
        ckpt, _ = train(data, tiny_config(variant=variant, epochs=1))
        idx = data.indices("test")
        preds = predict_measures(ckpt, data.points[idx], data.tabular[idx])
        assert preds.shape == (idx.size, 10)
        assert np.all(np.isfinite(preds))

    def test_weight_sharing_preserved(self, tiny_data):
        """Both Siamese branches use the same parameters after training."""
        _, data = tiny_data
        ckpt, _ = train(data, tiny_config())
        pts = data.points[:2]
        tab = data.tabular[:2]
        both = predict_measures(ckpt, np.concatenate([pts, pts]), np.concatenate([tab, tab]))
        np.testing.assert_array_equal(both[:2], both[2:])

    def test_checkpoint_round_trip_predicts_identically(self, tiny_data):
        _, data = tiny_data
        ckpt, _ = train(data, tiny_config())
        loaded = load_checkpoint(save_checkpoint(ckpt))
        idx = data.indices("val")
        np.testing.assert_array_equal(
            predict_measures(ckpt, data.points[idx], data.tabular[idx]),
            predict_measures(loaded, data.points[idx], data.tabular[idx]),
        )

    def test_train_log_csv(self, tiny_data, tmp_path):
        _, data = tiny_data
        _, log = train(data, tiny_config())
        out = tmp_path / "log.csv"
        write_train_log(log, out, header_comment="hash=y seed=0")
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "epoch,step,lr,train_loss,val_loss"
        assert len(lines) == 4

    def test_overfits_toy_set(self, tiny_data):
        """16 training samples, many epochs: train loss collapses below
        5% of its initial value (smoke check that optimization works)."""
        _, data = tiny_data
        _, log = train(data, tiny_config(epochs=300))
        assert log[-1]["train_loss"] < 0.05 * log[0]["train_loss"]

    def test_batch_size_larger_than_train_split_rejected(self, tiny_data):
        _, data = tiny_data
        with pytest.raises(ValueError):
            train(data, tiny_config(batch_size=64))

    def test_validation_runs_in_float32(self, tiny_data, monkeypatch):
        _, data = tiny_data
        ckpt, log = train(data, tiny_config(epochs=1))
        idx = data.indices("val")
        tab = ckpt.standardizer.apply_many(data.tabular[idx])
        preds = forward(ckpt.params, data.points[idx], tab, "full", dtype=np.float32)
        targets = ckpt.pca.standardize_scores(ckpt.pca.transform(data.measures[idx]))
        assert log[-1]["val_loss"] == float(np.mean((preds - targets) ** 2))

        # Validation precision cannot leak into training: the same run with
        # a float64 validation forward (the call without a cache) ends with
        # the same parameters.
        def float64_validation(*args, **kw):
            if not kw.get("want_cache"):
                kw["dtype"] = np.float64
            return forward(*args, **kw)

        monkeypatch.setattr(bundleshape.train, "forward", float64_validation)
        ckpt64, log64 = train(data, tiny_config(epochs=1))
        assert log64[-1]["val_loss"] != log[-1]["val_loss"]
        for name in ckpt.params:
            np.testing.assert_array_equal(ckpt64.params[name], ckpt.params[name], err_msg=name)

    def test_epoch_peak_holds_one_batch(self):
        """A training epoch peaks at about one batch's forward and backward:
        the previous batch's cache is freed before the next forward, and a
        cache keeps the critical points' coordinates, not their hidden rows."""
        rng = np.random.default_rng(0)
        data = TrainData(
            points=rng.normal(size=(72, 1024, 3)),
            tabular=rng.uniform(1, 9, size=(72, 2)),
            measures=rng.uniform(1, 2, size=(72, 10)),
            splits=("train",) * 64 + ("val",) * 4 + ("test",) * 4,
        )
        tracemalloc.start()
        try:
            train(data, TrainConfig(epochs=1, batch_size=32))
            epoch = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~8.1 MiB: one batch's forward and backward (~5.6 MiB) plus Adam's two
        # moments and the epoch's small arrays. Hidden rows in the cache
        # (~5.5 MB a batch), kept or left over from the last batch, a dense
        # (n_crit, 256) pool gradient in backward (~2.5 MiB) or a backward that
        # recomputes layer 2's input rows beside layer 3's dense gradient
        # (~1 MiB) exceed it.
        assert epoch < 8.5 * 2**20


def test_package_exposes_the_train_module():
    """``bundleshape.train`` is the submodule, not a re-exported function of that name."""
    assert bundleshape.train.backward is bundleshape.net.backward


class TestMixedPrecision:
    """Training runs its forward in float32; parameters, gradients and Adam stay float64."""

    def test_float32_clouds_train_and_predict_as_float64(self, tiny_data):
        """model_inputs rounds its clouds to float32 once; every forward casts
        its chunks to float32 anyway, so the checkpoint bytes, the log and the
        predictions equal those of the unrounded float64 clouds."""
        rows, data = tiny_data
        bundles = (read_native(Path(r.path).read_bytes()) for r in rows)
        clouds = np.stack([sample_points(b, 64, seed=sample_seed_for(5, i)) for i, b in enumerate(bundles)])
        assert clouds.dtype == np.float64 and np.array_equal(clouds.astype(np.float32), data.points)
        data64 = TrainData(points=clouds, tabular=data.tabular, measures=data.measures, splits=data.splits)
        ckpt32, log32 = train(data, tiny_config())
        ckpt64, log64 = train(data64, tiny_config())
        assert save_checkpoint(ckpt32) == save_checkpoint(ckpt64)
        assert log32 == log64
        idx = data.indices("test")
        np.testing.assert_array_equal(
            predict_measures(ckpt32, data.points[idx], data.tabular[idx]),
            predict_measures(ckpt64, clouds[idx], data.tabular[idx]),
        )

    def test_every_forward_runs_in_float32(self, tiny_data, monkeypatch):
        _, data = tiny_data
        seen = []

        def spy(*args, **kw):
            result = forward(*args, **kw)
            out = result[0] if kw.get("want_cache") else result
            seen.append((bool(kw.get("want_cache")), out.dtype))
            return result

        monkeypatch.setattr(bundleshape.train, "forward", spy)
        train(data, tiny_config(epochs=2))
        assert {cached for cached, _ in seen} == {True, False}
        assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}

    def test_parameters_gradients_and_moments_stay_float64(self, tiny_data, monkeypatch):
        _, data = tiny_data
        states, grad_dtypes = [], set()

        def spy(state, params, grads):
            states.append(state)
            grad_dtypes.update(g.dtype for g in grads.values())
            adam_step(state, params, grads)

        monkeypatch.setattr(bundleshape.train, "adam_step", spy)
        ckpt, _ = train(data, tiny_config(epochs=2))
        assert grad_dtypes == {np.dtype(np.float64)}
        assert {p.dtype for p in ckpt.params.values()} == {np.dtype(np.float64)}
        opt = states[-1]
        assert set(opt.m) == set(opt.v) == set(ckpt.params)
        moments = [*opt.m.values(), *opt.v.values()]
        assert {m.dtype for m in moments} == {np.dtype(np.float64)}

    def test_float32_cache_gradients_match_float64(self):
        """One training step's gradients from the float32 cache agree with the
        float64 cache's to 1e-5 of each parameter's gradient norm (4.4e-7 seen):
        backward recomputes the critical rows against the float64 weights."""
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(32, 1024, 3))
        tab = rng.normal(size=(32, 2))
        y = rng.normal(size=(32, 5))
        params = init_params("full", seed=0)
        lam = TrainConfig().lam_pair

        def step_grads(dtype):
            preds, cache = forward(params, pts, tab, "full", want_cache=True, dtype=dtype)
            _, d_a, d_b = paired_loss(preds[:16], preds[16:], y[:16], y[16:], lam)
            return backward(params, cache, np.concatenate([d_a, d_b]))

        g32, g64 = step_grads(np.float32), step_grads(np.float64)
        assert set(g32) == set(g64) == set(params)
        for name, g in g64.items():
            assert g32[name].dtype == g.dtype == np.float64, name
            assert np.linalg.norm(g32[name] - g) <= 1e-5 * np.linalg.norm(g), name
