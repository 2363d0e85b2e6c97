"""Training loop tests on a miniature dataset."""

import numpy as np
import pytest

from bundleshape.checkpoint import TrainConfig, load_checkpoint, save_checkpoint
from bundleshape.io import read_native
from bundleshape.shapes import compute_measures
from bundleshape.synth import DatasetConfig, generate_dataset
from bundleshape.train import (
    load_training_arrays,
    predict_measures,
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
