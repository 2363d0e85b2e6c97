"""End-to-end command-line interface tests on a miniature run."""

import dataclasses
import shutil
import warnings

import pytest
from test_config import MALFORMED_CONFIGS

from bundleshape import pipeline
from bundleshape.checkpoint import load_checkpoint, save_checkpoint
from bundleshape.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main

TINY_INI = """\
[paths]
work_dir = {work}

[dataset]
n_bundles = 24
master_seed = 5

[features]
n_points = 64

[train]
epochs = 1
batch_size = 8
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One synth+shape+pca run shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "run.ini"
    ini.write_text(TINY_INI.format(work=root / "run"))
    cfg = ["-c", str(ini)]
    assert main(["synth", *cfg]) == EXIT_OK
    assert main(["shape", *cfg]) == EXIT_OK
    assert main(["pca", *cfg]) == EXIT_OK
    return root, cfg


class TestHelp:
    def test_help_exits_zero_and_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for key in ("n_bundles", "voxel_size", "n_points", "lam_pair", "sched_period"):
            assert key in out

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestExitCodes:
    def test_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[dataset]\nnot_a_key = 1\n")
        assert main(["synth", "-c", str(bad)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["synth", "-c", "/no/such/file.ini"]) == EXIT_CONFIG

    def test_data_error_when_dataset_missing(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(TINY_INI.format(work=tmp_path / "empty"))
        assert main(["shape", "-c", str(ini)]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_data_error_when_voxel_grid_too_large(self, tiny_run, tmp_path, capsys):
        root, _ = tiny_run
        shutil.copytree(root / "run" / "bundles", tmp_path / "run" / "bundles")
        ini = tmp_path / "run.ini"
        ini.write_text(TINY_INI.format(work=tmp_path / "run") + "\n[shape]\nvoxel_size = 1e-7\n")
        assert main(["shape", "-c", str(ini)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_predict_refuses_another_cloud_size(self, tiny_run, tmp_path, capsys):
        cfg = copy_run(tiny_run, tmp_path)
        assert main(["train", *cfg]) == EXIT_OK
        ini = tmp_path / "run.ini"
        ini.write_text(ini.read_text().replace("n_points = 64", "n_points = 512"))
        capsys.readouterr()
        assert main(["predict", *cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "512" in err and "64" in err
        assert not (tmp_path / "run" / "predictions_full.csv").exists()

    def test_failed_rerun_keeps_previous_measures(self, tiny_run, tmp_path, capsys):
        root, _ = tiny_run
        shutil.copytree(root / "run" / "bundles", tmp_path / "run" / "bundles")
        ini = tmp_path / "run.ini"
        ini.write_text(TINY_INI.format(work=tmp_path / "run"))
        assert main(["shape", "-c", str(ini)]) == EXIT_OK
        measures = tmp_path / "run" / "measures.csv"
        before = measures.read_bytes()
        ini.write_text(TINY_INI.format(work=tmp_path / "run") + "\n[shape]\nvoxel_size = 1e-7\n")
        assert main(["shape", "-c", str(ini)]) == EXIT_DATA
        assert measures.read_bytes() == before
        assert sorted(p.name for p in measures.parent.iterdir()) == ["bundles", "measures.csv"]


def copy_run(tiny_run, tmp_path, extra=""):
    """A fresh work dir holding the shared run's bundles, measures and PCA;
    returns the config arguments, with ``extra`` appended to the ini."""
    root, _ = tiny_run
    run = tmp_path / "run"
    shutil.copytree(root / "run" / "bundles", run / "bundles")
    for name in ("measures.csv", "pca_model.csv"):
        shutil.copy(root / "run" / name, run / name)
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI.format(work=run) + extra)
    return ["-c", str(ini)]


def assert_numeric_error(err):
    lines = err.splitlines()
    assert lines[-1].startswith("numeric error: ")
    assert sum(ln.startswith("numeric error") for ln in lines) == 1
    assert "Traceback" not in err


class TestTrainSettings:
    @pytest.mark.parametrize(
        "key, setting",
        [("epochs", "epochs = 0"), ("sched_period", "epochs = 1\nsched_period = 0")],
        ids=["epochs", "sched_period"],
    )
    def test_refused_before_training(self, tiny_run, tmp_path, capsys, key, setting):
        # sched_period = 0 used to divide by zero in lr_at (exit 4), and
        # epochs = 0 wrote an untrained checkpoint (exit 0).
        copy_run(tiny_run, tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text(ini.read_text().replace("epochs = 1", setting))
        capsys.readouterr()
        assert main(["train", "-c", str(ini)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert key in err
        assert not (tmp_path / "run" / "model_full.ckpt").exists()


class TestNumericErrors:
    def test_diverged_rerun_keeps_previous_checkpoint(self, tiny_run, tmp_path, capsys):
        cfg = copy_run(tiny_run, tmp_path)
        assert main(["train", *cfg]) == EXIT_OK
        run = tmp_path / "run"
        before = {p: (run / p).read_bytes() for p in ("model_full.ckpt", "train_log_full.csv")}
        diverging = tmp_path / "diverging.ini"
        diverging.write_text(TINY_INI.format(work=run) + "lr0 = 1e100\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "-c", str(diverging)]) == EXIT_NUMERIC
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert_numeric_error(capsys.readouterr().err)
        assert {p: (run / p).read_bytes() for p in before} == before
        assert not list(run.glob("*.tmp"))

    def test_nonfinite_predictions(self, tiny_run, tmp_path, capsys):
        cfg = copy_run(tiny_run, tmp_path)
        assert main(["train", *cfg]) == EXIT_OK
        ckpt_path = tmp_path / "run" / "model_full.ckpt"
        ckpt = load_checkpoint(ckpt_path.read_bytes())
        ckpt.params["head1.b"][0] = float("nan")
        ckpt_path.write_bytes(save_checkpoint(ckpt))
        capsys.readouterr()
        assert main(["predict", *cfg]) == EXIT_NUMERIC
        assert_numeric_error(capsys.readouterr().err)
        assert not (tmp_path / "run" / "predictions_full.csv").exists()

    def test_overflowing_measures(self, tiny_run, tmp_path, capsys):
        # (1e120 mm)^3 overflows a float: the volume cannot be represented.
        cfg = copy_run(tiny_run, tmp_path, extra="\n[shape]\nvoxel_size = 1e120\n")
        before = (tmp_path / "run" / "measures.csv").read_bytes()
        assert main(["shape", *cfg]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert_numeric_error(err)
        assert "voxel_size" in err
        assert (tmp_path / "run" / "measures.csv").read_bytes() == before

    def test_nonfinite_measures(self, tiny_run, tmp_path, monkeypatch, capsys):
        cfg = copy_run(tiny_run, tmp_path)
        real = pipeline.compute_measures

        def infinite_volume(bundle, voxel_size):
            m = real(bundle, voxel_size)
            return dataclasses.replace(m, volume=float("inf"))

        monkeypatch.setattr(pipeline, "compute_measures", infinite_volume)
        assert main(["shape", *cfg]) == EXIT_NUMERIC
        assert_numeric_error(capsys.readouterr().err)


class TestEditedPredictions:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_prediction_is_a_data_error(self, tiny_run, tmp_path, capsys, value):
        cfg = copy_run(tiny_run, tmp_path)
        assert main(["train", *cfg]) == EXIT_OK
        assert main(["predict", *cfg]) == EXIT_OK
        preds = tmp_path / "run" / "predictions_full.csv"
        lines = preds.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = value
        lines[2] = ",".join(fields)
        preds.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", *cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(preds) in err and fields[0] in err
        assert not (tmp_path / "run" / "report_full.csv").exists()


class TestMalformedConfig:
    @pytest.mark.parametrize("body", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
    def test_one_config_error_line(self, tmp_path, monkeypatch, capsys, body):
        monkeypatch.chdir(tmp_path)  # the default work_dir is relative
        ini = tmp_path / "run.ini"
        ini.write_bytes(body)
        assert main(["synth", "-c", str(ini)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()


def edit_csv(path, case):
    """Hand-edit a pipeline CSV (comment line, header, records) into ``case``."""
    lines = path.read_text().splitlines()
    if case == "empty":
        lines = []
    elif case == "missing_column":
        lines[1:] = [ln.rsplit(",", 1)[0] for ln in lines[1:]]
    elif case == "short_record":
        lines[2] = lines[2].rsplit(",", 1)[0]
    elif case == "non_numeric":
        fields = lines[2].split(",")
        fields[3] = "x"
        lines[2] = ",".join(fields)
    path.write_text("".join(ln + "\n" for ln in lines))


class TestMalformedCsv:
    """Each hand-edited CSV ends in one ``data error:`` line naming it."""

    @pytest.mark.parametrize("case", ["empty", "missing_column", "short_record", "non_numeric"])
    @pytest.mark.parametrize(
        "name, command",
        [
            ("bundles/manifest.csv", "shape"),
            ("measures.csv", "pca"),
            ("predictions_full.csv", "eval"),
        ],
    )
    def test_data_error(self, tiny_run, tmp_path, capsys, name, command, case):
        cfg = copy_run(tiny_run, tmp_path)
        if command == "eval":
            assert main(["train", *cfg]) == EXIT_OK
            assert main(["predict", *cfg]) == EXIT_OK
        path = tmp_path / "run" / name
        edit_csv(path, case)
        capsys.readouterr()
        assert main([command, *cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(path) in err


class TestPipeline:
    def test_synth_outputs(self, tiny_run):
        root, _ = tiny_run
        run = root / "run"
        assert (run / "bundles" / "manifest.csv").exists()
        assert len(list((run / "bundles").glob("*.t2sb"))) == 24
        assert (run / "measures.csv").exists()
        assert (run / "pca_model.csv").exists()

    def test_train_predict_eval(self, tiny_run, capsys):
        root, cfg = tiny_run
        assert main(["train", *cfg]) == EXIT_OK
        assert main(["predict", *cfg]) == EXIT_OK
        assert main(["eval", *cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mean r =" in out and "mean nMSE =" in out
        run = root / "run"
        assert (run / "model_full.ckpt").exists()
        assert (run / "predictions_full.csv").exists()
        assert (run / "report_full.csv").exists()
        assert (run / "train_log_full.csv").exists()

    def test_variant_override_and_ablation(self, tiny_run, capsys):
        root, cfg = tiny_run
        assert main(["train", *cfg, "--variant", "vanilla"]) == EXIT_OK
        assert main(["predict", *cfg, "--variant", "vanilla"]) == EXIT_OK
        assert main(["eval", *cfg, "--ablation"]) == EXIT_OK
        run = root / "run"
        assert (run / "ablation_pearson.csv").exists()
        assert (run / "ablation_nmse.csv").exists()
        body = (run / "ablation_pearson.csv").read_text()
        assert "full" in body and "vanilla" in body

    def test_families_filter(self, tiny_run):
        root, cfg = tiny_run
        assert main(["train", *cfg, "--variant", "pca", "--families", "cylinder,arc"]) == EXIT_OK
        assert main(["predict", *cfg, "--variant", "pca", "--families", "helix"]) == EXIT_OK

    def test_predict_split_flag(self, tiny_run):
        _, cfg = tiny_run
        assert main(["predict", *cfg, "--split", "val"]) == EXIT_OK

    def test_gradcheck(self, capsys):
        assert main(["gradcheck", "--probes", "10"]) == EXIT_OK
        assert "gradcheck PASS" in capsys.readouterr().out

    def test_bench(self, tiny_run, capsys):
        _, cfg = tiny_run
        assert main(["bench", *cfg]) == EXIT_OK
        assert "subject-equivalent" in capsys.readouterr().out
