"""End-to-end command-line interface tests on a miniature run."""

import shutil

import pytest

from bundleshape.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main

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
