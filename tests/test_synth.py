"""Synthetic generator tests: determinism, closed forms, splits."""

import numpy as np
import pytest

from bundleshape.io import read_native
from bundleshape.shapes import compute_measures
from bundleshape.synth import (
    BundleSpec,
    DatasetConfig,
    generate_bundle,
    generate_dataset,
    read_manifest,
    write_manifest,
)


def centerline_spec(family, **kw):
    base = dict(
        family=family,
        length_mm=80.0,
        tube_radius=0.0,
        n_streamlines=1,
        points_per_streamline=200,
        jitter_sd=0.0,
        seed=1,
    )
    base.update(kw)
    return BundleSpec(**base)


def polyline_length(s):
    return float(np.linalg.norm(np.diff(s, axis=0), axis=1).sum())


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            centerline_spec("sphere")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            centerline_spec("cylinder", n_streamlines=0)
        with pytest.raises(ValueError):
            centerline_spec("cylinder", points_per_streamline=1)
        with pytest.raises(ValueError):
            centerline_spec("cylinder", tube_radius=-1.0)

    def test_bad_angle(self):
        with pytest.raises(ValueError):
            centerline_spec("arc", angle_rad=0.0)
        with pytest.raises(ValueError):
            centerline_spec("arc", angle_rad=7.0)

    def test_helix_pitch_constraint(self):
        with pytest.raises(ValueError):
            centerline_spec("helix", length_mm=5.0, angle_rad=1.0, pitch_mm=80.0)


class TestClosedForms:
    def test_cylinder_centerline(self):
        b = generate_bundle(centerline_spec("cylinder"))
        s = b.streamlines[0]
        assert polyline_length(s) == pytest.approx(80.0, rel=0.005)
        assert np.linalg.norm(s[-1] - s[0]) == pytest.approx(80.0, rel=0.005)

    def test_arc_centerline(self):
        phi = 2.0
        b = generate_bundle(centerline_spec("arc", angle_rad=phi))
        s = b.streamlines[0]
        radius = 80.0 / phi
        chord = 2.0 * radius * np.sin(phi / 2.0)
        assert polyline_length(s) == pytest.approx(80.0, rel=0.005)
        assert np.linalg.norm(s[-1] - s[0]) == pytest.approx(chord, rel=0.005)

    def test_helix_centerline(self):
        phi, pitch = 2.5, 40.0
        b = generate_bundle(centerline_spec("helix", angle_rad=phi, pitch_mm=pitch))
        s = b.streamlines[0]
        rise = pitch / (2 * np.pi)
        radius = np.sqrt((80.0 / phi) ** 2 - rise ** 2)
        span = np.sqrt((2 * radius * np.sin(phi / 2)) ** 2 + (rise * phi) ** 2)
        assert polyline_length(s) == pytest.approx(80.0, rel=0.005)
        assert np.linalg.norm(s[-1] - s[0]) == pytest.approx(span, rel=0.005)

    def test_rigid_pose_preserves_measures(self):
        spec = centerline_spec("arc", n_streamlines=20, tube_radius=2.0, jitter_sd=0.1)
        theta = 0.7
        rot = (
            (np.cos(theta), -np.sin(theta), 0.0),
            (np.sin(theta), np.cos(theta), 0.0),
            (0.0, 0.0, 1.0),
        )
        from dataclasses import replace

        posed = replace(spec, rotation=rot, translation=(12.0, -7.0, 3.0))
        m1 = compute_measures(generate_bundle(spec), 1.0).as_array()
        m2 = compute_measures(generate_bundle(posed), 1.0).as_array()
        # voxel-free measures are exactly rigid-invariant up to rounding
        for j in (0, 1, 2, 7):  # length, span, curl, end-region radius
            assert m2[j] == pytest.approx(m1[j], rel=1e-9)

    def test_tube_stays_within_radius_without_jitter(self):
        spec = centerline_spec("cylinder", n_streamlines=64, tube_radius=3.0)
        b = generate_bundle(spec)
        pts = b.all_points()
        radial = np.linalg.norm(pts[:, :2], axis=1)
        assert radial.max() <= 3.0 + 1e-9


class TestDeterminism:
    def test_same_spec_same_bundle(self):
        spec = centerline_spec("helix", n_streamlines=10, tube_radius=2.0, jitter_sd=0.2)
        b1 = generate_bundle(spec)
        b2 = generate_bundle(spec)
        for s1, s2 in zip(b1.streamlines, b2.streamlines):
            np.testing.assert_array_equal(s1, s2)

    def test_different_seeds_differ(self):
        s1 = centerline_spec("cylinder", n_streamlines=10, tube_radius=2.0, jitter_sd=0.2, seed=1)
        s2 = centerline_spec("cylinder", n_streamlines=10, tube_radius=2.0, jitter_sd=0.2, seed=2)
        assert not np.array_equal(
            generate_bundle(s1).streamlines[0], generate_bundle(s2).streamlines[0]
        )


class TestDataset:
    def test_split_counts_and_regeneration(self, tmp_path):
        cfg = DatasetConfig(out_dir=str(tmp_path / "a"), n_bundles=40, master_seed=3)
        rows = generate_dataset(cfg)
        assert len(rows) == 40
        splits = [r.split for r in rows]
        assert splits.count("train") == 28
        assert splits.count("val") == 6
        assert splits.count("test") == 6

        cfg2 = DatasetConfig(out_dir=str(tmp_path / "b"), n_bundles=40, master_seed=3)
        generate_dataset(cfg2)
        for r in rows:
            p1 = tmp_path / "a" / r.path.split("/")[-1]
            p2 = tmp_path / "b" / r.path.split("/")[-1]
            assert p1.read_bytes() == p2.read_bytes()

    def test_default_split_fractions_are_70_15_15(self, tmp_path):
        cfg = DatasetConfig(out_dir=str(tmp_path), n_bundles=600)
        assert cfg.split_fractions == (0.70, 0.15, 0.15)
        assert int(600 * 0.70) == 420 and int(600 * 0.15) == 90

    def test_manifest_round_trip(self, tmp_path):
        cfg = DatasetConfig(out_dir=str(tmp_path), n_bundles=8, master_seed=1)
        rows = generate_dataset(cfg, header_comment="hash=x seed=1")
        back = read_manifest(tmp_path / "manifest.csv")
        assert back == rows

    def test_manifest_without_bundles_is_refused(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest([], path, header_comment="hash=x seed=1")
        with pytest.raises(ValueError, match="lists no bundles"):
            read_manifest(path)

    def test_bundle_files_load(self, tmp_path):
        cfg = DatasetConfig(out_dir=str(tmp_path), n_bundles=5, master_seed=2)
        rows = generate_dataset(cfg)
        for r in rows:
            b = read_native((tmp_path / r.path.split("/")[-1]).read_bytes())
            assert b.n_streamlines == r.n_streamlines
            assert all(s.shape[0] == r.points_per_streamline for s in b.streamlines)

    def test_all_families_present(self, tmp_path):
        cfg = DatasetConfig(out_dir=str(tmp_path), n_bundles=40, master_seed=0)
        rows = generate_dataset(cfg)
        assert {r.family for r in rows} == {"cylinder", "arc", "helix"}
