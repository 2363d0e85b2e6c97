"""Point sampling and tabular descriptor tests."""

import numpy as np
import pytest

from bundleshape.features import (
    POINT_SCALE,
    ZeroVariance,
    extract_tabular,
    fit_standardizer,
    sample_points,
)
from bundleshape.io import Bundle


def bundle_with(n_points_total):
    per = max(n_points_total // 2, 2)
    a = np.cumsum(np.random.default_rng(0).normal(size=(per, 3)), axis=0)
    b = np.cumsum(np.random.default_rng(1).normal(size=(n_points_total - per, 3)), axis=0)
    return Bundle.from_streamlines((a, b))


class TestSamplePoints:
    def test_shape_and_centering(self):
        b = bundle_with(300)
        pts = sample_points(b, n=64, seed=0)
        assert pts.shape == (64, 3)
        np.testing.assert_allclose(pts.mean(axis=0), np.zeros(3), atol=1e-12)

    def test_deterministic_per_seed(self):
        b = bundle_with(300)
        np.testing.assert_array_equal(sample_points(b, 64, seed=5), sample_points(b, 64, seed=5))
        assert not np.array_equal(sample_points(b, 64, seed=5), sample_points(b, 64, seed=6))

    def test_without_replacement_when_enough_points(self):
        b = bundle_with(100)
        pts = sample_points(b, n=100, seed=0)
        # all 100 points used exactly once (as multisets, after centering)
        raw = b.all_points()
        centered = raw - (raw[np.lexsort(raw.T)]).mean(axis=0)
        assert np.unique(pts, axis=0).shape[0] == 100

    def test_with_replacement_when_short(self):
        b = bundle_with(10)
        pts = sample_points(b, n=64, seed=0)
        assert pts.shape == (64, 3)
        assert np.unique(pts, axis=0).shape[0] <= 10

    def test_translation_invariance(self):
        b = bundle_with(200)
        p1 = sample_points(b, 64, seed=3)
        p2 = sample_points(b.translated([10.0, -5.0, 2.0]), 64, seed=3)
        np.testing.assert_allclose(p1, p2, atol=1e-9)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            sample_points(bundle_with(10), n=0)

    def test_rigid_pose_invariance(self):
        b = bundle_with(200)
        theta = 1.1
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0.0],
                [np.sin(theta), np.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        moved = Bundle.from_streamlines(tuple(s @ rot.T + np.array([3.0, -8.0, 1.5]) for s in b.streamlines))
        p1 = sample_points(b, 64, seed=3)
        p2 = sample_points(moved, 64, seed=3)
        np.testing.assert_allclose(p1, p2, atol=1e-8)

    def test_point_scale_constant(self):
        from bundleshape.features import POINT_SCALE

        b = bundle_with(100)
        pts = sample_points(b, n=100, seed=0)  # every point used exactly once
        raw = b.all_points()
        centered = raw - raw.mean(axis=0)
        # rotation preserves total norm; only the unit change rescales it
        assert np.linalg.norm(pts) == pytest.approx(
            POINT_SCALE * np.linalg.norm(centered), rel=1e-9
        )


def reference_sample_points(bundle, n, seed):
    """The sampler written out with fancy indexing, ``** 3`` and a scaled copy."""
    pts = bundle.points
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    idx = rng.choice(pts.shape[0], size=n, replace=pts.shape[0] < n)
    sampled = pts[idx]
    centered = sampled - sampled.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    r = centered @ vt.T
    r[:, np.sum(r ** 3, axis=0) < 0] *= -1.0
    return r * POINT_SCALE


def random_bundle(rng):
    lengths = rng.integers(2, 40, size=rng.integers(1, 8))
    walk = np.cumsum(rng.normal(scale=rng.uniform(0.1, 5.0), size=(lengths.sum(), 3)), axis=0)
    walk += rng.uniform(-80, 80, size=3)
    return Bundle.from_streamlines(np.split(walk, np.cumsum(lengths)[:-1]))


class TestSamplePointsBitExact:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 300])
    def test_equal_to_reference(self, n):
        rng = np.random.default_rng(n)
        for k in range(25):
            b = random_bundle(rng)
            got = sample_points(b, n, seed=k)
            np.testing.assert_array_equal(got, reference_sample_points(b, n, k))
            assert (np.sum(got ** 3, axis=0) >= 0).all()

    def test_cases_cover_both_sampling_modes(self):
        rng = np.random.default_rng(64)
        sizes = [random_bundle(rng).n_points for _ in range(25)]
        assert min(sizes) < 64 < max(sizes)


class TestTabular:
    def test_extract(self):
        b = bundle_with(123)
        nos, nop = extract_tabular(b)
        assert nos == 2
        assert nop == 123

    def test_standardizer(self):
        rows = np.array([[10.0, 100.0], [20.0, 300.0], [30.0, 200.0]])
        std = fit_standardizer(rows)
        z = std.apply_many(rows)
        np.testing.assert_allclose(z.mean(axis=0), np.zeros(2), atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), np.ones(2), atol=1e-12)
        np.testing.assert_allclose(std.apply_many(rows[0]), z[0], atol=1e-15)

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVariance):
            fit_standardizer(np.array([[1.0, 5.0], [1.0, 6.0]]))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_standardizer(np.array([[1.0, 2.0]]))
