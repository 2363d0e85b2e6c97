"""PCA suite: round trips, orthonormality, variance ratios, determinism."""

import numpy as np
import pytest

from bundleshape import pca
from bundleshape.features import ZeroVariance


def random_measures(rng, n=200, d=10):
    """Correlated positive-ish columns resembling shape measures."""
    latent = rng.normal(size=(n, 4))
    mix = rng.normal(size=(4, d))
    return latent @ mix + rng.normal(0, 0.3, size=(n, d)) + rng.uniform(1, 50, size=d)


class TestFit:
    def test_orthonormal_components(self):
        rng = np.random.default_rng(0)
        model = pca.fit(random_measures(rng), k=5)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(5)).max() < 1e-9

    def test_k10_round_trip(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(60, 10)) * rng.uniform(0.5, 20, size=10) + rng.uniform(
            -5, 40, size=10
        )
        model = pca.fit(rows, k=10)
        recon = model.inverse_transform(model.transform(rows))
        assert np.abs(recon - rows).max() < 1e-9

    def test_ratios_non_increasing_and_sum_to_one_at_k10(self):
        rng = np.random.default_rng(2)
        rows = random_measures(rng)
        model = pca.fit(rows, k=10)
        ratios = model.explained_variance_ratio
        assert np.all(np.diff(ratios) <= 1e-15)
        assert ratios.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(ratios >= 0)

    def test_partial_k_ratio_subset(self):
        rng = np.random.default_rng(3)
        rows = random_measures(rng)
        full = pca.fit(rows, k=10)
        part = pca.fit(rows, k=5)
        np.testing.assert_allclose(
            part.explained_variance_ratio, full.explained_variance_ratio[:5], atol=1e-12
        )

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(4)
        rows = random_measures(rng)
        m1 = pca.fit(rows, k=5)
        m2 = pca.fit(rows.copy(), k=5)
        np.testing.assert_array_equal(m1.components, m2.components)
        for comp in m1.components:
            assert comp[np.argmax(np.abs(comp))] > 0

    def test_score_sd_matches_population_sd_of_train_scores(self):
        rng = np.random.default_rng(5)
        rows = random_measures(rng)
        model = pca.fit(rows, k=5)
        scores = model.transform(rows)
        np.testing.assert_allclose(scores.std(axis=0), model.score_sd, rtol=1e-9)
        np.testing.assert_allclose(
            model.standardize_scores(scores).std(axis=0), np.ones(5), rtol=1e-9
        )

    def test_explained_variance_against_covariance_eigenvalues(self):
        """Independent oracle: eigenvalues of the z-scored covariance matrix."""
        rng = np.random.default_rng(6)
        rows = random_measures(rng)
        model = pca.fit(rows, k=10)
        z = (rows - rows.mean(axis=0)) / rows.std(axis=0)
        eigvals = np.sort(np.linalg.eigvalsh(z.T @ z / z.shape[0]))[::-1]
        np.testing.assert_allclose(model.explained_variance, eigvals, atol=1e-9)

    def test_zero_variance_column_rejected(self):
        rows = np.random.default_rng(7).normal(size=(30, 10))
        rows[:, 3] = 2.5
        with pytest.raises(ZeroVariance):
            pca.fit(rows, k=5)

    def test_rank_deficient_warns(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(40, 2))
        rows = np.concatenate([base] * 5, axis=1) + rng.normal(0, 1e-14, size=(40, 10))
        with pytest.warns(pca.RankDeficientWarning):
            pca.fit(rows, k=8)

    def test_bad_k(self):
        rows = np.random.default_rng(9).normal(size=(30, 10))
        for k in (0, 11):
            with pytest.raises(ValueError):
                pca.fit(rows, k=k)

    def test_transform_standardization_chain(self):
        rng = np.random.default_rng(10)
        rows = random_measures(rng)
        model = pca.fit(rows, k=5)
        scores = model.transform(rows)
        z = model.standardize_scores(scores)
        np.testing.assert_allclose(model.unstandardize_scores(z), scores, rtol=1e-12)
