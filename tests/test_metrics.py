"""Closed-form metric checks plus independent oracles for the statistics."""

import math

import numpy as np
import pytest
from scipy import stats

from bundleshape import features
from bundleshape.metrics import (
    EvalReport,
    OutOfRange,
    ZeroVariance,
    ZeroVarianceDiffs,
    evaluate,
    fisher_z,
    nmse,
    paired_t,
    pearson_r,
    write_report,
)


class TestPearson:
    def test_perfect_correlation(self):
        x = np.arange(10.0)
        assert pearson_r(x, 2 * x + 3) == pytest.approx(1.0)
        assert pearson_r(x, -x) == pytest.approx(-1.0)

    def test_closed_form_case(self):
        # x = (1,2,3,4), y = (1,3,2,4): cov = 1, var_x = var_y = 1.25,
        # so r = 1/1.25 = 0.8 exactly.
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 3.0, 2.0, 4.0])
        assert pearson_r(x, y) == pytest.approx(0.8, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            assert pearson_r(x, y) == pytest.approx(stats.pearsonr(x, y).statistic, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pearson_r(np.ones(5), np.arange(5.0))
        assert ZeroVariance is features.ZeroVariance  # one class for both modules

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            pearson_r([1.0], [2.0])

    @pytest.mark.parametrize("sx, sy", [(1e155, 1e-10), (1e160, 1e160), (1e-170, 1e-170)])
    def test_extreme_scales(self, sx, sy):
        # Squares of these overflow or underflow float64 unless rescaled.
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson_r(x * sx, (2 * x + 1) * sy) == pytest.approx(1.0, abs=1e-12)

    def test_power_of_two_scale_is_exact(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=40), rng.normal(size=40)
        assert pearson_r(x * 2.0**-900, y * 2.0**800) == pearson_r(x, y)

    def test_exactly_linear_stays_within_one(self):
        # Rounding put these at 1.0000000000000002 before r was clipped.
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson_r(x * 1e155, (2 * x + 1) * 1e-10) == 1.0
        rng = np.random.default_rng(5)
        for _ in range(2000):
            x, s = rng.normal(size=20), rng.normal()
            assert -1.0 <= pearson_r(x, s * x + 1) <= 1.0


class TestNmse:
    def test_exact_match_is_zero(self):
        gt = np.array([1.0, 2.0, 3.0])
        assert nmse(gt, gt) == 0.0

    def test_closed_form_case(self):
        # gt = (0,1,2), pred = (1,2,3): MSE = 1, var(gt) = 2/3 -> nMSE = 1.5,
        # showing a worse-than-mean predictor can exceed 1.
        assert nmse([1.0, 2.0, 3.0], [0.0, 1.0, 2.0]) == pytest.approx(1.5, abs=1e-12)

    def test_constant_predictor_at_mean_gives_one(self):
        rng = np.random.default_rng(1)
        gt = rng.normal(size=100)
        pred = np.full(100, gt.mean())
        assert nmse(pred, gt) == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_gt(self):
        with pytest.raises(ZeroVariance):
            nmse([1.0, 2.0], [3.0, 3.0])

    @pytest.mark.parametrize("scale", [1e160, 1e-170, 2.0**-1000])
    def test_extreme_scales(self, scale):
        gt = np.array([1.0, 2.0, 3.0, 4.0])
        pred = gt + [0.1, -0.1, 0.2, 0.0]
        # MSE 0.015 over population variance 1.25.
        assert nmse(pred * scale, gt * scale) == pytest.approx(0.012, rel=1e-12)


class TestFisherZ:
    def test_half_ln_three(self):
        # atanh(0.5) = ln(3)/2 = 0.549306...
        assert fisher_z(0.5) == pytest.approx(math.log(3.0) / 2.0, abs=1e-15)
        assert fisher_z(0.5) == pytest.approx(0.5493061443340548, abs=1e-12)

    def test_reference_value(self):
        assert fisher_z(0.930) == pytest.approx(1.6584, abs=1e-3)

    def test_antisymmetry(self):
        for r in (0.1, 0.5, 0.93):
            assert fisher_z(-r) == -fisher_z(r)

    def test_out_of_range(self):
        for r in (1.0, -1.0, 1.5):
            with pytest.raises(OutOfRange):
                fisher_z(r)


class TestPairedT:
    def test_closed_form_case(self):
        # d = (1, 2, 3): mean 2, sd 1, t = 2/(1/sqrt(3)) = 2*sqrt(3) = 3.4641
        t, dof, p = paired_t([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert t == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        assert dof == 2
        assert p == pytest.approx(0.0742, abs=1e-3)

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=25)
            b = a + rng.normal(0.2, 0.5, size=25)
            t, dof, p = paired_t(a, b)
            ref = stats.ttest_rel(a, b)
            assert t == pytest.approx(float(ref.statistic), abs=1e-10)
            assert dof == 24
            assert p == pytest.approx(float(ref.pvalue), abs=1e-9)

    def test_antisymmetry(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=12)
        b = a + rng.normal(0.3, 0.4, size=12)
        t1, _, p1 = paired_t(a, b)
        t2, _, p2 = paired_t(b, a)
        assert t1 == -t2
        assert p1 == p2

    def test_zero_variance_diffs(self):
        with pytest.raises(ZeroVarianceDiffs):
            paired_t([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])


class TestEvaluate:
    def test_shapes_and_report(self, tmp_path):
        rng = np.random.default_rng(4)
        gt = rng.normal(size=(50, 10))
        pred = gt + rng.normal(0, 0.1, size=(50, 10))
        report = evaluate(pred, gt, variant="full")
        assert isinstance(report, EvalReport)
        assert report.n_bundles == 50
        assert report.pearson.shape == (10,)
        assert report.mean_pearson > 0.9
        assert report.mean_nmse < 0.1
        out = tmp_path / "report.csv"
        write_report(report, out, header_comment="hash=x seed=0")
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "measure,pearson_r,nmse"
        assert len(lines) == 13  # comment + header + 10 measures + average
        assert lines[-1].startswith("average,")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros((5, 9)), np.zeros((5, 9)))
