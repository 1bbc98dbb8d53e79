import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import hollowlink
from hollowlink import stability
from hollowlink.errors import SeriesTooShort, TooFewPoints
from hollowlink.stability import (
    PhaseSeries,
    StabilityCurve,
    adev,
    fit_slope,
    mdev,
    stability_csv,
    synthesize_noise,
    tdev,
)


def naive_tdev(x, tau0, m):
    """Direct-from-definition triple-loop implementation."""
    n = len(x)
    total = 0.0
    for j in range(n - 3 * m + 1):
        inner = 0.0
        for i in range(j, j + m):
            inner += x[i + 2 * m] - 2.0 * x[i + m] + x[i]
        total += inner * inner
    return math.sqrt(total / (6.0 * m * m * (n - 3 * m + 1)))


def naive_adev(x, tau0, m):
    n = len(x)
    total = 0.0
    for i in range(n - 2 * m):
        d = x[i + 2 * m] - 2.0 * x[i + m] + x[i]
        total += d * d
    return math.sqrt(total / (2.0 * m * m * tau0 * tau0 * (n - 2 * m)))


class TestTdev:
    def test_constant_series_zero(self):
        series = PhaseSeries(1.0, np.full(64, 3.25e-12))
        assert np.all(tdev(series).devs == 0.0)

    def test_linear_ramp_zero(self):
        # dyadic slope keeps the second differences exactly zero
        series = PhaseSeries(1.0, 0.5 * np.arange(128))
        assert np.all(tdev(series).devs == 0.0)

    def test_white_pm_level_and_slope(self):
        sigma = 4.0e-12
        series = synthesize_noise("white-pm", sigma, 1.0, 10**6, seed=8)
        curve = tdev(series, ms=[2**k for k in range(8)])
        assert curve.devs[0] == pytest.approx(sigma, rel=0.02)
        slope, _ = fit_slope(curve)
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_series_too_short(self):
        series = PhaseSeries(1.0, np.arange(10, dtype=float))
        with pytest.raises(SeriesTooShort):
            tdev(series, ms=[4])


class TestAdev:
    def test_linear_phase_ramp_zero(self):
        # constant frequency offset
        series = PhaseSeries(1.0, 0.25 * np.arange(100))
        assert np.all(adev(series).devs == 0.0)

    def test_white_pm_level(self):
        sigma = 2.0e-15
        series = synthesize_noise("white-pm", sigma, 1.0, 10**6, seed=12)
        curve = adev(series, ms=[1])
        assert curve.devs[0] == pytest.approx(math.sqrt(3.0) * sigma, rel=0.02)

    def test_white_fm_slope(self):
        series = synthesize_noise("white-fm", 1e-13, 1.0, 10**6, seed=13)
        curve = adev(series, ms=[2**k for k in range(9)])
        slope, _ = fit_slope(curve)
        assert slope == pytest.approx(-0.5, abs=0.05)
        assert curve.devs[0] == pytest.approx(1e-13, rel=0.02)

    def test_series_too_short(self):
        series = PhaseSeries(1.0, np.arange(8, dtype=float))
        with pytest.raises(SeriesTooShort):
            adev(series, ms=[4])


class TestNaiveEquivalence:
    @pytest.mark.parametrize("m", [1, 2, 5, 16, 100])
    def test_tdev_matches_triple_loop(self, m):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(77)))
        x = rng.standard_normal(1000) * 1e-11
        series = PhaseSeries(0.5, x)
        ours = tdev(series, ms=[m]).devs[0]
        assert ours == pytest.approx(naive_tdev(x, 0.5, m), rel=1e-12)

    @pytest.mark.parametrize("m", [1, 3, 10, 64, 200])
    def test_adev_matches_triple_loop(self, m):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(78)))
        x = rng.standard_normal(1000) * 1e-11
        series = PhaseSeries(2.0, x)
        ours = adev(series, ms=[m]).devs[0]
        assert ours == pytest.approx(naive_adev(x, 2.0, m), rel=1e-12)


class TestInvariances:
    def make_series(self, seed=21):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        return PhaseSeries(1.0, rng.standard_normal(4096) * 1e-12)

    def test_offset_and_ramp_invariance(self):
        series = self.make_series()
        base_t = tdev(series).devs
        base_a = adev(series).devs
        shifted = PhaseSeries(1.0, series.x_s + 1e-9 + 0.125e-12 * np.arange(4096))
        assert tdev(shifted).devs == pytest.approx(base_t, rel=1e-9)
        assert adev(shifted).devs == pytest.approx(base_a, rel=1e-9)

    def test_scaling_exact(self):
        series = self.make_series()
        scaled = PhaseSeries(1.0, 2.0 * series.x_s)
        assert tdev(scaled).devs == pytest.approx(2.0 * tdev(series).devs, rel=1e-14)
        assert adev(scaled).devs == pytest.approx(2.0 * adev(series).devs, rel=1e-14)

    def test_tdev_mdev_identity(self):
        series = self.make_series()
        t = tdev(series)
        m = mdev(series)
        assert t.devs == pytest.approx(m.taus_s / math.sqrt(3.0) * m.devs, rel=1e-14)

    def test_confidence_bounds_bracket(self):
        curve = tdev(self.make_series())
        assert np.all(curve.ci_lo <= curve.devs)
        assert np.all(curve.devs <= curve.ci_hi)


class TestSynthesizeNoise:
    def test_zero_level_constant_zero(self):
        series = synthesize_noise("white-pm", 0.0, 1.0, 100, seed=1)
        assert np.all(series.x_s == 0.0)

    def test_oft_calibration_level(self):
        # ADEV(1 s) of 3e-17 needs sigma_x = 3e-17/sqrt(3) = 1.732e-17 s
        sigma = 3e-17 / math.sqrt(3.0)
        assert sigma == pytest.approx(1.7320508e-17, rel=1e-6)
        series = synthesize_noise("white-pm", sigma, 1.0, 200_000, seed=2)
        assert adev(series, ms=[1]).devs[0] == pytest.approx(3e-17, rel=0.02)

    def test_roundtrip_recovery(self):
        series = synthesize_noise("white-pm", 5e-13, 1.0, 10**6, seed=3)
        assert tdev(series, ms=[1]).devs[0] == pytest.approx(5e-13, rel=0.02)
        series = synthesize_noise("white-fm", 7e-14, 1.0, 10**6, seed=4)
        assert adev(series, ms=[1]).devs[0] == pytest.approx(7e-14, rel=0.02)

    def test_deterministic_and_kind_checked(self):
        a = synthesize_noise("white-pm", 1e-12, 1.0, 50, seed=5)
        b = synthesize_noise("white-pm", 1e-12, 1.0, 50, seed=5)
        assert np.array_equal(a.x_s, b.x_s)
        with pytest.raises(ValueError):
            synthesize_noise("pink", 1e-12, 1.0, 50, seed=5)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            synthesize_noise("white-pm", 1e-12, 1.0, 3, seed=5)


class TestFitSlope:
    def make_curve(self, exponent):
        taus = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        devs = taus**exponent
        z = np.zeros_like(taus)
        return StabilityCurve(taus, devs, z, z, np.ones(6, dtype=np.int64))

    def test_exact_power_laws(self):
        slope, stderr = fit_slope(self.make_curve(-0.5))
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-10)
        slope, _ = fit_slope(self.make_curve(-1.0))
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_tau_range_filter(self):
        curve = self.make_curve(-0.5)
        slope, _ = fit_slope(curve, tau_range=(2.0, 16.0))
        assert slope == pytest.approx(-0.5, abs=1e-12)
        with pytest.raises(TooFewPoints):
            fit_slope(curve, tau_range=(2.0, 4.0))

    def test_edf_weights_steady_white_pm_slope(self):
        weighted, unweighted = [], []
        for seed in range(20):
            curve = tdev(synthesize_noise("white-pm", 1e-12, 1.0, 2000, seed))
            weighted.append(fit_slope(curve)[0])
            unweighted.append(fit_slope(replace(curve, edf=None))[0])
        assert np.mean(weighted) == pytest.approx(-0.5, abs=0.02)
        assert np.std(weighted) < 0.5 * np.std(unweighted)

    def test_stderr_from_weighted_residuals(self):
        taus = np.array([1.0, 2.0, 4.0, 8.0])
        devs = taus**-0.5 * np.array([1.0, 1.1, 1.0, 1.1])
        z = np.zeros(4)
        edf = np.array([9.0, 4.0, 1.0, 1.0])
        curve = StabilityCurve(taus, devs, z, z, np.ones(4, dtype=np.int64), edf)
        lt, ld, w = np.log10(taus), np.log10(devs), curve.edf
        a = np.column_stack((np.ones(4), lt)) * np.sqrt(w)[:, None]
        coef, res, *_ = np.linalg.lstsq(a, ld * np.sqrt(w), rcond=None)
        cov = np.linalg.inv(a.T @ a) * res[0] / 2
        slope, stderr = fit_slope(curve)
        assert slope == pytest.approx(coef[1], rel=1e-12)
        assert stderr == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-12)


class TestCsvAndConversion:
    def test_csv_schema(self):
        curve = tdev(PhaseSeries(1.0, np.arange(32) * 1e-13))
        text = stability_csv(curve)
        lines = text.splitlines()
        assert lines[0] == "tau_s,deviation,ci_lo,ci_hi,n"
        assert len(lines) == 1 + curve.devs.size
        assert text.endswith("\n") and "\r" not in text

    def test_from_offset_series(self):
        from hollowlink.twtt import OffsetSeries

        series = OffsetSeries(
            interval_s=2.0,
            epochs_s=np.arange(8) * 2.0 + 1.0,
            offsets_ps=np.array([50.0] * 8),
            stderrs_ps=np.ones(8),
        )
        ps = PhaseSeries.from_offset_series(series)
        assert ps.tau0_s == 2.0
        assert ps.x_s == pytest.approx(np.full(8, 50e-12))
        assert np.all(tdev(ps).devs == 0.0)


class TestConfidenceInterval:
    @pytest.mark.parametrize("edf", [1, 2, 3, 7.0, 10, 99, 1000, 4999, 123456.0])
    def test_matches_chi2_ppf_exactly(self, edf):
        lo, hi = stability._ci(2.5e-12, edf)
        assert lo == 2.5e-12 * math.sqrt(edf / chi2.ppf(0.975, edf))
        assert hi == 2.5e-12 * math.sqrt(edf / chi2.ppf(0.025, edf))

    def test_cli_import_does_not_load_scipy_stats(self):
        src = str(Path(hollowlink.__file__).resolve().parents[1])
        code = "import sys, hollowlink.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src}, cwd=src,
        )
        assert out.stdout.strip() == "False"
