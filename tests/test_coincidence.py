import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hollowlink import coincidence
from hollowlink.coexistence import CoexistenceScenario, PairSource
from hollowlink.coincidence import (
    CoincidenceHistogram,
    DelayExtractionConfig,
    PeakFit,
    cross_correlate,
    empirical_car,
    estimate_car,
    extract_delay,
    fit_peak,
    histogram_csv,
)
from hollowlink.errors import NoPeak, UnsortedInput, ZeroBackground, ZeroBinWidth
from hollowlink.event_sim import ClockError, SimRun, inject_poisson_noise, simulate_direction
from hollowlink.link_model import ClassicalCarrier, DetectorModel, FiberLink


def brute_force_counts(a, b, bin_width, range_ps, center):
    """Quadratic oracle: every pairwise difference, same binning rule."""
    diffs = (np.asarray(b, dtype=np.int64)[:, None] - np.asarray(a, dtype=np.int64)).ravel()
    lo = center - range_ps / 2.0
    accepted = diffs[np.abs(diffs - center) <= range_ps / 2.0]
    n_bins = int(math.ceil(range_ps / bin_width))
    idx = np.floor((accepted - lo) / bin_width).astype(np.int64)
    np.clip(idx, 0, n_bins - 1, out=idx)
    return np.bincount(idx, minlength=n_bins)


def brute_force_case(case):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((555, case))))
    n_a, n_b = rng.integers(50, 1000, 2)
    a = np.sort(rng.integers(0, 10**7, n_a)).astype(np.int64)
    b = np.sort(rng.integers(0, 10**7, n_b)).astype(np.int64)
    w = int(rng.integers(10, 5000))
    r = int(rng.integers(5, 200)) * w
    c = int(rng.integers(-10**6, 10**6))
    return a, b, w, r, c


def jitter_scenario(pair_rate=2e4, jitter_ps=150.0, dark=200.0):
    det = DetectorModel(1.0, dark, jitter_ps, 0.0)
    return CoexistenceScenario(
        link=FiberLink(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        carrier=ClassicalCarrier(0.0, 0.0),
        source=PairSource(pair_rate, 1.0, 1.0, 1.0),
        det_local=det,
        det_remote=det,
        window_ps=1000.0,
    )


class TestCrossCorrelate:
    def test_shifted_copy_fills_single_bin(self):
        a = np.arange(0, 10**8, 10**5, dtype=np.int64)
        h = cross_correlate(a, a + 5000, bin_width_ps=100, range_ps=10_000, center_ps=0)
        assert h.counts.sum() == a.size
        assert h.counts.max() == a.size
        centers = h.bin_centers()
        assert abs(centers[np.argmax(h.counts)] - 5000) <= 50

    def test_flat_background_level(self, rng):
        r_a, r_b, duration = 2e4, 3e4, 20.0
        a = inject_poisson_noise(r_a, duration, rng)
        b = inject_poisson_noise(r_b, duration, rng)
        h = cross_correlate(a, b, bin_width_ps=2000, range_ps=400_000)
        expected = r_a * r_b * 2000e-12 * duration
        assert h.counts.mean() == pytest.approx(expected, abs=3 * math.sqrt(expected / h.counts.size))

    @pytest.mark.parametrize("case", range(20))
    def test_matches_brute_force(self, case):
        a, b, w, r, c = brute_force_case(case)
        h = cross_correlate(a, b, w, r, c)
        assert np.array_equal(h.counts, brute_force_counts(a, b, w, r, c))

    def test_total_invariant_under_refinement(self, rng):
        a = np.sort(rng.integers(0, 10**7, 800)).astype(np.int64)
        b = np.sort(rng.integers(0, 10**7, 900)).astype(np.int64)
        coarse = cross_correlate(a, b, 1000, 100_000, 0)
        fine = cross_correlate(a, b, 250, 100_000, 0)
        assert coarse.counts.sum() == fine.counts.sum()

    def test_errors(self):
        good = np.array([1, 2, 3], dtype=np.int64)
        with pytest.raises(ZeroBinWidth):
            cross_correlate(good, good, 0, 100)
        with pytest.raises(UnsortedInput):
            cross_correlate(np.array([3, 1], dtype=np.int64), good, 10, 100)

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_unsorted_arrays_raise_at_every_entry_point(self, side):
        good = np.arange(0, 10**6, 1000, dtype=np.int64)
        bad = good[::-1].copy()
        args = (bad, good) if side == "a" else (good, bad)
        with pytest.raises(UnsortedInput, match=f"{side} must be sorted"):
            cross_correlate(*args, 10, 100)
        with pytest.raises(UnsortedInput, match=f"{side} must be sorted"):
            extract_delay(*args)
        with pytest.raises(UnsortedInput, match=f"{side} must be sorted"):
            empirical_car(*args, 1000.0)


class TestBoundedBlocks:
    """The correlation cuts each block of b into runs of at most
    ``_MAX_DIFFS`` differences; counts must not depend on the cut."""

    @pytest.mark.parametrize("cap", [1, 7, 1000])
    @pytest.mark.parametrize("case", range(4))
    def test_cross_correlate_matches_brute_force(self, monkeypatch, cap, case):
        monkeypatch.setattr(coincidence, "_MAX_DIFFS", cap)
        a, b, w, r, c = brute_force_case(case)
        h = cross_correlate(a, b, w, r, c)
        assert np.array_equal(h.counts, brute_force_counts(a, b, w, r, c))

    @pytest.mark.parametrize("cap", [1, 7, 1000])
    def test_b_tag_with_more_matches_than_the_cap(self, monkeypatch, cap):
        monkeypatch.setattr(coincidence, "_MAX_DIFFS", cap)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(556)))
        crowd = 5_000_000 + rng.integers(-20_000, 20_000, 1500)
        a = np.sort(np.concatenate([rng.integers(0, 10**7, 300), crowd])).astype(np.int64)
        b = np.sort(np.concatenate([rng.integers(0, 10**7, 200), [5_000_000]])).astype(np.int64)
        h = cross_correlate(a, b, 100, 60_000, 0)
        assert np.array_equal(h.counts, brute_force_counts(a, b, 100, 60_000, 0))
        assert h.counts.sum() > 1500

    @pytest.mark.parametrize("cap", [1, 7, 1000])
    def test_extract_delay_and_car_unchanged(self, monkeypatch, cap):
        run = SimRun(jitter_scenario(), duration_s=0.5, seed=72, link_delay_ab_ps=300_000.0)
        args = simulate_direction(run, "ab")
        cfg = DelayExtractionConfig(search_range_ps=1e6, expected_sigma_ps=220.0)
        delay = extract_delay(*args, cfg)
        car_value, _, hist, _ = empirical_car(*args, 1000.0, cfg)
        monkeypatch.setattr(coincidence, "_MAX_DIFFS", cap)
        assert extract_delay(*args, cfg) == delay
        car_capped, _, hist_capped, _ = empirical_car(*args, 1000.0, cfg)
        assert np.array_equal(hist_capped.counts, hist.counts) and car_capped == car_value

    def test_wide_search_memory_bounded(self):
        # 2 s of a at 170k/s and b at 32k/s (17k/s of it correlated):
        # the default +-1 ms coarse search meets ~17 M differences.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(557)))
        delay = 400_000_000
        a = inject_poisson_noise(1.7e5, 2.0, rng)
        echo = a[rng.random(a.size) < 0.1] + delay
        echo += np.rint(200.0 * rng.standard_normal(echo.size)).astype(np.int64)
        b = np.sort(np.concatenate([echo, inject_poisson_noise(1.5e4, 2.0, rng)]))
        tracemalloc.start()
        try:
            found, _ = extract_delay(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found == pytest.approx(delay, abs=20.0)
        assert peak < 150 * 2**20


class TestFitPeak:
    def make_hist(self, amp, mu, sigma, bg, n_bins=201, width=20, seed=None):
        centers = (np.arange(n_bins) - (n_bins - 1) / 2.0) * width
        model = amp * np.exp(-0.5 * ((centers - mu) / sigma) ** 2) + bg
        counts = np.round(model).astype(np.int64)
        if seed is not None:
            r = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            counts = r.poisson(model)
        return CoincidenceHistogram(width, 0.0, counts)

    def test_noiseless_centroid_recovery(self):
        h = self.make_hist(amp=50000.0, mu=333.0, sigma=180.0, bg=50.0)
        fit = fit_peak(h)
        assert fit.centroid_ps == pytest.approx(333.0, abs=1e-3 * h.bin_width_ps)
        assert fit.sigma_ps == pytest.approx(180.0, rel=0.01)
        assert fit.background_per_bin == pytest.approx(50.0, rel=0.05)

    def test_flat_histogram_raises_nopeak(self):
        h = CoincidenceHistogram(20, 0.0, np.full(100, 40, dtype=np.int64))
        with pytest.raises(NoPeak):
            fit_peak(h)

    def test_too_few_bins_raises(self):
        h = CoincidenceHistogram(20, 0.0, np.array([1, 2, 100, 2], dtype=np.int64))
        with pytest.raises(NoPeak):
            fit_peak(h)

    def test_poisson_coverage(self):
        hits = 0
        for seed in range(60):
            h = self.make_hist(amp=400.0, mu=-150.0, sigma=200.0, bg=30.0, seed=seed)
            fit = fit_peak(h)
            if abs(fit.centroid_ps + 150.0) <= 3 * fit.centroid_stderr_ps:
                hits += 1
        assert hits >= 57  # 95% coverage


class TestEstimateCar:
    def test_flat_histogram_car_near_zero(self, rng):
        counts = rng.poisson(100.0, 401).astype(np.int64)
        h = CoincidenceHistogram(20, 0.0, counts)
        fit = PeakFit(0.0, 1.0, 50.0, 0.0, float(np.mean(counts)), 1.0)
        value = estimate_car(h, fit, 500.0)
        assert abs(value) < 0.1

    def test_zero_background_raises(self):
        centers = (np.arange(101) - 50.0) * 20
        counts = np.round(1000 * np.exp(-0.5 * (centers / 30.0) ** 2)).astype(np.int64)
        h = CoincidenceHistogram(20, 0.0, counts)
        fit = PeakFit(0.0, 1.0, 30.0, 1000.0, 0.0, 1.0)
        with pytest.raises(ZeroBackground):
            estimate_car(h, fit, 400.0)


class TestExtractDelay:
    def test_exact_shift_zero_jitter(self, rng):
        a = np.sort(rng.integers(0, 10**10, 5000)).astype(np.int64)
        d = 123_456_789
        delay, stderr = extract_delay(a, a + d, DelayExtractionConfig())
        assert delay == pytest.approx(d, abs=1e-9)
        assert stderr == pytest.approx(0.0, abs=1e-9)

    def test_antisymmetry(self):
        run = SimRun(jitter_scenario(), duration_s=2.0, seed=71, link_delay_ab_ps=987_654_321.0)
        local, remote = simulate_direction(run, "ab")
        cfg = DelayExtractionConfig(expected_sigma_ps=220.0)
        d_ab, _ = extract_delay(local, remote, cfg)
        d_ba, _ = extract_delay(remote, local, cfg)
        assert abs(d_ab + d_ba) < 1e-6

    def test_antisymmetric_by_construction(self):
        cfg = DelayExtractionConfig(expected_sigma_ps=220.0)
        for seed in range(60, 100):
            run = SimRun(jitter_scenario(), duration_s=2.0, seed=seed,
                         link_delay_ab_ps=987_654_321.0)
            local, remote = simulate_direction(run, "ab")
            d_ab, se_ab = extract_delay(local, remote, cfg)
            d_ba, se_ba = extract_delay(remote, local, cfg)
            assert d_ab + d_ba == 0.0 and se_ab == se_ba, seed

    def test_antisymmetric_around_a_search_center(self):
        run = SimRun(jitter_scenario(), duration_s=1.0, seed=3, link_delay_ab_ps=5e6)
        local, remote = simulate_direction(run, "ab")
        near = DelayExtractionConfig(5e6 + 300.0, 1e6, 801, 220.0)
        mirrored = replace(near, search_center_ps=-near.search_center_ps)
        d_ab, se_ab = extract_delay(local, remote, near)
        d_ba, se_ba = extract_delay(remote, local, mirrored)
        assert d_ab == pytest.approx(5e6, abs=50.0)
        assert (d_ab, se_ab) == (-d_ba, se_ba)

    def test_equal_tag_counts_antisymmetric(self, rng):
        a = np.sort(rng.integers(0, 10**11, 20_000)).astype(np.int64)
        b = np.sort(a + 70_000 + np.rint(rng.normal(0.0, 150.0, a.size)).astype(np.int64))
        assert coincidence._canonical(a, b) != coincidence._canonical(b, a)
        d_ab, se_ab = extract_delay(a, b, DelayExtractionConfig(expected_sigma_ps=210.0))
        d_ba, se_ba = extract_delay(b, a, DelayExtractionConfig(expected_sigma_ps=210.0))
        assert d_ab == pytest.approx(70_000, abs=10.0)
        assert (d_ab, se_ab) == (-d_ba, se_ba)

    def test_swapped_call_does_not_reenter_the_public_function(self, monkeypatch):
        run = SimRun(jitter_scenario(), duration_s=0.5, seed=5, link_delay_ab_ps=5e6)
        local, remote = simulate_direction(run, "ab")
        calls = []
        real = coincidence.extract_delay

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(coincidence, "extract_delay", counted)
        big, small = (local, remote) if len(local) > len(remote) else (remote, local)
        coincidence.extract_delay(small, big)
        assert len(calls) == 1

    def test_uncorrelated_streams_raise_nopeak(self, rng):
        a = inject_poisson_noise(1e4, 5.0, rng)
        b = inject_poisson_noise(1e4, 5.0, rng)
        with pytest.raises(NoPeak):
            extract_delay(a, b, DelayExtractionConfig(search_range_ps=1e7))

    def test_stderr_scales_with_sqrt_duration(self):
        cfg = DelayExtractionConfig(expected_sigma_ps=220.0)
        ses = {1.0: [], 4.0: []}
        for duration in ses:
            for seed in range(8):
                run = SimRun(
                    jitter_scenario(pair_rate=1e4), duration_s=duration,
                    seed=1000 + seed, link_delay_ab_ps=5e6,
                )
                _, se = extract_delay(*simulate_direction(run, "ab"), cfg)
                ses[duration].append(se)
        ratio = np.mean(ses[1.0]) / np.mean(ses[4.0])
        assert ratio == pytest.approx(2.0, rel=0.1)

    def test_centroid_unbiased_over_seeds(self):
        d_true = 3_000_000 + 444
        cfg = DelayExtractionConfig(expected_sigma_ps=220.0)
        residuals, stderrs = [], []
        for seed in range(100):
            run = SimRun(
                jitter_scenario(pair_rate=5e3, dark=100.0),
                duration_s=1.0, seed=2000 + seed, link_delay_ab_ps=float(d_true),
            )
            delay, se = extract_delay(*simulate_direction(run, "ab"), cfg)
            residuals.append(delay - d_true)
            stderrs.append(se)
        mean_resid = float(np.mean(residuals))
        tol = 2.0 * float(np.mean(stderrs)) / math.sqrt(len(residuals))
        assert abs(mean_resid) <= tol
        within = sum(
            1 for r, se in zip(residuals, stderrs) if abs(r) <= 3 * se
        )
        assert within >= 95


class TestEmpiricalCar:
    def test_matches_analytic_on_desk_streams(self):
        from hollowlink.coexistence import car
        from conftest import desk_scenario

        s = desk_scenario()
        run = SimRun(s, duration_s=5.0, seed=77, link_delay_ab_ps=2e6)
        value, window_eff, hist, fit = empirical_car(
            *simulate_direction(run, "ab"), s.window_ps,
            DelayExtractionConfig(expected_sigma_ps=90.0),
        )
        analytic = car(replace(s, window_ps=window_eff))
        # counting statistics on the in-window totals
        n_cc = value * fit.background_per_bin * 25
        assert value == pytest.approx(analytic, rel=4 / math.sqrt(max(n_cc, 1)) + 0.05)

    def test_histogram_matches_brute_force(self):
        # 401 odd-width bins centred on the rounded delay: the layout of
        # the fine stage, checked against the pairwise oracle
        run = SimRun(jitter_scenario(), duration_s=0.5, seed=73, link_delay_ab_ps=300_000.0)
        local, remote = simulate_direction(run, "ab")
        a, b = local.tags_ps, remote.tags_ps
        cfg = DelayExtractionConfig(search_range_ps=1e6, expected_sigma_ps=220.0)
        delay, _ = extract_delay(a, b, cfg)
        _, window_eff, hist, _ = empirical_car(a, b, 1000.0, cfg)
        w, c = window_eff / 25, round(delay)
        assert hist.bin_width_ps == w and hist.center_offset_ps == c
        # the oracle summed over slices of b, to bound its memory
        want = sum(brute_force_counts(a, b[i : i + 200], w, 401 * w, c) for i in range(0, b.size, 200))
        assert np.array_equal(hist.counts, want)


def test_histogram_csv_schema():
    h = CoincidenceHistogram(10, 0.0, np.array([1, 2, 3], dtype=np.int64))
    text = histogram_csv(h)
    lines = text.splitlines()
    assert lines[0] == "bin_center_ps,counts"
    assert lines[1] == "-10,1"
    assert lines[2] == "0,2"
