"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with ``pytest -s`` to see them
inline)."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hollowlink import config
from hollowlink.cli import main
from hollowlink.coexistence import (
    accidental_rate,
    car,
    max_distance,
    scan_power,
    singles_rates,
    true_coincidence_rate,
    with_length,
    with_power,
)
from hollowlink.coincidence import (
    DelayExtractionConfig,
    cross_correlate,
    extract_delay,
    fit_peak,
)
from hollowlink.event_sim import (
    ClockError,
    SimRun,
    direction_scenario,
    simulate_direction,
)
from hollowlink.link_model import (
    ClassicalCarrier,
    FiberLink,
    backward_sprs_rate,
    forward_sprs_rate,
)
from hollowlink.stability import PhaseSeries, adev, fit_slope, synthesize_noise, tdev
from hollowlink.twtt import run_session, two_way_combine

from conftest import desk_scenario
from test_stability import naive_adev, naive_tdev


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_sprs_closed_forms_vs_oracle():
    """Forward/backward SpRS closed forms vs trapezoid integration to
    rel < 1e-9 over a 10x10 (L, alpha) grid, in under a second."""
    lengths = np.linspace(1.0, 300.0, 10)
    alphas = np.linspace(0.05, 0.25, 10)
    target_rel = 1e-10  # oracle discretization budget, below the 1e-9 gate
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in alphas:
        for length in lengths:
            link = FiberLink(length, float(alpha), 3.7, 1200.0, 2000.0, 0.0)
            carrier = ClassicalCarrier(power_fwd_mw=1.3, power_bwd_mw=0.8)
            a = link.alpha_np_per_km
            # forward integrand is constant in z; 1e4 trapezoid steps exact
            z = np.linspace(0.0, length, 10_001)
            oracle_f = 1200.0 * 1.3 * np.trapezoid(
                np.exp(-a * z) * np.exp(-a * (length - z)), z
            )
            # backward: steps chosen so (c h)^2/12 stays under budget
            c = 2.0 * a
            n = max(10_000, int(c * length / math.sqrt(12.0 * target_rel)) + 1)
            z = np.linspace(0.0, length, n + 1)
            oracle_b = 2000.0 * 0.8 * np.trapezoid(np.exp(-c * z), z)
            err_f = abs(forward_sprs_rate(link, carrier) - oracle_f) / oracle_f
            err_b = abs(backward_sprs_rate(link, carrier) - oracle_b) / oracle_b
            worst = max(worst, err_f, err_b)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    report(1, f"max relative error {worst:.2e} over 100 cells in {elapsed:.2f} s")


class CarCounts:
    """Aligned correlation histograms of the A->B channel pair over seeds.

    The background region starts beyond 8 peak-sigmas so the coincidence
    peak's tails cannot leak into the accidental estimate. Per-seed
    in-window / background totals support per-run Poisson comparisons;
    the summed histogram supports aggregate checks.
    """

    def __init__(self, scenario, seeds, duration_s, delay_ps):
        from hollowlink.coexistence import effective_peak_sigma

        bin_w = max(1, int(round(scenario.window_ps / 25.0)))
        bin_w += 1 - bin_w % 2  # odd
        self.bin_w = bin_w
        self.window_eff = 25 * bin_w
        sigma_peak = effective_peak_sigma(scenario)
        n_bins = 401
        while n_bins * bin_w / 2.0 < 8.0 * sigma_peak + 150 * bin_w:
            n_bins += 100
        centers = (np.arange(n_bins) - (n_bins - 1) / 2.0) * bin_w
        self.in_mask = np.abs(centers) <= self.window_eff / 2.0
        self.off_mask = np.abs(centers) > max(
            self.window_eff / 2.0 + 2 * bin_w, 8.0 * sigma_peak
        )
        self.total = np.zeros(n_bins, dtype=np.int64)
        self.singles = np.zeros(2, dtype=np.int64)
        self.w_by_seed = []
        self.off_by_seed = []
        for seed in seeds:
            run = SimRun(
                scenario, duration_s=duration_s, seed=seed, link_delay_ab_ps=delay_ps
            )
            local, remote = simulate_direction(run, "ab")
            self.singles += (len(local), len(remote))
            h = cross_correlate(
                local.tags_ps,
                remote.tags_ps,
                bin_w,
                n_bins * bin_w,
                round(delay_ps),
            )
            self.total += h.counts
            self.w_by_seed.append(int(h.counts[self.in_mask].sum()))
            self.off_by_seed.append(int(h.counts[self.off_mask].sum()))

    def car_with_sigma(self, w_counts, off_counts):
        n_in = int(self.in_mask.sum())
        n_off = int(self.off_mask.sum())
        bg = off_counts / n_off * n_in
        value = (w_counts - bg) / bg
        sigma_bg = math.sqrt(off_counts) / n_off * n_in
        sigma = math.sqrt(
            w_counts / bg**2 + (w_counts / bg**2) ** 2 * sigma_bg**2
        )
        return value, sigma

    def aggregate_car(self):
        return self.car_with_sigma(
            float(self.total[self.in_mask].sum()),
            float(self.total[self.off_mask].sum()),
        )

    def per_seed_cars(self):
        return [
            self.car_with_sigma(float(w), float(off))
            for w, off in zip(self.w_by_seed, self.off_by_seed)
        ]


def test_criterion_2_power_scan_and_monte_carlo():
    """Power scan on the 54 km characterization preset: strict monotone
    decrease with CAR(3 mW) > 10, analytically and confirmed by 20 seeded
    10 s simulations split across the scan endpoints."""
    cfg = config.load_preset("paper-54km-scan")
    scenario = config.build_scenario(cfg)

    t0 = time.perf_counter()
    rows = scan_power(scenario, 0.5, 3.0, 6)
    analytic_time = time.perf_counter() - t0
    cars = [c for _, c in rows]
    assert all(a > b for a, b in zip(cars, cars[1:]))
    assert cars[-1] > 10.0
    assert analytic_time < 1.0

    t0 = time.perf_counter()
    delay = cfg.values["link_delay_ab_ps"]
    counts = {
        power: CarCounts(with_power(scenario, power), seeds, 10.0, delay)
        for power, seeds in ((0.5, range(100, 110)), (3.0, range(110, 120)))
    }
    mc_time = time.perf_counter() - t0

    agg = {p: c.aggregate_car() for p, c in counts.items()}
    assert agg[3.0][0] > 10.0
    assert agg[0.5][0] > agg[3.0][0]  # monotone decrease, empirically
    within = 0
    for power, c in counts.items():
        ana = car(replace(with_power(scenario, power), window_ps=float(c.window_eff)))
        for value, sigma in c.per_seed_cars():
            if power == 3.0:
                assert value > 10.0
            within += abs(value - ana) <= 3.0 * sigma
    assert within >= 19  # per-run 3-sigma agreement across the 20 runs
    assert mc_time < 120.0
    report(
        2,
        f"analytic scan {cars[0]:.1f} -> {cars[-1]:.1f} in {analytic_time * 1e3:.0f} ms; "
        f"MC CAR {agg[0.5][0]:.1f} @0.5 mW -> {agg[3.0][0]:.1f} @3 mW, "
        f"{within}/20 runs within 3 sigma of analytic ({mc_time:.0f} s)",
    )


def test_criterion_3_analytic_monte_carlo_equivalence():
    """Empirical CAR, singles, and histogram background agree with the
    analytic model within 3 sigma over 20 seeds at 5 grid points.

    Grid points sit in the model's lossy, noise-dominated regime (the
    deployed system's own): the analytic accidental/duty treatment is
    first order in the pair-correlation fraction R_cc/S, so points keep
    that fraction at the sub-percent level, with pair rates scaled for
    >= 1e3 coincidences per 10 s run."""
    t0 = time.perf_counter()
    points = [
        # (length_km, power_mw, pair_rate_cps)
        (100.0, 0.5, 1.5e5),
        (100.0, 2.0, 1.5e5),
        (120.0, 1.0, 4.0e5),
        (80.0, 1.0, 8.0e4),
        (120.0, 4.0, 4.0e5),
    ]
    duration = 10.0
    details = []
    for idx, (length, power, pair_rate) in enumerate(points):
        scenario = desk_scenario(
            length_km=length,
            power_fwd_mw=power,
            power_bwd_mw=power,
            pair_rate_cps=pair_rate,
            arm_eff=0.3,
        )
        assert true_coincidence_rate(scenario) * duration >= 1e3
        seeds = range(1000 + 100 * idx, 1000 + 100 * idx + 20)
        delay = 2.5e6
        counts = CarCounts(scenario, seeds, duration, delay)

        # singles, aggregated over seeds
        ana_local, ana_remote = singles_rates(scenario)
        for got, rate in zip(counts.singles, (ana_local, ana_remote)):
            lam = rate * duration * 20
            assert abs(got - lam) <= 3.0 * math.sqrt(lam), (length, power)

        # histogram background level (bins clear of the peak tails)
        off = counts.total[counts.off_mask]
        lam_bin = accidental_rate(scenario) / scenario.window_ps * counts.bin_w
        lam_off = lam_bin * duration * 20 * off.size
        assert abs(float(off.sum()) - lam_off) <= 3.0 * math.sqrt(lam_off), (
            length,
            power,
        )

        # CAR: aggregate within 3 sigma, and per-seed coverage
        emp_car, emp_sigma = counts.aggregate_car()
        ana_car = car(replace(scenario, window_ps=float(counts.window_eff)))
        assert abs(emp_car - ana_car) <= 3.0 * emp_sigma, (length, power)
        per_seed_ok = sum(
            abs(value - ana_car) <= 3.0 * sigma
            for value, sigma in counts.per_seed_cars()
        )
        assert per_seed_ok >= 19, (length, power)
        details.append(f"({length:g} km, {power:g} mW): {emp_car:.1f}~{ana_car:.1f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(3, "; ".join(details) + f" ({elapsed:.0f} s)")


def test_criterion_4_twtt_recovery():
    """50 ps offset and 30 ps/s drift recovered within 3 sigma over 20
    seeds; combine-level identities exact; delay asymmetry biases the
    offset by exactly half."""
    t0 = time.perf_counter()
    # combine-level exactness
    offset, delay = two_way_combine(1e6 + 80.0, 1e6 - 80.0)
    assert offset == 80.0 and delay == 1e6
    off_shift, _ = two_way_combine(1e6 + 80.0 + 333.0, 1e6 - 80.0 + 333.0)
    assert off_shift == offset
    delta = 14.0
    off_asym, _ = two_way_combine(1e6 + delta + 80.0, 1e6 - 80.0)
    assert off_asym == pytest.approx(80.0 + delta / 2.0, abs=1e-12)

    clock = ClockError(offset_ps=50.0, drift_ps_per_s=30.0)
    intercepts, slopes = [], []
    for seed in range(300, 320):
        run = SimRun(
            desk_scenario(),
            duration_s=6.0,
            seed=seed,
            clock_error=clock,
            link_delay_ab_ps=2e6,
            link_delay_ba_ps=2e6,
        )
        series = run_session(run, 0.5)
        slope, intercept = np.polyfit(series.epochs_s, series.offsets_ps, 1)
        slopes.append(slope)
        intercepts.append(intercept)
    mean_x0 = float(np.mean(intercepts))
    sem_x0 = float(np.std(intercepts)) / math.sqrt(len(intercepts))
    mean_y = float(np.mean(slopes))
    sem_y = float(np.std(slopes)) / math.sqrt(len(slopes))
    assert abs(mean_x0 - 50.0) <= 3.0 * sem_x0
    assert abs(mean_y - 30.0) <= 3.0 * sem_y
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        4,
        f"offset {mean_x0:.2f}+-{sem_x0:.2f} ps (true 50), "
        f"drift {mean_y:.2f}+-{sem_y:.2f} ps/s (true 30), {elapsed:.0f} s",
    )


def test_criterion_5_tdev_scaling_and_absolute_report():
    """Simulated offset series (>= 1000 samples) shows the white-phase
    tau^-1/2 time-deviation slope; the 122 km preset's extrapolated
    2000 s value is reported against the 0.68 ps target (not asserted)."""
    run = SimRun(
        desk_scenario(),
        duration_s=220.0,
        seed=42,
        link_delay_ab_ps=2e6,
        link_delay_ba_ps=2e6,
    )
    series = run_session(run, 0.2)
    assert len(series) >= 1000
    curve = tdev(PhaseSeries.from_offset_series(series))
    mask = curve.taus_s <= 26.0  # keep >= 2 decades with well-sampled points
    slope, stderr = fit_slope(
        curve, tau_range=(float(curve.taus_s[0]), 26.0)
    )
    assert curve.taus_s[mask][-1] / curve.taus_s[0] >= 100.0
    assert slope == pytest.approx(-0.5, abs=0.05)

    # absolute level: calibrated 122 km preset, reported not asserted
    cfg = config.load_preset("paper-122km")
    run122 = config.build_sim_run(cfg, duration_s=240.0, seed=2026)
    series122 = run_session(run122, cfg.values["interval_s"])
    curve122 = tdev(PhaseSeries.from_offset_series(series122), ms=[1])
    tdev_tau0 = float(curve122.devs[0])
    extrapolated = tdev_tau0 * math.sqrt(cfg.values["interval_s"] / 2000.0)
    deviation = (extrapolated * 1e12 - 0.68) / 0.68
    report(
        5,
        f"slope {slope:.3f}+-{stderr:.3f} over {len(series)} samples; "
        f"[CALIBRATED] 122 km preset: TDEV(2000 s) = {extrapolated * 1e12:.3f} ps "
        f"(tau^-1/2 extrapolation from {cfg.values['interval_s']:.0f} s; target "
        f"0.68 ps, deviation {deviation * 100:+.1f}%, report-only +-30%)",
    )
    if abs(deviation) > 0.30:
        print("  NOTE: outside the +-30% reporting target for this seed")


def test_criterion_6_oft_allan_deviation():
    """White-phase series calibrated to ADEV(1 s) = 3e-17 must show
    ADEV(2000 s) = 1.5e-20 within 10%, consistent with the reported
    1.3e-20 within 30% (its slope is slightly shallower than ideal
    tau^-1)."""
    t0 = time.perf_counter()
    sigma_x = 3e-17 / math.sqrt(3.0)
    series = synthesize_noise("white-pm", sigma_x, 1.0, 100_000, seed=606)
    curve = adev(series, ms=[1, 2000])
    adev_1s = float(curve.devs[0])
    adev_2000s = float(curve.devs[1])
    assert adev_1s == pytest.approx(3e-17, rel=0.02)
    assert adev_2000s == pytest.approx(1.5e-20, rel=0.10)
    assert abs(adev_2000s - 1.3e-20) / 1.3e-20 <= 0.30
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        6,
        f"ADEV(1 s) {adev_1s:.3e}, ADEV(2000 s) {adev_2000s:.3e} "
        f"(ideal 1.5e-20, reported 1.3e-20; {elapsed:.1f} s)",
    )


def _fig4_variant(base, bidirectional, rescale_on, power_mw):
    s = replace(
        base,
        carrier=replace(
            base.carrier,
            power_fwd_mw=power_mw,
            power_bwd_mw=power_mw if bidirectional else 0.0,
        ),
    )
    if not rescale_on:
        undo = 0.25 / s.det_remote.efficiency
        s = replace(
            s,
            link=replace(
                s.link,
                rho_fwd_cps_mw_km=s.link.rho_fwd_cps_mw_km * undo,
                rho_bwd_cps_mw_km=s.link.rho_bwd_cps_mw_km * undo,
            ),
        )
    return s


def test_criterion_7_next_gen_projection():
    """Calibrate the operational CAR threshold at the 563 km / 1 mW
    projection point; 10 mW reach must be strictly smaller (hard), and
    its value is reported against 138 km with the modeling-assumption
    toggle table when outside +-25%."""
    base = config.build_scenario(config.load_preset("next-gen"))

    s1 = _fig4_variant(base, bidirectional=False, rescale_on=True, power_mw=1.0)
    threshold = car(with_length(s1, 563.0))
    d1 = max_distance(s1, threshold, 900.0)
    assert abs(d1.distance_km - 563.0) <= 0.2  # calibration self-consistency

    s10 = _fig4_variant(base, bidirectional=False, rescale_on=True, power_mw=10.0)
    d10 = max_distance(s10, threshold, 900.0)
    assert d10.distance_km < d1.distance_km  # hard monotonicity gate

    deviation = (d10.distance_km - 138.0) / 138.0
    lines = [
        f"threshold CAR {threshold:.1f} puts 1 mW reach at {d1.distance_km:.1f} km; "
        f"10 mW reach {d10.distance_km:.1f} km vs paper 138 km ({deviation * 100:+.1f}%)"
    ]
    if abs(deviation) > 0.25:
        lines.append("outside +-25%; modeling-assumption toggles:")
        for bidir in (False, True):
            for resc in (True, False):
                v1 = _fig4_variant(base, bidir, resc, 1.0)
                thr = car(with_length(v1, 563.0))
                v10 = _fig4_variant(base, bidir, resc, 10.0)
                d = max_distance(v10, thr, 900.0)
                dev = (d.distance_km - 138.0) / 138.0
                lines.append(
                    f"  backward_power={'fwd' if bidir else 'off'} "
                    f"coefficient_rescaling={'on' if resc else 'off'}: "
                    f"{d.distance_km:.1f} km ({dev * 100:+.1f}%)"
                )
        lines.append(
            "  the two named toggles bracket the reported value; the exact "
            "projection model is unpublished (report-only)"
        )
    report(7, "\n".join(lines))


def test_criterion_8_estimator_cross_validation():
    """cross_correlate equals quadratic brute force exactly on 100 random
    cases; tdev/adev equal direct-definition triple loops to 1e-12."""
    from test_coincidence import brute_force_counts

    for case in range(100):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((88, case))))
        n_a, n_b = rng.integers(20, 1000, 2)
        a = np.sort(rng.integers(0, 10**7, n_a)).astype(np.int64)
        b = np.sort(rng.integers(0, 10**7, n_b)).astype(np.int64)
        w = int(rng.integers(3, 4000))
        r = int(rng.integers(4, 300)) * w
        c = int(rng.integers(-(10**6), 10**6))
        h = cross_correlate(a, b, w, r, c)
        assert np.array_equal(h.counts, brute_force_counts(a, b, w, r, c)), case

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(89)))
    x = rng.standard_normal(1000) * 3e-12
    series = PhaseSeries(0.7, x)
    worst = 0.0
    for m in (1, 2, 7, 33, 128):
        t_ours = tdev(series, ms=[m]).devs[0]
        t_naive = naive_tdev(x, 0.7, m)
        a_ours = adev(series, ms=[m]).devs[0]
        a_naive = naive_adev(x, 0.7, m)
        worst = max(
            worst,
            abs(t_ours - t_naive) / t_naive,
            abs(a_ours - a_naive) / a_naive,
        )
    assert worst < 1e-12
    report(8, f"100 brute-force histograms exact; estimator deviation {worst:.1e}")


def test_criterion_9_determinism(tmp_path):
    """Repeated simulate/twtt runs with a fixed seed produce byte-identical
    outputs under --no-timestamp."""
    values_path = tmp_path / "det.cfg"
    from test_config_cli import desk_values

    config.save_config(desk_values(), values_path)

    sim_dirs = [tmp_path / "sim1", tmp_path / "sim2"]
    for d in sim_dirs:
        assert main(
            ["simulate", "--config", str(values_path), "--seed", "77",
             "--outdir", str(d), "--no-timestamp"]
        ) == 0
    names = ["summary.json", "ch0.qtags", "ch1.qtags", "ch2.qtags", "ch3.qtags"]
    for name in names:
        assert (sim_dirs[0] / name).read_bytes() == (sim_dirs[1] / name).read_bytes()

    twtt_files = [tmp_path / "o1.csv", tmp_path / "o2.csv"]
    for path in twtt_files:
        assert main(
            ["twtt", "--config", str(values_path), "--seed", "78",
             "--duration", "3", "--interval", "0.5",
             "--out", str(path), "--no-timestamp"]
        ) == 0
    assert twtt_files[0].read_bytes() == twtt_files[1].read_bytes()
    report(9, f"byte-identical outputs for {', '.join(names)} and offset CSVs")
