import math
from dataclasses import replace

import numpy as np
import pytest

from hollowlink.coexistence import (
    CoexistenceScenario,
    PairSource,
    accidental_rate,
    car,
    effective_peak_sigma,
    grid,
    max_distance,
    peak_fraction,
    scan_csv,
    scan_length,
    scan_power,
    singles_breakdown,
    singles_rates,
    true_coincidence_rate,
    with_length,
    with_power,
)
from hollowlink import config
from hollowlink.errors import DegenerateScenario, InvalidRange, ThresholdAboveBest
from hollowlink.link_model import (
    ClassicalCarrier,
    DetectorModel,
    FiberLink,
    dead_time_throughput,
)

from conftest import desk_scenario, paper_detector, paper_link


def paper_scenario(length_km=54.0, power_mw=1.0, dcm_engaged=True, insertion=0.0):
    det = paper_detector()
    return CoexistenceScenario(
        link=paper_link(length_km, insertion_loss_db=insertion),
        carrier=ClassicalCarrier(power_fwd_mw=power_mw, power_bwd_mw=power_mw),
        source=PairSource(3.2e6, 0.25, 0.25, 1.0),
        det_local=det,
        det_remote=det,
        window_ps=1000.0,
        dcm_engaged=dcm_engaged,
    )


class TestSinglesRates:
    def test_dark_only(self):
        s = paper_scenario()
        s = replace(
            s,
            source=replace(s.source, pair_rate_cps=0.0),
            carrier=ClassicalCarrier(0.0, 0.0),
        )
        local, remote = singles_rates(s)
        assert local == pytest.approx(dead_time_throughput(5000.0, s.det_local))
        assert remote == pytest.approx(dead_time_throughput(5000.0, s.det_remote))

    def test_paper_54km_noise_components(self):
        # paper detector efficiency equals the reference, so no rescaling
        b = singles_breakdown(paper_scenario())
        assert b.noise_fwd == pytest.approx(7826.633651, rel=1e-6)
        assert b.noise_bwd == pytest.approx(25174.054828, rel=1e-6)
        expected_true = b.remote_signal + b.noise_fwd + b.noise_bwd + 5000.0
        assert b.remote_true == pytest.approx(expected_true, rel=1e-12)

    def test_efficiency_rescaling(self):
        s = paper_scenario()
        det_hi = replace(s.det_remote, efficiency=0.9)
        b_hi = singles_breakdown(replace(s, det_remote=det_hi))
        b_ref = singles_breakdown(s)
        assert b_hi.noise_fwd == pytest.approx(b_ref.noise_fwd * 0.9 / 0.25, rel=1e-12)
        assert b_hi.noise_bwd == pytest.approx(b_ref.noise_bwd * 0.9 / 0.25, rel=1e-12)


class TestPeakFraction:
    def test_wide_window(self):
        assert peak_fraction(1e9, 100.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_sigma(self):
        assert peak_fraction(10.0, 0.0) == 1.0

    def test_one_fwhm_window(self):
        # frozen Gaussian quadrature oracle
        assert peak_fraction(2.355, 1.0) == pytest.approx(0.7610040024719594, rel=1e-9)

    def test_dispersion_enters_when_dcm_off(self):
        s_on = paper_scenario(dcm_engaged=True)
        s_off = paper_scenario(dcm_engaged=False)
        base = math.hypot(200.0, 200.0)
        assert effective_peak_sigma(s_on) == pytest.approx(base)
        assert effective_peak_sigma(s_off) == pytest.approx(
            math.hypot(base, 199.8 / 2.355)
        )


class TestCoincidenceRates:
    def test_zero_pairs_zero_rate(self):
        s = paper_scenario()
        s = replace(s, source=replace(s.source, pair_rate_cps=0.0))
        assert true_coincidence_rate(s) == 0.0

    def test_lossless_identity(self):
        det = DetectorModel(1.0, 0.0, 0.0, 0.0)
        s = CoexistenceScenario(
            link=FiberLink(0.0, 0.17, 3.7, 1200.0, 2000.0, 0.0),
            carrier=ClassicalCarrier(0.0, 0.0),
            source=PairSource(12345.0, 1.0, 1.0, 1.0),
            det_local=det,
            det_remote=det,
            window_ps=1000.0,
        )
        assert true_coincidence_rate(s) == pytest.approx(12345.0, rel=1e-12)

    def test_accidental_closed_form(self):
        # S_local = S_remote = 1e4 cps, window 1 ns -> 0.1 cps
        det = DetectorModel(1.0, 1e4, 0.0, 0.0)
        s = CoexistenceScenario(
            link=FiberLink(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            carrier=ClassicalCarrier(0.0, 0.0),
            source=PairSource(0.0, 1.0, 1.0, 1.0),
            det_local=det,
            det_remote=det,
            window_ps=1000.0,
        )
        assert accidental_rate(s) == pytest.approx(0.1, rel=1e-12)

    def test_accidental_linear_in_window(self):
        s = paper_scenario()
        assert accidental_rate(replace(s, window_ps=500.0)) == pytest.approx(
            accidental_rate(s) / 2.0, rel=1e-12
        )


class TestCar:
    def test_strictly_decreasing_in_power(self):
        s = paper_scenario()
        values = [car(with_power(s, p)) for p in np.linspace(0.2, 5.0, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_degenerate_scenario_raises(self):
        det = DetectorModel(1.0, 0.0, 0.0, 0.0)
        s = CoexistenceScenario(
            link=FiberLink(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            carrier=ClassicalCarrier(0.0, 0.0),
            source=PairSource(0.0, 1.0, 1.0, 1.0),
            det_local=det,
            det_remote=det,
            window_ps=1000.0,
        )
        with pytest.raises(DegenerateScenario):
            car(s)

    def test_swap_symmetry_at_zero_length_zero_power(self):
        s = paper_scenario(length_km=0.0, power_mw=0.0)
        det_b = DetectorModel(0.7, 300.0, 90.0, 20.0)
        s = replace(
            s,
            source=replace(s.source, arm_eff_local=0.3, arm_eff_remote=0.6),
            det_remote=det_b,
        )
        swapped = replace(
            s,
            source=replace(s.source, arm_eff_local=0.6, arm_eff_remote=0.3),
            det_local=s.det_remote,
            det_remote=s.det_local,
        )
        assert car(swapped) == pytest.approx(car(s), rel=1e-12)

    def test_window_halving_doubles_car_when_fraction_saturated(self):
        det = DetectorModel(0.9, 100.0, 10.0, 0.0)  # sigma_peak ~ 14 ps
        s = replace(
            paper_scenario(), det_local=det, det_remote=det, window_ps=200.0
        )
        assert peak_fraction(100.0, effective_peak_sigma(s)) >= 0.999
        ratio = car(replace(s, window_ps=100.0)) / car(s)
        assert ratio == pytest.approx(2.0, rel=5e-3)


class TestScans:
    def test_power_scan_monotone_and_consistent(self):
        s = paper_scenario()
        rows = scan_power(s, 0.5, 3.0, 6)
        cars = [c for _, c in rows]
        assert all(a > b for a, b in zip(cars, cars[1:]))
        assert cars[-1] > 10.0
        for p, c in rows:
            assert c == pytest.approx(car(with_power(s, p)), rel=1e-12)

    def test_zero_rho_gives_flat_scan(self):
        s = paper_scenario()
        link = replace(s.link, rho_fwd_cps_mw_km=0.0, rho_bwd_cps_mw_km=0.0)
        rows = scan_power(replace(s, link=link), 0.5, 3.0, 6)
        cars = [c for _, c in rows]
        assert max(cars) == pytest.approx(min(cars), rel=1e-12)

    def test_length_scan_paper_range(self):
        s = paper_scenario(power_mw=1.0)
        rows = scan_length(s, 1.0, 213.0, 25)
        cars = np.array([c for _, c in rows])
        assert np.all(np.isfinite(cars))
        # decreasing beyond the forward-noise regime
        assert np.all(np.diff(cars[5:]) < 0)

    def test_length_scan_keeps_backward_only_carrier(self):
        s = replace(paper_scenario(), carrier=ClassicalCarrier(0.0, 2.0))
        for l, c in scan_length(s, 1.0, 213.0, 5):
            assert c == car(with_length(s, l))

    def test_power_scan_keeps_backward_only_carrier(self):
        # a base with no forward light keeps its backward light at every
        # scanned forward power, so more forward power only lowers CAR
        s = config.build_scenario(config.load_preset("paper-122km"))
        s = replace(s, carrier=ClassicalCarrier(0.0, 2.0))
        assert with_power(s, 1.0).carrier.power_bwd_mw == 2.0
        cars = [c for _, c in scan_power(s, 0.0, 1.0, 3)]
        assert cars[0] > cars[1] > cars[2]

    def test_zero_length_reduces_to_fiberless(self):
        s = paper_scenario()
        b = singles_breakdown(with_length(s, 0.0))
        assert b.noise_fwd == 0.0 and b.noise_bwd == 0.0

    def test_grid_matches_1d_scans(self):
        s = paper_scenario()
        lengths = np.array([10.0, 66.0, 122.0])
        powers = np.array([0.5, 1.75, 3.0])  # linspace(0.5, 3.0, 3)
        matrix = grid(s, lengths, powers)
        for i, l in enumerate(lengths):
            row = scan_power(with_length(s, float(l)), 0.5, 3.0, 3)
            assert matrix[i] == pytest.approx([c for _, c in row], rel=1e-12)
        for j, p in enumerate(powers):
            col = scan_length(with_power(s, float(p)), 10.0, 122.0, 3)
            # scan grid is linspace(10,122,3) = [10, 66, 122]; compare ends
            assert matrix[0, j] == pytest.approx(col[0][1], rel=1e-12)
            assert matrix[2, j] == pytest.approx(col[2][1], rel=1e-12)

    def test_invalid_ranges(self):
        s = paper_scenario()
        with pytest.raises(InvalidRange):
            scan_power(s, 3.0, 0.5, 6)
        with pytest.raises(InvalidRange):
            scan_power(s, 0.5, 3.0, 1)
        with pytest.raises(InvalidRange):
            scan_length(s, -1.0, 3.0, 4)

    def test_csv_schema(self):
        text = scan_csv([(54.0, 0.5, 123.456), (54.0, 1.0, 60.0)])
        lines = text.split("\n")
        assert lines[0] == "length_km,power_mw,car"
        assert lines[1] == "54,0.5,123.456"
        assert text.endswith("\n") and "\r" not in text


class TestMaxDistance:
    def test_tiny_threshold_not_reachable(self):
        s = paper_scenario()
        result = max_distance(s, 1e-9, 500.0)
        assert result.not_reachable and result.distance_km == 500.0

    def test_threshold_above_best(self):
        s = paper_scenario()
        best = car(with_length(s, 0.0))
        with pytest.raises(ThresholdAboveBest):
            max_distance(s, best * 2.0, 500.0)

    def test_solution_brackets_threshold(self):
        s = paper_scenario()
        threshold = 30.0
        result = max_distance(s, threshold, 500.0)
        assert not result.not_reachable
        assert car(with_length(s, result.distance_km)) >= threshold
        assert car(with_length(s, result.distance_km + 0.2)) < threshold

    def test_monotone_in_threshold_power_dark(self):
        s = paper_scenario()
        d = [max_distance(s, t, 500.0).distance_km for t in (15.0, 30.0, 60.0)]
        assert d[0] >= d[1] >= d[2]
        d = [
            max_distance(with_power(s, p), 30.0, 500.0).distance_km
            for p in (0.5, 1.0, 2.0)
        ]
        assert d[0] >= d[1] >= d[2]
        darks = (1000.0, 5000.0, 20000.0)
        d = []
        for dark in darks:
            det = replace(s.det_remote, dark_rate_cps=dark)
            d.append(max_distance(replace(s, det_remote=det), 30.0, 500.0).distance_km)
        assert d[0] >= d[1] >= d[2]

    def test_invalid_threshold(self):
        with pytest.raises(InvalidRange):
            max_distance(paper_scenario(), 0.0, 100.0)
