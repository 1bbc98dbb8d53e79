import json

import numpy as np
import pytest

from hollowlink import coincidence, config, twtt
from hollowlink.cli import main
from hollowlink.coexistence import car, with_length, with_power
from hollowlink.errors import (
    MissingKey,
    ParseError,
    UnitViolation,
    UnknownKey,
    ZeroBackground,
)
from hollowlink.event_sim import PS_PER_S

from conftest import without_remote_tags


def desk_values(**overrides):
    values = {
        "length_km": 10.0,
        "atten_db_per_km": 0.17,
        "gvd_ps_nm_km": 3.7,
        "rho_fwd_cps_mw_km": 1200.0,
        "rho_bwd_cps_mw_km": 2000.0,
        "insertion_loss_db": 0.5,
        "power_fwd_mw": 1.0,
        "power_bwd_mw": 1.0,
        "wavelength_nm": 1550.0,
        "pair_rate_cps": 5e4,
        "arm_eff_local": 0.5,
        "arm_eff_remote": 0.5,
        "fwhm_bandwidth_nm": 1.0,
        "det_local_efficiency": 0.9,
        "det_local_dark_cps": 100.0,
        "det_local_jitter_sigma_ps": 60.0,
        "det_local_dead_time_ns": 50.0,
        "det_remote_efficiency": 0.9,
        "det_remote_dark_cps": 100.0,
        "det_remote_jitter_sigma_ps": 60.0,
        "det_remote_dead_time_ns": 50.0,
        "window_ps": 500.0,
        "dcm_engaged": True,
        "duration_s": 2.0,
        "seed": 5,
        "link_delay_ab_ps": 2e6,
        "link_delay_ba_ps": 2e6,
        "interval_s": 0.5,
    }
    values.update(overrides)
    return values


@pytest.fixture
def desk_config(tmp_path):
    path = tmp_path / "desk.cfg"
    config.save_config(desk_values(), path)
    return path


class TestConfigParsing:
    def test_empty_file_missing_key(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        with pytest.raises(MissingKey):
            config.load_config(path)

    def test_paper_preset_values(self):
        cfg = config.load_preset("paper-122km")
        assert cfg.values["length_km"] == 122.0
        assert cfg.values["atten_db_per_km"] == 0.17
        assert cfg.values["dcm_engaged"] is True
        assert cfg.provenance["pair_rate_cps"] == "CALIBRATED"
        assert cfg.provenance["atten_db_per_km"] == "PAPER"

    def test_all_presets_marker_invariant(self):
        for name in config.list_presets():
            cfg = config.load_preset(name)
            for key, value in cfg.values.items():
                if isinstance(value, bool):
                    continue
                assert isinstance(cfg.provenance[key], str), (name, key)

    def test_roundtrip_value_identical(self, tmp_path):
        values = desk_values(pair_rate_cps=12345.6789012345, window_ps=733.0)
        path = tmp_path / "rt.cfg"
        config.save_config(values, path)
        back = config.load_config(path)
        assert back.values == values

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("attenuation = 0.17\n")
        with pytest.raises(UnknownKey):
            config.load_config(path)

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("length_km = 10\natten_db_per_km = fast\n")
        with pytest.raises(ParseError) as err:
            config.load_config(path)
        assert err.value.line == 2

    def test_unit_violation(self, tmp_path):
        path = tmp_path / "bad.cfg"
        config.save_config(desk_values(det_local_efficiency=1.5), path)
        with pytest.raises(UnitViolation):
            config.load_config(path)
        config.save_config(desk_values(length_km=-3.0), path)
        with pytest.raises(UnitViolation):
            config.load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("length_km = 10\nlength_km = 20\n")
        with pytest.raises(ParseError):
            config.load_config(path)

    def test_missing_key_names_what_is_absent(self, tmp_path):
        values = desk_values()
        values.pop("window_ps")
        path = tmp_path / "short.cfg"
        config.save_config(values, path)
        with pytest.raises(MissingKey, match="window_ps"):
            config.load_config(path)


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in config.PRESET_NAMES:
            assert name in out

    def test_prints_single_preset_verbatim(self, capsys):
        assert main(["presets", "--name", "next-gen"]) == 0
        out = capsys.readouterr().out
        assert "atten_db_per_km = 0.08" in out
        assert "[PAPER]" in out


class TestCarScanCommand:
    def test_power_scan_monotone(self, capsys):
        assert main(["car-scan", "--preset", "paper-54km-scan",
                     "--power", "0.5:3.0:6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "length_km,power_mw,car"
        cars = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(a > b for a, b in zip(cars, cars[1:]))
        assert cars[-1] > 10.0

    def test_single_point_equals_car(self, desk_config, capsys):
        assert main(["car-scan", "--config", str(desk_config),
                     "--power", "2.0", "--length", "25.0"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        got = float(line.split(",")[2])
        cfg = config.load_config(desk_config)
        scenario = config.build_scenario(cfg)
        expected = car(with_power(with_length(scenario, 25.0), 2.0))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_grid_slices_match_1d(self, desk_config, tmp_path, capsys):
        out_grid = tmp_path / "grid.csv"
        assert main(["car-scan", "--config", str(desk_config),
                     "--power", "0.5:2.5:3", "--length", "5:25:3",
                     "--output", str(out_grid)]) == 0
        grid_rows = out_grid.read_text().strip().splitlines()[1:]
        assert main(["car-scan", "--config", str(desk_config),
                     "--power", "0.5:2.5:3", "--length", "15"]) == 0
        scan_rows = capsys.readouterr().out.strip().splitlines()[1:]
        middle = [r for r in grid_rows if r.startswith("15,")]
        assert [r.split(",")[2] for r in middle] == [
            r.split(",")[2] for r in scan_rows
        ]

    def test_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["car-scan", "--preset", "next-gen",
                         "--length", "100:500:9", "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gnuplot_emitted(self, tmp_path):
        out = tmp_path / "scan.csv"
        gp = tmp_path / "scan.gp"
        assert main(["car-scan", "--preset", "paper-54km-scan",
                     "--power", "0.5:3.0:4", "--output", str(out),
                     "--gnuplot", str(gp)]) == 0
        assert "plot" in gp.read_text()

    def test_bad_range_exits_1(self):
        assert main(["car-scan", "--preset", "next-gen", "--power", "3:1:5"]) == 1


class TestMaxDistanceCommand:
    def test_json_output(self, capsys):
        assert main(["max-distance", "--preset", "next-gen",
                     "--car-threshold", "30", "--l-hi", "900"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0 < payload["distance_km"] <= 900
        assert payload["not_reachable"] is False

    def test_power_override_shrinks_distance(self, capsys):
        distances = []
        for power in ("1.0", "10.0"):
            assert main(["max-distance", "--preset", "next-gen",
                         "--car-threshold", "30", "--l-hi", "900",
                         "--power", power]) == 0
            distances.append(json.loads(capsys.readouterr().out)["distance_km"])
        assert distances[1] < distances[0]


class TestSimulateCommand:
    def test_deterministic_outputs(self, desk_config, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            assert main(["simulate", "--config", str(desk_config),
                         "--seed", "9", "--outdir", str(d),
                         "--no-timestamp"]) == 0
        for name in ("summary.json", "ch0.qtags", "ch1.qtags", "ch2.qtags", "ch3.qtags"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        raw = (dirs[0] / "ch0.qtags").read_bytes()
        assert raw[:8] == b"QTAGS002"
        duration_s = json.loads((dirs[0] / "summary.json").read_text())["duration_s"]
        assert int.from_bytes(raw[10:18], "little") == round(duration_s * 1e12)
        assert (len(raw) - 18) % 8 == 0

    def test_summary_analytic_close_to_empirical(self, desk_config, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(desk_config), "--seed", "4",
                     "--outdir", str(out), "--no-timestamp"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for direction in ("ab", "ba"):
            ch = summary["channels"][direction]
            assert ch["local_cps_empirical"] == pytest.approx(
                ch["local_cps_analytic"], rel=0.05
            )
            entry = summary["car"][direction]
            assert entry["empirical"] == pytest.approx(entry["analytic"], rel=0.35)

    def test_zero_noise_unbounded_flag(self, tmp_path):
        # no uncorrelated counts at all -> zero accidental rate -> flagged
        values = desk_values(
            pair_rate_cps=0.0, power_fwd_mw=0.0, power_bwd_mw=0.0,
            det_local_dark_cps=0.0, det_remote_dark_cps=0.0,
        )
        path = tmp_path / "clean.cfg"
        config.save_config(values, path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--seed", "2",
                     "--outdir", str(out), "--no-timestamp"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["car"]["ab"]["empirical"] == "unbounded"
        assert summary["car"]["ab"]["analytic"] == "unbounded"

    def test_csv_format(self, desk_config, tmp_path):
        out = tmp_path / "runcsv"
        assert main(["simulate", "--config", str(desk_config), "--seed", "3",
                     "--outdir", str(out), "--format", "csv",
                     "--no-timestamp"]) == 0
        header = (out / "timetags.csv").read_text().splitlines()[0]
        assert header == "channel,timestamp_ps"

    def test_histogram_export(self, desk_config, tmp_path):
        out = tmp_path / "run"
        hist = tmp_path / "hist.csv"
        assert main(["simulate", "--config", str(desk_config), "--seed", "6",
                     "--outdir", str(out), "--histogram", str(hist),
                     "--no-timestamp"]) == 0
        assert hist.read_text().splitlines()[0] == "bin_center_ps,counts"

    def test_histogram_written_when_car_unbounded(self, tmp_path, monkeypatch):
        # a pair peak but no noise; the fitted background is forced to zero
        # so the run does not depend on how its realisation happens to fit
        def zero_background(*args):
            raise ZeroBackground("fitted background is zero; ratio unbounded")

        monkeypatch.setattr(coincidence, "estimate_car", zero_background)
        values = desk_values(
            power_fwd_mw=0.0, power_bwd_mw=0.0,
            det_local_dark_cps=0.0, det_remote_dark_cps=0.0,
        )
        path = tmp_path / "pairs.cfg"
        config.save_config(values, path)
        out, hist = tmp_path / "run", tmp_path / "hist.csv"
        assert main(["simulate", "--config", str(path), "--seed", "1",
                     "--outdir", str(out), "--histogram", str(hist),
                     "--no-timestamp"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["car"]["ab"] == {"empirical": "unbounded"}
        lines = hist.read_text().splitlines()
        assert lines[0] == "bin_center_ps,counts"
        counts = np.array([int(line.split(",")[1]) for line in lines[1:]])
        assert counts.size == 401 and counts.max() >= 100


class TestTwttCommand:
    def test_offsets_csv_and_determinism(self, desk_config, tmp_path):
        files = [tmp_path / "o1.csv", tmp_path / "o2.csv"]
        for path in files:
            assert main(["twtt", "--config", str(desk_config), "--seed", "8",
                         "--duration", "4", "--interval", "0.5",
                         "--offset-ps", "50", "--out", str(path),
                         "--no-timestamp"]) == 0
        assert files[0].read_bytes() == files[1].read_bytes()
        text = files[0].read_text()
        assert "# sign_convention:" in text
        rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
        offsets = np.array([float(r.split(",")[1]) for r in rows])
        assert abs(offsets.mean() - 50.0) < 15.0

    def test_insufficient_coincidences_exit_2(self, desk_config, tmp_path, capsys):
        code = main(["twtt", "--config", str(desk_config), "--seed", "8",
                     "--duration", "2", "--interval", "0.001"])
        assert code == 2
        assert "coincidence" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("interval", ["0", "-1"])
    def test_non_positive_interval_exit_2(self, desk_config, interval, capsys):
        code = main(["twtt", "--config", str(desk_config), "--duration", "2",
                     "--interval", interval])
        assert code == 2
        assert "measurement_interval_s must be > 0" in capsys.readouterr().err

    def test_interval_defaults_to_one_second(self, tmp_path, capsys):
        values = desk_values()
        del values["interval_s"]
        path = tmp_path / "no-interval.cfg"
        config.save_config(values, path)
        assert main(["twtt", "--config", str(path), "--no-timestamp"]) == 0
        text = capsys.readouterr().out
        assert "# interval_s: 1\n" in text
        rows = text.split("epoch_s,offset_ps,stderr_ps\n")[1].splitlines()
        assert [row.split(",")[0] for row in rows] == ["0.5", "1.5"]

    def test_failing_interval_exit_2_names_it(self, desk_config, monkeypatch, capsys):
        real_run_scenario = twtt.run_scenario
        interval_ps = int(0.5 * PS_PER_S)
        monkeypatch.setattr(
            twtt, "run_scenario",
            lambda run: without_remote_tags(real_run_scenario(run), "ab", [2], interval_ps),
        )
        code = main(["twtt", "--config", str(desk_config), "--duration", "2",
                     "--interval", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure (interval 2): interval 2 direction ab:")

    def test_no_peak_in_interval_0_exit_2_names_it(self, desk_config, monkeypatch, capsys):
        real_run_scenario = twtt.run_scenario
        interval_ps = int(0.5 * PS_PER_S)
        monkeypatch.setattr(
            twtt, "run_scenario",
            lambda run: without_remote_tags(real_run_scenario(run), "ba", [0], interval_ps),
        )
        code = main(["twtt", "--config", str(desk_config), "--duration", "2",
                     "--interval", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure (interval 0): interval 0 direction ba:")


class TestStabilityCommand:
    def test_synth_adev_fit_slope(self, tmp_path, capsys):
        out = tmp_path / "adev.csv"
        assert main(["stability", "--synth", "white-pm", "--level", "1.732e-17",
                     "--tau0", "1", "--n", "20000", "--seed", "3",
                     "--metric", "adev", "--fit-slope", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "# fit_slope:" in err
        slope = float(err.split(":")[1].split("+-")[0])
        assert slope == pytest.approx(-1.0, abs=0.1)
        lines = out.read_text().splitlines()
        assert lines[0] == "tau_s,deviation,ci_lo,ci_hi,n"
        first_dev = float(lines[1].split(",")[1])
        assert first_dev == pytest.approx(3e-17, rel=0.05)

    def test_constant_offsets_give_zero_tdev(self, tmp_path, capsys):
        csv_path = tmp_path / "flat.csv"
        rows = ["epoch_s,offset_ps,stderr_ps"] + [
            "%g,42.0,1.0" % (0.5 + i) for i in range(16)
        ]
        csv_path.write_text("\n".join(rows) + "\n")
        assert main(["stability", "--input", str(csv_path)]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        devs = [float(l.split(",")[1]) for l in out_lines[1:]]
        assert all(d == 0.0 for d in devs)

    def test_requires_input_or_synth(self):
        assert main(["stability"]) == 1

    def test_synth_without_level_exits_1(self, capsys):
        assert main(["stability", "--synth", "white-pm"]) == 1
        assert "--level" in capsys.readouterr().err

    def test_too_short_input_exits_2(self, tmp_path):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("epoch_s,offset_ps,stderr_ps\n0.5,1.0,0.1\n1.5,2.0,0.1\n")
        assert main(["stability", "--input", str(csv_path)]) == 2

    @pytest.mark.parametrize("flag", ["--input", "--out"])
    def test_directory_path_exits_1(self, tmp_path, capsys, flag):
        csv_path = tmp_path / "flat.csv"
        rows = ["epoch_s,offset_ps,stderr_ps"] + [
            "%g,42.0,1.0" % (0.5 + i) for i in range(16)
        ]
        csv_path.write_text("\n".join(rows) + "\n")
        paths = {"--input": str(csv_path), "--out": str(tmp_path / "out.csv")}
        paths[flag] = str(tmp_path)
        argv = ["stability"] + [item for pair in paths.items() for item in pair]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")

    def test_one_column_row_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "ragged.csv"
        rows = ["epoch_s,offset_ps,stderr_ps"] + [
            "%g,42.0,1.0" % (0.5 + i) for i in range(8)
        ]
        rows[4] = "3.5"
        csv_path.write_text("\n".join(rows) + "\n")
        assert main(["stability", "--input", str(csv_path)]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: ")


class TestExitCodes:
    def test_missing_config_file_exit_1(self):
        assert main(["car-scan", "--config", "/does/not/exist.cfg"]) == 1

    def test_usage_error_exit_1(self, capsys):
        assert main(["max-distance", "--preset", "next-gen"]) == 1

    def test_seed_env_var(self, desk_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HOLLOWLINK_SEED", "31")
        out = tmp_path / "env"
        assert main(["simulate", "--config", str(desk_config),
                     "--outdir", str(out), "--no-timestamp"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 31
        monkeypatch.setenv("HOLLOWLINK_SEED", "oops")
        assert main(["simulate", "--config", str(desk_config),
                     "--outdir", str(out)]) == 1
