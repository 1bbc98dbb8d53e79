import math

import numpy as np
import pytest

from hollowlink import twtt
from hollowlink.errors import InsufficientCoincidences
from hollowlink.event_sim import CHANNELS, PS_PER_S, ClockError, SimRun
from hollowlink.twtt import (
    OffsetSeries,
    offsets_csv,
    read_offsets_csv,
    run_session,
    scenario_hash,
    two_way_combine,
)

from conftest import desk_scenario, without_remote_tags


def session_run(seed=1, duration_s=8.0, clock=ClockError(), d_ab=2_000_000.0, d_ba=2_000_000.0):
    return SimRun(
        desk_scenario(),
        duration_s=duration_s,
        seed=seed,
        clock_error=clock,
        link_delay_ab_ps=d_ab,
        link_delay_ba_ps=d_ba,
    )


class TestTwoWayCombine:
    def test_synchronized_clocks(self):
        offset, delay = two_way_combine(1234.5, 1234.5)
        assert offset == 0.0 and delay == 1234.5

    def test_zero_delay_antisymmetry(self):
        offset, delay = two_way_combine(10.0, -10.0)
        assert offset == 10.0 and delay == 0.0

    def test_common_constant_cancels_exactly(self):
        offset1, delay1 = two_way_combine(70.0, 30.0)
        offset2, delay2 = two_way_combine(70.0 + 5000.0, 30.0 + 5000.0)
        assert offset2 == offset1
        assert delay2 == delay1 + 5000.0

    def test_asymmetry_biases_offset_by_half(self):
        # delays d+delta / d with a true offset x: recovered offset = x + delta/2
        d, x, delta = 1e6, 50.0, 8.0
        offset, _ = two_way_combine(d + delta + x, d - x)
        assert offset == pytest.approx(x + delta / 2.0, abs=1e-12)


class TestRunSession:
    def test_null_case_mean_offset_zero(self):
        series = run_session(session_run(seed=5), 0.25)
        n = len(series)
        assert n == 32
        sem = float(np.std(series.offsets_ps)) / math.sqrt(n)
        assert abs(float(np.mean(series.offsets_ps))) <= 3 * sem
        assert np.all(np.diff(series.epochs_s) == pytest.approx(0.25))

    def test_injected_offset_recovered(self):
        means = []
        for seed in range(5):
            series = run_session(
                session_run(seed=100 + seed, clock=ClockError(offset_ps=50.0)), 0.5
            )
            means.append(float(np.mean(series.offsets_ps)))
        sem = float(np.std(means)) / math.sqrt(len(means))
        assert np.mean(means) == pytest.approx(50.0, abs=max(3 * sem, 1.0))

    def test_injected_drift_recovered(self):
        clock = ClockError(drift_ps_per_s=200.0)
        series = run_session(session_run(seed=7, duration_s=10.0, clock=clock), 0.5)
        slope, intercept = np.polyfit(series.epochs_s, series.offsets_ps, 1)
        resid = series.offsets_ps - (slope * series.epochs_s + intercept)
        slope_err = float(np.std(resid)) / (
            math.sqrt(len(series)) * float(np.std(series.epochs_s))
        )
        assert slope == pytest.approx(200.0, abs=3 * max(slope_err, 1.0))

    def test_delay_asymmetry_biases_offset(self):
        delta = 40_000.0
        series_sym = run_session(session_run(seed=9), 0.5)
        series_asym = run_session(session_run(seed=9, d_ab=2_000_000.0 + delta), 0.5)
        bias = float(np.mean(series_asym.offsets_ps - series_sym.offsets_ps))
        sem = float(np.std(series_asym.offsets_ps - series_sym.offsets_ps)) / math.sqrt(
            len(series_sym)
        )
        assert bias == pytest.approx(delta / 2.0, abs=max(3 * sem, 2.0))

    def test_stderr_scales_with_interval(self):
        run = session_run(seed=11, duration_s=8.0)
        fine = run_session(run, 0.2)
        coarse = run_session(run, 2.0)
        ratio = float(np.mean(fine.stderrs_ps)) / float(np.mean(coarse.stderrs_ps))
        assert ratio == pytest.approx(math.sqrt(10.0), rel=0.1)

    def test_insufficient_coincidences_precheck(self):
        with pytest.raises(InsufficientCoincidences):
            run_session(session_run(seed=13, duration_s=2.0), 0.001)

    def test_ground_truth_carried(self):
        clock = ClockError(offset_ps=50.0)
        series = run_session(session_run(seed=15, duration_s=2.0, clock=clock), 0.5)
        assert series.ground_truth == clock

    def test_session_shorter_than_an_interval_is_empty(self):
        series = run_session(session_run(seed=17, duration_s=0.3), 0.5)
        assert len(series) == 0
        assert series.offsets_ps.size == series.stderrs_ps.size == 0


class TestBoundedSearch:
    """Each direction's wide search reads interval 0 only, and the calls
    go through ``twtt.extract_delay``: two wide, then two per interval."""

    def spy(self, monkeypatch):
        calls = []
        real = twtt.extract_delay

        def counted(a, b, cfg):
            calls.append((a, b, cfg))
            return real(a, b, cfg)

        monkeypatch.setattr(twtt, "extract_delay", counted)
        return calls

    def test_short_session_makes_no_search(self, monkeypatch):
        calls = self.spy(monkeypatch)
        assert len(run_session(session_run(seed=17, duration_s=0.3), 0.5)) == 0
        assert calls == []

    def test_wide_calls_read_interval_0(self, monkeypatch):
        streams = []
        real_run_scenario = twtt.run_scenario

        def kept(run):
            streams.append(real_run_scenario(run))
            return streams[0]

        monkeypatch.setattr(twtt, "run_scenario", kept)
        calls = self.spy(monkeypatch)
        interval_ps = int(0.5 * PS_PER_S)
        series = run_session(session_run(seed=21, duration_s=2.2), 0.5)
        assert len(series) == 4
        assert len(calls) == 2 + 2 * len(series)
        wide = twtt.DelayExtractionConfig().search_range_ps
        ranges = [cfg.search_range_ps for _, _, cfg in calls]
        assert ranges[:2] == [wide, wide] and max(ranges[2:]) < wide
        for (a, b, _), channels in zip(calls, CHANNELS.values()):
            for tags, channel in zip((a, b), channels):
                full = streams[0][channel].tags_ps
                assert np.array_equal(tags, full[full < interval_ps])


class TestIntervalFailure:
    """An interval without a peak fails with its index. Intervals are
    searched in time order, A->B before B->A within one interval."""

    @pytest.mark.parametrize(
        "gaps, interval, direction",
        [
            ({"ba": [2]}, 2, "ba"),
            ({"ab": [3], "ba": [1]}, 1, "ba"),
            ({"ab": [2], "ba": [1, 2]}, 1, "ba"),
            ({"ab": [2], "ba": [2]}, 2, "ab"),
            ({"ab": [0]}, 0, "ab"),
            ({"ab": [1], "ba": [0]}, 0, "ba"),
        ],
    )
    def test_first_failing_interval_is_reported(self, monkeypatch, gaps, interval, direction):
        real_run_scenario = twtt.run_scenario

        def doctored(run):
            streams = real_run_scenario(run)
            for name, intervals in gaps.items():
                streams = without_remote_tags(streams, name, intervals, int(0.5 * PS_PER_S))
            return streams

        monkeypatch.setattr(twtt, "run_scenario", doctored)
        with pytest.raises(InsufficientCoincidences) as info:
            run_session(session_run(seed=19, duration_s=2.0), 0.5)
        assert info.value.interval_index == interval
        assert f"interval {interval} direction {direction}:" in str(info.value)


class TestOffsetSeriesCsv:
    def make_series(self):
        return OffsetSeries(
            interval_s=0.5,
            epochs_s=np.array([0.25, 0.75, 1.25]),
            offsets_ps=np.array([49.5, 51.25, 48.0]),
            stderrs_ps=np.array([3.0, 3.25, 2.75]),
        )

    def test_header_and_roundtrip(self, tmp_path):
        text = offsets_csv(self.make_series(), scenario_hash_hex="cafe01", seed=42,
                           timestamp=False)
        assert "# scenario_hash: cafe01" in text
        assert "# seed: 42" in text
        assert "# sign_convention: positive offset means site B clock ahead" in text
        assert "epoch_s,offset_ps,stderr_ps" in text
        assert "generated" not in text
        path = tmp_path / "offsets.csv"
        path.write_text(text)
        back = read_offsets_csv(path)
        assert back.interval_s == 0.5
        assert np.allclose(back.epochs_s, [0.25, 0.75, 1.25])
        assert np.allclose(back.offsets_ps, [49.5, 51.25, 48.0])
        assert np.allclose(back.stderrs_ps, [3.0, 3.25, 2.75])

    def test_timestamp_toggle(self):
        with_ts = offsets_csv(self.make_series(), timestamp=True)
        assert "# generated:" in with_ts

    def test_seed_and_generated_comments_read_back_exactly(self, tmp_path):
        series = self.make_series()
        path = tmp_path / "offsets.csv"
        path.write_text(offsets_csv(series, scenario_hash_hex="cafe01", seed=7))
        assert "# seed: 7" in path.read_text()
        back = read_offsets_csv(path)
        assert back.interval_s == series.interval_s
        for name in ("epochs_s", "offsets_ps", "stderrs_ps"):
            assert np.array_equal(getattr(back, name), getattr(series, name))

    def test_empty_series_round_trip(self, tmp_path):
        empty = OffsetSeries(0.5, np.zeros(0), np.zeros(0), np.zeros(0))
        path = tmp_path / "empty.csv"
        path.write_text(offsets_csv(empty, seed=3, timestamp=False))
        back = read_offsets_csv(path)
        assert back.interval_s == 0.5
        assert back.epochs_s.shape == back.offsets_ps.shape == back.stderrs_ps.shape == (0,)

    def test_two_columns_read_with_zero_stderr(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("epoch_s,offset_ps\n0.5,1.25\n1.5,-2\n2.5,3\n")
        back = read_offsets_csv(path)
        assert back.interval_s == 1.0
        assert np.array_equal(back.epochs_s, [0.5, 1.5, 2.5])
        assert np.array_equal(back.offsets_ps, [1.25, -2.0, 3.0])
        assert np.array_equal(back.stderrs_ps, np.zeros(3))

    def test_interval_falls_back_to_epoch_spacing_then_one_second(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("0.125,1,0.5\n0.375,2,0.5\n")
        assert read_offsets_csv(path).interval_s == 0.25
        path.write_text("0.125,1,0.5\n")
        assert read_offsets_csv(path).interval_s == 1.0

    @pytest.mark.parametrize(
        "rows", ["0.5,1,0.1\n1.5\n2.5,3,0.1\n", "0.5\n1.5\n", "0.5,1,0.1,9\n1.5,2,0.1,9\n"]
    )
    def test_malformed_rows_raise_value_error(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("epoch_s,offset_ps,stderr_ps\n" + rows)
        with pytest.raises(ValueError):
            read_offsets_csv(path)

    def test_strictly_increasing_epochs_enforced(self):
        with pytest.raises(ValueError):
            OffsetSeries(1.0, np.array([1.0, 1.0]), np.zeros(2), np.zeros(2))


def test_scenario_hash_stable_and_sensitive():
    run1 = session_run(seed=1)
    run2 = session_run(seed=1)
    run3 = session_run(seed=2)
    assert scenario_hash(run1) == scenario_hash(run2)
    assert scenario_hash(run1) != scenario_hash(run3)
    assert len(scenario_hash(run1)) == 16
