import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hollowlink.coexistence import (
    CoexistenceScenario,
    PairSource,
    singles_rates,
)
from hollowlink import event_sim
from hollowlink.errors import UnsortedInput
from hollowlink.event_sim import (
    PS_PER_S,
    ClockError,
    SimRun,
    TimeTagStream,
    apply_dead_time,
    direction_scenario,
    generate_pairs,
    inject_poisson_noise,
    read_timetags_binary,
    read_timetags_csv,
    run_scenario,
    simulate_direction,
    sorted_tags,
    stream_rng,
    transmit_and_detect,
    write_timetags_binary,
    write_timetags_csv,
)
from hollowlink.link_model import ClassicalCarrier, DetectorModel, FiberLink

from conftest import desk_scenario


def lossless_scenario(pair_rate=2e4):
    det = DetectorModel(1.0, 0.0, 0.0, 0.0)
    return CoexistenceScenario(
        link=FiberLink(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        carrier=ClassicalCarrier(0.0, 0.0),
        source=PairSource(pair_rate, 1.0, 1.0, 1.0),
        det_local=det,
        det_remote=det,
        window_ps=1000.0,
    )


def philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def all_pairs(run, source="ab"):
    chunks = list(generate_pairs(run, source))
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


class TestGeneratePairs:
    def test_zero_rate_empty(self):
        run = SimRun(lossless_scenario(0.0), duration_s=1.0, seed=3)
        assert list(generate_pairs(run)) == []

    def test_rate_within_poisson_3sigma(self):
        run = SimRun(lossless_scenario(5e4), duration_s=10.0, seed=3)
        lam = 5e4 * 10.0
        assert abs(all_pairs(run).size - lam) <= 3 * math.sqrt(lam)

    def test_deterministic_per_seed(self):
        run = SimRun(lossless_scenario(5e4), duration_s=2.0, seed=99)
        a1 = all_pairs(run)
        assert np.array_equal(a1, all_pairs(run))
        assert not np.array_equal(a1, all_pairs(replace(run, seed=100)))
        assert not np.array_equal(a1, all_pairs(run, "ba"))

    def test_sorted_within_duration(self):
        run = SimRun(lossless_scenario(1e5), duration_s=1.0, seed=5)
        local = all_pairs(run)
        assert np.all(np.diff(local) >= 0)
        assert local[0] >= 0 and local[-1] <= run.duration_ps

    def test_chunks_bounded_and_contiguous(self, monkeypatch):
        monkeypatch.setattr(event_sim, "_CHUNK", 1000)
        run = SimRun(lossless_scenario(1e5), duration_s=0.1, seed=5)
        chunks = list(generate_pairs(run))
        assert len(chunks) > 1
        assert all(c.dtype == np.int64 and 0 < c.size <= 1000 for c in chunks)
        assert all(a[-1] <= b[0] for a, b in zip(chunks, chunks[1:]))


class TestTransmitAndDetect:
    def test_pure_shift(self, rng):
        emissions = np.arange(0, 10**7, 10**4, dtype=np.int64)
        out = transmit_and_detect(emissions, 1.0, 0.0, 0.0, 777.0, rng)
        assert np.array_equal(out, emissions + 777)

    def test_binomial_thinning(self, rng):
        n = 10**6
        emissions = np.arange(n, dtype=np.int64) * 1000
        out = transmit_and_detect(emissions, 0.5, 0.0, 0.0, 0.0, rng)
        assert abs(out.size - n / 2) <= 3 * math.sqrt(n * 0.25)

    def test_smearing_moments(self, rng):
        n = 10**6
        emissions = np.zeros(n, dtype=np.int64) + 10**9
        out = transmit_and_detect(emissions, 1.0, 150.0, 80.0, 5000.0, rng)
        resid = out.astype(float) - 1e9 - 5000.0
        sigma_sq = 150.0**2 + 80.0**2
        assert abs(resid.mean()) < 3 * math.sqrt(sigma_sq / n)
        assert resid.var() == pytest.approx(sigma_sq, rel=0.02)

    def test_output_sorted(self, rng):
        emissions = np.sort(rng.integers(0, 10**8, 5000)).astype(np.int64)
        out = transmit_and_detect(emissions, 0.8, 300.0, 0.0, 0.0, rng)
        assert np.all(np.diff(out) >= 0)


class TestInjectPoissonNoise:
    def test_zero_rate(self, rng):
        assert inject_poisson_noise(0.0, 10.0, rng).size == 0

    def test_rate_within_3sigma(self, rng):
        tags = inject_poisson_noise(2e4, 10.0, rng)
        lam = 2e5
        assert abs(tags.size - lam) <= 3 * math.sqrt(lam)

    def test_interarrivals_exponential_ks(self, rng):
        rate = 1e4
        tags = inject_poisson_noise(rate, 50.0, rng)
        gaps_s = np.diff(tags) / PS_PER_S
        result = stats.kstest(gaps_s, "expon", args=(0.0, 1.0 / rate))
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("rate", [100.0, 4e4, 2e5])
    def test_equals_single_draw(self, rate):
        # sized draws continue the generator's sequence, so they give the
        # values of one draw long enough to pass the duration
        got = inject_poisson_noise(rate, 1.0, philox(8))
        draws = philox(8).exponential(PS_PER_S / rate, int(3 * rate) + 100)
        times = np.cumsum(draws)
        assert times[-1] >= PS_PER_S
        want = np.rint(times[times < PS_PER_S]).astype(np.int64)
        assert np.array_equal(got, want)

    def test_draw_sized_to_expected_count(self):
        sizes = []
        draw = philox(9).exponential

        class Spy:
            def exponential(self, scale, size):
                sizes.append(size)
                return draw(scale, size)

        tags = inject_poisson_noise(100.0, 1.0, Spy())
        assert tags.size > 0 and sum(sizes) < 1000


def _dead_time_mask_loop(tags, dead_ps):
    """The non-paralyzable filter one tag at a time: the oracle for the
    vectorised ``_dead_time_mask``."""
    keep = np.zeros(tags.size, dtype=np.bool_)
    last = -(1 << 62)
    for i, t in enumerate(tags.tolist()):
        if t - last >= dead_ps:
            keep[i] = True
            last = t
    return keep


def assert_dead_time_matches_loop(tags, dead_ps):
    expected = _dead_time_mask_loop(tags, dead_ps)
    if tags.size:
        assert np.array_equal(event_sim._dead_time_mask(tags, dead_ps), expected)
    assert np.array_equal(apply_dead_time(tags, dead_ps / 1000.0), tags[expected])


# gaps mix ties, gaps far below the dead time (long clusters) and gaps around it
_GAPS = st.lists(
    st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 4000)), max_size=300
)


class TestApplyDeadTime:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(start=st.integers(-10**6, 10**12), gaps=_GAPS, dead_ps=st.integers(1, 3000))
    @example(start=0, gaps=[], dead_ps=1000)  # one tag, and no tags
    @example(start=7, gaps=[0], dead_ps=1000)
    @example(start=0, gaps=[0, 0] + [1] * 200 + [0], dead_ps=1000)  # all within one dead time
    @example(start=0, gaps=[1000] * 50, dead_ps=1000)
    @example(start=0, gaps=[999, 1, 999, 1, 0, 1000], dead_ps=1000)
    def test_matches_sequential_loop(self, start, gaps, dead_ps):
        tags = start + np.cumsum(np.asarray(gaps, dtype=np.int64))
        assert_dead_time_matches_loop(np.concatenate([[start], tags]).astype(np.int64), dead_ps)
        assert_dead_time_matches_loop(tags.astype(np.int64), dead_ps)

    @pytest.mark.parametrize("rate, dead_ns", [(1.7e5, 1000.0), (2e6, 1000.0), (1.8e6, 50.0)])
    def test_matches_sequential_loop_on_dense_poisson(self, rng, rate, dead_ns):
        tags = inject_poisson_noise(rate, 0.1, rng) // 100 * 100  # 100 ps grid: ties
        assert_dead_time_matches_loop(tags, int(round(dead_ns * 1000)))

    def test_zero_dead_time_identity(self):
        tags = np.array([0, 10, 20, 30], dtype=np.int64)
        assert np.array_equal(apply_dead_time(tags, 0.0), tags)

    def test_hand_checkable_case(self):
        # {0, 500, 1200} ns with tau_d = 1000 ns -> {0, 1200} ns
        tags = np.array([0, 500_000, 1_200_000], dtype=np.int64)
        kept = apply_dead_time(tags, 1000.0)
        assert np.array_equal(kept, [0, 1_200_000])

    def test_poisson_throughput_matches_closed_form(self, rng):
        rate = 1e5
        tags = inject_poisson_noise(rate, 100.0, rng)
        kept = apply_dead_time(tags, 1000.0)
        expected = rate / (1 + rate * 1e-6) * 100.0
        assert kept.size == pytest.approx(expected, rel=0.01)

    def test_min_gap_property(self, rng):
        tags = np.sort(rng.integers(0, 10**7, 20000)).astype(np.int64)
        kept = apply_dead_time(tags, 1.5)  # 1500 ps
        assert np.all(np.diff(kept) >= 1500)

    def test_unsorted_raises(self):
        with pytest.raises(UnsortedInput):
            apply_dead_time(np.array([10, 5], dtype=np.int64), 1.0)

    def test_stream_roundtrip_type(self):
        stream = TimeTagStream(0, np.array([0, 100, 200], dtype=np.int64), 1000)
        out = apply_dead_time(stream, 0.15)
        assert isinstance(out, TimeTagStream)
        assert np.array_equal(out.tags_ps, [0, 200])


class TestSortedTags:
    def test_stream_passes_through(self):
        stream = TimeTagStream(0, np.array([0, 100, 200], dtype=np.int64), 1000)
        assert sorted_tags(stream) is stream.tags_ps

    def test_unsorted_array_raises(self):
        assert np.array_equal(sorted_tags([1, 1, 2]), [1, 1, 2])
        with pytest.raises(UnsortedInput, match="x must be sorted"):
            sorted_tags(np.array([2, 1], dtype=np.int64), "x")
        with pytest.raises(UnsortedInput):
            TimeTagStream(0, np.array([5, 3], dtype=np.int64), 10)


class TestRunScenario:
    def test_zero_noise_exact_correspondence(self):
        run = SimRun(
            lossless_scenario(2e4),
            duration_s=2.0,
            seed=17,
            clock_error=ClockError(offset_ps=777.0),
            link_delay_ab_ps=12345.0,
            link_delay_ba_ps=54321.0,
        )
        streams = run_scenario(run)
        n_ab = len(streams.remote_ab)
        assert n_ab > 0 and len(streams.local_ab) - n_ab <= 2
        assert np.array_equal(
            streams.remote_ab.tags_ps,
            streams.local_ab.tags_ps[:n_ab] + 12345 + 777,
        )
        # B->A: local arm carries the clock offset instead of the remote
        n_ba = len(streams.remote_ba)
        assert np.array_equal(
            streams.remote_ba.tags_ps,
            streams.local_ba.tags_ps[:n_ba] - 777 + 54321,
        )

    def test_singles_match_analytic_3sigma(self):
        s = desk_scenario()
        run = SimRun(s, duration_s=5.0, seed=23, link_delay_ab_ps=1e6, link_delay_ba_ps=1e6)
        streams = run_scenario(run)
        for direction, local, remote in (
            ("ab", streams.local_ab, streams.remote_ab),
            ("ba", streams.local_ba, streams.remote_ba),
        ):
            ana_local, ana_remote = singles_rates(direction_scenario(s, direction))
            for stream, rate in ((local, ana_local), (remote, ana_remote)):
                lam = rate * run.duration_s
                assert abs(len(stream) - lam) <= 3 * math.sqrt(lam)

    def test_bit_identical_for_same_seed(self):
        s = desk_scenario(pair_rate_cps=5e4)
        run = SimRun(s, duration_s=2.0, seed=31, link_delay_ab_ps=5e5)
        first = run_scenario(run)
        second = run_scenario(run)
        for st1, st2 in zip(first, second):
            assert st1.channel_id == st2.channel_id
            assert np.array_equal(st1.tags_ps, st2.tags_ps)

    def test_dead_time_enforced_in_output(self):
        s = desk_scenario(pair_rate_cps=4e5, dead_time_ns=200.0)
        run = SimRun(s, duration_s=1.0, seed=37)
        streams = run_scenario(run)
        for st in streams:
            if len(st) > 1:
                assert np.min(np.diff(st.tags_ps)) >= 200_000

    def test_lossless_local_arm_is_the_pair_stream(self):
        run = SimRun(lossless_scenario(5e4), duration_s=1.0, seed=43)
        local, _ = simulate_direction(run, "ab")
        assert np.array_equal(local.tags_ps, all_pairs(run, "ab"))

    def test_golden_streams_digest(self):
        # Any change to how the simulator samples must update this digest
        # on purpose and say so.
        run = SimRun(
            desk_scenario(),
            duration_s=0.2,
            seed=2026,
            clock_error=ClockError(offset_ps=1234.0, drift_ps_per_s=0.5),
            link_delay_ab_ps=2e6,
            link_delay_ba_ps=2e6,
        )
        h = hashlib.sha256()
        for stream in run_scenario(run):
            h.update(stream.tags_ps.astype("<i8").tobytes())
        assert h.hexdigest() == (
            "21af64341d3a85b7207624fabbee090103e3860010938d218aa38343f7c09d6a"
        )

    def test_golden_streams_digest_white_pm(self):
        # the golden run with 3 ps of site-B white PM: pins the order of
        # the clock_wpm_ch1 and clock_wpm_ch2 draws
        run = SimRun(
            desk_scenario(),
            duration_s=0.2,
            seed=2026,
            clock_error=ClockError(offset_ps=1234.0, drift_ps_per_s=0.5, white_pm_sigma_ps=3.0),
            link_delay_ab_ps=2e6,
            link_delay_ba_ps=2e6,
        )
        h = hashlib.sha256()
        for stream in run_scenario(run):
            h.update(stream.tags_ps.astype("<i8").tobytes())
        assert h.hexdigest() == (
            "e83aeb7115a76aed7c116b657602b1ddb39b063afcc658da3e964963b78de03a"
        )

    @pytest.mark.parametrize("direction", ["ab", "ba"])
    def test_simulate_direction_equals_run_scenario(self, direction):
        run = SimRun(
            desk_scenario(pair_rate_cps=4e5),
            duration_s=0.5,
            seed=61,
            clock_error=ClockError(offset_ps=-321.0, drift_ps_per_s=4.0, white_pm_sigma_ps=2.5),
            link_delay_ab_ps=3e6,
            link_delay_ba_ps=1e6,
        )
        streams = run_scenario(run)
        local, remote = simulate_direction(run, direction)
        for got, channel in zip((local, remote), event_sim.CHANNELS[direction]):
            want = streams[channel]
            assert got.channel_id == want.channel_id == channel
            assert got.duration_ps == want.duration_ps
            assert np.array_equal(got.tags_ps, want.tags_ps)

    def test_simulate_direction_rejects_unknown_direction(self):
        run = SimRun(lossless_scenario(), duration_s=0.1, seed=1)
        with pytest.raises(ValueError):
            simulate_direction(run, "ac")

    def test_drift_recovered_in_tag_scaling(self):
        run = SimRun(
            lossless_scenario(5e4),
            duration_s=4.0,
            seed=41,
            clock_error=ClockError(drift_ps_per_s=250.0),
        )
        local, remote = simulate_direction(run, "ab")
        n = len(remote)
        local = local.tags_ps[:n].astype(float)
        resid = remote.tags_ps[:n] - local
        slope = np.polyfit(local / PS_PER_S, resid, 1)[0]
        assert slope == pytest.approx(250.0, rel=0.02)


class TestTimetagFiles:
    def test_binary_roundtrip_and_magic(self, tmp_path):
        stream = TimeTagStream(3, np.array([5, 10, 4_000_000], dtype=np.int64), 4_000_000)
        path = tmp_path / "ch3.qtags"
        write_timetags_binary(path, stream)
        raw = path.read_bytes()
        assert raw[:8] == b"QTAGS002"
        assert raw[8:10] == (3).to_bytes(2, "little")
        assert raw[10:18] == (4_000_000).to_bytes(8, "little", signed=True)
        assert len(raw) == 18 + 3 * 8
        back = read_timetags_binary(path)
        assert back.channel_id == 3
        assert np.array_equal(back.tags_ps, stream.tags_ps)

    def test_binary_keeps_duration_and_rate(self, tmp_path):
        stream = TimeTagStream(1, np.array([5, 10, 2_999_978], dtype=np.int64), 3_000_000)
        path = tmp_path / "ch1.qtags"
        write_timetags_binary(path, stream)
        back = read_timetags_binary(path)
        assert back.duration_ps == 3_000_000
        assert back.rate_cps == stream.rate_cps
        empty = TimeTagStream(0, np.empty(0, dtype=np.int64), 10**12)
        write_timetags_binary(path, empty)
        assert read_timetags_binary(path).duration_ps == 10**12

    def test_binary_v1_still_reads(self, tmp_path):
        path = tmp_path / "old.qtags"
        tags = np.array([5, 10, 2_999_978], dtype="<i8")
        path.write_bytes(b"QTAGS001" + (2).to_bytes(2, "little") + tags.tobytes())
        back = read_timetags_binary(path)
        assert back.channel_id == 2
        assert np.array_equal(back.tags_ps, tags)
        assert back.duration_ps == 2_999_978

    def test_csv_roundtrip(self, tmp_path):
        streams = [
            TimeTagStream(0, np.array([1, 2, 3], dtype=np.int64), 100),
            TimeTagStream(1, np.array([7, 9], dtype=np.int64), 100),
        ]
        path = tmp_path / "tags.csv"
        write_timetags_csv(path, streams)
        text = path.read_text()
        assert text.splitlines()[0] == "channel,timestamp_ps"
        back = read_timetags_csv(path)
        assert len(back) == 2
        assert np.array_equal(back[0].tags_ps, [1, 2, 3])
        assert np.array_equal(back[1].tags_ps, [7, 9])

    def test_csv_bytes_and_interleaved_channels(self, tmp_path):
        streams = [
            TimeTagStream(2, np.array([0, 5, 2**40], dtype=np.int64), 2**40),
            TimeTagStream(0, np.array([3], dtype=np.int64), 10),
        ]
        path = tmp_path / "tags.csv"
        write_timetags_csv(path, streams)
        assert path.read_bytes() == b"channel,timestamp_ps\n2,0\n2,5\n2,1099511627776\n0,3\n"
        path.write_text("channel,timestamp_ps\n1,4\n0,3\n1,9\n")
        back = read_timetags_csv(path)
        assert [st.channel_id for st in back] == [0, 1]
        assert np.array_equal(back[1].tags_ps, [4, 9]) and back[1].duration_ps == 9

    def test_csv_header_only_reads_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_timetags_csv(path, [TimeTagStream(0, np.empty(0, dtype=np.int64), 10)])
        assert path.read_text() == "channel,timestamp_ps\n"
        assert read_timetags_csv(path) == []

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("chan,ts\n0,1\n")
        with pytest.raises(ValueError):
            read_timetags_csv(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.qtags"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 10)
        with pytest.raises(ValueError):
            read_timetags_binary(path)


def test_stream_rng_streams_are_independent():
    r1 = stream_rng(7, "pairs_ab").random(4)
    r2 = stream_rng(7, "pairs_ba").random(4)
    r1_again = stream_rng(7, "pairs_ab").random(4)
    assert np.array_equal(r1, r1_again)
    assert not np.array_equal(r1, r2)
