"""Monte Carlo generation of detector timestamp streams.

Produces the four single-photon-detector streams of a bidirectional
two-way session. ``run_scenario`` simulates each quantum direction in
turn with ``simulate_direction``, which composes the stage functions
below: ``generate_pairs`` yields correlated pair emissions in chunks,
``transmit_and_detect`` thins, delays and smears each arm, and
``_finalize`` completes each channel. It adds SpRS counts
(``inject_poisson_noise``); on the channels site B records it then
applies ``_clock_to_site_b`` to every part, the one place site B's clock
error is stamped (after jitter, as a real detector's time tagger does);
it adds dark counts and applies ``apply_dead_time`` (non-paralyzable).

All timestamps are 64-bit integer picoseconds. Randomness comes from
numpy's counter-based Philox generator; each stage draws from its own
stream derived from ``SeedSequence(seed, spawn_key=(stream_id,))``, so a
given ``SimRun`` reproduces bit-identical streams on any platform, for
either direction alone too. The stream-id table is fixed in ``_STREAMS``.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .coexistence import FWHM_TO_SIGMA, CoexistenceScenario, noise_rates
from .errors import UnsortedInput
from .link_model import channel_transmittance, dispersion_broadening

PS_PER_S = 10**12

# Generation chunk: bounds memory for long high-rate runs.
_CHUNK = 4_000_000

# RNG stream ids (SeedSequence spawn keys). One stream per independent
# random stage; renumbering would silently change simulated data.
_STREAMS = {
    "pairs_ab": 0,
    "detect_local_ab": 1,
    "detect_remote_ab": 2,
    "pairs_ba": 3,
    "detect_local_ba": 4,
    "detect_remote_ba": 5,
    "sprs_fwd_ch1": 6,
    "sprs_bwd_ch1": 7,
    "dark_ch0": 8,
    "dark_ch1": 9,
    "sprs_fwd_ch3": 10,
    "sprs_bwd_ch3": 11,
    "dark_ch2": 12,
    "dark_ch3": 13,
    "clock_wpm_ch1": 14,
    "clock_wpm_ch2": 15,
}

# The (local, remote) channels of each direction; a channel id is also its
# position in SimStreams. Site B records ch1 and ch2.
CHANNELS = {"ab": (0, 1), "ba": (2, 3)}
_SITE_B = (1, 2)

TIMETAG_MAGIC = b"QTAGS002"
_TIMETAG_MAGIC_V1 = b"QTAGS001"  # no duration field; still readable


@dataclass(frozen=True)
class TimeTagStream:
    """Sorted integer-picosecond detection timestamps for one channel."""

    channel_id: int
    tags_ps: np.ndarray
    duration_ps: int

    def __post_init__(self):
        tags = sorted_tags(np.ascontiguousarray(self.tags_ps, dtype=np.int64))
        object.__setattr__(self, "tags_ps", tags)
        if tags.size and (tags[0] < 0 or tags[-1] > self.duration_ps):
            raise ValueError("tags_ps must lie within [0, duration_ps]")

    def __len__(self):
        return int(self.tags_ps.size)

    @property
    def rate_cps(self) -> float:
        if self.duration_ps == 0:
            return 0.0
        return self.tags_ps.size * PS_PER_S / self.duration_ps


@dataclass(frozen=True)
class ClockError:
    """Site-B clock error vs. site A: initial offset, linear drift, and
    per-detection white phase noise."""

    offset_ps: float = 0.0
    drift_ps_per_s: float = 0.0
    white_pm_sigma_ps: float = 0.0

    def __post_init__(self):
        if self.white_pm_sigma_ps < 0:
            raise ValueError("white_pm_sigma_ps must be >= 0")


@dataclass(frozen=True)
class SimRun:
    """One reproducible simulation: scenario, duration, seed, clock error,
    and the two one-way propagation delays."""

    scenario: CoexistenceScenario
    duration_s: float
    seed: int
    clock_error: ClockError = ClockError()
    link_delay_ab_ps: float = 0.0
    link_delay_ba_ps: float = 0.0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if self.duration_s > 1e6:
            # keeps int64 picoseconds far from overflow
            raise ValueError("duration_s must be < 1e6 s")

    @property
    def duration_ps(self) -> int:
        return int(round(self.duration_s * PS_PER_S))


def sorted_tags(tags, name: str = "tags_ps") -> np.ndarray:
    """The int64 tags of a TimeTagStream (checked when it was built) or of
    an array, which must be sorted."""
    if isinstance(tags, TimeTagStream):
        return tags.tags_ps
    arr = np.asarray(tags, dtype=np.int64)
    if arr.size and np.any(np.diff(arr) < 0):
        raise UnsortedInput(f"{name} must be sorted")
    return arr


class SimStreams(NamedTuple):
    """The four detector streams, in channel order (Fig.-1-style
    numbering): ch0 local idler @A, ch1 remote signal @B, ch2 local idler
    @B, ch3 remote signal @A."""

    local_ab: TimeTagStream
    remote_ab: TimeTagStream
    local_ba: TimeTagStream
    remote_ba: TimeTagStream


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Philox generator for one named random stage of a run."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_STREAMS[name],))
    return np.random.Generator(np.random.Philox(ss))


def direction_scenario(s: CoexistenceScenario, direction: str) -> CoexistenceScenario:
    """Scenario as seen by one quantum direction. For B->A the carrier
    roles swap: the return light co-propagates, the launch light
    counter-propagates."""
    if direction == "ab":
        return s
    if direction == "ba":
        carrier = replace(
            s.carrier,
            power_fwd_mw=s.carrier.power_bwd_mw,
            power_bwd_mw=s.carrier.power_fwd_mw,
        )
        return replace(s, carrier=carrier)
    raise ValueError("direction must be 'ab' or 'ba'")


def _poisson_chunks(rate_cps: float, duration_ps: int, rng: np.random.Generator):
    """Yield sorted int64 chunks of a homogeneous Poisson process, each
    drawn for the events expected in the time left + 8 sigma (<= _CHUNK)."""
    if rate_cps <= 0 or duration_ps <= 0:
        return
    scale_ps = PS_PER_S / rate_cps
    t = 0.0
    while t < duration_ps:
        left = (duration_ps - t) / scale_ps
        n = min(_CHUNK, int(left + 8.0 * math.sqrt(left)) + 16)
        times = t + np.cumsum(rng.exponential(scale_ps, n))
        t = times[-1]
        times = times[times < duration_ps]
        if times.size:
            yield np.rint(times).astype(np.int64)


def generate_pairs(run: SimRun, source: str = "ab"):
    """Pair emission times of one source, yielded as sorted int64 chunks
    of at most ``_CHUNK`` pairs; both arms share each emission time (the
    intrinsic biphoton correlation time is treated as zero)."""
    rng = stream_rng(run.seed, f"pairs_{source}")
    yield from _poisson_chunks(run.scenario.source.pair_rate_cps, run.duration_ps, rng)


def transmit_and_detect(
    emissions_ps: np.ndarray,
    efficiency_chain: float,
    jitter_sigma_ps: float,
    extra_broadening_sigma_ps: float,
    delay_ps: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bernoulli-thin emissions at the combined efficiency, shift by the
    propagation delay (rounded to whole ps) and smear with Gaussian noise
    of sqrt(jitter^2 + broadening^2); returns sorted int64 detections."""
    if jitter_sigma_ps < 0 or extra_broadening_sigma_ps < 0:
        raise ValueError("sigmas must be >= 0")
    emissions = np.asarray(emissions_ps, dtype=np.int64)
    out = emissions[rng.random(emissions.size) < efficiency_chain]
    out += np.int64(round(delay_ps))
    sigma = float(np.hypot(jitter_sigma_ps, extra_broadening_sigma_ps))
    if sigma > 0:
        out += np.rint(sigma * rng.standard_normal(out.size)).astype(np.int64)
        out.sort(kind="stable")
    return out


def inject_poisson_noise(
    rate_cps: float, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Homogeneous Poisson timestamps over [0, duration), int64 ps."""
    if rate_cps < 0:
        raise ValueError("rate_cps must be >= 0")
    parts = list(_poisson_chunks(rate_cps, int(round(duration_s * PS_PER_S)), rng))
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _dead_time_mask(tags: np.ndarray, dead_ps: int) -> np.ndarray:
    keep = np.empty(tags.size, dtype=np.bool_)
    keep[0] = True
    np.greater_equal(np.diff(tags), dead_ps, out=keep[1:])
    heads = np.flatnonzero(keep)
    ends = np.append(heads[1:], tags.size)
    multi = ends - heads > 1
    cur, end = heads[multi], ends[multi]
    while cur.size:
        cur = np.searchsorted(tags, tags[cur] + dead_ps, side="left")
        live = cur < end
        cur, end = cur[live], end[live]
        keep[cur] = True
    return keep


def apply_dead_time(stream, dead_time_ns: float):
    """Non-paralyzable dead-time filter: a tag is kept iff it falls at
    least the dead time after the last kept tag. Accepts a TimeTagStream
    or a sorted int64 array and returns the same kind.

    A tag at least the dead time after its predecessor is always kept and
    heads a cluster that runs up to the next such tag. Within all clusters
    at once, each pass jumps from the last kept tag to the first tag a
    dead time later (a binary search) while that lies inside its cluster,
    so the passes number the most tags kept in one cluster."""
    tags = sorted_tags(stream, "apply_dead_time input")
    dead_ps = int(round(dead_time_ns * 1000.0))
    if dead_ps <= 0 or tags.size == 0:
        kept = tags.copy()
    else:
        kept = tags[_dead_time_mask(tags, dead_ps)]
    if isinstance(stream, TimeTagStream):
        return replace(stream, tags_ps=kept)
    return kept


def _clock_to_site_b(
    tags: np.ndarray, clock: ClockError, rng: np.random.Generator
) -> np.ndarray:
    """Express physical arrival times in site B's clock:
    t' = t*(1+y) + x0 (+ per-detection white phase noise)."""
    if tags.size == 0:
        return tags
    y = clock.drift_ps_per_s * 1e-12
    corr = clock.offset_ps + y * tags.astype(np.float64)
    if clock.white_pm_sigma_ps > 0:
        corr = corr + clock.white_pm_sigma_ps * rng.standard_normal(tags.size)
    return tags + np.rint(corr).astype(np.int64)


def _finalize(run: SimRun, channel_id: int, det, parts, sprs_cps=()) -> TimeTagStream:
    """Complete one channel: add its SpRS counts at ``sprs_cps`` (forward,
    backward), put every part so far on site B's clock if site B records
    the channel, add dark counts, merge (a stable sort keeps signal <
    sprs_fwd < sprs_bwd < dark at equal times), clip and apply dead time."""
    for way, rate in zip(("fwd", "bwd"), sprs_cps):
        rng = stream_rng(run.seed, f"sprs_{way}_ch{channel_id}")
        parts.append(inject_poisson_noise(rate, run.duration_s, rng))
    if channel_id in _SITE_B:
        rng = stream_rng(run.seed, f"clock_wpm_ch{channel_id}")
        parts = [_clock_to_site_b(p, run.clock_error, rng) for p in parts]
    rng = stream_rng(run.seed, f"dark_ch{channel_id}")
    parts.append(inject_poisson_noise(det.dark_rate_cps, run.duration_s, rng))
    merged = np.concatenate([p for p in parts if p.size] or [np.empty(0, np.int64)])
    merged.sort(kind="stable")
    merged = merged[(merged >= 0) & (merged <= run.duration_ps)]
    kept = apply_dead_time(merged, det.dead_time_ns)
    return TimeTagStream(channel_id=channel_id, tags_ps=kept, duration_ps=run.duration_ps)


def simulate_direction(run: SimRun, direction: str) -> tuple[TimeTagStream, TimeTagStream]:
    """Simulate one quantum direction, "ab" or "ba": its (local, remote)
    streams, channels ``CHANNELS[direction]`` of ``run_scenario``."""
    s = run.scenario
    ds = direction_scenario(s, direction)  # also rejects an unknown direction
    loc_ch, rem_ch = CHANNELS[direction]
    det_loc, det_rem = s.det_local, s.det_remote
    delay_ps = run.link_delay_ab_ps if direction == "ab" else run.link_delay_ba_ps
    sigma_disp = 0.0
    if not s.dcm_engaged:
        sigma_disp = (
            dispersion_broadening(s.link, s.source.fwhm_bandwidth_nm) / FWHM_TO_SIGMA
        )
    p_local = s.source.arm_eff_local * det_loc.efficiency
    p_remote = s.source.arm_eff_remote * channel_transmittance(s.link) * det_rem.efficiency
    rng_loc = stream_rng(run.seed, f"detect_local_{direction}")
    rng_rem = stream_rng(run.seed, f"detect_remote_{direction}")

    loc_parts, rem_parts = [], []
    for chunk in generate_pairs(run, direction):
        loc = transmit_and_detect(chunk, p_local, det_loc.jitter_sigma_ps, 0, 0, rng_loc)
        rem = transmit_and_detect(
            chunk, p_remote, det_rem.jitter_sigma_ps, sigma_disp, delay_ps, rng_rem
        )
        loc_parts.append(loc)
        rem_parts.append(rem)
    return (
        _finalize(run, loc_ch, det_loc, loc_parts),
        _finalize(run, rem_ch, det_rem, rem_parts, noise_rates(ds)),
    )


def run_scenario(run: SimRun) -> SimStreams:
    """Simulate the full bidirectional session and return the four
    detector streams. Deterministic given the run (seed included)."""
    return SimStreams(*simulate_direction(run, "ab"), *simulate_direction(run, "ba"))


def write_timetags_binary(path, stream: TimeTagStream) -> None:
    """Binary timetag file: 8-byte magic, little-endian uint16 channel id,
    little-endian int64 duration in ps, then little-endian int64
    picosecond values."""
    with open(path, "wb") as fh:
        fh.write(TIMETAG_MAGIC)
        fh.write(struct.pack("<Hq", stream.channel_id, stream.duration_ps))
        fh.write(stream.tags_ps.astype("<i8").tobytes())


def read_timetags_binary(path) -> TimeTagStream:
    """Read a binary timetag file. Files of the older ``QTAGS001`` format
    carry no duration, so theirs is reconstructed as the last tag."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic not in (TIMETAG_MAGIC, _TIMETAG_MAGIC_V1):
            raise ValueError(f"bad timetag magic {magic!r}")
        (channel_id,) = struct.unpack("<H", fh.read(2))
        duration = struct.unpack("<q", fh.read(8))[0] if magic == TIMETAG_MAGIC else None
        tags = np.frombuffer(fh.read(), dtype="<i8").astype(np.int64)
    if duration is None:
        duration = int(tags[-1]) if tags.size else 0
    return TimeTagStream(channel_id=channel_id, tags_ps=tags, duration_ps=duration)


def write_timetags_csv(path, streams) -> None:
    """CSV alternative: header ``channel,timestamp_ps``, one row per tag."""
    with open(path, "w", newline="") as fh:
        fh.write("channel,timestamp_ps\n")
        for stream in streams:
            cid = stream.channel_id
            fh.write("".join(f"{cid},{t}\n" for t in stream.tags_ps.tolist()))


def read_timetags_csv(path) -> list[TimeTagStream]:
    """Read a timetag CSV, one stream per channel in ascending channel
    order. The CSV schema has no place for a duration, so each stream's
    duration is its last tag and ``rate_cps`` can differ from the run's;
    the binary format keeps the duration."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n")
        if header != "channel,timestamp_ps":
            raise ValueError(f"bad timetag CSV header {header!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a header-only file holds no rows
            rows = np.loadtxt(fh, dtype=np.int64, delimiter=",", ndmin=2)
    streams = []
    for channel_id in np.unique(rows[:, 0]).tolist():
        tags = rows[rows[:, 0] == channel_id, 1]
        streams.append(
            TimeTagStream(channel_id=channel_id, tags_ps=tags, duration_ps=int(tags[-1]))
        )
    return streams
