"""Two-way time transfer: combine directional delay measurements into
clock offset and link delay, and turn simulated sessions into offset
time series.

Sign convention (also recorded in the series file header): a positive
offset means site B's clock is ahead of site A's.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .coexistence import effective_peak_sigma, true_coincidence_rate
from .coincidence import DelayExtractionConfig, extract_delay
from .errors import InsufficientCoincidences, NoPeak
from .event_sim import (
    CHANNELS,
    PS_PER_S,
    ClockError,
    SimRun,
    direction_scenario,
    run_scenario,
)


@dataclass(frozen=True)
class OffsetSeries:
    """Clock-offset samples at a fixed cadence, with per-sample standard
    errors and optional ground truth for scoring."""

    interval_s: float
    epochs_s: np.ndarray
    offsets_ps: np.ndarray
    stderrs_ps: np.ndarray
    ground_truth: ClockError | None = None

    def __post_init__(self):
        for name in ("epochs_s", "offsets_ps", "stderrs_ps"):
            object.__setattr__(
                self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            )
        if self.epochs_s.size >= 2:
            gaps = np.diff(self.epochs_s)
            if np.any(gaps <= 0):
                raise ValueError("epochs must be strictly increasing")

    def __len__(self):
        return int(self.epochs_s.size)


def two_way_combine(delta_ab_ps: float, delta_ba_ps: float) -> tuple[float, float]:
    """Split the two one-way measurements d+x and d-x into
    (clock_offset x, link_delay d). Common shifts cancel exactly in x."""
    offset = (delta_ab_ps - delta_ba_ps) / 2.0
    delay = (delta_ab_ps + delta_ba_ps) / 2.0
    return offset, delay


def scenario_hash(run: SimRun) -> str:
    """Short stable hash of the full run configuration."""
    blob = json.dumps(asdict(run), sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _slice(tags: np.ndarray, t0: int, t1: int) -> np.ndarray:
    lo = np.searchsorted(tags, t0, side="left")
    hi = np.searchsorted(tags, t1, side="left")
    return tags[lo:hi]


def run_session(run: SimRun, measurement_interval_s: float) -> OffsetSeries:
    """Simulate ``run``, cut the streams into consecutive intervals
    aligned to t=0 (partial trailing interval dropped), extract both
    one-way delays per interval, and combine them into offset samples.

    The per-sample stderr is half the quadrature sum of the two
    directional extraction errors.
    """
    if measurement_interval_s <= 0:
        raise ValueError("measurement_interval_s must be > 0")
    s = run.scenario
    for direction in CHANNELS:
        expected = true_coincidence_rate(direction_scenario(s, direction))
        expected *= measurement_interval_s
        if expected < 100.0:
            raise InsufficientCoincidences(
                f"direction {direction} expects only {expected:.1f} coincidences "
                f"per {measurement_interval_s} s interval (need >= 100)"
            )

    streams = run_scenario(run)
    sigma = max(effective_peak_sigma(s), 1.0)
    base = DelayExtractionConfig(expected_sigma_ps=sigma)

    # One wide search per direction; intervals then search near it.
    pairs = {
        direction: (streams[local].tags_ps, streams[remote].tags_ps)
        for direction, (local, remote) in CHANNELS.items()
    }
    centers = {}
    for direction, (ta, tb) in pairs.items():
        delay0, _ = extract_delay(ta, tb, base)
        centers[direction] = delay0
    narrow = {
        direction: DelayExtractionConfig(
            search_center_ps=round(centers[direction]),
            search_range_ps=max(1e6, 64.0 * sigma),
            coarse_bin_ps=max(int(4 * sigma) | 1, 101),
            expected_sigma_ps=sigma,
        )
        for direction in pairs
    }

    interval_ps = int(round(measurement_interval_s * PS_PER_S))
    n_intervals = int(run.duration_ps // interval_ps)
    epochs, offsets, stderrs = [], [], []
    for i in range(n_intervals):
        t0, t1 = i * interval_ps, (i + 1) * interval_ps
        deltas = {}
        for direction, (ta, tb) in pairs.items():
            try:
                deltas[direction] = extract_delay(
                    _slice(ta, t0, t1), _slice(tb, t0, t1), narrow[direction]
                )
            except NoPeak as exc:
                raise InsufficientCoincidences(
                    f"interval {i} direction {direction}: {exc}", interval_index=i
                ) from exc
        (d_ab, se_ab), (d_ba, se_ba) = deltas["ab"], deltas["ba"]
        offset, _delay = two_way_combine(d_ab, d_ba)
        epochs.append((i + 0.5) * measurement_interval_s)
        offsets.append(offset)
        stderrs.append(0.5 * math.hypot(se_ab, se_ba))

    return OffsetSeries(
        interval_s=measurement_interval_s,
        epochs_s=np.array(epochs),
        offsets_ps=np.array(offsets),
        stderrs_ps=np.array(stderrs),
        ground_truth=run.clock_error,
    )


def offsets_csv(
    series: OffsetSeries,
    scenario_hash_hex: str = "",
    seed: int | None = None,
    timestamp: bool = True,
) -> str:
    """Offset series CSV with a ``#`` comment header recording scenario
    hash, seed, and the sign convention."""
    out = io.StringIO()
    out.write("# hollowlink offset series\n")
    if scenario_hash_hex:
        out.write(f"# scenario_hash: {scenario_hash_hex}\n")
    if seed is not None:
        out.write(f"# seed: {seed}\n")
    out.write("# sign_convention: positive offset means site B clock ahead of site A\n")
    out.write(f"# interval_s: {series.interval_s:.12g}\n")
    if timestamp:
        now = datetime.now(timezone.utc).isoformat(timespec="seconds")
        out.write(f"# generated: {now}\n")
    out.write("epoch_s,offset_ps,stderr_ps\n")
    for epoch, offset, stderr in zip(
        series.epochs_s, series.offsets_ps, series.stderrs_ps
    ):
        out.write("%.12g,%.12g,%.12g\n" % (epoch, offset, stderr))
    return out.getvalue()


def read_offsets_csv(path) -> OffsetSeries:
    """Read an offset series CSV (as written by ``offsets_csv`` or any
    file with the same three-column schema)."""
    interval = None
    epochs, offsets, stderrs = [], [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# interval_s:"):
                    interval = float(line.split(":", 1)[1])
                continue
            if line.startswith("epoch_s"):
                continue
            parts = line.split(",")
            epochs.append(float(parts[0]))
            offsets.append(float(parts[1]))
            stderrs.append(float(parts[2]) if len(parts) > 2 else 0.0)
    epochs_arr = np.array(epochs)
    if interval is None:
        if epochs_arr.size >= 2:
            interval = float(epochs_arr[1] - epochs_arr[0])
        else:
            interval = 1.0
    return OffsetSeries(
        interval_s=interval,
        epochs_s=epochs_arr,
        offsets_ps=np.array(offsets),
        stderrs_ps=np.array(stderrs),
    )
