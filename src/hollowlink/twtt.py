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
        if np.any(np.diff(self.epochs_s) <= 0):
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


def _interval_delay(i, direction, local, remote, cfg):
    """``extract_delay`` on interval i's pieces; no peak fails as interval i."""
    try:
        return extract_delay(local[i], remote[i], cfg)
    except NoPeak as exc:
        raise InsufficientCoincidences(
            f"interval {i} direction {direction}: {exc}", interval_index=i
        ) from exc


def run_session(run: SimRun, measurement_interval_s: float) -> OffsetSeries:
    """Simulate ``run`` and turn it into one offset sample per interval,
    intervals aligned to t=0 (partial trailing interval dropped).

    Both streams of each direction are cut once at all interval edges.
    One wide delay search over interval 0's pieces finds each
    direction's centre, so the set-up costs the same whatever the
    session length; then each interval is searched near that centre,
    A->B before B->A. A direction without a peak in interval 0 fails as
    interval 0, and a session shorter than one interval gives the empty
    series without simulating or searching. The per-sample stderr is
    half the quadrature sum of the two directional extraction errors.
    """
    if measurement_interval_s <= 0:
        raise ValueError("measurement_interval_s must be > 0")
    for direction in CHANNELS:
        expected = true_coincidence_rate(direction_scenario(run.scenario, direction))
        expected *= measurement_interval_s
        if expected < 100.0:
            raise InsufficientCoincidences(
                f"direction {direction} expects only {expected:.1f} coincidences "
                f"per {measurement_interval_s} s interval (need >= 100)"
            )

    interval_ps = int(round(measurement_interval_s * PS_PER_S))
    n_intervals = int(run.duration_ps // interval_ps)
    if n_intervals == 0:
        empty = np.zeros(0)
        return OffsetSeries(measurement_interval_s, empty, empty, empty, run.clock_error)
    edges = np.arange(n_intervals + 1) * interval_ps
    streams = run_scenario(run)
    sigma = max(effective_peak_sigma(run.scenario), 1.0)

    wide = DelayExtractionConfig(expected_sigma_ps=sigma)
    cut = []  # per direction: (name, local pieces, remote pieces, narrow config)
    for direction, channels in CHANNELS.items():
        tags = [streams[c].tags_ps for c in channels]
        # pieces 1..n of the split are the intervals
        local, remote = (np.split(t, np.searchsorted(t, edges))[1:-1] for t in tags)
        center, _ = _interval_delay(0, direction, local, remote, wide)
        narrow = DelayExtractionConfig(
            search_center_ps=round(center),
            search_range_ps=max(1e6, 64.0 * sigma),
            coarse_bin_ps=max(int(4 * sigma) | 1, 101),
            expected_sigma_ps=sigma,
        )
        cut.append((direction, local, remote, narrow))

    delays = np.empty((len(cut), n_intervals))
    errors = np.empty((len(cut), n_intervals))
    for i in range(n_intervals):
        for d, (direction, local, remote, narrow) in enumerate(cut):
            delays[d, i], errors[d, i] = _interval_delay(i, direction, local, remote, narrow)

    offsets, _delays = two_way_combine(*delays)
    return OffsetSeries(
        interval_s=measurement_interval_s,
        epochs_s=(np.arange(n_intervals) + 0.5) * measurement_interval_s,
        offsets_ps=offsets,
        stderrs_ps=[0.5 * math.hypot(ab, ba) for ab, ba in errors.T],
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
    rows = np.column_stack((series.epochs_s, series.offsets_ps, series.stderrs_ps))
    np.savetxt(out, rows, fmt="%.12g", delimiter=",")
    return out.getvalue()


def read_offsets_csv(path) -> OffsetSeries:
    """Read an offset series CSV as written by ``offsets_csv``. Rows of
    epoch and offset only read with zero stderrs. Without an
    ``# interval_s:`` line the interval is the first epoch spacing, or 1 s."""
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    interval = None
    for line in lines:
        if line.startswith("# interval_s:"):
            interval = float(line.split(":", 1)[1])
    rows = [line for line in lines if line and not line.startswith(("#", "epoch_s"))]
    # a series of no samples is a valid file, which np.loadtxt would warn about
    table = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, 3))
    if table.shape[1] == 2:
        table = np.column_stack((table, np.zeros(len(table))))
    if table.shape[1] != 3:
        raise ValueError(f"{path}: rows need 2 or 3 columns, not {table.shape[1]}")
    epochs, offsets, stderrs = table.T
    if interval is None:
        interval = float(epochs[1] - epochs[0]) if epochs.size >= 2 else 1.0
    return OffsetSeries(
        interval_s=interval, epochs_s=epochs, offsets_ps=offsets, stderrs_ps=stderrs
    )
