"""Time-deviation and Allan-deviation estimators plus white-noise
synthesizers.

Overlapping estimators throughout. Both statistics are built from the
same second-difference sums, so the algebraic identity
TDEV(tau) = tau/sqrt(3) * MDEV(tau) holds exactly. Confidence intervals
use a deliberately conservative chi-square approximation (block-counted
degrees of freedom), adequate for the white noise types handled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from .errors import SeriesTooShort, TooFewPoints


@dataclass(frozen=True)
class PhaseSeries:
    """Evenly sampled time-error series x_i, in seconds."""

    tau0_s: float
    x_s: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "x_s", np.ascontiguousarray(self.x_s, dtype=np.float64)
        )
        if self.tau0_s <= 0:
            raise ValueError("tau0_s must be > 0")
        if self.x_s.size < 4:
            raise ValueError("need at least 4 samples")

    @classmethod
    def from_offset_series(cls, series) -> "PhaseSeries":
        """Convert a picosecond OffsetSeries into a PhaseSeries (seconds)."""
        return cls(tau0_s=series.interval_s, x_s=series.offsets_ps * 1e-12)


@dataclass(frozen=True)
class StabilityCurve:
    """Deviation values and chi-square confidence bounds per averaging
    time, with the degrees of freedom the bounds use (None: unknown)."""

    taus_s: np.ndarray
    devs: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    n_used: np.ndarray
    edf: np.ndarray | None = None

    def points(self):
        return list(zip(self.taus_s, self.devs, self.ci_lo, self.ci_hi, self.n_used))


def _second_diffs(x: np.ndarray, m: int) -> np.ndarray:
    return x[2 * m :] - 2.0 * x[m:-m] + x[: -2 * m]


def _window_sums(d: np.ndarray, m: int) -> np.ndarray:
    cs = np.concatenate(([0.0], np.cumsum(d)))
    return cs[m:] - cs[:-m]


def _default_ms(n: int, min_len_factor: int) -> list[int]:
    ms, m = [], 1
    while n >= min_len_factor * m + 1:
        ms.append(m)
        m *= 2
    return ms


def _ci(dev: float, edf: float) -> tuple[float, float]:
    if dev == 0.0:
        return 0.0, 0.0
    # chi-square quantiles as scipy.stats.chi2.ppf computes them, without
    # importing scipy.stats (about 0.35 s of start-up)
    lo = dev * math.sqrt(edf / (2.0 * gammaincinv(edf / 2.0, 0.975)))
    hi = dev * math.sqrt(edf / (2.0 * gammaincinv(edf / 2.0, 0.025)))
    return lo, hi


def _deviations(series: PhaseSeries, ms, span: int, terms) -> StabilityCurve:
    """Deviation at averaging times m * tau0 (octave grid by default): the
    root of sum(terms**2) / norm, where ``terms(x, m)`` returns the terms
    and their normaliser; averaging factor m needs ``span`` * m + 1 samples."""
    x = series.x_s
    n = x.size
    ms = ms if ms is not None else _default_ms(n, span)
    taus, devs, los, his, counts, edfs = [], [], [], [], [], []
    for m in ms:
        m = int(m)
        if n < span * m + 1:
            raise SeriesTooShort(f"need N >= {span}m+1 = {span * m + 1}, have {n}", m=m)
        d, norm = terms(x, m)
        taus.append(m * series.tau0_s)
        devs.append(math.sqrt(float(np.sum(d**2)) / norm))
        edfs.append(max(1.0, (n - 1) // (span * m)))
        lo, hi = _ci(devs[-1], edfs[-1])
        los.append(lo)
        his.append(hi)
        counts.append(d.size)
    return StabilityCurve(
        np.array(taus), np.array(devs), np.array(los), np.array(his),
        np.array(counts, dtype=np.int64), np.array(edfs),
    )


def tdev(series: PhaseSeries, ms: list[int] | None = None) -> StabilityCurve:
    """Overlapping time deviation at averaging times m * tau0 (octave grid
    by default)."""
    def terms(x, m):
        sums = _window_sums(_second_diffs(x, m), m)
        return sums, 6.0 * m * m * sums.size

    return _deviations(series, ms, 3, terms)


def mdev(series: PhaseSeries, ms: list[int] | None = None) -> StabilityCurve:
    """Overlapping modified Allan deviation; shares its core sums with
    tdev, so tdev = tau/sqrt(3) * mdev exactly."""
    base = tdev(series, ms)
    devs = base.devs * math.sqrt(3.0) / base.taus_s
    scale = devs / np.where(base.devs > 0, base.devs, 1.0)
    return StabilityCurve(
        base.taus_s, devs, base.ci_lo * scale, base.ci_hi * scale, base.n_used,
        base.edf,
    )


def adev(series: PhaseSeries, ms: list[int] | None = None) -> StabilityCurve:
    """Overlapping Allan deviation at averaging times m * tau0."""
    def terms(x, m):
        d = _second_diffs(x, m)
        return d, 2.0 * (m * series.tau0_s) ** 2 * d.size

    return _deviations(series, ms, 2, terms)


def synthesize_noise(
    kind: str, level: float, tau0_s: float, n: int, seed: int
) -> PhaseSeries:
    """Synthesize a power-law phase series.

    ``white-pm``: i.i.d. Gaussian x with sigma = level (seconds), so
    TDEV(tau0) = level. ``white-fm``: random-walk phase from i.i.d.
    frequency steps scaled so ADEV(tau0) = level.
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    if kind == "white-pm":
        x = level * rng.standard_normal(n)
    elif kind == "white-fm":
        x = np.cumsum(level * tau0_s * rng.standard_normal(n))
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    return PhaseSeries(tau0_s=tau0_s, x_s=x)


def fit_slope(
    curve: StabilityCurve, tau_range: tuple[float, float] | None = None
) -> tuple[float, float]:
    """Weighted least-squares log-log slope of the stability curve and its
    stderr. Each point is weighted by its EDF, since the variance of a
    log deviation is about 1/(2 EDF); a curve without EDFs is fitted
    unweighted. The stderr scales the weights by the fit's residuals."""
    taus = curve.taus_s
    devs = curve.devs
    mask = devs > 0
    if tau_range is not None:
        mask &= (taus >= tau_range[0]) & (taus <= tau_range[1])
    if int(np.count_nonzero(mask)) < 3:
        raise TooFewPoints("need at least 3 positive points in range")
    lt = np.log10(taus[mask])
    ld = np.log10(devs[mask])
    w = curve.edf[mask] if curve.edf is not None else np.ones(lt.size)
    k = lt.size
    t_mean = float(np.sum(w * lt) / np.sum(w))
    d_mean = float(np.sum(w * ld) / np.sum(w))
    sxx = float(np.sum(w * (lt - t_mean) ** 2))
    slope = float(np.sum(w * (lt - t_mean) * (ld - d_mean)) / sxx)
    resid = ld - (d_mean + slope * (lt - t_mean))
    var = float(np.sum(w * resid**2)) / max(k - 2, 1)
    return slope, math.sqrt(var / sxx)


def stability_csv(curve: StabilityCurve) -> str:
    """Stability CSV export: ``tau_s,deviation,ci_lo,ci_hi,n``."""
    lines = ["tau_s,deviation,ci_lo,ci_hi,n"]
    for tau, dev, lo, hi, n in curve.points():
        lines.append("%.12g,%.12g,%.12g,%.12g,%d" % (tau, dev, lo, hi, n))
    return "\n".join(lines) + "\n"
