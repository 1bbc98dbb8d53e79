"""Cross-correlation of timestamp streams, peak fitting, empirical CAR
estimation, and one-way delay extraction.

Correlation uses a sorted-window sweep (binary-searched windows per tag,
vectorized) that returns exactly the same counts as brute-force pairwise
differencing. It works through b in blocks of ``_B_BLOCK`` tags and
builds the differences of each block in runs of whole b tags holding at
most ``_MAX_DIFFS`` differences (a single b tag with more matches is a
run of its own), so the memory it needs beyond its inputs is set by
those two constants (or by the matches of one such b tag), not by the
search range.

Delay extraction is two-stage: a wide coarse histogram locates the
peak, a fine histogram around it is fitted with a Gaussian-plus-flat
model. Fine histograms use an odd number of odd-width bins so the
integer-picosecond bin layout is exactly symmetric around the search
center, and fits run in peak-relative coordinates. Each pair of streams
is solved in one canonical orientation (b is the stream with fewer
tags), and the other orientation returns the negated result, so
extract_delay(a, b) == -extract_delay(b, a) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import curve_fit

from .errors import NoConvergence, NoPeak, ZeroBackground, ZeroBinWidth
from .event_sim import sorted_tags

_B_BLOCK = 1_000_000  # tags of b processed per correlation block
# Differences held at once within a block. On a 17 M-difference wide
# search (2-vCPU VM), runs of 2^19-2^21 took 0.38 s and 40-96 MB; 2^18
# took 0.53 s, and 2^23 or more 0.6 s and 340+ MB.
_MAX_DIFFS = 1 << 20


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Binned pairwise time differences t_b - t_a around a center offset."""

    bin_width_ps: float
    center_offset_ps: float
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "counts", np.ascontiguousarray(self.counts, dtype=np.int64)
        )

    def bin_centers(self) -> np.ndarray:
        # center-relative first: exact for integer-ps layouts
        n = self.counts.size
        rel = (np.arange(n) - (n - 1) / 2.0) * self.bin_width_ps
        return self.center_offset_ps + rel


@dataclass(frozen=True)
class PeakFit:
    """Gaussian-plus-flat fit of a correlation peak (amplitudes in
    counts per bin)."""

    centroid_ps: float
    centroid_stderr_ps: float
    sigma_ps: float
    amplitude_per_bin: float
    background_per_bin: float
    goodness: float  # reduced chi-square with Poisson variances


def _match_ranges(a: np.ndarray, b_block: np.ndarray, d_lo: float, d_hi: float):
    """Per b tag: index of the first a tag with t_b - t_a in [d_lo, d_hi],
    and how many a tags match."""
    lo_idx = np.searchsorted(a, b_block - d_hi, side="left")
    hi_idx = np.searchsorted(a, b_block - d_lo, side="right")
    return lo_idx, hi_idx - lo_idx


def _diffs(a: np.ndarray, b_block: np.ndarray, lo_idx: np.ndarray, counts: np.ndarray):
    """The differences t_b - a[lo_idx + k] for k < counts, b tag by b tag."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    a_idx = np.repeat(lo_idx - (np.cumsum(counts) - counts), counts)
    a_idx += np.arange(total)
    diffs = np.repeat(b_block, counts)
    diffs -= a[a_idx]
    return diffs


def _window_diffs(a: np.ndarray, b_block: np.ndarray, d_lo: float, d_hi: float):
    """All differences t_b - t_a in [d_lo, d_hi] for one block of b."""
    return _diffs(a, b_block, *_match_ranges(a, b_block, d_lo, d_hi))


def _binned_counts(a, b, lo_edge, n_bins, width, hi):
    """Histogram the differences in [lo_edge, hi] into n_bins of ``width``
    starting at lo_edge (out-of-range bin indices are clipped).

    Each block of b is cut into runs of whole b tags with at most
    ``_MAX_DIFFS`` differences, so memory is bounded by the match count
    of a run, not by the search range."""
    counts = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, b.size, _B_BLOCK):
        block = b[start : start + _B_BLOCK]
        lo_idx, n_match = _match_ranges(a, block, lo_edge, hi)
        ends = np.cumsum(n_match)
        i, done = 0, 0
        while done < ends[-1]:
            j = max(int(np.searchsorted(ends, done + _MAX_DIFFS, side="right")), i + 1)
            diffs = _diffs(a, block[i:j], lo_idx[i:j], n_match[i:j])
            i, done = j, int(ends[j - 1])
            if diffs.size == 0:
                continue
            idx = np.floor((diffs - lo_edge) / width).astype(np.int64)
            np.clip(idx, 0, n_bins - 1, out=idx)
            counts += np.bincount(idx, minlength=n_bins)
    return counts


def _histogram(a, b, width, range_ps, center) -> CoincidenceHistogram:
    """Histogram of t_b - t_a over sorted int64 tags: ceil(range/width)
    bins of ``width`` from center - range/2, accepting the differences
    in [center - range/2, center + range/2] (one on the upper edge of
    the last bin is counted in it)."""
    n_bins = int(math.ceil(range_ps / width))
    lo = center - range_ps / 2.0
    counts = _binned_counts(a, b, lo, n_bins, width, center + range_ps / 2.0)
    return CoincidenceHistogram(float(width), float(center), counts)


def cross_correlate(
    a,
    b,
    bin_width_ps: float,
    range_ps: float,
    center_ps: float = 0.0,
) -> CoincidenceHistogram:
    """Histogram of differences t_b - t_a with |diff - center| <= range/2,
    in ceil(range/bin_width) bins starting at center - range/2.

    Counts equal brute-force pairwise differencing exactly; runtime is
    O((n_a + n_b) log + matches). Memory beyond the inputs is bounded by
    ``_B_BLOCK`` b tags and ``_MAX_DIFFS`` differences at a time (or the
    matches of one b tag, if more), however wide ``range_ps`` is.
    """
    if bin_width_ps <= 0:
        raise ZeroBinWidth("bin_width_ps must be > 0")
    if range_ps <= 0:
        raise ZeroBinWidth("range_ps must be > 0")
    a_tags = sorted_tags(a, "a")
    b_tags = sorted_tags(b, "b")
    return _histogram(a_tags, b_tags, bin_width_ps, range_ps, center_ps)


def _gauss_flat(x, amp, mu, sigma, base):
    return amp * np.exp(-0.5 * ((x - mu) / sigma) ** 2) + base


def fit_peak(h: CoincidenceHistogram) -> PeakFit:
    """Least-squares Gaussian + constant fit of the histogram peak.

    Initialization: amplitude = max bin, centroid = argmax bin center,
    sigma = FWHM estimate / 2.355, background = median bin. Converges on
    relative parameter steps below 1e-8 within a 200-iteration budget.
    """
    counts = h.counts.astype(np.float64)
    if counts.size < 5:
        raise NoPeak("histogram needs at least 5 bins")
    background = float(np.median(counts))
    peak_idx = int(np.argmax(counts))
    peak_val = counts[peak_idx]
    if peak_val <= background + 5.0 * math.sqrt(max(background, 1.0)):
        raise NoPeak("maximum bin not significant above background")

    centers = h.bin_centers()
    x0 = centers[peak_idx]
    x = centers - x0  # small, exactly representable offsets
    half_level = background + 0.5 * (peak_val - background)
    fwhm_bins = max(int(np.count_nonzero(counts >= half_level)), 1)
    sigma0 = max(fwhm_bins * h.bin_width_ps / 2.355, h.bin_width_ps / 2.355)
    p0 = (peak_val, 0.0, sigma0, background)
    try:
        popt, _ = curve_fit(
            _gauss_flat, x, counts, p0=p0, xtol=1e-8, maxfev=1000
        )
    except RuntimeError as exc:
        raise NoConvergence(str(exc)) from exc
    amp, mu, sigma, base = popt
    sigma = abs(float(sigma))
    if not (math.isfinite(sigma) and sigma > 0 and math.isfinite(mu)):
        raise NoConvergence("degenerate fitted parameters")
    model = _gauss_flat(x, *popt)
    dof = max(counts.size - 4, 1)
    goodness = float(np.sum((counts - model) ** 2 / np.maximum(model, 1.0)) / dof)
    n_peak = max(amp * sigma * math.sqrt(2.0 * math.pi) / h.bin_width_ps, 1.0)
    return PeakFit(
        centroid_ps=float(x0 + mu),
        centroid_stderr_ps=float(sigma / math.sqrt(n_peak)),
        sigma_ps=sigma,
        amplitude_per_bin=float(amp),
        background_per_bin=float(max(base, 0.0)),
        goodness=goodness,
    )


def estimate_car(h: CoincidenceHistogram, fit: PeakFit, window_ps: float) -> float:
    """Empirical coincidence-to-accidental ratio inside a window centered
    on the fitted centroid, against the fitted flat background."""
    if window_ps <= 0:
        raise ValueError("window_ps must be > 0")
    centers = h.bin_centers()
    sel = np.abs(centers - fit.centroid_ps) <= window_ps / 2.0
    n_sel = int(np.count_nonzero(sel))
    if n_sel == 0:
        raise NoPeak("window selects no bins")
    bg_total = fit.background_per_bin * n_sel
    if bg_total <= 0.0:
        raise ZeroBackground("fitted background is zero; ratio unbounded")
    in_window = float(h.counts[sel].sum())
    return (in_window - bg_total) / bg_total


_COARSE_TAGS = 50_000
_MIN_COINCIDENCES = 10


@dataclass(frozen=True)
class DelayExtractionConfig:
    """Two-stage peak search settings. Bin widths and counts are kept odd
    so histograms are exactly symmetric around their (integer) centers.
    The coarse stage reads the first ``_COARSE_TAGS`` tags of b; a fine
    window with fewer than ``_MIN_COINCIDENCES`` differences is no peak."""

    search_center_ps: float = 0.0
    search_range_ps: float = 2e9  # +-1 ms
    coarse_bin_ps: int = 1001
    expected_sigma_ps: float | None = None


def _odd(n: int) -> int:
    n = max(int(n), 1)
    return n if n % 2 == 1 else n + 1


def _canonical(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether (a, b) is the orientation delays are computed in: b has
    fewer tags, or, at equal counts, the smaller tag where they first
    differ. Depends only on the unordered pair."""
    if a.size != b.size:
        return b.size < a.size
    differ = np.flatnonzero(a != b)
    return differ.size == 0 or bool(b[differ[0]] < a[differ[0]])


def extract_delay(a, b, config: DelayExtractionConfig | None = None):
    """Locate the correlation peak of t_b - t_a and return
    (delay_ps, stderr_ps).

    Coarse stage: wide bins over the full search range, on a bounded
    prefix of b for speed. Fine stage: narrow symmetric bins around the
    coarse estimate, Gaussian-fitted; a near-delta peak (jitter below one
    bin) falls back to the exact count-weighted mean. The search runs
    with b the stream of fewer tags; called the other way round, it
    solves the swapped streams around the mirrored center and negates
    the delay, so the result is antisymmetric by construction.
    """
    cfg = config or DelayExtractionConfig()
    a_tags = sorted_tags(a, "a")
    b_tags = sorted_tags(b, "b")
    if a_tags.size == 0 or b_tags.size == 0:
        raise NoPeak("empty input stream")
    if _canonical(a_tags, b_tags):
        return _extract_delay(a_tags, b_tags, cfg)
    mirrored = replace(cfg, search_center_ps=-cfg.search_center_ps)
    delay, stderr = _extract_delay(b_tags, a_tags, mirrored)
    return -delay, stderr


def _extract_delay(a_tags, b_tags, cfg: DelayExtractionConfig):
    """``extract_delay`` on sorted, non-empty int64 tags, as given."""
    # --- coarse stage ---
    w_c = _odd(cfg.coarse_bin_ps)
    n_c = _odd(math.ceil(cfg.search_range_ps / w_c))
    center_c = int(round(cfg.search_center_ps))
    b_prefix = b_tags[:_COARSE_TAGS]
    coarse = _histogram(a_tags, b_prefix, w_c, n_c * w_c, center_c)
    bg = float(np.median(coarse.counts))
    peak_idx = int(np.argmax(coarse.counts))
    if coarse.counts[peak_idx] <= bg + 5.0 * math.sqrt(max(bg, 1.0)):
        raise NoPeak("no significant peak in coarse search range")
    # refine the center on raw differences around the winning bin
    lo_win = center_c - n_c * w_c / 2.0 + (peak_idx - 2) * w_c
    near = _window_diffs(a_tags, b_prefix, lo_win, lo_win + 5 * w_c)
    if near.size == 0:
        raise NoPeak("no differences near coarse peak")
    c0 = int(np.rint(np.mean(near)))

    # --- fine stage ---
    half = 2.0 * w_c
    if cfg.expected_sigma_ps:
        w_f = _odd(round(cfg.expected_sigma_ps / 5.0))
        half = max(half, 8.0 * cfg.expected_sigma_ps)
    else:
        w_f = _odd(round(w_c / 50.0))
    n_f = _odd(math.ceil(2.0 * half / w_f))
    fine = _histogram(a_tags, b_tags, w_f, n_f * w_f, c0)
    total = int(fine.counts.sum())
    if total < _MIN_COINCIDENCES:
        raise NoPeak(f"only {total} differences in fine window")

    top = int(np.argmax(fine.counts))
    if fine.counts[top] >= 0.9 * total:
        # effectively unjittered peak: the weighted mean is exact
        lo_bin = c0 - n_f * w_f / 2.0 + (top - 1) * w_f
        diffs = _window_diffs(a_tags, b_tags, lo_bin, lo_bin + 3 * w_f)
        mean = float(np.mean(diffs))
        stderr = float(np.std(diffs) / math.sqrt(diffs.size))
        return mean, stderr

    fit = fit_peak(fine)
    return fit.centroid_ps, fit.centroid_stderr_ps


def empirical_car(a, b, window_ps: float, config: DelayExtractionConfig | None = None):
    """Estimate CAR from two streams: locate the peak, histogram a wide
    region around it, fit, and apply ``estimate_car``; a fitted
    background of zero gives a CAR of ``math.inf`` (unbounded), still
    with its histogram and fit.

    The counting window is snapped to 25 whole bins; the returned
    ``window_eff_ps`` is the width actually used and should also be used
    on the analytic side of any comparison.
    """
    delay, _ = extract_delay(a, b, config)  # checks that a and b are sorted
    a_tags = np.asarray(getattr(a, "tags_ps", a), dtype=np.int64)
    b_tags = np.asarray(getattr(b, "tags_ps", b), dtype=np.int64)
    bin_w = _odd(round(window_ps / 25.0))
    window_eff = 25 * bin_w
    n_bins = 401  # ~16 window-widths of background around the peak
    hist = _histogram(a_tags, b_tags, bin_w, n_bins * bin_w, int(round(delay)))
    fit = fit_peak(hist)
    try:
        value = estimate_car(hist, fit, float(window_eff))
    except ZeroBackground:
        value = math.inf
    return value, float(window_eff), hist, fit


def histogram_csv(h: CoincidenceHistogram) -> str:
    """Histogram CSV export: ``bin_center_ps,counts`` with LF endings."""
    lines = ["bin_center_ps,counts"]
    for center, count in zip(h.bin_centers(), h.counts):
        lines.append("%.12g,%d" % (center, count))
    return "\n".join(lines) + "\n"
