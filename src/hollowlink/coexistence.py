"""Analytical coexistence envelope for a quantum channel sharing fiber
with a classical carrier.

Builds singles, true-coincidence and accidental rates out of the link
model and combines them into the coincidence-to-accidental ratio (CAR),
plus power/length scans, a CAR grid, and a maximum-distance solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateScenario, InvalidRange, ThresholdAboveBest
from .link_model import (
    RHO_REFERENCE_EFFICIENCY,
    ClassicalCarrier,
    DetectorModel,
    FiberLink,
    backward_sprs_rate,
    channel_transmittance,
    dead_time_throughput,
    dispersion_broadening,
    forward_sprs_rate,
)

# FWHM of a Gaussian in units of its sigma.
FWHM_TO_SIGMA = 2.355


@dataclass(frozen=True)
class PairSource:
    """Photon-pair source: generated pair rate and per-arm collection
    efficiencies (local/idler arm stays at the source site, remote/signal
    arm goes into the fiber)."""

    pair_rate_cps: float
    arm_eff_local: float
    arm_eff_remote: float
    fwhm_bandwidth_nm: float

    def __post_init__(self):
        if self.pair_rate_cps < 0:
            raise ValueError("pair_rate_cps must be >= 0")
        for eff in (self.arm_eff_local, self.arm_eff_remote):
            if not 0.0 <= eff <= 1.0:
                raise ValueError("arm efficiencies must be in [0, 1]")
        if self.fwhm_bandwidth_nm < 0:
            raise ValueError("fwhm_bandwidth_nm must be >= 0")


@dataclass(frozen=True)
class CoexistenceScenario:
    """Full parameter bundle for one direction of the shared link."""

    link: FiberLink
    carrier: ClassicalCarrier
    source: PairSource
    det_local: DetectorModel
    det_remote: DetectorModel
    window_ps: float
    dcm_engaged: bool = True

    def __post_init__(self):
        if self.window_ps <= 0:
            raise ValueError("window_ps must be > 0")


@dataclass(frozen=True)
class SinglesBreakdown:
    """Per-detector singles with noise components, before and after dead time."""

    local_true: float
    local_meas: float
    remote_true: float
    remote_meas: float
    remote_signal: float
    noise_fwd: float
    noise_bwd: float

    @property
    def duty_local(self) -> float:
        return self.local_meas / self.local_true if self.local_true > 0 else 1.0

    @property
    def duty_remote(self) -> float:
        return self.remote_meas / self.remote_true if self.remote_true > 0 else 1.0


def noise_rates(s: CoexistenceScenario) -> tuple[float, float]:
    """Detected (forward, backward) SpRS rates at the remote detector,
    rescaled from the reference detector efficiency to the scenario's."""
    rescale = s.det_remote.efficiency / RHO_REFERENCE_EFFICIENCY
    n_f = forward_sprs_rate(s.link, s.carrier) * rescale
    n_b = backward_sprs_rate(s.link, s.carrier) * rescale
    return n_f, n_b


def singles_breakdown(s: CoexistenceScenario) -> SinglesBreakdown:
    t_link = channel_transmittance(s.link)
    n_f, n_b = noise_rates(s)
    local_true = (
        s.source.pair_rate_cps * s.source.arm_eff_local * s.det_local.efficiency
        + s.det_local.dark_rate_cps
    )
    remote_signal = (
        s.source.pair_rate_cps
        * s.source.arm_eff_remote
        * t_link
        * s.det_remote.efficiency
    )
    remote_true = remote_signal + n_f + n_b + s.det_remote.dark_rate_cps
    return SinglesBreakdown(
        local_true=local_true,
        local_meas=dead_time_throughput(local_true, s.det_local),
        remote_true=remote_true,
        remote_meas=dead_time_throughput(remote_true, s.det_remote),
        remote_signal=remote_signal,
        noise_fwd=n_f,
        noise_bwd=n_b,
    )


def singles_rates(s: CoexistenceScenario) -> tuple[float, float]:
    """Measured (local, remote) singles rates in counts/s."""
    b = singles_breakdown(s)
    return b.local_meas, b.remote_meas


def peak_fraction(window_ps: float, sigma_peak_ps: float) -> float:
    """Fraction of a Gaussian coincidence peak inside a centered window."""
    if window_ps <= 0:
        raise ValueError("window_ps must be > 0")
    if sigma_peak_ps < 0:
        raise ValueError("sigma_peak_ps must be >= 0")
    if sigma_peak_ps == 0.0:
        return 1.0
    return math.erf(window_ps / (2.0 * math.sqrt(2.0) * sigma_peak_ps))


def effective_peak_sigma(s: CoexistenceScenario) -> float:
    """1-sigma width of the coincidence peak: both detectors' jitter plus
    dispersion broadening unless cancellation is engaged."""
    sigma_sq = s.det_local.jitter_sigma_ps**2 + s.det_remote.jitter_sigma_ps**2
    if not s.dcm_engaged:
        disp_fwhm = dispersion_broadening(s.link, s.source.fwhm_bandwidth_nm)
        sigma_sq += (disp_fwhm / FWHM_TO_SIGMA) ** 2
    return math.sqrt(sigma_sq)


def true_coincidence_rate(s: CoexistenceScenario) -> float:
    """Detected coincidence rate inside the window (counts/s), including
    both detectors' dead-time duty factors."""
    b = singles_breakdown(s)
    fraction = peak_fraction(s.window_ps, effective_peak_sigma(s))
    r_cc = (
        s.source.pair_rate_cps
        * s.source.arm_eff_local
        * s.det_local.efficiency
        * s.source.arm_eff_remote
        * s.det_remote.efficiency
        * channel_transmittance(s.link)
        * fraction
    )
    return r_cc * b.duty_local * b.duty_remote


def accidental_rate(s: CoexistenceScenario) -> float:
    """Uncorrelated-background coincidence rate S_local * S_remote * window."""
    local_meas, remote_meas = singles_rates(s)
    return local_meas * remote_meas * s.window_ps * 1e-12


def car(s: CoexistenceScenario) -> float:
    """Coincidence-to-accidental ratio. Raises DegenerateScenario when the
    accidental rate vanishes (callers report the ratio as unbounded)."""
    acc = accidental_rate(s)
    if acc <= 0.0:
        raise DegenerateScenario("accidental rate is zero; CAR is unbounded")
    return true_coincidence_rate(s) / acc


def with_length(s: CoexistenceScenario, length_km: float) -> CoexistenceScenario:
    return replace(s, link=replace(s.link, length_km=length_km))


def with_power(s: CoexistenceScenario, power_mw: float) -> CoexistenceScenario:
    """Scenario with the forward carrier power set to ``power_mw`` and the
    backward power scaled to preserve the base backward/forward ratio
    (a forward-only base stays forward-only, a backward-only base keeps
    its backward power; its own power returns it)."""
    base = s.carrier
    if power_mw == base.power_fwd_mw:
        return s
    bwd = base.power_bwd_mw
    if base.power_fwd_mw > 0:
        bwd = power_mw * (bwd / base.power_fwd_mw)
    carrier = replace(base, power_fwd_mw=power_mw, power_bwd_mw=bwd)
    return replace(s, carrier=carrier)


def scan_power(
    s: CoexistenceScenario, p_min_mw: float, p_max_mw: float, n_points: int
) -> list[tuple[float, float]]:
    """CAR versus carrier power at the scenario's fixed length."""
    if not (0 <= p_min_mw < p_max_mw) or n_points < 2:
        raise InvalidRange("need 0 <= p_min < p_max and n_points >= 2")
    powers = np.linspace(p_min_mw, p_max_mw, n_points)
    return list(zip(powers.tolist(), grid(s, [s.link.length_km], powers)[0].tolist()))


def scan_length(
    s: CoexistenceScenario, l_min_km: float, l_max_km: float, n_points: int
) -> list[tuple[float, float]]:
    """CAR versus fiber length at the scenario's fixed carrier power."""
    if not (0 <= l_min_km < l_max_km) or n_points < 2:
        raise InvalidRange("need 0 <= l_min < l_max and n_points >= 2")
    lengths = np.linspace(l_min_km, l_max_km, n_points)
    column = grid(s, lengths, [s.carrier.power_fwd_mw])[:, 0]
    return list(zip(lengths.tolist(), column.tolist()))


def grid(
    s: CoexistenceScenario,
    lengths_km: np.ndarray,
    powers_mw: np.ndarray,
) -> np.ndarray:
    """CAR matrix over (length, power); cell (i, j) equals car() at
    (lengths_km[i], powers_mw[j]). Cells are independent, so evaluation
    order cannot affect the result."""
    lengths = np.asarray(lengths_km, dtype=float)
    powers = np.asarray(powers_mw, dtype=float)
    if lengths.size < 1 or powers.size < 1:
        raise InvalidRange("grid axes must be non-empty")
    if np.any(lengths < 0) or np.any(powers < 0):
        raise InvalidRange("grid axes must be non-negative")
    out = np.empty((lengths.size, powers.size))
    for i, l in enumerate(lengths):
        s_l = with_length(s, float(l))
        for j, p in enumerate(powers):
            out[i, j] = car(with_power(s_l, float(p)))
    return out


@dataclass(frozen=True)
class MaxDistanceResult:
    distance_km: float
    not_reachable: bool  # True when CAR never drops below threshold by l_hi


def max_distance(
    s: CoexistenceScenario, car_threshold: float, l_hi_km: float
) -> MaxDistanceResult:
    """Largest length (to 0.1 km, by bisection) at which CAR stays at or
    above ``car_threshold``."""
    if car_threshold <= 0 or l_hi_km <= 0:
        raise InvalidRange("car_threshold and l_hi_km must be > 0")
    if car(with_length(s, 0.0)) < car_threshold:
        raise ThresholdAboveBest(
            "CAR at zero length is already below the threshold"
        )
    if car(with_length(s, l_hi_km)) >= car_threshold:
        return MaxDistanceResult(distance_km=l_hi_km, not_reachable=True)
    lo, hi = 0.0, l_hi_km
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        if car(with_length(s, mid)) >= car_threshold:
            lo = mid
        else:
            hi = mid
    return MaxDistanceResult(distance_km=lo, not_reachable=False)


def scan_csv(rows: list[tuple[float, float, float]]) -> str:
    """Render (length_km, power_mw, car) rows as CSV with LF endings."""
    lines = ["length_km,power_mw,car"]
    for length_km, power_mw, ratio in rows:
        lines.append("%.12g,%.12g,%.12g" % (length_km, power_mw, ratio))
    return "\n".join(lines) + "\n"
