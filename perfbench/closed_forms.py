"""The analytic model's documented closed forms, written again in NumPy.

The benchmark checks the program's outputs against these, so they share
no code with ``hollowlink``: they read a config's raw ``key = value``
numbers and broadcast over arrays of length (km) and forward power (mW).

- forward SpRS effective length  L * exp(-a L)
- backward SpRS effective length (1 - exp(-2 a L)) / (2 a)
- non-paralyzable dead time      R / (1 + R tau)
- coincidence window fraction    erf(W / (2 sqrt(2) sigma))
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

# Detector efficiency the SpRS coefficients are quoted at (docs/config.md).
RHO_REFERENCE_EFFICIENCY = 0.25
FWHM_TO_SIGMA = 2.355


def _dead_time(rate, dead_time_ns):
    return rate / (1.0 + rate * dead_time_ns * 1e-9)


def rates(v: dict, length_km, power_fwd_mw, power_bwd_mw, window_ps=None):
    """Singles, true-coincidence and accidental rates (counts/s) of one
    direction whose co-propagating power is ``power_fwd_mw``."""
    length = np.asarray(length_km, dtype=float)
    p_f = np.asarray(power_fwd_mw, dtype=float)
    p_b = np.asarray(power_bwd_mw, dtype=float)
    window = v["window_ps"] if window_ps is None else window_ps
    a = np.log(10.0) * v["atten_db_per_km"] / 10.0
    trans = 10.0 ** (-(v["atten_db_per_km"] * length + v["insertion_loss_db"]) / 10.0)
    l_fwd = length * np.exp(-a * length)
    l_bwd = -np.expm1(-2.0 * a * length) / (2.0 * a) if a > 0 else length
    rescale = v["det_remote_efficiency"] / RHO_REFERENCE_EFFICIENCY
    noise = (v["rho_fwd_cps_mw_km"] * p_f * l_fwd + v["rho_bwd_cps_mw_km"] * p_b * l_bwd) * rescale
    pairs = v["pair_rate_cps"]
    local_true = pairs * v["arm_eff_local"] * v["det_local_efficiency"] + v["det_local_dark_cps"]
    signal = pairs * v["arm_eff_remote"] * trans * v["det_remote_efficiency"]
    remote_true = signal + noise + v["det_remote_dark_cps"]
    local = _dead_time(local_true, v["det_local_dead_time_ns"])
    remote = _dead_time(remote_true, v["det_remote_dead_time_ns"])
    sigma_sq = v["det_local_jitter_sigma_ps"] ** 2 + v["det_remote_jitter_sigma_ps"] ** 2
    if not v["dcm_engaged"]:
        sigma_sq = sigma_sq + (abs(v["gvd_ps_nm_km"]) * v["fwhm_bandwidth_nm"] * length / FWHM_TO_SIGMA) ** 2
    fraction = erf(window / (2.0 * np.sqrt(2.0) * np.sqrt(sigma_sq)))
    coinc = (
        pairs * v["arm_eff_local"] * v["det_local_efficiency"] * v["arm_eff_remote"]
        * v["det_remote_efficiency"] * trans * fraction
        * (local / local_true) * (remote / remote_true)
    )
    accidental = local * remote * window * 1e-12
    return local, remote, coinc, accidental


def car(v: dict, length_km, power_mw, window_ps=None):
    """CAR at forward power ``power_mw``, the backward power keeping the
    config's backward/forward ratio (the CLI's ``--power`` rule)."""
    ratio = v["power_bwd_mw"] / v["power_fwd_mw"] if v["power_fwd_mw"] > 0 else 0.0
    _, _, coinc, accidental = rates(
        v, length_km, power_mw, np.multiply(power_mw, ratio), window_ps
    )
    return coinc / accidental


def direction_rates(v: dict, direction: str, window_ps=None):
    """Rates of the A->B ("ab") or B->A ("ba") direction at the config's
    own length; B->A sees the carrier powers swapped."""
    p_f, p_b = v["power_fwd_mw"], v["power_bwd_mw"]
    if direction == "ba":
        p_f, p_b = p_b, p_f
    return [float(x) for x in rates(v, v["length_km"], p_f, p_b, window_ps)]


def parse_values(text: str) -> dict:
    """Numbers of a ``key = value  # comment`` config file."""
    values = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, raw = (part.strip() for part in line.split("=", 1))
        low = raw.lower()
        values[key] = low == "true" if low in ("true", "false") else float(raw)
    return values
