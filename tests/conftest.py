from dataclasses import replace

import numpy as np
import pytest

from hollowlink.coexistence import CoexistenceScenario, PairSource
from hollowlink.event_sim import CHANNELS, SimStreams
from hollowlink.link_model import ClassicalCarrier, DetectorModel, FiberLink

PAPER_FIBER = dict(
    atten_db_per_km=0.17,
    gvd_ps_nm_km=3.7,
    rho_fwd_cps_mw_km=1200.0,
    rho_bwd_cps_mw_km=2000.0,
)


def paper_link(length_km, insertion_loss_db=0.0):
    return FiberLink(length_km=length_km, insertion_loss_db=insertion_loss_db, **PAPER_FIBER)


def paper_detector():
    return DetectorModel(
        efficiency=0.25, dark_rate_cps=5000.0, jitter_sigma_ps=200.0, dead_time_ns=1000.0
    )


def desk_scenario(
    length_km=25.0,
    power_fwd_mw=1.0,
    power_bwd_mw=1.0,
    pair_rate_cps=2.0e5,
    arm_eff=0.5,
    jitter_ps=60.0,
    window_ps=500.0,
    dark_cps=100.0,
    dead_time_ns=50.0,
    dcm_engaged=True,
):
    """Small, fast scenario with noise terms that still matter: used by the
    Monte Carlo agreement tests."""
    det = DetectorModel(
        efficiency=0.9,
        dark_rate_cps=dark_cps,
        jitter_sigma_ps=jitter_ps,
        dead_time_ns=dead_time_ns,
    )
    return CoexistenceScenario(
        link=paper_link(length_km, insertion_loss_db=1.0),
        carrier=ClassicalCarrier(power_fwd_mw=power_fwd_mw, power_bwd_mw=power_bwd_mw),
        source=PairSource(
            pair_rate_cps=pair_rate_cps,
            arm_eff_local=arm_eff,
            arm_eff_remote=arm_eff,
            fwhm_bandwidth_nm=1.0,
        ),
        det_local=det,
        det_remote=det,
        window_ps=window_ps,
        dcm_engaged=dcm_engaged,
    )


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(20260809)))


def without_remote_tags(streams, direction, intervals, interval_ps):
    """``streams`` with the remote tags of ``direction`` removed from the
    given measurement intervals (aligned to t=0), so that those
    intervals have no peak in that direction."""
    channel = CHANNELS[direction][1]
    stream = streams[channel]
    kept = stream.tags_ps[~np.isin(stream.tags_ps // interval_ps, intervals)]
    doctored = list(streams)
    doctored[channel] = replace(stream, tags_ps=kept)
    return SimStreams(*doctored)
