"""Coexistence simulator for single-photon time transfer sharing
hollow-core fiber with classical optical carriers."""

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
from .coexistence import (
    CoexistenceScenario,
    MaxDistanceResult,
    PairSource,
    accidental_rate,
    car,
    effective_peak_sigma,
    grid,
    max_distance,
    peak_fraction,
    scan_length,
    scan_power,
    singles_rates,
    true_coincidence_rate,
)
from .event_sim import (
    ClockError,
    SimRun,
    SimStreams,
    TimeTagStream,
    apply_dead_time,
    generate_pairs,
    inject_poisson_noise,
    run_scenario,
    simulate_direction,
    transmit_and_detect,
)
from .coincidence import (
    CoincidenceHistogram,
    DelayExtractionConfig,
    PeakFit,
    cross_correlate,
    empirical_car,
    estimate_car,
    extract_delay,
    fit_peak,
)
from .twtt import OffsetSeries, run_session, two_way_combine
from .stability import (
    PhaseSeries,
    StabilityCurve,
    adev,
    fit_slope,
    mdev,
    synthesize_noise,
    tdev,
)
from .config import list_presets, load_config, load_preset

__version__ = "0.1.0"
