"""Effective-bandwidth stochastic network calculus for tandem paths.

Computes probabilistic end-to-end backlog and delay bounds for flows
crossing a series of work-conserving hops with cross traffic, and validates
them against a discrete-time FIFO tandem simulator driven by Markov-
modulated on-off sources.

``import sncalc`` loads no numpy, and no part of sncalc imports scipy.  The
simulator names (``simulate_tandem``, ``validate_samples``, ...) load
:mod:`sncalc.simulator`, and with it numpy, on first use.
"""

from .bounds import (
    INFINITE_HORIZON,
    BoundResult,
    HorizonError,
    NetworkPath,
    StabilityError,
    ThetaSearchConfig,
    ThetaSearchResult,
    backlog_bound,
    backlog_violation_at_theta,
    closed_form_backlog,
    closed_form_delay,
    default_theta_search,
    delay_bound,
    delay_violation_at_theta,
    minimize_over_theta,
    stability_margin,
)
from .envelopes import (
    Aggregate,
    ConstantRate,
    ConstantServer,
    Leftover,
    MmooParams,
    MmooTraffic,
    ServiceModel,
    TrafficModel,
    mmoo_effective_bandwidth,
    service_effective_capacity,
    traffic_effective_bandwidth,
    traffic_peak_rate,
)
from .scenario import (
    CSV_HEADER,
    ResultRow,
    Scenario,
    ScenarioError,
    parse_scenario,
    parse_scenario_file,
    write_results_csv,
)

__version__ = "0.1.0"

_SIMULATOR_NAMES = {"SimResult", "SimScenario", "ValidationReport", "simulate_replication",
                    "simulate_tandem", "validate_samples"}


def __getattr__(name):
    if name in _SIMULATOR_NAMES:
        from . import simulator
        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
