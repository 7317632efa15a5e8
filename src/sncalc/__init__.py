"""Effective-bandwidth stochastic network calculus for tandem paths.

Computes probabilistic end-to-end backlog and delay bounds for flows
crossing a series of work-conserving hops with cross traffic, and validates
them against a discrete-time FIFO tandem simulator driven by Markov-
modulated on-off sources.
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
    backlog_violation,
    backlog_violation_at_theta,
    closed_form_backlog,
    closed_form_delay,
    default_theta_search,
    delay_bound,
    delay_violation,
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
    traffic_mean_rate,
    traffic_peak_rate,
)
from .scenario import (
    CSV_HEADER,
    ResultRow,
    Scenario,
    ScenarioError,
    parse_scenario,
    parse_scenario_file,
    serialize_scenario,
    write_results_csv,
)
from .simulator import (
    SimResult,
    SimScenario,
    ValidationReport,
    empirical_tail,
    mmoo_source_step,
    simulate_replication,
    simulate_tandem,
    validate_samples,
)

__version__ = "0.1.0"
