"""Effective-bandwidth traffic models and effective-capacity service models.

All rates are bits per slot and theta carries units of 1/bits, so exponents
of the form theta * A(t) are dimensionless.  Every evaluation here is a pure
function of frozen model values and is safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

__all__ = [
    "MmooParams",
    "ConstantRate",
    "MmooTraffic",
    "Aggregate",
    "TrafficModel",
    "ConstantServer",
    "Leftover",
    "ServiceModel",
    "mmoo_effective_bandwidth",
    "traffic_effective_bandwidth",
    "service_effective_capacity",
    "traffic_peak_rate",
]


@dataclass(frozen=True)
class MmooParams:
    """Markov-modulated on-off source in per-slot units.

    peak_rate   bits emitted per slot while the source is on
    r_on_off    1 / E[on sojourn]  (slots^-1)
    r_off_on    1 / E[off sojourn] (slots^-1)

    A source with ``r_on_off == 0`` never leaves the on state once there.
    The fully degenerate case (both rates zero) has no stationary
    distribution and is rejected; model it as :class:`ConstantRate` instead.
    """

    peak_rate: float
    r_on_off: float
    r_off_on: float

    def __post_init__(self):
        if not (math.isfinite(self.peak_rate) and self.peak_rate > 0):
            raise ValueError(f"peak_rate must be positive and finite, got {self.peak_rate!r}")
        if self.r_on_off < 0 or self.r_off_on < 0:
            raise ValueError("transition rates must be non-negative")
        if self.r_on_off == 0 and self.r_off_on == 0:
            raise ValueError(
                "degenerate on-off source (r_on_off == r_off_on == 0); "
                "use ConstantRate for a source that never switches"
            )

    @property
    def on_probability(self) -> float:
        """Stationary probability of the on state."""
        return self.r_off_on / (self.r_on_off + self.r_off_on)

    @property
    def mean_rate(self) -> float:
        return self.peak_rate * self.on_probability


@dataclass(frozen=True)
class ConstantRate:
    """Deterministic source emitting ``rate`` bits every slot."""

    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"rate must be non-negative and finite, got {self.rate!r}")


@dataclass(frozen=True)
class MmooTraffic:
    """On-off modulated source described by :class:`MmooParams`."""

    params: MmooParams


@dataclass(frozen=True)
class Aggregate:
    """Superposition of ``count`` independent copies of ``inner``."""

    count: int
    inner: "TrafficModel"

    def __post_init__(self):
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"aggregate count must be a positive integer, got {self.count!r}")


TrafficModel = Union[ConstantRate, MmooTraffic, Aggregate]


@dataclass(frozen=True)
class ConstantServer:
    """Work-conserving server with fixed capacity in bits per slot."""

    capacity: float

    def __post_init__(self):
        if not (math.isfinite(self.capacity) and self.capacity > 0):
            raise ValueError(f"capacity must be positive and finite, got {self.capacity!r}")


@dataclass(frozen=True)
class Leftover:
    """Capacity left for the through traffic after ``cross_count`` cross flows.

    The effective capacity C - M * alpha_cross(theta) may evaluate negative;
    that is reported as-is and flagged downstream rather than rejected here.
    """

    capacity: float
    cross_count: int
    cross: TrafficModel

    def __post_init__(self):
        if not (math.isfinite(self.capacity) and self.capacity > 0):
            raise ValueError(f"capacity must be positive and finite, got {self.capacity!r}")
        if not isinstance(self.cross_count, int) or self.cross_count < 0:
            raise ValueError(f"cross_count must be a non-negative integer, got {self.cross_count!r}")


ServiceModel = Union[ConstantServer, Leftover]


def _check_theta(theta: float) -> None:
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be positive and finite, got {theta!r}")


def mmoo_effective_bandwidth(params: MmooParams, theta: float) -> float:
    """Effective bandwidth of an on-off source, in bits per slot.

    This is the interval-length-independent form: it upper-bounds the
    effective bandwidth over every interval length, decreases to the mean
    rate as theta -> 0 and increases to the peak rate as theta -> inf.
    """
    _check_theta(theta)
    return _mmoo_eb(params, theta)


# The public functions check theta once; the recursion runs unchecked.
def _mmoo_eb(params: MmooParams, theta: float) -> float:
    p, r10, r01 = params.peak_rate, params.r_on_off, params.r_off_on
    root = math.sqrt((p * theta - r10 + r01) ** 2 + 4.0 * r10 * r01)
    return (p * theta - r10 - r01 + root) / (2.0 * theta)


def traffic_effective_bandwidth(model: TrafficModel, theta: float) -> float:
    """Effective bandwidth alpha(theta) of a traffic model, bits per slot.

    Every supported variant is independent of the interval length, so it
    takes none.
    """
    _check_theta(theta)
    return _traffic_eb(model, theta)


def _traffic_eb(model: TrafficModel, theta: float) -> float:
    if isinstance(model, ConstantRate):
        return model.rate
    if isinstance(model, MmooTraffic):
        return _mmoo_eb(model.params, theta)
    if isinstance(model, Aggregate):
        return model.count * _traffic_eb(model.inner, theta)
    raise TypeError(f"unsupported traffic model: {model!r}")


def service_effective_capacity(model: ServiceModel, theta: float) -> float:
    """Effective capacity beta(theta) of a service model, bits per slot."""
    _check_theta(theta)
    if isinstance(model, ConstantServer):
        return model.capacity
    if isinstance(model, Leftover):
        return model.capacity - model.cross_count * _traffic_eb(model.cross, theta)
    raise TypeError(f"unsupported service model: {model!r}")


def traffic_peak_rate(model: TrafficModel) -> float:
    """Worst-case per-slot rate of a traffic model (the theta -> inf limit)."""
    if isinstance(model, ConstantRate):
        return model.rate
    if isinstance(model, MmooTraffic):
        return model.params.peak_rate
    if isinstance(model, Aggregate):
        return model.count * traffic_peak_rate(model.inner)
    raise TypeError(f"unsupported traffic model: {model!r}")
