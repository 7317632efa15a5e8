"""Effective-bandwidth traffic models and effective-capacity service models.

All rates are bits per slot and theta carries units of 1/bits, so exponents
of the form theta * A(t) are dimensionless.  Every evaluation here is a pure
function of frozen model values and is safe to call from any thread.

The one module that dispatches on the model kinds, and so the one a new kind
is taught to: the bound engine reads alpha, beta, peak rates, bursts and cross
loads, and the simulator the on-off flows of a path, only through its functions.
"""

from __future__ import annotations

import math
from typing import Union

from ._record import Record, integer_field

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
]


class MmooParams(Record):
    """Markov-modulated on-off source in per-slot units.

    peak_rate   bits emitted per slot while the source is on
    r_on_off    1 / E[on sojourn]  (slots^-1)
    r_off_on    1 / E[off sojourn] (slots^-1)

    A source with ``r_on_off == 0`` never leaves the on state once there.
    The fully degenerate case (both rates zero) has no stationary
    distribution and is rejected; model it as :class:`ConstantRate` instead.
    """

    __slots__ = ("peak_rate", "r_on_off", "r_off_on")

    def _validate(self):
        if not (math.isfinite(self.peak_rate) and self.peak_rate > 0):
            raise ValueError(f"peak_rate must be positive and finite, got {self.peak_rate!r}")
        for name in ("r_on_off", "r_off_on"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {rate!r}")
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


class ConstantRate(Record):
    """Deterministic source emitting ``rate`` bits every slot."""

    __slots__ = ("rate",)

    def _validate(self):
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"rate must be non-negative and finite, got {self.rate!r}")


class MmooTraffic(Record):
    """On-off modulated source described by :class:`MmooParams`."""

    __slots__ = ("params",)


class Aggregate(Record):
    """Superposition of ``count`` independent copies of ``inner``."""

    __slots__ = ("count", "inner")

    def _validate(self):
        integer_field(self, "count", 1, "aggregate count must be a positive integer")


TrafficModel = Union[ConstantRate, MmooTraffic, Aggregate]


class ConstantServer(Record):
    """Work-conserving server with fixed capacity in bits per slot."""

    __slots__ = ("capacity",)

    def _validate(self):
        if not (math.isfinite(self.capacity) and self.capacity > 0):
            raise ValueError(f"capacity must be positive and finite, got {self.capacity!r}")


class Leftover(Record):
    """Capacity left for the through traffic after ``cross_count`` cross flows.

    The effective capacity C - M * alpha_cross(theta) may evaluate negative;
    that is reported as-is and flagged downstream rather than rejected here.
    """

    __slots__ = ("capacity", "cross_count", "cross")

    def _validate(self):
        if not (math.isfinite(self.capacity) and self.capacity > 0):
            raise ValueError(f"capacity must be positive and finite, got {self.capacity!r}")
        integer_field(self, "cross_count", 0, "cross_count must be a non-negative integer")


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
    # (b + root) / (2 theta): the largest eigenvalue of the on-off
    # generator tilted by theta times the rate, over theta.  The sum loses
    # at most 1.6 bits while b >= -root / 2; below that it cancels (to 0
    # at extreme switching rates), so it is taken in its conjugate form,
    # root^2 - b^2 = 4 r01 p theta, whose factor 2 r01 / (root - b) lies in
    # [mean / peak, 1].  hypot replaces the square root where the square
    # overflows.
    p, r10, r01 = params.peak_rate, params.r_on_off, params.r_off_on
    a = p * theta - r10 + r01
    root = math.sqrt(a * a + 4.0 * r10 * r01)
    if root == math.inf:
        root = math.hypot(a, 2.0 * math.sqrt(r10) * math.sqrt(r01))
    b = p * theta - r10 - r01
    if b < -0.5 * root:
        return p * (2.0 * r01 / (root - b))
    return (b + root) / (2.0 * theta)


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


def _peak_and_burst(model: TrafficModel) -> tuple:
    """(peak rate, one flow's burst) of a traffic model: bits per slot, and
    bits per mean on sojourn (a constant-rate flow's is one slot's)."""
    if isinstance(model, ConstantRate):
        return model.rate, model.rate
    if isinstance(model, MmooTraffic):  # an on sojourn that never ends counts one slot
        return model.params.peak_rate, model.params.peak_rate / (model.params.r_on_off or 1.0)
    if isinstance(model, Aggregate):
        peak, burst = _peak_and_burst(model.inner)
        return model.count * peak, burst
    raise TypeError(f"unsupported traffic model: {model!r}")


def _cross_traffic(hop: ServiceModel):
    """The traffic model of a hop's cross flows, None for a hop without any."""
    return Aggregate(hop.cross_count, hop.cross) if isinstance(hop, Leftover) and hop.cross_count else None


def _cross_peak_and_burst(hop: ServiceModel) -> tuple:
    """(peak rate, one flow's burst) of a hop's cross traffic, (0, 0) for a
    hop without cross flows."""
    cross = _cross_traffic(hop)
    return (0.0, 0.0) if cross is None else _peak_and_burst(cross)


def _on_off_flows(model: TrafficModel) -> tuple:
    """(count, MmooParams) of the on-off flows of a traffic model, the one
    kind the simulator draws; any other kind is a ``TypeError``."""
    if isinstance(model, MmooTraffic):
        return 1, model.params
    if isinstance(model, Aggregate):
        count, params = _on_off_flows(model.inner)
        return model.count * count, params
    raise TypeError(f"the simulator draws on-off flows only, not {model!r}")
