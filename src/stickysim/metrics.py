"""Packet-delay-tail metrics for flow-level load balancing.

The per-occupancy metric is the large-deviations tail estimate of packet
delay at a server holding i flows; scheme-level numbers flow-average it
against an occupancy distribution. Closed forms for the shedding scheme
avoid building the distribution at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import FlowDistribution, SystemParams, log_sum_exp, poisson_log_weights

__all__ = [
    "delay_tail_prob",
    "flow_average",
    "delay_tail_flow_jsq",
    "delay_tail_packet_random",
    "delay_tail_shedding",
    "shedding_violation",
    "TradeoffPoint",
    "tradeoff_curve",
]


def _delay_cap(params: SystemParams) -> int:
    # largest occupancy whose packet load still fits in one server
    return math.floor(params.mu / params.nu)


def _check_chi(chi: float) -> None:
    if not math.isfinite(chi) or chi < 0:
        raise ValueError(f"chi must be non-negative and finite, got {chi!r}")


def delay_tail_prob(
    i: int | np.ndarray, chi: float, params: SystemParams
) -> float | np.ndarray:
    """Delay-tail estimate exp(-chi (1 - i nu/mu)) at occupancy i, saturating
    at 1 once i exceeds mu/nu. Boundary i == mu/nu stays on the exponential
    branch (where it equals 1 anyway)."""
    _check_chi(chi)
    if np.isscalar(i):
        if i < 0:
            raise ValueError("occupancy must be non-negative")
        if i <= _delay_cap(params):
            return math.exp(-chi * (1.0 - i * (params.nu / params.mu)))
        return 1.0
    i = np.asarray(i)
    if np.any(i < 0):
        raise ValueError("occupancy must be non-negative")
    return np.exp(_log_delay_tail(i, chi, params))


def _log_delay_tail(i: np.ndarray, chi: float, params: SystemParams) -> np.ndarray:
    """log of delay_tail_prob at the occupancies i: the exponent up to the
    cap, 0 above it (clamped at the cap first, so it never overflows)."""
    cap = _delay_cap(params)
    expo = -chi * (1.0 - np.minimum(i, cap) * (params.nu / params.mu))
    return np.where(i <= cap, expo, 0.0)


def flow_average(
    dist: FlowDistribution,
    metric: Sequence[float] | np.ndarray | Callable[[np.ndarray], np.ndarray],
) -> float:
    """Average of a per-occupancy metric over a uniformly chosen *flow*:
    sum_i i g(i) p_i / sum_i i p_i. Servers with zero flows carry no flows,
    so they contribute to neither sum."""
    levels = np.arange(dist.p.size)
    if callable(metric):
        g = np.asarray(metric(levels), dtype=np.float64)
    else:
        g = np.asarray(metric, dtype=np.float64)
        if g.size < dist.p.size:
            raise ValueError(
                f"metric has {g.size} entries but distribution has {dist.p.size} levels"
            )
        g = g[: dist.p.size]
    weights = levels * dist.p
    denom = float(weights.sum())
    if denom <= 0.0:
        raise ValueError("flow average undefined: distribution has no active flows")
    return float(weights @ g) / denom


def delay_tail_flow_jsq(chi: float, params: SystemParams) -> float:
    """Flow-averaged delay tail under join-shortest-queue flow assignment,
    whose limiting occupancy splits mass between floor(rho) and floor(rho)+1."""
    rho = params.rho
    k = math.floor(rho)
    lo_mass = k + 1 - rho
    hi_mass = rho - k
    g_lo = delay_tail_prob(k, chi, params)
    g_hi = delay_tail_prob(k + 1, chi, params)
    return (k * lo_mass * g_lo + (k + 1) * hi_mass * g_hi) / rho


def delay_tail_packet_random(chi: float, params: SystemParams) -> float:
    """Delay tail when packets (not flows) are sprayed uniformly, which loads
    every server at the average rate: exp(-chi (1 - rho nu/mu))."""
    _check_chi(chi)
    rho = params.rho
    if rho * params.nu >= params.mu:
        raise ValueError(
            f"packet-random baseline needs rho*nu < mu, got {rho * params.nu:g} >= {params.mu:g}"
        )
    return math.exp(-chi * (1.0 - rho * params.nu / params.mu))


def _shedding_window(params: SystemParams) -> tuple[int, int]:
    """The levels lo + 1..top that the untruncated shedding sums run over:
    the Poisson bulk rho +- spread, then the levels where the delay tail
    still rises, up to the cap but no further than rho + spread, then one
    more spread.  Every level cut off lies over 12 standard deviations from
    rho, and the window stays O(sqrt(rho)) long however far above rho the
    cap lies."""
    rho = params.rho
    spread = 12.0 * math.sqrt(rho + 1.0) + 40
    lo = max(0, math.floor(rho - spread))
    top = int(max(min(_delay_cap(params), rho + spread), rho) + spread) + 1
    return lo, top


def delay_tail_shedding(
    high: int | float, chi: float, params: SystemParams
) -> float:
    """Closed-form flow-averaged delay tail for the shedding scheme at
    threshold `high` (math.inf gives the untruncated baseline).

    A flow at a server holding i flows shares it with i - 1 others, whose
    number has Poisson weights w_{i-1} = rho^{i-1} / (i-1)!, so the tail is
    sum_{i<=top} w_{i-1} g(i) / sum_{i<=top} w_{i-1} for the per-occupancy
    tail g.  Both sums are log-sum-exps of log terms, so no term exceeds its
    Poisson mass at any chi.  The untruncated baseline, and any `high` above
    its window, sums only the levels within a few spreads of rho, whatever
    the cap: a baseline below about 1e-150, whose terms peak beyond that
    window, can read low, down to 0.
    """
    if high != math.inf and (not isinstance(high, int) or high < 1):
        raise ValueError(f"high must be a positive int or math.inf, got {high!r}")
    _check_chi(chi)
    rho = params.rho
    # a threshold above the window cuts off only levels the window leaves out
    lo, top = _shedding_window(params)
    if high <= top:
        lo, top = 0, high
    logs = poisson_log_weights(math.log(rho), lo, top - 1)
    log_norm = rho if high == math.inf else log_sum_exp(logs)
    log_tail = log_sum_exp(
        logs + _log_delay_tail(np.arange(lo + 1, top + 1), chi, params))
    return min(math.exp(log_tail - log_norm), 1.0)  # rounding can pass 1


def shedding_violation(high: int | float, params: SystemParams) -> float:
    """Stationary probability an arriving flow is discarded at threshold
    `high`: the truncated-Poisson mass at the threshold itself.  Above the
    window of delay_tail_shedding the window's log-sum-exp is the
    normaliser, so no array grows with `high`."""
    if high == math.inf:
        return 0.0
    if not isinstance(high, int) or high < 1:
        raise ValueError(f"high must be a positive int or math.inf, got {high!r}")
    log_rate = math.log(params.rho)
    lo, top = _shedding_window(params)
    if high <= top:
        lo, top = 0, high
    log_norm = log_sum_exp(poisson_log_weights(log_rate, lo, top))
    return math.exp(high * log_rate - math.lgamma(high + 1) - log_norm)


@dataclass(frozen=True)
class TradeoffPoint:
    """One threshold on the violation-vs-delay-tail curve."""

    high: int
    epsilon: float
    delay_tail: float
    improvement: float


def tradeoff_curve(
    h_values: Sequence[int], chi: float, params: SystemParams
) -> list[TradeoffPoint]:
    """Violation probability, delay tail, and improvement over the
    untruncated baseline for each shedding threshold in h_values."""
    baseline = delay_tail_shedding(math.inf, chi, params)
    points = []
    for h in h_values:
        eps = shedding_violation(h, params)
        tail = delay_tail_shedding(h, chi, params)
        improvement = baseline / tail if tail > 0 else math.inf
        points.append(
            TradeoffPoint(high=h, epsilon=eps, delay_tail=tail, improvement=improvement)
        )
    return points
