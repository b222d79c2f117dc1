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

from .core import (
    FlowDistribution,
    SystemParams,
    log_poisson_sum,
    poisson_cdf,
    poisson_logpmf,
    poisson_pmf_window,
)

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
    cap = _delay_cap(params)
    ratio = params.nu / params.mu
    if np.isscalar(i):
        if i < 0:
            raise ValueError("occupancy must be non-negative")
        if i <= cap:
            return math.exp(-chi * (1.0 - i * ratio))
        return 1.0
    i = np.asarray(i)
    if np.any(i < 0):
        raise ValueError("occupancy must be non-negative")
    # clamp at the cap before exponentiating so saturated levels cannot
    # overflow; np.where then returns exactly 1.0 for them anyway
    expo = -chi * (1.0 - np.minimum(i, cap) * ratio)
    return np.where(i <= cap, np.exp(expo), 1.0)


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
    if rho <= 0:
        raise ValueError("rho must be positive")
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


def _poisson_sf(rate: float, k: int) -> float:
    """P[Poisson(rate) >= k] summed directly so small tails keep relative accuracy."""
    if k <= 0:
        return 1.0
    hi = int(max(k, rate) + 12.0 * math.sqrt(rate + 1.0) + 40)
    terms = poisson_pmf_window(rate, k, hi)
    terms.sort()
    return float(min(terms.sum(), 1.0))


def delay_tail_shedding(
    high: int | float, chi: float, params: SystemParams
) -> float:
    """Closed-form flow-averaged delay tail for the shedding scheme at
    threshold `high` (math.inf gives the untruncated baseline)."""
    rho = params.rho
    if rho <= 0:
        raise ValueError("rho must be positive")
    if high != math.inf and (not isinstance(high, int) or high < 1):
        raise ValueError(f"high must be a positive int or math.inf, got {high!r}")
    cap = _delay_cap(params)
    _check_chi(chi)
    # the exponentially tilted Poisson rate, and the log of the tilt factor
    # (the factor itself overflows for large chi)
    tilted = rho * math.exp(chi * params.nu / params.mu)
    log_tilt = -chi * (1.0 - params.nu / params.mu) + tilted - rho

    if high == math.inf:
        log_exp_part = log_tilt + log_poisson_sum(tilted, 0, cap - 1)
        saturated = _poisson_sf(rho, cap)
        return math.exp(log_exp_part) + saturated

    m = min(high, cap)
    log_exp_part = log_tilt + log_poisson_sum(tilted, 0, m - 1)
    if high - 1 >= cap:
        sat_terms = poisson_pmf_window(rho, cap, high - 1)
        sat_terms.sort()
        saturated = float(sat_terms.sum())
    else:
        saturated = 0.0
    denom = poisson_cdf(rho, high - 1)
    return (math.exp(log_exp_part) + saturated) / denom


def shedding_violation(high: int | float, params: SystemParams) -> float:
    """Stationary probability an arriving flow is discarded at threshold
    `high`: the truncated-Poisson mass at the threshold itself."""
    rho = params.rho
    if rho <= 0:
        raise ValueError("rho must be positive")
    if high == math.inf:
        return 0.0
    if not isinstance(high, int) or high < 1:
        raise ValueError(f"high must be a positive int or math.inf, got {high!r}")
    log_top = poisson_logpmf(high, rho)
    log_total = log_poisson_sum(rho, 0, high)
    return math.exp(log_top - log_total)


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
