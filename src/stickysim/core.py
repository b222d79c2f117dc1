"""Shared value types and numeric primitives for the load-balancing models.

Everything here is scheme-agnostic: system parameters, occupancy distributions
with pmf/tail conversions, scheme configuration records, and log-space Poisson
helpers that stay accurate at loads where direct factorials overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "SystemParams",
    "ValidationReport",
    "validate_params",
    "FlowDistribution",
    "total_variation",
    "PowerOfD",
    "PullBased",
    "Shedding",
    "TransferToInvite",
    "TransferToLeastLoaded",
    "BinBased",
    "SchemeConfig",
    "DelayTailConstants",
    "log_factorial",
    "poisson_logpmf",
    "poisson_pmf_window",
    "poisson_cdf",
    "log_poisson_sum",
]

PMF_SUM_TOL = 1e-9
TAIL_MONOTONE_TOL = 1e-12


# ---------------------------------------------------------------------------
# log-space Poisson helpers
# ---------------------------------------------------------------------------

_LOG_FACT = np.array([0.0])  # log(k!) for k = 0 .. len-1, grown on demand


def log_factorial(k: int | np.ndarray) -> float | np.ndarray:
    """log(k!) via a cached lgamma table (exact per entry, no cumsum drift)."""
    global _LOG_FACT
    kmax = int(np.max(k))
    if kmax < 0:
        raise ValueError("k must be non-negative")
    if kmax >= _LOG_FACT.size:
        old = _LOG_FACT.size
        grown = np.empty(kmax + 65)
        grown[:old] = _LOG_FACT
        for j in range(old, grown.size):
            grown[j] = math.lgamma(j + 1)
        _LOG_FACT = grown
    if np.isscalar(k):
        return float(_LOG_FACT[int(k)])
    return _LOG_FACT[np.asarray(k, dtype=np.int64)]


def poisson_logpmf(k: int | np.ndarray, rate: float) -> float | np.ndarray:
    """log of the Poisson(rate) pmf at k; rate == 0 is the point mass at 0."""
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if rate == 0.0:
        if np.isscalar(k):
            return 0.0 if k == 0 else -math.inf
        k = np.asarray(k)
        return np.where(k == 0, 0.0, -np.inf)
    return k * math.log(rate) - rate - log_factorial(k)


def poisson_pmf_window(rate: float, lo: int, hi: int) -> np.ndarray:
    """Poisson(rate) pmf on lo..hi inclusive, each term exponentiated from logs."""
    if hi < lo:
        return np.zeros(0)
    return np.exp(poisson_logpmf(np.arange(lo, hi + 1), rate))


def poisson_cdf(rate: float, k: int) -> float:
    """P[Poisson(rate) <= k], summing pmf terms smallest-first for stability."""
    if k < 0:
        return 0.0
    terms = poisson_pmf_window(rate, 0, k)
    terms.sort()
    return float(min(terms.sum(), 1.0))


def log_poisson_sum(rate: float, lo: int, hi: int) -> float:
    """log of sum_{k=lo..hi} Poisson(rate) pmf, stable far out in either tail."""
    if hi < lo:
        return -math.inf
    logs = poisson_logpmf(np.arange(lo, hi + 1), rate)
    m = float(np.max(logs))
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.exp(logs - m).sum()))


# ---------------------------------------------------------------------------
# system parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemParams:
    """Cluster-level rates: n servers, per-server flow arrival rate lam,
    mean flow duration beta, per-flow packet rate nu, per-server packet
    service rate mu. All occupancy math derives from rho = lam * beta."""

    n: int
    lam: float
    beta: float
    nu: float
    mu: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        for name in ("lam", "beta", "nu", "mu"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")

    @property
    def rho(self) -> float:
        return self.lam * self.beta

    @property
    def utilization(self) -> float:
        return self.rho * self.nu / self.mu

    def is_stable(self) -> bool:
        # worst-case packet load: every flow parked at an occupancy-ceil(rho) server
        return math.ceil(self.rho) * self.nu < self.mu


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    stable: bool
    utilization: float
    messages: tuple[str, ...]


def validate_params(params: SystemParams) -> ValidationReport:
    """Constraint report for a parameter set; construction already enforces
    positivity, so this covers the on-demand stability/utilization checks."""
    messages: list[str] = []
    stable = params.is_stable()
    util = params.utilization
    if not stable:
        messages.append(
            f"unstable: ceil(rho)*nu = {math.ceil(params.rho) * params.nu:g} "
            f"is not below mu = {params.mu:g}"
        )
    if util >= 1.0:
        messages.append(f"packet utilization {util:g} >= 1")
    return ValidationReport(
        ok=stable, stable=stable, utilization=util, messages=tuple(messages)
    )


# ---------------------------------------------------------------------------
# occupancy distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FlowDistribution:
    """Distribution of the number of active flows at a server, p[i] for
    i = 0..i_max. Immutable after construction; tails are recomputed, never
    stored alongside the pmf."""

    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(np.asarray(self.p, dtype=np.float64))
        if p.ndim != 1 or p.size == 0:
            raise ValueError("pmf must be a non-empty 1-d array")
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise ValueError("pmf entries must lie in [0, 1]")
        p = np.clip(p, 0.0, 1.0)
        total = float(p.sum())
        if abs(total - 1.0) > PMF_SUM_TOL:
            raise ValueError(f"pmf must sum to 1 within {PMF_SUM_TOL}, got {total!r}")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def i_max(self) -> int:
        return self.p.size - 1

    def mean(self) -> float:
        return float(np.arange(self.p.size) @ self.p)

    def to_tail(self) -> np.ndarray:
        """Tail s[i] = P[occupancy >= i] for i = 0..i_max (s beyond is 0)."""
        s = np.cumsum(self.p[::-1])[::-1]
        s.flags.writeable = False
        return s

    @classmethod
    def from_tail(cls, s: np.ndarray) -> "FlowDistribution":
        s = np.asarray(s, dtype=np.float64)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("tail must be a non-empty 1-d array")
        if np.any(np.diff(s) > TAIL_MONOTONE_TOL):
            raise ValueError("tail must be non-increasing")
        p = s - np.append(s[1:], 0.0)
        return cls(p)


def total_variation(p: np.ndarray | FlowDistribution, q: np.ndarray | FlowDistribution) -> float:
    """Total variation distance between two pmfs, padding the shorter support."""
    a = p.p if isinstance(p, FlowDistribution) else np.asarray(p, dtype=np.float64)
    b = q.p if isinstance(q, FlowDistribution) else np.asarray(q, dtype=np.float64)
    size = max(a.size, b.size)
    pad_a = np.zeros(size)
    pad_a[: a.size] = a
    pad_b = np.zeros(size)
    pad_b[: b.size] = b
    return 0.5 * float(np.abs(pad_a - pad_b).sum())


# ---------------------------------------------------------------------------
# scheme configuration records
# ---------------------------------------------------------------------------


def _check_level(name: str, value: int | float, *, allow_inf: bool) -> None:
    if isinstance(value, int):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
        return
    if allow_inf and isinstance(value, float) and math.isinf(value) and value > 0:
        return
    raise ValueError(
        f"{name} must be a non-negative int"
        + (" or math.inf" if allow_inf else "")
        + f", got {value!r}"
    )


@dataclass(frozen=True)
class PowerOfD:
    """Sample d servers uniformly, join the least loaded (ties uniform)."""

    d: int

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d!r}")


@dataclass(frozen=True)
class PullBased:
    """Uniform assignment steered by invites below `low` and server
    removal from the candidate pool at `high`. high = math.inf disables
    the upper threshold (low = 0 and high = inf is plain random)."""

    low: int
    high: int | float

    def __post_init__(self) -> None:
        _check_level("low", self.low, allow_inf=False)
        _check_level("high", self.high, allow_inf=True)
        if not self.high > self.low:
            raise ValueError(f"need high > low, got {self.low} >= {self.high}")


@dataclass(frozen=True)
class Shedding:
    """Uniform assignment; a flow landing on a server already at `high`
    is discarded (one stickiness violation per discarded flow)."""

    high: int | float

    def __post_init__(self) -> None:
        _check_level("high", self.high, allow_inf=True)
        if self.high != math.inf and self.high < 1:
            raise ValueError("high must be at least 1")


@dataclass(frozen=True)
class TransferToInvite:
    """Uniform assignment; a flow landing on a server at `high` is moved
    to an inviting server (occupancy below `low`) when one exists."""

    low: int
    high: int

    def __post_init__(self) -> None:
        _check_level("low", self.low, allow_inf=False)
        _check_level("high", self.high, allow_inf=False)
        if not self.high > self.low:
            raise ValueError(f"need high > low, got {self.low} >= {self.high}")


@dataclass(frozen=True)
class TransferToLeastLoaded:
    """Uniform assignment; a flow landing on a server at `high` is moved
    to a least-loaded server."""

    high: int

    def __post_init__(self) -> None:
        _check_level("high", self.high, allow_inf=False)
        if self.high < 1:
            raise ValueError("high must be at least 1")


@dataclass(frozen=True)
class BinBased:
    """Static flow-to-bin hash over `bins` bins plus a dynamic bin-to-server
    table steered by the (low, high) pull thresholds."""

    bins: int
    low: int
    high: int | float

    def __post_init__(self) -> None:
        if not isinstance(self.bins, int) or self.bins < 1:
            raise ValueError(f"bins must be a positive integer, got {self.bins!r}")
        _check_level("low", self.low, allow_inf=False)
        _check_level("high", self.high, allow_inf=True)
        if not self.high > self.low:
            raise ValueError(f"need high > low, got {self.low} >= {self.high}")


SchemeConfig = Union[
    PowerOfD,
    PullBased,
    Shedding,
    TransferToInvite,
    TransferToLeastLoaded,
    BinBased,
]


# ---------------------------------------------------------------------------
# delay-tail constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelayTailConstants:
    """Constants for the closed-form delay-tail expressions at a given chi:
    tilted_load = rho * exp(chi * nu / mu) (an exponentially tilted Poisson
    rate) and tilt_factor = exp(-chi (1 - nu/mu) + tilted_load - rho).
    log_tilt_factor is kept alongside since tilt_factor overflows for very
    large chi."""

    chi: float
    tilted_load: float
    tilt_factor: float
    log_tilt_factor: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.chi) or self.chi < 0:
            raise ValueError(f"chi must be non-negative and finite, got {self.chi!r}")

    @classmethod
    def from_params(cls, chi: float, params: SystemParams) -> "DelayTailConstants":
        rho = params.rho
        tilted = rho * math.exp(chi * params.nu / params.mu)
        log_factor = -chi * (1.0 - params.nu / params.mu) + tilted - rho
        factor = math.exp(log_factor) if log_factor < 700 else math.inf
        return cls(
            chi=chi,
            tilted_load=tilted,
            tilt_factor=factor,
            log_tilt_factor=log_factor,
        )
