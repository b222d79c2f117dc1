"""Shared value types and numeric primitives for the load-balancing models.

Everything here is scheme-agnostic: system parameters, occupancy distributions
with pmf/tail conversions, scheme configuration records, and the log-space
Poisson weights that stay accurate at loads where direct factorials overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "SystemParams",
    "FlowDistribution",
    "total_variation",
    "PowerOfD",
    "PullBased",
    "Shedding",
    "TransferToInvite",
    "TransferToLeastLoaded",
    "BinBased",
    "SchemeConfig",
    "log_factorial",
    "poisson_log_weights",
    "log_sum_exp",
]

PMF_SUM_TOL = 1e-9
TAIL_MONOTONE_TOL = 1e-12


# ---------------------------------------------------------------------------
# log-space Poisson weights
# ---------------------------------------------------------------------------

_LOG_FACT = np.array([0.0])  # log(k!) for k = 0 .. len-1, grown on demand


def log_factorial(k: int | np.ndarray) -> float | np.ndarray:
    """log(k!) via a cached lgamma table (exact per entry, no cumsum drift).

    A scalar k gives a float, an array k an array of its shape; an empty
    array gives an empty float array.  Any negative k raises ValueError.
    """
    idx = np.asarray(k, dtype=np.int64)
    if idx.size == 0:
        return np.empty(idx.shape)
    # one reduction finds both the table's reach and any negative entry: as
    # uint64 a negative int64 reads as 2**63 or more
    kmax = int(idx.view(np.uint64).max())
    if kmax >= 2**63:
        raise ValueError("k must be non-negative")
    if kmax >= _LOG_FACT.size:
        _grow_log_fact(kmax)
    if idx.ndim == 0 and not isinstance(k, np.ndarray):
        return float(_LOG_FACT[idx])  # a float scalar
    return _LOG_FACT[idx]


def _grow_log_fact(kmax: int) -> None:
    """Extend the log(k!) table past kmax."""
    global _LOG_FACT
    old = _LOG_FACT.size
    grown = np.empty(kmax + 65)
    grown[:old] = _LOG_FACT
    for j in range(old, grown.size):
        grown[j] = math.lgamma(j + 1)
    _LOG_FACT = grown


def poisson_log_weights(log_rate: float, lo: int, hi: int) -> np.ndarray:
    """Log weights k*log_rate - log(k!) for k = lo..hi inclusive (empty when
    hi < lo): the log Poisson pmf plus the rate.

    Taking log(rate) keeps a rate exact where the rate itself, or e^rate,
    would overflow a float.
    """
    k = np.arange(lo, hi + 1)
    return k * log_rate - log_factorial(k)


def log_sum_exp(logs: np.ndarray) -> float:
    """log(sum(exp(logs))) with the largest term factored out, so no term
    overflows or underflows; -inf for an empty array."""
    if logs.size == 0:
        return -math.inf
    top = float(logs.max())
    return top + math.log(float(np.exp(logs - top).sum()))


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
        # the product of two valid factors can still overflow or underflow
        if not 0.0 < self.rho < math.inf:
            raise ValueError(
                f"rho = lam * beta must be positive and finite, got {self.rho!r}"
            )

    @property
    def rho(self) -> float:
        return self.lam * self.beta


# ---------------------------------------------------------------------------
# occupancy distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FlowDistribution:
    """Distribution of the number of active flows at a server, p[i] for
    i = 0..p.size - 1. Immutable after construction; tails are recomputed,
    never stored alongside the pmf."""

    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(np.asarray(self.p, dtype=np.float64))
        if p.ndim != 1 or p.size == 0:
            raise ValueError("pmf must be a non-empty 1-d array")
        # one test per entry, written so that NaN fails it
        if not np.all((p >= -1e-12) & (p <= 1.0 + 1e-12)):
            raise ValueError("pmf entries must be finite and lie in [0, 1]")
        p = np.clip(p, 0.0, 1.0)
        total = float(p.sum())
        if abs(total - 1.0) > PMF_SUM_TOL:
            raise ValueError(f"pmf must sum to 1 within {PMF_SUM_TOL}, got {total!r}")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    def mean(self) -> float:
        return float(np.arange(self.p.size) @ self.p)

    def to_tail(self) -> np.ndarray:
        """Tail s[i] = P[occupancy >= i] for i = 0..p.size - 1 (s beyond is 0)."""
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
