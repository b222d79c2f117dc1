"""Mean-field occupancy dynamics and their fixed points.

Each scheme contributes a join-probability vector q[j]: the probability an
arriving flow is placed on a server currently holding j flows, as a function
of the occupancy tail. The shared ODE ds_i/dt = lam*q[i-1] - i(s_i-s_{i+1})/beta
is integrated with fixed-step RK4; fixed points come from closed forms or a
one-dimensional bisection on the carried-traffic curve of an auxiliary
loss-system load sigma.
"""
from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    BinBased,
    FlowDistribution,
    PowerOfD,
    PullBased,
    SchemeConfig,
    Shedding,
    SystemParams,
    TransferToInvite,
    TransferToLeastLoaded,
    log_factorial,
)

__all__ = [
    "NumericalError",
    "BracketError",
    "UnsupportedConfigError",
    "SolveDiagnostics",
    "OdeResult",
    "join_probs",
    "fixed_point_residual",
    "default_i_max",
    "power_of_d_tail_bound",
    "jsq_fixed_point",
    "jsq_two_level_mass",
    "shedding_fixed_point",
    "solve_pull_fixed_point",
    "solve_transfer_invite_fixed_point",
    "solve_least_loaded_fixed_point",
    "fixed_point",
    "integrate_ode",
]

logger = logging.getLogger(__name__)

# tails this close to 1 are treated as exactly 1 when picking a dynamics case
CASE_EPS = 1e-9

SIGMA_TOL = 1e-12
CARRIED_RESIDUAL_TOL = 1e-10
PROJECTION_TOL = 1e-6
# a pinned saturated level is released once its drift falls below -RELEASE_EPS
RELEASE_EPS = 1e-9
# a tail level within SAT_TOL of 1 has reached saturation and is pinned at 1
SAT_TOL = 1e-12
# inside the invite region the approach to saturation is asymptotic, so levels
# this close to 1 are snapped onto the constraint instead of being integrated
PIN_TOL = 1e-4


class NumericalError(RuntimeError):
    """A numerical procedure left its guaranteed operating envelope."""


class BracketError(NumericalError):
    """Bisection could not bracket or meet the carried-traffic residual."""


class UnsupportedConfigError(ValueError):
    """Configuration outside the analytically supported range."""


def default_i_max(rho: float, high: int | float = 0) -> int:
    """Default top occupancy level tracked: covers the threshold and the
    untruncated Poisson bulk plus a 12-sigma cushion."""
    top = math.ceil(rho + 12.0 * math.sqrt(rho + 1.0))
    if high != math.inf and high > 0:
        top = max(top, int(high))
    return max(top, 8)


def _padded_tail(s: np.ndarray, need: int) -> np.ndarray:
    """Tail extended with zeros so levels up to `need` (plus one spare for
    diffs) can be indexed directly."""
    s = np.asarray(s, dtype=np.float64)
    size = max(s.size + 1, need + 2)
    out = np.zeros(size)
    out[: s.size] = s
    return out


# ---------------------------------------------------------------------------
# join probabilities
# ---------------------------------------------------------------------------

# A join rule writes every entry of q (q.size == sp.size - 1) from a tail sp
# that ends in zeros and has at least `need` + 2 entries, `need` being the top
# threshold the rule reads (see _padded_tail).  Each scheme's law exists once,
# as a rule bound to its thresholds; integrate_ode calls it on reused buffers
# and join_probs calls it on a freshly padded copy.
JoinRule = Callable[[np.ndarray, np.ndarray], None]

# the compiled drift's rule codes (the RULE_* enum in _kernel.c)
RULE_POWER, RULE_PULL, RULE_SHEDDING, RULE_INVITE, RULE_LEAST = range(5)


def _power_of_d_rule(d: int) -> JoinRule:
    # sp**d as d - 1 rounded products, left to right, as the kernel takes it:
    # a product rounds the same on every host, while np.power's last bit
    # depends on the numpy build
    powers = None

    def rule(sp: np.ndarray, q: np.ndarray) -> None:
        nonlocal powers
        if powers is None or powers.size != sp.size:
            powers = np.empty(sp.size)
        np.copyto(powers, sp)
        for _ in range(d - 1):
            np.multiply(powers, sp, out=powers)
        np.subtract(powers[:-1], powers[1:], out=q)

    return rule


def _shedding_rule(high: int | float) -> JoinRule:
    finite_high = high != math.inf

    def rule(sp: np.ndarray, q: np.ndarray) -> None:
        np.subtract(sp[:-1], sp[1:], out=q)
        if finite_high:
            q[high:] = 0.0

    return rule


def _fill_saturated(sp: np.ndarray, q: np.ndarray, high: int, rho: float) -> None:
    """Fill q for the regime where every server is at or above `high`.

    Shared by the pull and transfer-to-invite rules: dips below `high`
    absorb what they can, the rest spreads uniformly over the (full)
    population.  q starts zeroed.
    """
    dip = high * (1.0 - sp[high + 1])
    if rho <= dip:
        q[high - 1] = 1.0
        return
    q[high - 1] = dip / rho
    band = q[high:]
    np.subtract(sp[high:-1], sp[high + 1 :], out=band)
    np.multiply((rho - dip) / rho, band, out=band)


def _pull_rule(low: int, high: int | float, rho: float) -> JoinRule:
    finite_high = high != math.inf

    def rule(sp: np.ndarray, q: np.ndarray) -> None:
        q.fill(0.0)
        s_low = sp[low]
        s_high = sp[high] if finite_high else 0.0

        if s_low < 1.0 - CASE_EPS:
            # invites outstanding: every arrival lands below `low`
            band = q[:low]
            np.subtract(sp[:low], sp[1 : low + 1], out=band)
            np.divide(band, 1.0 - s_low, out=band)
            return

        if not finite_high or s_high < 1.0 - CASE_EPS:
            # no invites; arrivals spread over the non-disinvited band, except
            # the share absorbed by momentary dips below `low`
            dip = low * (1.0 - sp[low + 1])
            if rho <= dip:
                q[low - 1] = 1.0
                return
            if low >= 1:
                q[low - 1] = dip / rho
            rem = (rho - dip) / rho
            hb = high if finite_high else q.size
            band = q[low:hb]
            np.subtract(sp[low:hb], sp[low + 1 : hb + 1], out=band)
            np.multiply(rem, band, out=band)
            np.divide(band, 1.0 - s_high, out=band)
            return

        _fill_saturated(sp, q, high, rho)

    return rule


def _transfer_invite_rule(low: int, high: int, rho: float) -> JoinRule:
    def rule(sp: np.ndarray, q: np.ndarray) -> None:
        q.fill(0.0)
        s_low = sp[low]
        s_high = sp[high]

        if s_low < 1.0 - CASE_EPS:
            boost = (1.0 - s_low + s_high) / (1.0 - s_low)
            band = q[:low]
            np.subtract(sp[:low], sp[1 : low + 1], out=band)
            np.multiply(band, boost, out=band)
            np.subtract(sp[low:high], sp[low + 1 : high + 1], out=q[low:high])
            return

        if s_high < 1.0 - CASE_EPS:
            dip = low * (1.0 - sp[low + 1])
            band = q[low:high]
            np.subtract(sp[low:high], sp[low + 1 : high + 1], out=band)
            if rho * s_high <= dip:
                # dips below `low` absorb every transfer
                if low >= 1:
                    q[low - 1] = s_high
                return
            if low >= 1:
                q[low - 1] = dip / rho
            rem = (rho * s_high - dip) / rho
            np.multiply(band, 1.0 + rem / (1.0 - s_high), out=band)
            return

        _fill_saturated(sp, q, high, rho)

    return rule


def _least_loaded_rule(high: int, rho: float) -> JoinRule:
    below = np.empty(0, dtype=bool)

    def rule(sp: np.ndarray, q: np.ndarray) -> None:
        nonlocal below
        q.fill(0.0)
        if below.size != q.size:
            below = np.empty(q.size, dtype=bool)
        # least-loaded level: the first m with sp[m + 1] below 1; the zero
        # padding past the tail guarantees one
        np.less(sp[1:], 1.0 - CASE_EPS, out=below)
        m = int(below.argmax())
        s_high = sp[high]

        if m < high:
            dip = m * (1.0 - sp[m + 1])
            if rho * s_high <= dip:
                if m >= 1:
                    q[m - 1] = s_high
                np.subtract(sp[m:high], sp[m + 1 : high + 1], out=q[m:high])
                return
            if m >= 1:
                q[m - 1] = dip / rho
            q[m] = s_high + (rho - m) * (1.0 - sp[m + 1]) / rho
            np.subtract(sp[m + 1 : high], sp[m + 2 : high + 1], out=q[m + 1 : high])
            return

        # least-loaded level at or above `high`: pure greedy filling of dips
        dip = m * (1.0 - sp[m + 1])
        if rho <= dip:
            q[m - 1] = 1.0
            return
        q[m - 1] = dip / rho
        q[m] = (rho - dip) / rho

    return rule


def _join_rule(
    scheme: SchemeConfig, rho: float
) -> tuple[JoinRule, int, tuple[int, int, int, int | float]]:
    """The scheme's join rule bound to its thresholds and the load, the top
    level it reads, and the same rule as the compiled drift's (code, d, low,
    high).  low is the invite threshold, 0 for the schemes that invite
    nobody; the dip-refill correction and the invite-region pinning act
    only below it."""
    if isinstance(scheme, PowerOfD):
        rule, code = _power_of_d_rule(scheme.d), RULE_POWER
    elif isinstance(scheme, PullBased):
        rule, code = _pull_rule(scheme.low, scheme.high, rho), RULE_PULL
    elif isinstance(scheme, Shedding):
        rule, code = _shedding_rule(scheme.high), RULE_SHEDDING
    elif isinstance(scheme, TransferToInvite):
        rule, code = _transfer_invite_rule(scheme.low, scheme.high, rho), RULE_INVITE
    elif isinstance(scheme, TransferToLeastLoaded):
        rule, code = _least_loaded_rule(scheme.high, rho), RULE_LEAST
    elif isinstance(scheme, BinBased):
        raise UnsupportedConfigError(
            "bin-based scheme has no single-server mean-field dynamics; "
            "compare against the transfer-to-invite fixed point instead"
        )
    else:
        raise TypeError(f"unknown scheme config: {scheme!r}")
    d, low, high = (getattr(scheme, name, 0) for name in ("d", "low", "high"))
    return rule, max(low, 0 if high == math.inf else high), (code, d, low, high)


def join_probs(scheme: SchemeConfig, s: np.ndarray, rho: float) -> np.ndarray:
    """Join probabilities q of `scheme` at occupancy tail `s` and load rho.

    q[j] is the probability that an arriving flow joins a server holding j
    flows.  q has one entry per level of the tail, extended with zeros to
    cover the scheme's thresholds.  Raises UnsupportedConfigError for the
    bin scheme and TypeError for an unknown config.
    """
    rule, need, _ = _join_rule(scheme, rho)
    sp = _padded_tail(s, need)
    q = np.zeros(sp.size - 1)
    rule(sp, q)
    return q


def fixed_point_residual(
    scheme: SchemeConfig, dist: FlowDistribution, rho: float
) -> float:
    """Sup-norm of the stationarity gap rho*q[i-1] - i*p_i over i >= 1."""
    q = join_probs(scheme, dist.to_tail(), rho)
    p = np.zeros(q.size + 1)
    p[: dist.p.size] = dist.p
    i = np.arange(1, q.size + 1)
    return float(np.max(np.abs(rho * q - i * p[1:])))


# ---------------------------------------------------------------------------
# closed-form fixed points
# ---------------------------------------------------------------------------


def jsq_fixed_point(rho: float) -> FlowDistribution:
    """Limiting occupancy under join-shortest-queue flow assignment: mass
    only on floor(rho) and floor(rho)+1, mean exactly rho."""
    if rho < 0 or not math.isfinite(rho):
        raise ValueError(f"rho must be non-negative and finite, got {rho!r}")
    k = math.floor(rho)
    p = np.zeros(k + 2)
    p[k] = k + 1 - rho
    p[k + 1] = rho - k
    return FlowDistribution(p)


def jsq_two_level_mass(rho: int, n: int) -> float:
    """Finite-n shortest-queue mass on the levels {rho, rho + 1}.

    Under any dispatch rule the total number of active flows N is
    Poisson(n*rho), as in an infinite-server queue.  Shortest-queue dispatch
    keeps servers within about one level of each other, so a shortfall
    N = n*rho - j (0 < j <= n) leaves a fraction j/n of the servers at
    rho - 1.  At an integer mean the Poisson mean shortfall is
    E[(n*rho - N)^+] = n*rho * P[N = n*rho], so the expected mass off the two
    levels is rho * P[N = n*rho], about sqrt(rho / (2*pi*n)); the estimate
    is meaningful only while that is well below 1.

    Spread created by departures and overflow past rho + 1 are left out;
    at rho = 10 simulation sits 0.003-0.023 below the prediction for
    n = 20..1280.  At the reference load rho = 150 it gives 0.781 at n = 500
    (a simulated run measures 0.785) and needs n of about 2.4e5 to reach
    0.99.
    """
    if not isinstance(rho, int) or rho < 1:
        raise ValueError(f"rho must be a positive integer, got {rho!r}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n!r}")
    total = n * rho
    log_pmf = total * math.log(total) - total - math.lgamma(total + 1)
    return 1.0 - rho * math.exp(log_pmf)


def shedding_fixed_point(rho: float, high: int | float) -> FlowDistribution:
    """Poisson(rho) occupancy truncated at `high` and renormalized."""
    _check_positive("rho", rho)
    if high == math.inf:
        top = default_i_max(rho)
    else:
        if not isinstance(high, int) or high < 1:
            raise ValueError(f"high must be a positive int or math.inf, got {high!r}")
        top = high
    return FlowDistribution(_window_weights(rho, *_level_table(0, top)))


def power_of_d_tail_bound(rho: float, d: int, i: int) -> float:
    """Upper bound on the stationary tail s_i under d-choices assignment:
    1 up to floor(rho), then a doubly-geometric decay."""
    _check_positive("rho", rho)
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    if not isinstance(i, int) or i < 0:
        raise ValueError(f"i must be a non-negative integer, got {i!r}")
    k = math.floor(rho)
    if i <= k:
        return 1.0
    log_r = math.log(rho / (k + 1))  # < 0 since rho < k+1
    j = i - k
    if d == 1:
        exponent = float(j)
    else:
        exact = (d**j - 1) // (d - 1)  # exact integer geometric sum
        try:
            exponent = float(exact)
        except OverflowError:
            return 0.0
    x = exponent * log_r
    return math.exp(x) if x > -745.0 else 0.0


# ---------------------------------------------------------------------------
# sigma solvers (carried-traffic bisection)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveDiagnostics:
    """How a fixed-point load sigma was found: bisection iterations and the
    carried-traffic residual."""

    sigma: float
    iterations: int
    residual: float


def _bisect_carried(
    carried: Callable[[float], float], rho: float, lo: float, hi: float
) -> tuple[float, int]:
    """Root of carried(sigma) = rho for a non-decreasing carried-traffic
    curve; widens the bracket geometrically if needed."""
    if carried(lo) > rho + CARRIED_RESIDUAL_TOL:
        raise BracketError(
            f"carried traffic at lower bracket {lo:g} already exceeds rho={rho:g}"
        )
    iterations = 0
    widen = 0
    while carried(hi) < rho:
        lo, hi = hi, 2.0 * hi + 1.0
        widen += 1
        if widen > 200:
            raise BracketError(f"could not bracket carried traffic rho={rho:g}")
    while hi - lo > SIGMA_TOL and iterations < 400:
        mid = 0.5 * (lo + hi)
        if carried(mid) < rho:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return 0.5 * (lo + hi), iterations + widen


def _level_table(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The levels lo..hi as doubles and their log(k!): what _window_weights
    reads, built once per solve rather than once per bisection iteration."""
    k = np.arange(lo, hi + 1)
    return k.astype(np.float64), log_factorial(k)


def _window_weights(
    sigma: float, levels: np.ndarray, log_fact: np.ndarray
) -> np.ndarray:
    """Normalized weights proportional to sigma^i / i! on the levels i of a
    _level_table (or a prefix of one)."""
    if sigma <= 0.0:
        w = np.zeros(levels.size)
        w[0] = 1.0
        return w
    logs = levels * math.log(sigma) - log_fact
    w = np.exp(logs - logs.max())
    return w / w.sum()


def _open_top(sigma: float, lo: int) -> int:
    # support cut far enough out that the discarded geometric tail is < 1e-15
    base = max(sigma, float(lo))
    return int(base + 12.0 * math.sqrt(base + 1.0) + 60)


def _solve_window(
    rho: float, lo: int, hi: int | float, span: int
) -> tuple[np.ndarray, float, int, float]:
    bracket_lo = max(0.0, rho - (hi if hi != math.inf else rho))
    bracket_hi = rho + 10.0 * span
    # with an open top the carried traffic is at least sigma, so the bracket
    # never widens and a table reaching the bracket's top covers every sigma
    levels, log_fact = _level_table(
        lo, int(hi) if hi != math.inf else _open_top(bracket_hi, lo))

    def carried_window(sigma: float) -> tuple[float, np.ndarray]:
        """Carried traffic sigma*(1 - w_top) + lo*w_lo of the loss system
        living on levels lo..hi, together with the weights themselves."""
        if hi == math.inf:
            n = _open_top(sigma, lo) - lo + 1
            w = _window_weights(sigma, levels[:n], log_fact[:n])
            top_mass = 0.0
        else:
            w = _window_weights(sigma, levels, log_fact)
            top_mass = float(w[-1])
        return sigma * (1.0 - top_mass) + lo * float(w[0]), w

    sigma, iterations = _bisect_carried(
        lambda x: carried_window(x)[0], rho, bracket_lo, bracket_hi)
    value, w = carried_window(sigma)
    residual = abs(value - rho)
    if residual > CARRIED_RESIDUAL_TOL:
        raise BracketError(
            f"carried-traffic residual {residual:g} above {CARRIED_RESIDUAL_TOL:g}"
        )
    return w, sigma, iterations, residual


def _embed(weights: np.ndarray, lo: int) -> FlowDistribution:
    p = np.zeros(lo + weights.size)
    p[lo:] = weights
    return FlowDistribution(p)


def solve_pull_fixed_point(
    rho: float, low: int, high: int | float
) -> tuple[FlowDistribution, SolveDiagnostics]:
    """Fixed point of the invite/disinvite scheme. The regime depends on
    where rho sits relative to the thresholds: below `low` the system is a
    pure loss system on 0..low, between the thresholds it lives on
    low..high, and at rho >= high mass piles above the upper threshold."""
    _check_positive("rho", rho)
    PullBased(low, high)  # reuse threshold validation

    if rho < low:
        lo: int = 0
        hi: int | float = low
        span = low + 1
    elif high != math.inf and rho >= high:
        lo = int(high)
        hi = math.inf
        span = int(high) - low + 1
    else:
        lo = low
        hi = high
        span = (int(high) - low + 1) if high != math.inf else 64

    w, sigma, iterations, residual = _solve_window(rho, lo, hi, span)
    return _embed(w, lo), SolveDiagnostics(
        sigma=sigma, iterations=iterations, residual=residual
    )


def solve_transfer_invite_fixed_point(
    rho: float, low: int, high: int
) -> tuple[FlowDistribution, SolveDiagnostics]:
    """Fixed point of uniform assignment with full-server transfers to
    inviting servers.

    At rho >= high it coincides with the pull scheme.  Between the
    thresholds the pull window law on [low, high] is stationary only while
    the transfer stream outpaces the dips appearing at the low edge
    (rho * p_high >= low * p_low at the solved window law); when the window
    leans left that fails, transfers land below `low` faster than arrivals
    refill, and the support spills below the low threshold.  There, and for
    rho < low, the law splices a sigma-Poisson profile below `low` onto a
    rho-ratio profile up to `high`, with sigma matching the mean to rho."""
    _check_positive("rho", rho)
    TransferToInvite(low, high)

    if rho >= high:
        return solve_pull_fixed_point(rho, low, high)
    if rho >= low:
        dist, diag = solve_pull_fixed_point(rho, low, high)
        padded = np.zeros(high + 1)
        padded[: dist.p.size] = dist.p
        if rho * padded[high] >= low * padded[low]:
            return dist, diag

    k = np.arange(high + 1)
    # built once per solve: the Poisson levels 0..low as doubles, the
    # rho-ratio term (k - low)*log(rho) above low, and log(k!) on both
    head, head_fact = _level_table(0, low)
    rise = (k[low + 1 :] - low) * math.log(rho)
    rise_fact = log_factorial(k[low + 1 :])

    def log_weights(sigma: float) -> np.ndarray:
        logs = np.empty(high + 1)
        ls = math.log(sigma)
        logs[: low + 1] = head * ls - head_fact
        logs[low + 1 :] = low * ls + rise - rise_fact
        return logs

    def mean_occ(sigma: float) -> float:
        if sigma <= 0.0:
            return 0.0
        logs = log_weights(sigma)
        w = np.exp(logs - logs.max())
        w /= w.sum()
        return float(k @ w)

    sigma, iterations = _bisect_carried(mean_occ, rho, 0.0, rho + 10.0 * (high - low + 1))
    residual = abs(mean_occ(sigma) - rho)
    if residual > CARRIED_RESIDUAL_TOL:
        raise BracketError(
            f"carried-traffic residual {residual:g} above {CARRIED_RESIDUAL_TOL:g}"
        )
    logs = log_weights(sigma)
    w = np.exp(logs - logs.max())
    dist = FlowDistribution(w / w.sum())
    return dist, SolveDiagnostics(sigma=sigma, iterations=iterations, residual=residual)


def solve_least_loaded_fixed_point(rho: float, high: int) -> FlowDistribution:
    """Fixed point of uniform assignment with full-server transfers to a
    least-loaded server. Below `high` the support is a band i*..high with a
    geometric-over-factorial profile; at rho >= high the scheme behaves like
    join-shortest-queue.  Raises UnsupportedConfigError when the band would
    reach occupancy 0, and NumericalError when rho lies within rounding
    below high."""
    _check_positive("rho", rho)
    TransferToLeastLoaded(high)

    if rho >= high:
        return jsq_fixed_point(rho)

    log_rho = math.log(rho)
    # log of [h!/(rho^{h-i} i!)] at every level i, i.e. the weight relative
    # to level `high`; the band starts at the first level where it is above 0
    levels = np.arange(high + 1)
    log_u = log_factorial(high) - log_factorial(levels) + (levels - high) * log_rho
    istar = int(np.argmax(log_u > 0.0))
    if not log_u[istar] > 0.0:
        # In exact arithmetic i = high - 1 always qualifies when rho < high:
        # its log weight is log(high / rho) > 0.  Rounded, the difference of
        # two lgamma values can swallow it when rho is within rounding of
        # high (rho = 1.9999999999999998, high = 2), and then no level does.
        raise NumericalError(
            f"no level below high={high} outweighs it at rho={rho!r}: rho "
            "is within rounding of high"
        )
    if istar == 0:
        raise UnsupportedConfigError(
            f"support would reach occupancy 0 (rho={rho:g}, high={high}); "
            "band fixed point undefined there"
        )

    u = np.exp(log_u[istar + 1 :])
    a = math.exp(log_u[istar])
    u_star = rho / (rho - istar) * (a - 1.0)
    total = u_star + float(u.sum())
    p = np.zeros(high + 1)
    p[istar] = u_star / total
    p[istar + 1 :] = u / total
    dist = FlowDistribution(p)

    gap = abs(dist.mean() - rho)
    if gap > 1e-8:
        # reported, not asserted: the band form does not guarantee mean rho
        logger.warning(
            "least-loaded fixed point mean deviates from rho by %.3e "
            "(rho=%g, high=%d)", gap, rho, high
        )
    return dist


def fixed_point(scheme: SchemeConfig, rho: float) -> FlowDistribution:
    """Analytic fixed point for schemes that have one (d-choices with d >= 2
    does not; the bin scheme has no single-server mean-field).  The pull and
    transfer-to-invite solvers' SolveDiagnostics go to the log at DEBUG."""
    if isinstance(scheme, PowerOfD):
        if scheme.d == 1:
            return shedding_fixed_point(rho, math.inf)
        raise UnsupportedConfigError(
            "d-choices with d >= 2 has no closed-form fixed point; "
            "use integrate_ode and power_of_d_tail_bound"
        )
    if isinstance(scheme, (PullBased, TransferToInvite)):
        solve = (solve_pull_fixed_point if isinstance(scheme, PullBased)
                 else solve_transfer_invite_fixed_point)
        dist, diag = solve(rho, scheme.low, scheme.high)
        logger.debug("fixed point of %r at rho=%g: %s", scheme, rho, diag)
        return dist
    if isinstance(scheme, Shedding):
        return shedding_fixed_point(rho, scheme.high)
    if isinstance(scheme, TransferToLeastLoaded):
        return solve_least_loaded_fixed_point(rho, scheme.high)
    raise UnsupportedConfigError(f"no analytic fixed point for {scheme!r}")


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------


# why a run of the step loop returned: the STOP_* codes of ode_run in
# _kernel.c, each the index of its OdeResult.stop_reason in STOP_REASONS;
# STOP_NONE means no early stop fired
STOP_NONE, STOP_RESIDUAL, STOP_STATIONARY = range(3)
STOP_REASONS = ("t_end", "residual", "stationary")


@dataclass(frozen=True)
class OdeResult:
    """Terminal state of a mean-field integration plus bookkeeping.

    `stop_reason` is "residual" when sup|ds/dt|, the `residual`, fell below
    stop_residual, "stationary" when every later step would repeat the last
    one bit for bit (checked only when stop_residual is given; see _Rk4),
    and "t_end" when the step budget ran out.  A "stationary" run has the
    tail, residual, max_projection, pins and releases that a run to t_end
    would have; only t, steps and a recorded trajectory are shorter.
    `pins` counts levels that joined the pinned saturated prefix (those
    pinned at the start included) and `releases` the levels freed from it,
    both up to the stop, so pins - releases is the length of the prefix
    pinned at the end.  `engine` names what ran the
    step loop: "kernel" for ode_run in _kernel.c, one call for the whole
    integration or one per record stride, "python" for the same loop in
    Python around NumPy; both give the same result bit for bit."""

    t: float
    tail: np.ndarray
    residual: float
    max_projection: float
    steps: int
    trajectory: tuple[tuple[float, np.ndarray], ...]
    stop_reason: str
    pins: int
    releases: int
    engine: str

    def distribution(self) -> FlowDistribution:
        return FlowDistribution.from_tail(self.tail)


@dataclass(frozen=True)
class _Rk4:
    """The buffers of a fixed-step RK4 integration of the mean-field ODE,
    the loop state, and the step loop and the two calls of a step that run
    on them, for one engine.

    `state` and `g` are the current and the stage tail, zero-padded past
    their `size` levels to the width the join rule reads (the padding is never
    written); `k` holds k1..k4 as rows of `size` entries, whose level 0 stays
    0; `raw` is the step end before projection; `q` is the join buffer, one
    entry shorter than the padded tails.  `loop` (a _native.OdeLoop) is the
    loop state run carries from call to call: step, t, the pinned prefix
    0..sat with its pins and releases counts, the stationary stop's counter
    `quiet`, the last sup|k1|, and the largest and the last projection
    distance.

    drift(sat) writes every entry of q with the scheme's join rule at state,
    then k1[i] = lam*q[i-1] - (i*(state[i] - state[i+1]))/beta for
    1 <= i < size, applies the dip-refill correction at the pinned prefix
    0..sat to k1 and returns sup|k1| (NaN if any entry is NaN).

    step(sat) runs the three RK4 stages from state: stage i = 1, 2, 3 writes
    project(state + scale_i*k_i, sat) into g, with scales dt/2, dt/2, dt,
    then the drift there into q and k_{i+1}, corrected as k1 is.  It then
    writes raw = state + (dt/6)*(k1 + 2*k2 + 2*k3 + k4), summed in that
    order, projects it into g, copies g into state and returns sup|raw -
    state| and whether the copy changed any bit of state.  project(v, sat)
    clips v to [0, 1], sets its levels 0..sat to 1 and takes its running
    minimum.

    run(until) runs the step loop from step loop.step to step `until` or an
    early stop, and returns the STOP_* code that says which it was.  At step
    0 it first pins the start and takes its drift.  A step is step(sat),
    pinning, t += dt, then drift(sat) and releases.  Pinning moves each level
    above the prefix into it, at exactly 1, once it comes within SAT_TOL of 1
    or, below the invite threshold `low`, within PIN_TOL of 1; a pinned level
    is released when its corrected drift falls below -RELEASE_EPS.  `quiet`
    is 0 after a step (or the start's drift) that released a level and 1
    after one that released none; it is 2 when, besides, the step changed no
    bit of state and pinned nothing, and the step before released nothing.
    With a stop residual, before each step the loop stops on sup|k1| <
    stop_residual, or on quiet == 2 with sup|k1| not NaN.

    The correction: `low` is the invite threshold of the pull-family schemes
    and 0 for the schemes that invite nobody.  A pinned level sat
    (0 < sat < low) whose drift is negative has its refill demand -k[sat]
    covered from the arrivals headed for levels sat and up, as far as
    lam*sum(q[sat:size-1]) allows, each of them giving up the same share; the
    sum is taken left to right from 0.0.

    `engine` is "kernel" when ode_drift, ode_step and ode_run in _kernel.c
    run the three and "python" when NumPy and the loop in _bind_ode do; both
    give the same result bit for bit, for every scheme."""

    engine: str
    state: np.ndarray
    g: np.ndarray
    k: np.ndarray
    raw: np.ndarray
    q: np.ndarray
    loop: object
    drift: Callable[[int], float]
    step: Callable[[int], tuple[float, bool]]
    run: Callable[[int], int]


def _bind_ode(scheme: SchemeConfig, params: SystemParams, size: int,
              dt: float, stop_residual: float | None = None) -> _Rk4:
    """The RK4 buffers, loop state and calls of `scheme` at `params` for
    tails of `size` levels and steps of `dt`, stopping early on
    `stop_residual` when it is given, on the compiled kernel when it loads,
    in NumPy otherwise.  The kernel's arguments are built here, once, so
    each call is one foreign call."""
    # imported here so that importing the package loads no kernel machinery
    import ctypes

    from . import _native as native

    lam, beta, rho = params.lam, params.beta, params.rho
    join_rule, need, (code, d, low, high) = _join_rule(scheme, rho)
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    # the kernel indexes these unchecked: the padded tails hold every level
    # the join rule and the balance read
    width = max(size + 1, need + 2)
    state, g = np.zeros(width), np.zeros(width)
    k = np.zeros((4, size))
    raw = np.empty(size)
    q = np.empty(width - 1)
    # a stop residual of 0 turns both early stops off
    loop = native.OdeLoop(
        pin_tol=PIN_TOL, sat_tol=SAT_TOL, release_eps=RELEASE_EPS,
        stop_residual=0.0 if stop_residual is None else stop_residual,
    )
    buffers = (state, g, k, raw, q, loop)
    lib = native.kernel()
    if lib is not None:
        c_params = native.DriftParams(
            rule=code, d=d, low=low,
            high=native.NO_CAP if high == math.inf else high,
            size=size, width=width, lam=lam, beta=beta, rho=rho,
            case_eps=CASE_EPS, half_dt=half_dt, dt=dt, sixth_dt=sixth_dt,
            q=q.ctypes.data_as(native.F64P),
        )
        # each reference keeps its object alive as long as the closures
        params_ref, loop_ref = ctypes.byref(c_params), ctypes.byref(loop)
        s_at, g_at, k_at, raw_at = (
            a.ctypes.data_as(ctypes.c_void_p) for a in (state, g, k, raw))
        ode_drift, ode_step, ode_run = lib.ode_drift, lib.ode_step, lib.ode_run
        moved = ctypes.c_int()
        moved_ref = ctypes.byref(moved)

        def kernel_drift(sat: int) -> float:
            return ode_drift(params_ref, sat, s_at, k_at)

        def kernel_step(sat: int) -> tuple[float, bool]:
            far = ode_step(params_ref, sat, s_at, g_at, k_at, raw_at, moved_ref)
            return far, bool(moved.value)

        def kernel_run(until: int) -> int:
            return ode_run(params_ref, loop_ref, s_at, g_at, k_at, raw_at, until)

        return _Rk4("kernel", *buffers, kernel_drift, kernel_step, kernel_run)

    s, g_head = state[:size], g[:size]
    # what the balance reads of each padded tail and writes of each k row
    at_state = (state, state[1:size], state[2 : size + 1])
    at_g = (g, g[1:size], g[2 : size + 1])
    rows = list(k)
    k1, k2, k3, k4 = rows
    k_tails = [row[1:] for row in rows]
    stages = ((0, half_dt), (1, half_dt), (2, dt))
    q_head = q[: size - 1]
    arrive = np.empty(size - 1)
    depart = np.empty(size - 1)
    tmp = np.empty(size)
    siphon_buf = np.empty(size - 1)
    idx = np.arange(1, size, dtype=np.float64)
    lam_c, beta_c = np.array(lam, dtype=np.float64), np.array(beta, dtype=np.float64)
    zero, one, two = np.array(0.0), np.array(1.0), np.array(2.0)
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    absolute, fill_down, sup = np.absolute, np.minimum.accumulate, np.maximum.reduce

    def balance(tail: tuple, ds: np.ndarray) -> None:
        padded, level, upper = tail
        join_rule(padded, q)
        multiply(lam_c, q_head, out=arrive)
        subtract(level, upper, out=depart)
        multiply(idx, depart, out=depart)
        divide(depart, beta_c, out=depart)
        subtract(arrive, depart, out=ds)

    # Departures out of a pinned prefix open transient dips that fall inside
    # the invite set of the pull-family schemes, where the join weights are
    # normalised by the vanishing mass below the invite threshold.  Those dips
    # are then refilled arbitrarily fast, so on the slow timescale they siphon
    # their refill demand off the arrival stream before it reaches the
    # unsaturated levels.  Other schemes (and saturated levels at or above the
    # threshold) give dips no such priority and need no correction.
    def correct(ds: np.ndarray, sat: int) -> None:
        if 0 < sat < low and ds[sat] < 0.0:
            # if the whole stream cannot cover the refill demand, ds[sat]
            # stays negative and the release rule frees the level
            deficit = -float(ds[sat])
            # left to right, as the kernel sums: ndarray.sum adds in a tree of
            # blocks, and builtin sum is compensated from Python 3.12
            visible = lam * functools.reduce(operator.add,
                                             q[sat : size - 1].tolist(), 0.0)
            cover = min(deficit, visible)
            if cover > 0.0:
                ds[sat] += cover
                scale = cover / visible
                siphon = siphon_buf[: size - 1 - sat]
                multiply(lam * scale, q[sat : size - 1], out=siphon)
                subtract(ds[sat + 1 :], siphon, out=ds[sat + 1 :])

    def project(src: np.ndarray, dst: np.ndarray, sat: int) -> None:
        src.clip(zero, one, out=dst)
        dst[: sat + 1] = 1.0
        # the pinned prefix is all 1.0, so the running minimum starts at sat
        tail = dst[sat:]
        fill_down(tail, out=tail)

    def python_drift(sat: int) -> float:
        balance(at_state, k_tails[0])
        correct(k1, sat)
        return float(sup(absolute(k1, out=tmp)))

    def python_step(sat: int) -> tuple[float, bool]:
        # stage states are projected so the join probabilities only ever see
        # valid tails; in smooth regions the projection is the identity and
        # this is classical RK4
        for i, scale in stages:
            add(s, multiply(scale, rows[i], out=tmp), out=g_head)
            project(g_head, g_head, sat)
            balance(at_g, k_tails[i + 1])
            correct(rows[i + 1], sat)
        add(k1, multiply(two, k2, out=raw), out=raw)
        add(raw, multiply(two, k3, out=tmp), out=raw)
        add(raw, k4, out=raw)
        add(s, multiply(sixth_dt, raw, out=raw), out=raw)
        project(raw, g_head, sat)
        moved = g_head.tobytes() != s.tobytes()
        s[...] = g_head
        return float(sup(absolute(subtract(raw, s, out=tmp), out=tmp))), moved

    # Saturated-prefix bookkeeping: levels whose tail has reached 1 are pinned
    # there (they are fast variables slaved to the saturation constraint; the
    # scheme's saturated-case dynamics only apply when the tail is exactly 1).
    # A pinned level is released as soon as its drift at the constraint turns
    # negative, i.e. the sliding mode can no longer hold it.
    def may_pin(level: int, value: float) -> bool:
        if value >= 1.0 - SAT_TOL:
            return True
        # slaved dip in the invite region: relaxation to 1 is asymptotic and
        # arbitrarily stiff, so snap once the remaining distance is negligible
        return level < low and value >= 1.0 - PIN_TOL

    def pin() -> None:
        # a level that climbed to 1 joins the pinned prefix; its saturated-case
        # drift is then evaluated with the tail exactly at 1
        while loop.sat + 1 < size and may_pin(loop.sat + 1, float(s[loop.sat + 1])):
            loop.sat += 1
            loop.pins += 1
            s[loop.sat] = 1.0

    def drift_and_release() -> None:
        loop.sup_k1 = python_drift(loop.sat)
        while loop.sat > 0 and k1[loop.sat] < -RELEASE_EPS:
            loop.sat -= 1
            loop.releases += 1

    def python_run(until: int) -> int:
        if loop.step == 0:
            pin()
            drift_and_release()
            loop.quiet = int(loop.releases == 0)
        while loop.step < until:
            if stop_residual is not None:
                if loop.sup_k1 < stop_residual:
                    return STOP_RESIDUAL
                # A step reads nothing but s, sat and k1, and k1 depends only
                # on s and the prefix it was taken at.  At quiet == 2 the last
                # step changed neither s nor sat, and with no release in the
                # step before, k1 was taken at the current prefix: every later
                # step repeats the last one bit for bit.
                if loop.quiet == 2 and not math.isnan(loop.sup_k1):
                    return STOP_STATIONARY
            pins, releases = loop.pins, loop.releases
            # s + (dt/6) * (k1 + 2 k2 + 2 k3 + k4) from projected stages,
            # projected
            loop.last_projection, moved = python_step(loop.sat)
            if loop.last_projection > loop.max_projection:
                loop.max_projection = loop.last_projection
            pin()
            loop.t += dt
            loop.step += 1
            drift_and_release()
            loop.quiet = (0 if loop.releases != releases
                          else 2 if not moved and loop.pins == pins and loop.quiet
                          else 1)
        return STOP_NONE

    return _Rk4("python", *buffers, python_drift, python_step, python_run)


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def integrate_ode(
    scheme: SchemeConfig,
    params: SystemParams,
    s0: np.ndarray,
    t_end: float,
    dt: float | None = None,
    *,
    stop_residual: float | None = None,
    record_every: float | None = None,
) -> OdeResult:
    """Integrate the occupancy-tail ODE with fixed-step RK4.

    The threshold schemes switch vector fields on saturation surfaces (a tail
    entry hitting 1) and their rates blow up as those surfaces are approached,
    so the flow is integrated as a hybrid system: once a tail entry reaches 1
    it is pinned there and the saturated-case dynamics take over, until the
    drift at the constraint turns negative and the entry is released.  Every
    state fed to the rate evaluation is first projected onto valid tails
    (s_0 = 1, pinned prefix at 1, entries in [0, 1], non-increasing).  A
    projection repair larger than PROJECTION_TOL at the terminal step aborts.

    With stop_residual given, the run stops early, either once sup|ds/dt|
    falls below it ("residual") or once a step changes no bit of the tail
    and pins nothing, after a step that released no pinned level
    ("stationary"; see _Rk4).  The second catches a drift that the
    projection cancels every step, so the residual stays above
    stop_residual forever; the result then equals that of a run to t_end
    but for t, steps and the trajectory.

    The step loop owns the hybrid system's discrete state: pinning and
    release and the residual and stationary stop rules (see _Rk4 and
    _bind_ode); the trajectory is recorded here.  Its buffers are allocated
    once per call.  When the compiled kernel (_kernel.c, built on first use)
    loads, one ode_run call runs the whole loop, every step's arithmetic
    included, or one call per record stride with record_every, for every
    scheme; otherwise the same loop runs in Python around NumPy.  Both give
    the same result bit for bit, and OdeResult.engine names the one that
    ran.

    Below the invite threshold the snap-to-constraint window is PIN_TOL wide,
    so configurations whose true stationary tails there fall within PIN_TOL of
    1 (offered load just under the invite threshold) may see those entries
    biased by up to PIN_TOL.  For the same reason, when rho sits below the
    invite threshold, starts whose transient saturates the sub-threshold
    levels (every server above ceil(rho) at once) can stick at a spurious
    point mass at ceil(rho); use starts that keep those tails off 1, such as
    the empty state."""
    s0 = np.asarray(s0, dtype=np.float64)
    if s0.ndim != 1 or s0.size < 2:
        raise ValueError("s0 must be a 1-d tail with at least two levels")
    if abs(s0[0] - 1.0) > 1e-9:
        raise ValueError(f"s0[0] must be 1, got {s0[0]!r}")
    # the comparisons are all False on NaN, hence the finiteness test
    if (not np.all(np.isfinite(s0)) or np.any(np.diff(s0) > 1e-9)
            or np.any(s0 < -1e-9) or np.any(s0 > 1.0 + 1e-9)):
        raise ValueError("s0 must be a non-increasing tail in [0, 1]")
    _check_positive("t_end", t_end)
    if dt is None:
        dt = 1e-3 * params.beta
    _check_positive("dt", dt)
    if stop_residual is not None:
        _check_positive("stop_residual", stop_residual)
    if record_every is not None:
        _check_positive("record_every", record_every)

    size = s0.size
    ode = _bind_ode(scheme, params, size, dt, stop_residual)
    ode.state[:size] = s0
    s, loop = ode.state[:size], ode.loop

    n_steps = max(1, math.ceil(t_end / dt))
    # one run for the whole integration, or one per record stride
    stride = (
        max(1, round(record_every / dt)) if record_every is not None else n_steps
    )
    trajectory: list[tuple[float, np.ndarray]] = []
    stop = STOP_NONE
    while loop.step < n_steps:
        stop = ode.run(min(n_steps, (loop.step // stride + 1) * stride))
        if stop != STOP_NONE:
            break
        if record_every is not None and loop.step % stride == 0:
            frozen = s.copy()
            frozen.flags.writeable = False
            trajectory.append((loop.t, frozen))

    # large repairs during a saturation transient are the hybrid dynamics
    # sliding along the constraint set, so only a repair that persists at the
    # terminal step marks a numerically untrustworthy run
    if loop.last_projection > PROJECTION_TOL:
        raise NumericalError(
            f"projection distance {loop.last_projection:g} at the terminal step "
            f"exceeds {PROJECTION_TOL:g}; reduce dt"
        )

    tail = s.copy()
    tail.flags.writeable = False
    return OdeResult(
        t=loop.t,
        tail=tail,
        residual=loop.sup_k1,
        max_projection=loop.max_projection,
        steps=loop.step,
        trajectory=tuple(trajectory),
        stop_reason=STOP_REASONS[stop],
        pins=loop.pins,
        releases=loop.releases,
        engine=ode.engine,
    )
