"""Unit tests for the delay-tail metric and trade-off helpers.

Closed forms are checked against independent direct summations built from
scipy.stats.poisson, and against hand-derived exact fractions where the
arithmetic is small enough to do on paper.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from stickysim.core import (
    FlowDistribution,
    SystemParams,
    log_sum_exp,
    poisson_log_weights,
)
from stickysim.mean_field import shedding_fixed_point
from stickysim.metrics import (
    TradeoffPoint,
    delay_tail_flow_jsq,
    delay_tail_packet_random,
    delay_tail_prob,
    delay_tail_shedding,
    flow_average,
    shedding_violation,
    tradeoff_curve,
)


# ---------------------------------------------------------------------------
# per-occupancy delay tail
# ---------------------------------------------------------------------------


def test_delay_tail_prob_anchor_points(full_params):
    # cap mu/nu = 200; at the cap the exponent is 0
    assert delay_tail_prob(0, 200.0, full_params) == pytest.approx(math.exp(-200.0))
    assert delay_tail_prob(200, 200.0, full_params) == pytest.approx(1.0)
    assert delay_tail_prob(500, 200.0, full_params) == 1.0
    assert delay_tail_prob(150, 200.0, full_params) == pytest.approx(
        math.exp(-200.0 * 0.25), rel=1e-12
    )


def test_delay_tail_prob_zero_chi_is_one(full_params):
    i = np.arange(0, 300)
    assert np.all(delay_tail_prob(i, 0.0, full_params) == 1.0)


def test_delay_tail_prob_vector_matches_scalar(full_params):
    i = np.arange(0, 260)
    vec = delay_tail_prob(i, 137.5, full_params)
    scal = np.array([delay_tail_prob(int(k), 137.5, full_params) for k in i])
    # np.exp and math.exp may differ by 1 ulp
    assert np.allclose(vec, scal, rtol=1e-14, atol=0.0)
    assert np.all(np.diff(vec) >= 0)  # non-decreasing in occupancy


def test_delay_tail_prob_no_overflow_past_cap(full_params):
    # far beyond the cap the exponent would overflow if not clamped
    with np.errstate(over="raise"):
        out = delay_tail_prob(np.array([10_000_000]), 250.0, full_params)
    assert out[0] == 1.0


def test_delay_tail_prob_rejects_bad_chi(full_params):
    with pytest.raises(ValueError):
        delay_tail_prob(10, -1.0, full_params)
    with pytest.raises(ValueError):
        delay_tail_prob(10, math.inf, full_params)


# ---------------------------------------------------------------------------
# flow averaging
# ---------------------------------------------------------------------------


def test_flow_average_weights_by_flow_count():
    d = FlowDistribution(np.array([0.0, 0.5, 0.5]))
    g = np.array([100.0, 2.0, 5.0])
    # (1*0.5*2 + 2*0.5*5) / (1*0.5 + 2*0.5) = 6/1.5; level 0 cannot matter
    assert flow_average(d, g) == pytest.approx(4.0)


def test_flow_average_callable_and_array_agree(full_params):
    d = FlowDistribution(scipy.stats.poisson.pmf(np.arange(0, 240), 150.0) / scipy.stats.poisson.cdf(239, 150.0))
    fn = lambda i: delay_tail_prob(i, 80.0, full_params)
    arr = fn(np.arange(0, 240))
    assert flow_average(d, fn) == pytest.approx(flow_average(d, arr), rel=1e-14)


def test_flow_average_empty_population_rejected():
    d = FlowDistribution(np.array([1.0]))
    with pytest.raises(ValueError):
        flow_average(d, np.array([1.0]))


# ---------------------------------------------------------------------------
# closed forms vs independent sums
# ---------------------------------------------------------------------------


def test_flow_jsq_integer_load_matches_single_level(full_params):
    # integer rho: all mass on one level, flow average is just G(rho)
    got = delay_tail_flow_jsq(100.0, full_params)
    assert got == pytest.approx(math.exp(-25.0), rel=1e-12)
    assert got == pytest.approx(1.3887943864964021e-11, rel=1e-12)


def test_flow_jsq_fractional_load_hand_sum():
    params = SystemParams(n=10, lam=3.05, beta=1.0, nu=1.0, mu=10.0)
    # rho = 3.05: mass 0.95 at 3 flows, 0.05 at 4 flows
    g3 = delay_tail_prob(3, 7.0, params)
    g4 = delay_tail_prob(4, 7.0, params)
    expected = (3 * 0.95 * g3 + 4 * 0.05 * g4) / 3.05
    assert delay_tail_flow_jsq(7.0, params) == pytest.approx(expected, rel=1e-12)


def test_packet_random_closed_form(full_params):
    assert delay_tail_packet_random(200.0, full_params) == pytest.approx(
        math.exp(-50.0), rel=1e-12
    )
    overloaded = SystemParams(n=10, lam=100.0, beta=1.5, nu=100.0, mu=15000.0)
    with pytest.raises(ValueError):
        delay_tail_packet_random(10.0, overloaded)


def test_closed_forms_reject_bad_chi(full_params):
    for chi in (-10.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="chi"):
            delay_tail_packet_random(chi, full_params)
        with pytest.raises(ValueError, match="chi"):
            delay_tail_shedding(160, chi, full_params)
        with pytest.raises(ValueError, match="chi"):
            tradeoff_curve([150, 160], chi, full_params)


def test_flow_jsq_equals_packet_random_at_integer_load(full_params):
    assert delay_tail_flow_jsq(200.0, full_params) == pytest.approx(
        delay_tail_packet_random(200.0, full_params), rel=1e-12
    )


def test_shedding_delay_tail_matches_direct_sum(full_params):
    # independent oracle: truncated-Poisson pmf from scipy + direct average
    for high in (160, 180, 200):
        k = np.arange(0, high + 1)
        pmf = scipy.stats.poisson.pmf(k, 150.0)
        pmf = pmf / pmf.sum()
        g = delay_tail_prob(k, 200.0, full_params)
        expected = float((k * pmf * g).sum() / (k * pmf).sum())
        got = delay_tail_shedding(high, 200.0, full_params)
        assert got == pytest.approx(expected, rel=1e-9), f"high={high}"


def test_shedding_delay_tail_unbounded_limit(full_params):
    # high = inf is the no-control baseline; frozen reference value
    base = delay_tail_shedding(math.inf, 200.0, full_params)
    assert base == pytest.approx(9.608764458150882e-05, rel=1e-12)
    k = np.arange(0, 400)
    pmf = scipy.stats.poisson.pmf(k, 150.0)
    g = delay_tail_prob(k, 200.0, full_params)
    expected = float((k * pmf * g).sum() / (k * pmf).sum())
    assert base == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("rho,mu_over_nu,chi", [
    (150.0, 200.0, 1e3), (150.0, 200.0, 1e4), (150.0, 200.0, 1e5),
    (150.0, 200.0, 2e5), (150.0, 200.0, 1e6),
    # light loads, where chi <= 300 already tilts the rate past 2**53
    (3.0, 10.0, 300.0), (0.2, 4.5, 300.0),
])
def test_shedding_delay_tail_is_a_probability_at_large_chi(rho, mu_over_nu, chi):
    # the tilted rate rho e^{chi nu/mu} overflows a float from chi ~ 1.4e5 at
    # the reference point, and long before that is too large to add to or
    # subtract from
    params = SystemParams(n=10, lam=rho, beta=1.0, nu=1.0, mu=mu_over_nu)
    for high in (160, 195, 200, math.inf):
        got = delay_tail_shedding(high, chi, params)
        assert math.isfinite(got) and 0.0 <= got <= 1.0, f"high={high}"
        if high != math.inf:
            expected = flow_average(
                shedding_fixed_point(rho, high),
                lambda lv: delay_tail_prob(lv, chi, params),
            )
            assert abs(got - expected) <= 1e-12, f"high={high}"


@pytest.mark.parametrize("chi", [1.0, 20.0, 200.0])
def test_unbounded_shedding_delay_tail_sums_a_window_around_rho(chi):
    # rho = 2e5 with the cap mu/nu at 3e5: the sum runs over rho -+ a few
    # spreads, not over every level up to the cap, and still matches the sum
    # over every level up to the cap plus a spread
    rho, cap = 2e5, 300_000
    params = SystemParams(n=10, lam=rho, beta=1.0, nu=1.0, mu=float(cap))
    top = cap + int(12.0 * math.sqrt(rho + 1.0) + 40) + 1
    k = np.arange(top)
    log_g = np.where(k + 1 <= cap, -chi * (1.0 - np.minimum(k + 1, cap) / cap), 0.0)
    logs = poisson_log_weights(math.log(rho), 0, top - 1) + log_g
    full = math.exp(log_sum_exp(logs) - rho)
    assert 1e-30 < full < 1.0

    # the full sum grew log_factorial's table past every level the window
    # reads, so the peak counts only the call's own arrays
    tracemalloc.start()
    try:
        got = delay_tail_shedding(math.inf, chi, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(full, rel=1e-13, abs=0.0)
    # one float array over the full window takes 2.4 MB
    assert peak < 2**20, peak


def test_shedding_violation_hand_fraction():
    params = SystemParams(n=10, lam=2.0, beta=1.0, nu=1.0, mu=100.0)
    # rho=2, h=3: pmf(3)/cdf(3) = (4/3) / (19/3) = 4/19
    assert shedding_violation(3, params) == pytest.approx(4.0 / 19.0, rel=1e-12)
    assert shedding_violation(math.inf, params) == 0.0


def test_shedding_violation_matches_scipy(full_params):
    for high in (152, 160, 180):
        expected = scipy.stats.poisson.pmf(high, 150.0) / scipy.stats.poisson.cdf(
            high, 150.0
        )
        assert shedding_violation(high, full_params) == pytest.approx(
            expected, rel=1e-10
        )


# ---------------------------------------------------------------------------
# trade-off curve
# ---------------------------------------------------------------------------


def test_tradeoff_curve_structure(full_params):
    pts = tradeoff_curve([150, 160, 170], 200.0, full_params)
    assert [p.high for p in pts] == [150, 160, 170]
    assert all(isinstance(p, TradeoffPoint) for p in pts)
    # violations fall and the delay tail rises as the threshold loosens
    eps = [p.epsilon for p in pts]
    assert eps == sorted(eps, reverse=True)
    tails = [p.delay_tail for p in pts]
    assert tails == sorted(tails)


def test_tradeoff_improvement_uses_uncontrolled_baseline(full_params):
    base = delay_tail_shedding(math.inf, 200.0, full_params)
    (pt,) = tradeoff_curve([160], 200.0, full_params)
    assert pt.improvement == pytest.approx(base / pt.delay_tail, rel=1e-12)
    assert pt.epsilon == pytest.approx(shedding_violation(160, full_params), rel=1e-12)


def test_tradeoff_headline_point(full_params):
    # frozen regression pin for the h=195 sweet spot at chi=200
    (pt,) = tradeoff_curve([195], 200.0, full_params)
    assert pt.epsilon == pytest.approx(6.026782125856017e-05, rel=1e-11)
    assert pt.improvement == pytest.approx(95.80721732986376, rel=1e-11)
