"""Unit tests for parameters, distributions, scheme configs and the Poisson
weights.  scipy.stats.poisson serves as the independent numerical oracle
for the hand-rolled log-space Poisson code."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from stickysim import core
from stickysim.core import (
    BinBased,
    FlowDistribution,
    PowerOfD,
    PullBased,
    Shedding,
    SystemParams,
    TransferToInvite,
    TransferToLeastLoaded,
    log_factorial,
    log_sum_exp,
    poisson_log_weights,
    total_variation,
)


# ---------------------------------------------------------------------------
# Poisson helpers vs scipy
# ---------------------------------------------------------------------------


def test_log_factorial_matches_lgamma():
    ks = np.array([0, 1, 2, 5, 150, 10_000])
    expected = np.array([math.lgamma(k + 1) for k in ks])
    assert np.allclose(log_factorial(ks), expected, rtol=0, atol=1e-12)
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0


def test_log_factorial_scalars_take_the_table_entry_and_empty_arrays_work():
    table = log_factorial(np.arange(12))
    for k in (5, np.int64(5), np.int32(5)):
        got = log_factorial(k)
        assert type(got) is float and got == table[5]
    # a bool is an int: True is 1, not a mask
    assert type(log_factorial(True)) is float and log_factorial(True) == table[1]
    # a float scalar still reads the entry at its integer part, as a float
    assert type(log_factorial(5.0)) is float and log_factorial(5.0) == table[5]
    # a scalar past the cached table grows it with exact lgamma entries
    assert log_factorial(50_000) == math.lgamma(50_001)
    for k in (-1, np.int64(-1)):
        with pytest.raises(ValueError, match="non-negative"):
            log_factorial(k)
    empty = log_factorial(np.array([], dtype=int))
    assert empty.dtype == np.float64 and empty.shape == (0,)


@pytest.mark.parametrize("ks", [
    [-1, 5], [5, -1], [3, -7, 2], [-1], [[0, 4], [-2, 1]],
    [np.iinfo(np.int64).min, 0], [np.iinfo(np.int64).max - 1, -1],
])
def test_log_factorial_rejects_any_negative_entry(ks):
    # a negative entry below a non-negative maximum must not index the table
    # from its end
    wide = np.array(ks, dtype=np.int64)
    narrow = wide.astype(np.int32)
    for k in (wide, narrow) if np.array_equal(narrow, wide) else (wide,):
        with pytest.raises(ValueError, match="non-negative"):
            log_factorial(k)


@pytest.mark.parametrize("rate", [0.3, 2.0, 150.0, 407.74])
def test_poisson_logpmf_matches_scipy(rate):
    # each log weight is the log pmf plus the rate
    k = np.arange(0, 400)
    logs = poisson_log_weights(math.log(rate), 0, 399)
    ref = scipy.stats.poisson.logpmf(k, rate)
    assert np.allclose(logs - rate, ref, rtol=1e-12, atol=1e-10)


def _window_mass(rate, lo, hi):
    # Poisson mass of lo..hi from the log weights: their log-sum-exp less the rate
    return math.exp(log_sum_exp(poisson_log_weights(math.log(rate), lo, hi)) - rate)


def test_poisson_pmf_window_values():
    w = np.exp(poisson_log_weights(math.log(2.0), 0, 3) - 2.0)
    ref = scipy.stats.poisson.pmf([0, 1, 2, 3], 2.0)
    assert np.allclose(w, ref, rtol=1e-13)
    assert poisson_log_weights(math.log(2.0), 3, 2).shape == (0,)


@pytest.mark.parametrize("rate,k", [(2.0, 0), (2.0, 5), (150.0, 150), (150.0, 40)])
def test_poisson_cdf_matches_scipy(rate, k):
    assert _window_mass(rate, 0, k) == pytest.approx(
        scipy.stats.poisson.cdf(k, rate), rel=1e-12
    )


def test_poisson_cdf_edges():
    assert _window_mass(5.0, 0, -1) == 0.0
    assert _window_mass(5.0, 0, 1000) == pytest.approx(1.0, abs=1e-12)
    assert _window_mass(5.0, 0, 1000) <= 1.0


def test_log_poisson_sum_deep_tail():
    # far-tail window: cdf differences underflow, survival functions do not
    got = log_sum_exp(poisson_log_weights(math.log(150.0), 300, 320)) - 150.0
    ref = math.log(
        scipy.stats.poisson.sf(299, 150.0) - scipy.stats.poisson.sf(320, 150.0)
    )
    assert got == pytest.approx(ref, abs=1e-9)
    assert log_sum_exp(poisson_log_weights(math.log(150.0), 5, 4)) == -math.inf


def test_poisson_log_weights_sum_matches_scipy():
    # a window's log-sum-exp is the log of its Poisson mass plus the rate,
    # in log space, for short, cdf, whole-mass and deep-tail windows
    for rate, lo, hi in [(2.0, 0, 3), (2.0, 0, 0), (2.0, 0, 5), (150.0, 0, 150),
                         (150.0, 0, 40), (5.0, 0, 1000), (150.0, 300, 320)]:
        ref = scipy.special.logsumexp(
            scipy.stats.poisson.logpmf(np.arange(lo, hi + 1), rate)
        ) + rate
        got = log_sum_exp(poisson_log_weights(math.log(rate), lo, hi))
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12), (rate, lo, hi)
    # a window reaching below 0 is rejected
    with pytest.raises(ValueError, match="non-negative"):
        poisson_log_weights(math.log(2.0), -1, 5)
    # e^1000 overflows a float; the weights and their sum stay exact
    k = np.arange(0, 801)
    ref = k * 1000.0 - scipy.special.gammaln(k + 1)
    logs = poisson_log_weights(1000.0, 0, 800)
    assert np.allclose(logs, ref, rtol=1e-14, atol=0)
    assert log_sum_exp(logs) == pytest.approx(scipy.special.logsumexp(ref), rel=1e-14)


def test_poisson_log_weights_edges_and_table_growth(monkeypatch):
    with pytest.raises(ValueError, match="non-negative"):
        poisson_log_weights(0.5, -3, -4)  # even when the window is empty
    for lo, hi in ((3, 2), (0, -1), (0, -5), (7, 0)):
        assert poisson_log_weights(0.5, lo, hi).shape == (0,), (lo, hi)
    # a window far past the table's end grows it, and every entry is the
    # level times the log rate less lgamma(k + 1), bit for bit
    monkeypatch.setattr(core, "_LOG_FACT", np.array([0.0]))
    monkeypatch.setattr(core, "_LEVELS", np.array([0.0]))
    log_rate = math.log(150.0)
    logs = poisson_log_weights(log_rate, 4990, 5000)
    assert core._LOG_FACT.size == core._LEVELS.size > 5000
    want = [k * log_rate - math.lgamma(k + 1) for k in range(4990, 5001)]
    assert logs.tolist() == want
    assert poisson_log_weights(log_rate, 0, 2).tolist() == [
        k * log_rate - math.lgamma(k + 1) for k in range(3)]


# ---------------------------------------------------------------------------
# SystemParams and validation
# ---------------------------------------------------------------------------


def test_params_derived_quantities(full_params):
    assert full_params.rho == 150.0


def test_params_validation_errors():
    with pytest.raises(ValueError):
        SystemParams(n=0, lam=1.0, beta=1.0, nu=1.0, mu=10.0)
    with pytest.raises(ValueError):
        SystemParams(n=10, lam=-1.0, beta=1.0, nu=1.0, mu=10.0)
    with pytest.raises(ValueError):
        SystemParams(n=10, lam=1.0, beta=1.0, nu=1.0, mu=0.0)
    with pytest.raises(ValueError):
        SystemParams(n=10, lam=math.inf, beta=1.0, nu=1.0, mu=10.0)
    # lam and beta each valid, but their product overflows to inf or rounds to 0
    with pytest.raises(ValueError, match="rho"):
        SystemParams(n=10, lam=1e200, beta=1e200, nu=1.0, mu=10.0)
    with pytest.raises(ValueError, match="rho"):
        SystemParams(n=10, lam=1e-200, beta=1e-200, nu=1.0, mu=10.0)


# ---------------------------------------------------------------------------
# FlowDistribution
# ---------------------------------------------------------------------------


def test_distribution_point_mass():
    p = np.zeros(151)
    p[150] = 1.0
    d = FlowDistribution(p)
    assert d.mean() == 150.0
    tail = d.to_tail()
    assert tail[0] == 1.0 and tail[150] == 1.0
    assert np.all(tail[:151] == 1.0)


def test_distribution_two_level_mean():
    d = FlowDistribution(np.array([0.0, 0.5, 0.5]))
    assert d.mean() == pytest.approx(1.5)
    assert np.allclose(d.to_tail(), [1.0, 1.0, 0.5])


def test_distribution_rejects_bad_pmf():
    with pytest.raises(ValueError):
        FlowDistribution(np.array([0.5, 0.6]))  # sums to 1.1
    with pytest.raises(ValueError):
        FlowDistribution(np.array([-0.2, 1.2]))  # negative entry
    with pytest.raises(ValueError):
        FlowDistribution(np.zeros(0))
    with pytest.raises(ValueError):
        FlowDistribution(np.ones((2, 2)) / 4.0)


def test_distribution_rejects_non_finite_entries():
    # every comparison with NaN is False, so range checks must be written
    # so that NaN fails them
    with pytest.raises(ValueError, match="finite"):
        FlowDistribution(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        FlowDistribution.from_tail([1.0, np.nan, 0.2])


def test_distribution_tolerates_rounding_noise():
    p = np.array([0.25, 0.25, 0.25, 0.25 + 5e-13, -5e-13])
    d = FlowDistribution(p)
    assert d.p[4] == 0.0  # clipped into range


def test_from_tail_round_trip_simple():
    d = FlowDistribution(np.array([0.1, 0.2, 0.3, 0.4]))
    back = FlowDistribution.from_tail(d.to_tail())
    assert np.allclose(back.p, d.p, atol=1e-15)


def test_from_tail_rejects_increasing():
    with pytest.raises(ValueError):
        FlowDistribution.from_tail(np.array([1.0, 0.4, 0.5]))


@given(
    weights=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40).filter(
        lambda w: sum(w) > 1e-6
    )
)
@settings(max_examples=200)
def test_tail_round_trip_property(weights):
    p = np.asarray(weights, dtype=np.float64)
    p = p / p.sum()
    d = FlowDistribution(p)
    tail = d.to_tail()
    # tails are non-increasing and start at 1
    assert tail[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(tail) <= 1e-12)
    back = FlowDistribution.from_tail(tail)
    assert np.max(np.abs(back.p - d.p)) <= 1e-12


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------


def test_total_variation_basic():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    assert total_variation(p, q) == pytest.approx(1.0)
    assert total_variation(p, p) == 0.0


def test_total_variation_pads_shorter():
    p = np.array([0.5, 0.5])
    q = np.array([0.5, 0.25, 0.25])
    assert total_variation(p, q) == pytest.approx(0.25)
    assert total_variation(q, p) == pytest.approx(0.25)


def test_total_variation_accepts_distributions():
    a = FlowDistribution(np.array([0.5, 0.5]))
    b = FlowDistribution(np.array([0.25, 0.75]))
    assert total_variation(a, b) == pytest.approx(0.25)


@given(
    w1=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20).filter(lambda w: sum(w) > 1e-6),
    w2=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20).filter(lambda w: sum(w) > 1e-6),
)
@settings(max_examples=100)
def test_total_variation_is_metric_like(w1, w2):
    p = np.asarray(w1) / sum(w1)
    q = np.asarray(w2) / sum(w2)
    tv = total_variation(p, q)
    assert 0.0 <= tv <= 1.0 + 1e-12
    assert tv == pytest.approx(total_variation(q, p), abs=1e-15)


# ---------------------------------------------------------------------------
# scheme configs
# ---------------------------------------------------------------------------


def test_scheme_config_validation():
    assert PowerOfD(d=1).d == 1
    with pytest.raises(ValueError):
        PowerOfD(d=0)
    assert PullBased(low=140, high=160).high == 160
    assert PullBased(low=0, high=math.inf).high == math.inf
    with pytest.raises(ValueError):
        PullBased(low=160, high=140)
    with pytest.raises(ValueError):
        PullBased(low=160, high=160)
    assert Shedding(high=math.inf).high == math.inf
    with pytest.raises(ValueError):
        Shedding(high=0)
    assert TransferToInvite(low=140, high=160).low == 140
    with pytest.raises(ValueError):
        TransferToInvite(low=140, high=math.inf)  # finite threshold required
    assert TransferToLeastLoaded(high=160).high == 160
    with pytest.raises(ValueError):
        TransferToLeastLoaded(high=0)
    assert BinBased(bins=5000, low=140, high=160).bins == 5000
    with pytest.raises(ValueError):
        BinBased(bins=0, low=140, high=160)
    with pytest.raises(ValueError):
        BinBased(bins=100, low=160, high=140)


def test_scheme_config_rejects_float_levels():
    with pytest.raises(ValueError):
        PullBased(low=1.5, high=3)
    with pytest.raises(ValueError):
        Shedding(high=2.5)


def test_scheme_configs_frozen():
    cfg = PullBased(low=140, high=160)
    with pytest.raises(AttributeError):
        cfg.low = 100
