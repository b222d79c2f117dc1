"""Unit tests for join probabilities, fixed-point solvers and the ODE.

Independent oracles: window-restricted Poisson laws built from
scipy.stats.poisson with the offered load found by scipy.optimize.brentq,
so solver agreement does not rest on shared code.  Frozen constants pin
regression values observed from those oracles.
"""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from stickysim.core import (
    BinBased,
    FlowDistribution,
    PowerOfD,
    PullBased,
    Shedding,
    SystemParams,
    TransferToInvite,
    TransferToLeastLoaded,
    total_variation,
)
from stickysim.mean_field import (
    BracketError,
    NumericalError,
    UnsupportedConfigError,
    default_i_max,
    fixed_point,
    fixed_point_residual,
    integrate_ode,
    join_probs,
    jsq_fixed_point,
    jsq_two_level_mass,
    power_of_d_tail_bound,
    shedding_fixed_point,
    solve_least_loaded_fixed_point,
    solve_pull_fixed_point,
    solve_transfer_invite_fixed_point,
)


def _window_poisson(sigma: float, lo: int, hi: int) -> np.ndarray:
    """Poisson(sigma) conditioned on lo..hi, embedded on 0..hi (scipy oracle)."""
    k = np.arange(lo, hi + 1)
    w = scipy.stats.poisson.pmf(k, sigma)
    p = np.zeros(hi + 1)
    p[lo:] = w / w.sum()
    return p


def _window_mean(sigma: float, lo: int, hi: int) -> float:
    p = _window_poisson(sigma, lo, hi)
    return float(np.arange(p.size) @ p)


# ---------------------------------------------------------------------------
# join probabilities
# ---------------------------------------------------------------------------


def test_join_probs_power_of_d_hand_case():
    s = np.array([1.0, 0.5])
    q = join_probs(PowerOfD(d=2), s, rho=0.5)
    # join at level 0 w.p. 1 - s_1^2, at level 1 with the rest
    assert q[0] == pytest.approx(0.75)
    assert q[1] == pytest.approx(0.25)
    assert q.sum() == pytest.approx(1.0)


def test_join_probs_random_assignment_is_pmf():
    s = np.array([1.0, 0.7, 0.2, 0.05])
    q = join_probs(PowerOfD(d=1), s, rho=1.0)
    p = FlowDistribution.from_tail(s).p
    assert np.allclose(q[: p.size], p, atol=1e-12)


def test_join_probs_shedding_misses_mass_at_threshold():
    s = np.array([1.0, 0.6, 0.3])
    q = join_probs(Shedding(high=2), s, rho=1.0)
    # arrivals landing on occupancy >= 2 (fraction s_2) are discarded
    assert q.sum() == pytest.approx(1.0 - 0.3)


@pytest.mark.parametrize(
    "scheme",
    [
        PowerOfD(d=1),
        PowerOfD(d=3),
        PullBased(low=2, high=5),
        TransferToInvite(low=2, high=5),
        TransferToLeastLoaded(high=5),
    ],
)
def test_join_probs_conserve_arrivals(scheme):
    # no scheme except shedding ever discards an arrival
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = rng.dirichlet(np.ones(8))
        s = FlowDistribution(p).to_tail()
        q = join_probs(scheme, s, rho=3.0)
        assert q.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(q >= -1e-15)


def test_join_probs_bin_scheme_unsupported():
    with pytest.raises(UnsupportedConfigError):
        join_probs(BinBased(bins=100, low=2, high=5), np.array([1.0, 0.5]), rho=1.0)


# ---------------------------------------------------------------------------
# closed-form fixed points
# ---------------------------------------------------------------------------


def test_jsq_fixed_point_integer_and_fractional():
    d = jsq_fixed_point(150.0)
    assert d.p[150] == pytest.approx(1.0)
    assert d.mean() == pytest.approx(150.0)
    d2 = jsq_fixed_point(150.5)
    assert d2.p[150] == pytest.approx(0.5)
    assert d2.p[151] == pytest.approx(0.5)
    assert d2.mean() == pytest.approx(150.5)


def test_jsq_fixed_point_is_stationary():
    # stationarity checked through the d = n limit expressed as a pull window
    d = jsq_fixed_point(150.5)
    res = fixed_point_residual(PullBased(low=150, high=151), d, 150.5)
    assert res <= 1e-12


def test_jsq_two_level_mass_closed_form():
    # 1 - rho * P[Poisson(n rho) = n rho], against scipy's pmf
    for rho, n in ((10, 20), (150, 500), (150, 240_000)):
        oracle = 1.0 - rho * scipy.stats.poisson.pmf(n * rho, n * rho)
        assert jsq_two_level_mass(rho, n) == pytest.approx(oracle, rel=1e-9)
    # the reference point of criterion 4b, and the size that reaches 0.99
    assert jsq_two_level_mass(150, 500) == pytest.approx(0.7815, abs=1e-4)
    assert jsq_two_level_mass(150, 240_000) == pytest.approx(0.99, abs=1e-4)
    assert jsq_two_level_mass(150, 200_000) < 0.99
    # Stirling form 1 - sqrt(rho / (2 pi n))
    for n in (500, 5000, 10**5):
        approx = 1.0 - math.sqrt(150 / (2 * math.pi * n))
        assert jsq_two_level_mass(150, n) == pytest.approx(approx, abs=1e-5)
    with pytest.raises(ValueError):
        jsq_two_level_mass(150.5, 500)
    with pytest.raises(ValueError):
        jsq_two_level_mass(150, 0)


def test_shedding_fixed_point_matches_scipy(full_params):
    d = shedding_fixed_point(150.0, 160)
    oracle = _window_poisson(150.0, 0, 160)
    assert total_variation(d.p, oracle) <= 1e-12
    assert fixed_point_residual(Shedding(high=160), d, 150.0) <= 1e-12


def test_shedding_fixed_point_unbounded_is_poisson():
    d = shedding_fixed_point(3.0, math.inf)
    oracle = scipy.stats.poisson.pmf(np.arange(d.p.size), 3.0)
    assert np.allclose(d.p, oracle / oracle.sum(), atol=1e-12)
    assert d.mean() == pytest.approx(3.0, abs=1e-9)


def test_power_of_d_bound_shape():
    # flat at 1 through floor(rho), then doubly geometric decay
    assert power_of_d_tail_bound(5.3, 2, 0) == 1.0
    assert power_of_d_tail_bound(5.3, 2, 5) == 1.0
    r = 5.3 / 6.0
    assert power_of_d_tail_bound(5.3, 2, 6) == pytest.approx(r)
    assert power_of_d_tail_bound(5.3, 2, 7) == pytest.approx(r**3)
    assert power_of_d_tail_bound(5.3, 2, 8) == pytest.approx(r**7)
    # deep levels underflow to exactly 0, never negative
    assert power_of_d_tail_bound(5.3, 2, 60) == 0.0
    with pytest.raises(ValueError):
        power_of_d_tail_bound(5.3, 0, 3)


def test_default_i_max_covers_load():
    assert default_i_max(150.0) >= 190
    assert default_i_max(150.0, high=400) >= 400


# ---------------------------------------------------------------------------
# window solvers vs scipy-built oracles
# ---------------------------------------------------------------------------


def test_pull_window_solver_low_load_regime():
    # rho below the invite threshold: law lives on [0, low]; independent
    # oracle is brentq on the window-mean equation for that window
    rho, lo, hi = 2.0, 5, 8
    sigma_ref = scipy.optimize.brentq(
        lambda s: _window_mean(s, 0, lo) - rho, 1e-9, 50.0, xtol=1e-12
    )
    dist, diag = solve_pull_fixed_point(rho, lo, hi)
    assert diag.sigma == pytest.approx(sigma_ref, abs=1e-8)
    assert diag.sigma == pytest.approx(2.0871917646792753, rel=1e-9)  # frozen
    support = np.nonzero(dist.p > 1e-15)[0]
    assert support.max() <= lo
    assert total_variation(dist.p, _window_poisson(sigma_ref, 0, lo)) <= 1e-9
    assert dist.mean() == pytest.approx(rho, abs=1e-9)


def test_pull_window_solver_overload_regime():
    # rho at or above the high threshold: law lives on [high, inf) and the
    # mean still matches rho; oracle via brentq on the conditional mean
    rho, lo, hi = 9.0, 2, 4

    def cond_mean(sigma: float) -> float:
        k = np.arange(hi, 200)
        w = scipy.stats.poisson.pmf(k, sigma)
        return float((k * w).sum() / w.sum())

    sigma_ref = scipy.optimize.brentq(
        lambda s: cond_mean(s) - rho, 1e-3, 100.0, xtol=1e-10
    )
    dist, diag = solve_pull_fixed_point(rho, lo, hi)
    assert diag.sigma == pytest.approx(sigma_ref, abs=1e-7)
    assert diag.sigma == pytest.approx(8.849851652472957, rel=1e-9)  # frozen
    assert diag.dummy_user_rate is not None and diag.dummy_user_rate > 0
    support = np.nonzero(dist.p > 1e-15)[0]
    assert support.min() == hi
    assert dist.mean() == pytest.approx(rho, abs=1e-8)


def test_pull_reference_configuration():
    dist, diag = solve_pull_fixed_point(150.0, 140, 160)
    assert diag.sigma == pytest.approx(150.4303842617148, rel=1e-10)
    assert dist.p[140] == pytest.approx(0.03825018934383274, rel=1e-9)
    assert dist.p[150] == pytest.approx(0.053481775402287074, rel=1e-9)
    assert dist.p[160] == pytest.approx(0.03845905731242042, rel=1e-9)
    assert dist.mean() == pytest.approx(150.0, abs=1e-8)
    assert fixed_point_residual(PullBased(low=140, high=160), dist, 150.0) <= 1e-8
    sigma_ref = scipy.optimize.brentq(
        lambda s: _window_mean(s, 140, 160) - 150.0, 100.0, 200.0, xtol=1e-10
    )
    assert diag.sigma == pytest.approx(sigma_ref, abs=1e-7)


def test_transfer_invite_matches_pull_when_load_in_window():
    a, _ = solve_pull_fixed_point(150.0, 140, 160)
    b, _ = solve_transfer_invite_fixed_point(150.0, 140, 160)
    assert total_variation(a, b) <= 1e-12


def test_transfer_invite_low_load_regime():
    # rho below the invite threshold: distinct law, frozen sigma pin
    dist, diag = solve_transfer_invite_fixed_point(2.0, 5, 8)
    assert diag.sigma == pytest.approx(2.0018193280304075, rel=1e-9)
    assert fixed_point_residual(TransferToInvite(low=5, high=8), dist, 2.0) <= 1e-10
    assert dist.mean() == pytest.approx(2.0, abs=1e-8)


def test_transfer_invite_left_leaning_window_spills_below_low():
    # rho barely above `low`: the window law on [low, high] leans left, so
    # the transfer stream (rho * p_high) cannot keep up with the dips opening
    # at the low edge (low * p_low) and the support must spill below `low`.
    rho, low, high = 9.3412, 9, 13
    scheme = TransferToInvite(low=low, high=high)
    dist, diag = solve_transfer_invite_fixed_point(rho, low, high)

    window, _ = solve_pull_fixed_point(rho, low, high)
    assert rho * window.p[high] < low * window.p[low]
    assert fixed_point_residual(scheme, window, rho) > 1.0

    assert fixed_point_residual(scheme, dist, rho) <= 1e-10
    assert dist.mean() == pytest.approx(rho, abs=1e-8)
    assert float(dist.p[:low].sum()) == pytest.approx(0.34034474363947403, rel=1e-9)
    assert diag.sigma == pytest.approx(11.46160196935189, rel=1e-9)

    # independent check of the splice: sigma-Poisson ratios below low,
    # rho ratios above, and continuity of the balance at the low edge
    levels = np.arange(1, high + 1)
    ratios = dist.p[1:] / dist.p[:-1]
    assert np.allclose(ratios[: low] * levels[: low], diag.sigma, rtol=1e-9)
    assert np.allclose(ratios[low:] * levels[low:], rho, rtol=1e-9)


def test_least_loaded_two_point_case():
    # rho = 3.5 against cap 4 concentrates on {3, 4} evenly
    d = solve_least_loaded_fixed_point(3.5, 4)
    assert d.p[3] == pytest.approx(0.5, abs=1e-12)
    assert d.p[4] == pytest.approx(0.5, abs=1e-12)
    assert fixed_point_residual(TransferToLeastLoaded(high=4), d, 3.5) <= 1e-10


def test_least_loaded_window_case():
    d = solve_least_loaded_fixed_point(3.5, 5)
    frozen = [0.186648501362398, 0.3269754768392369, 0.28610354223433265,
              0.20027247956403257]
    assert np.allclose(d.p[2:6], frozen, rtol=1e-9)
    assert d.mean() == pytest.approx(3.5, abs=1e-9)
    assert fixed_point_residual(TransferToLeastLoaded(high=5), d, 3.5) <= 1e-10


def test_least_loaded_reference_configuration():
    d = solve_least_loaded_fixed_point(150.0, 160)
    support = np.nonzero(d.p > 0)[0]
    assert support[0] == 140  # lowest occupied level
    assert d.p[160] == pytest.approx(0.03772698059520348, rel=1e-9)
    assert fixed_point_residual(TransferToLeastLoaded(high=160), d, 150.0) <= 1e-8


def test_least_loaded_degenerate_support_rejected():
    # cap so tight even level 0 exceeds the allowed weight profile
    with pytest.raises((UnsupportedConfigError, ValueError)):
        solve_least_loaded_fixed_point(0.0, 2)


def test_fixed_point_dispatch(full_params):
    d = fixed_point(PullBased(low=140, high=160), 150.0)
    ref, _ = solve_pull_fixed_point(150.0, 140, 160)
    assert total_variation(d, ref) == 0.0
    assert fixed_point(PowerOfD(d=1), 3.0).mean() == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(UnsupportedConfigError):
        fixed_point(PowerOfD(d=2), 3.0)
    with pytest.raises(UnsupportedConfigError):
        fixed_point(BinBased(bins=100, low=140, high=160), 150.0)


def test_solvers_are_deterministic():
    a, da = solve_pull_fixed_point(150.0, 140, 160)
    b, db = solve_pull_fixed_point(150.0, 140, 160)
    assert np.array_equal(a.p, b.p)
    assert da.sigma == db.sigma


# ---------------------------------------------------------------------------
# ODE integration (small configurations; the reference scale runs in the
# acceptance suite)
# ---------------------------------------------------------------------------


def test_ode_random_assignment_relaxes_to_poisson():
    params = SystemParams(n=100, lam=3.0, beta=1.0, nu=1.0, mu=10.0)
    s0 = np.zeros(30)
    s0[0] = 1.0
    out = integrate_ode(PowerOfD(d=1), params, s0, t_end=40.0, stop_residual=1e-10)
    target = shedding_fixed_point(3.0, math.inf)
    assert total_variation(out.distribution(), target) <= 1e-6
    assert out.residual <= 1e-10


def test_ode_pull_small_window_from_two_starts():
    # rho below the invite threshold: saturated starts are outside the
    # integrator's documented envelope, so start empty and spread instead
    params = SystemParams(n=100, lam=2.0, beta=1.0, nu=1.0, mu=10.0)
    ref, _ = solve_pull_fixed_point(2.0, 5, 8)
    spread = np.concatenate((np.linspace(1.0, 0.1, 10), np.zeros(5)))
    for s0 in (np.concatenate(([1.0], np.zeros(14))), spread):
        out = integrate_ode(PullBased(low=5, high=8), params, s0, t_end=80.0,
                            stop_residual=1e-10)
        assert total_variation(out.distribution(), ref) <= 1e-6


def test_ode_result_records_trajectory():
    params = SystemParams(n=10, lam=1.0, beta=1.0, nu=1.0, mu=10.0)
    s0 = np.concatenate(([1.0], np.zeros(9)))
    out = integrate_ode(PowerOfD(d=1), params, s0, t_end=2.0, record_every=0.5)
    assert len(out.trajectory) >= 4
    times = [pt[0] for pt in out.trajectory]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    assert all(pt[1].size == s0.size for pt in out.trajectory)
    assert out.t <= 2.0 + 1e-9
    assert out.steps > 0


def test_ode_rejects_bad_inputs():
    params = SystemParams(n=10, lam=1.0, beta=1.0, nu=1.0, mu=10.0)
    with pytest.raises(ValueError):
        integrate_ode(PowerOfD(d=1), params, np.array([0.5, 0.2]), t_end=1.0)
    with pytest.raises(ValueError):
        integrate_ode(PowerOfD(d=1), params, np.array([1.0, 0.5]), t_end=-1.0)
    with pytest.raises(ValueError):
        integrate_ode(PowerOfD(d=1), params, np.array([1.0, 0.5, 0.9]), t_end=1.0)


def test_error_hierarchy():
    assert issubclass(BracketError, NumericalError)
    assert issubclass(NumericalError, RuntimeError)
    assert issubclass(UnsupportedConfigError, ValueError)
