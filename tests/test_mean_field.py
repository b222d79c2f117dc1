"""Unit tests for join probabilities, fixed-point solvers and the ODE.

Independent oracles: window-restricted Poisson laws built from
scipy.stats.poisson with the offered load found by scipy.optimize.brentq,
so solver agreement does not rest on shared code.  Frozen constants pin
regression values observed from those oracles.
"""

import hashlib
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
    log_factorial,
    total_variation,
)
from stickysim import mean_field as mf
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


def _least_loaded_by_search(rho: float, high: int) -> np.ndarray:
    """The least-loaded band law as the solver found its band start before
    the search was vectorized: one scalar log weight per level, walked up
    from 0.  The oracle for the vectorized search, rho < high only."""
    log_rho = math.log(rho)

    def log_u(i: int) -> float:
        return log_factorial(high) - log_factorial(i) + (i - high) * log_rho

    istar = next((i for i in range(high + 1) if log_u(i) > 0.0), None)
    if istar is None:
        raise NumericalError("no level qualifies")
    if istar == 0:
        raise UnsupportedConfigError("support would reach occupancy 0")
    band = np.arange(istar + 1, high + 1)
    u = np.exp(log_factorial(high) - log_factorial(band) + (band - high) * log_rho)
    u_star = rho / (rho - istar) * (math.exp(log_u(istar)) - 1.0)
    total = u_star + float(u.sum())
    p = np.zeros(high + 1)
    p[istar] = u_star / total
    p[istar + 1 :] = u / total
    return p


def test_least_loaded_band_start_matches_the_level_by_level_search():
    outcomes = set()
    for high in (1, 2, 3, 4, 5, 9, 20, 160, 200, 400):
        below = [np.nextafter(float(high), 0.0), high - 1e-12, high - 1e-9,
                 high - 0.5]
        for rho in [f * high for f in (0.05, 0.2, 0.5, 0.9, 0.99)] + below:
            if not 0.0 < rho < high:
                continue
            try:
                want = _least_loaded_by_search(rho, high)
            except (NumericalError, UnsupportedConfigError) as exc:
                with pytest.raises(type(exc)):
                    solve_least_loaded_fixed_point(rho, high)
                outcomes.add(type(exc))
                continue
            got = solve_least_loaded_fixed_point(rho, high).p
            assert np.array_equal(got, want), (rho, high)
            outcomes.add("band")
    # the grid reaches the band law, the support at 0 and, with rho within
    # rounding of high, no qualifying level at all
    assert outcomes == {"band", UnsupportedConfigError, NumericalError}


def test_least_loaded_rho_within_rounding_of_high_raises_numerical_error():
    # exactly, level 1 qualifies (log weight log(2 / rho) > 0); rounded, the
    # lgamma difference swallows it
    with pytest.raises(NumericalError, match="within rounding of high"):
        solve_least_loaded_fixed_point(np.nextafter(2.0, 0.0), 2)


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


FIXED_POINT_RUNS = {
    "pull-below-low": (solve_pull_fixed_point, (130.0, 140, 160)),
    "pull-window": (solve_pull_fixed_point, (150.0, 140, 160)),
    "pull-open-window": (solve_pull_fixed_point, (150.0, 140, math.inf)),
    "pull-overload": (solve_pull_fixed_point, (165.0, 140, 160)),
    "pull-small-overload": (solve_pull_fixed_point, (9.0, 2, 4)),
    "transfer-invite-window": (solve_transfer_invite_fixed_point, (150.0, 140, 160)),
    "transfer-invite-splice": (solve_transfer_invite_fixed_point, (100.0, 140, 160)),
    "transfer-invite-spill": (solve_transfer_invite_fixed_point, (9.3412, 9, 13)),
    "transfer-invite-overload": (
        solve_transfer_invite_fixed_point, (165.0, 140, 160)),
    "least-loaded": (solve_least_loaded_fixed_point, (150.0, 160)),
    "shedding-finite": (shedding_fixed_point, (150.0, 160)),
    "shedding-open": (shedding_fixed_point, (150.0, math.inf)),
}

# (sha256(p), sigma.hex(), iterations) of each FIXED_POINT_RUNS entry; the
# closed forms have no sigma
FIXED_POINT_PINNED = {
    "pull-below-low": (
        "e00b19b5c6ce2d593d6a0667fed42f9eaaf299822f729bb611c33c4c48f30985",
        "0x1.12df1f05464b4p+7", 51),
    "pull-window": (
        "9e149495bb5d1562ad9d0c42e3b272bc7e2e02010ac04aa06ab80d2ac1787809",
        "0x1.2cdc5b53718e7p+7", 49),
    "pull-open-window": (
        "b59867626111b25800017f05c12fadbe315f0a79aa9a2bb99e65185c45732c0b",
        "0x1.1bc521c3a071ep+7", 50),
    "pull-overload": (
        "836e5a3a1a6539ec3ddf4dd3b37efc10658fe701cdf0a7eebd80431688fd2024",
        "0x1.1ae911981539cp+7", 49),
    "pull-small-overload": (
        "f6dc564073ae9eca7b50ce3ce79914e05a99ff9a862e2efc0ff805c36542586f",
        "0x1.1b31fc17ba554p+3", 46),
    "transfer-invite-window": (
        "9e149495bb5d1562ad9d0c42e3b272bc7e2e02010ac04aa06ab80d2ac1787809",
        "0x1.2cdc5b53718e7p+7", 49),
    "transfer-invite-splice": (
        "db659bb54a4bee0b31347f7a258244310561025622819cd059ae9156247a7222",
        "0x1.90000034f4bdep+6", 49),
    "transfer-invite-spill": (
        "e8b98d64285548081e88b62de49a1c8898ced90883123e2226783a61b920c8da",
        "0x1.6ec5717e44568p+3", 46),
    "transfer-invite-overload": (
        "836e5a3a1a6539ec3ddf4dd3b37efc10658fe701cdf0a7eebd80431688fd2024",
        "0x1.1ae911981539cp+7", 49),
    "least-loaded": (
        "58708adad693c1d214a3ed8c6708a3adeb8217a9d44baf25824c07627bc82bc7",
        None, None),
    "shedding-finite": (
        "4a5330b891e17c987e6ca104ec531259a1dbe1fd401aabedc1adc69359d059a2",
        None, None),
    "shedding-open": (
        "90b06ebd687ecf413674ebcbb046e3578520efc24d50239b9c3b8b13e2e7fbf8",
        None, None),
}


@pytest.mark.parametrize("name", sorted(FIXED_POINT_RUNS))
def test_fixed_point_is_pinned_bit_for_bit(name):
    solve, args = FIXED_POINT_RUNS[name]
    out = solve(*args)
    dist, diag = out if isinstance(out, tuple) else (out, None)
    got = (hashlib.sha256(dist.p.tobytes()).hexdigest(),
           None if diag is None else float(diag.sigma).hex(),
           None if diag is None else diag.iterations)
    assert got == FIXED_POINT_PINNED[name]


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


@pytest.mark.parametrize("level,value", [
    (0, math.nan), (1, math.nan), (4, math.nan), (2, math.inf), (2, -math.inf),
])
def test_ode_rejects_a_non_finite_start(level, value):
    params = SystemParams(n=10, lam=1.0, beta=1.0, nu=1.0, mu=10.0)
    s0 = np.array([1.0, 0.5, 0.2, 0.0, 0.0])
    s0[level] = value
    with pytest.raises(ValueError, match=r"non-increasing tail in \[0, 1\]"):
        integrate_ode(PowerOfD(d=1), params, s0, t_end=1.0)


# ---------------------------------------------------------------------------
# ODE stepper output pinned bit for bit.  Each run takes a different branch of
# the join rules or of the hybrid integrator:
#   pull / transfer-invite from empty: at rho >= high the invite-region snap
#     to 1 (PIN_TOL) and the dip-refill correction (which the stacked
#     dip-absorbs runs hit too), below it neither;
#   stacked start: pinned levels released;
#   rho >= high: the all-servers-full rule (and, stacked at `high`, its
#     dips-absorb-everything branch; likewise the dip branches of the other
#     rules);
#   least-loaded at m >= high; finite-high shedding; d = 1, 2 and 3 (whose
#     powers are products, so they pin on every host); an s0 shorter than
#     high + 2; a stop on the residual; record_every.
# t, residual and max_projection are hex floats; tail and trajectory are
# SHA-256 digests of their bytes.  ODE_STOPS pins why each run stopped and
# its pin counts.
# ---------------------------------------------------------------------------


def _empty(size):
    s = np.zeros(size)
    s[0] = 1.0
    return s


def _stacked(size, top):
    s = np.zeros(size)
    s[: top + 1] = 1.0
    return s


def _load(rho):
    # beta != 1, so the departure term's (i * diff) / beta rounds
    return SystemParams(n=100, lam=rho / 1.5, beta=1.5, nu=1.0, mu=100.0)


ODE_RUNS = {
    "pull-empty": (PullBased(5, 8), 6.0, _empty(16), 2.0, {}),
    "transfer-invite-empty": (TransferToInvite(5, 8), 6.0, _empty(16), 2.0, {}),
    "pull-stacked": (PullBased(5, 8), 6.0, _stacked(16, 12), 2.0, {}),
    "pull-saturated": (PullBased(3, 5), 7.0, _empty(16), 2.0, {}),
    "transfer-invite-saturated": (TransferToInvite(3, 5), 8.0, _empty(16), 1.5, {}),
    "least-loaded-above-high": (TransferToLeastLoaded(4), 7.0, _empty(16), 2.0, {}),
    "least-loaded-short-s0": (TransferToLeastLoaded(8), 6.0, _empty(6), 1.0, {}),
    "shedding-finite": (Shedding(8), 6.0, _empty(16), 1.0, {}),
    "pull-dip-absorbs": (PullBased(5, 8), 3.0, _stacked(16, 5), 0.5, {}),
    "pull-saturated-dip-absorbs": (PullBased(3, 5), 4.0, _stacked(16, 5), 0.5, {}),
    "transfer-invite-dip-absorbs": (
        TransferToInvite(5, 8), 3.0, _stacked(16, 5), 0.5, {}),
    "least-loaded-dip-absorbs": (
        TransferToLeastLoaded(4), 3.0, _stacked(16, 5), 0.5, {}),
    "power-of-1": (PowerOfD(1), 3.0, _empty(20), 20.0, {"stop_residual": 1e-4}),
    "power-of-2": (PowerOfD(2), 5.3, _empty(20), 1.0, {"record_every": 0.25}),
    "power-of-3": (PowerOfD(3), 5.3, _empty(20), 1.0, {}),
}

# (t, steps, residual, max_projection, sha256(tail), sha256(trajectory))
ODE_PINNED = {
    "pull-empty": (
        "0x1.0020c49ba5e63p+1", 1334, "0x1.f8f0e0bb8f4e8p-2", "0x0.0p+0",
        "e53a83cafa9d3210c4cdb875955fcf67152029f8b41148f9a85e7abd8eddc360",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "transfer-invite-empty": (
        "0x1.0020c49ba5e63p+1", 1334, "0x1.ed1cc4d19a9a0p-3", "0x0.0p+0",
        "31659c09a457f2eb4fc3d5488c850196a0ffd0292939c1d2345115c8f15d3767",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "pull-stacked": (
        "0x1.0020c49ba5e63p+1", 1334, "0x1.14acb9f895ef8p-1", "0x1.129faca22a000p-14",
        "91ac79dc0bb6b69ae02d28ed3e7b9be70fef5df99eea808ed5d40269a1b3b95f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "pull-saturated": (
        "0x1.0020c49ba5e63p+1", 1334, "0x1.06f5d1c3ea391p+0", "0x1.08b8ea4367400p-10",
        "3737301bbd2055e1040191209b99f3aab7cd0484f55574171189cf72f931920c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "transfer-invite-saturated": (
        "0x1.8000000000006p+0", 1000, "0x1.d99a9451c2cf5p+0", "0x1.7a617e9329000p-11",
        "eced28292542a58f1f65fd332506b6519b5ad27cbb81a938695e9c30b7f06904",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "least-loaded-above-high": (
        "0x1.0020c49ba5e63p+1", 1334, "0x1.3aeee2e22c0dcp+0", "0x1.bc702167fc000p-11",
        "a65fd3b48077d36471069b8723661f26505fb011fce2d47c71277f7367ac280e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "least-loaded-short-s0": (
        "0x1.0020c49ba5de6p+0", 667, "0x1.dc6cae12d9738p-2", "0x0.0p+0",
        "0f8bd096d6444ea61e5e8bcc5d2de61c799a9eeb327147a0051a5a9c4b6d3d68",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "shedding-finite": (
        "0x1.0020c49ba5de6p+0", 667, "0x1.e348faea4dc80p-2", "0x0.0p+0",
        "77cd864af31ad3b86cfe4d335947833588795618e40890d39b44041cf3aa683c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "pull-dip-absorbs": (
        "0x1.0083126e978d8p-1", 334, "0x1.e8d377ecea230p-1", "0x0.0p+0",
        "a5af2de2187006fe875776e11d2506c6750aa15cb465c89f71033263cb7aa7c4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "pull-saturated-dip-absorbs": (
        "0x1.0083126e978d8p-1", 334, "0x1.6fb74e760acf8p-2", "0x1.0bfd166280000p-19",
        "b03ad8d1ce0c7c160e5cd99b04ff2204c8c649e82b00d27c05949103a8bd60a8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "transfer-invite-dip-absorbs": (
        "0x1.0083126e978d8p-1", 334, "0x1.6abfe68cb29bbp-1", "0x0.0p+0",
        "c1e1a15252dd65366b9717bfb6420ab5a8cbf549ae177886f18057fabfe73fef",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "least-loaded-dip-absorbs": (
        "0x1.0083126e978d8p-1", 334, "0x1.e8d377ecea230p-1", "0x0.0p+0",
        "a5af2de2187006fe875776e11d2506c6750aa15cb465c89f71033263cb7aa7c4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "power-of-1": (
        "0x1.9395810624ec0p+3", 8408, "0x1.a3576aae13000p-14", "0x0.0p+0",
        "ceb67639c6d49ad8b802bd6204258026379728a4886870daade204e04087a8aa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "power-of-2": (
        "0x1.0020c49ba5de6p+0", 667, "0x1.842fbf580c547p-1", "0x0.0p+0",
        "dc97b223ba7f53f3701f1afe335b1e835724bff3674a3bf65478d5cfa4d2a08b",
        "1d957c697c8f5fbb807bf53760204c0b9d2607753c122e49fc4199a0940a3fbc",
    ),
    "power-of-3": (
        "0x1.0020c49ba5de6p+0", 667, "0x1.03372a4a82b42p+0", "0x0.0p+0",
        "bf36bae7221a9dbb74e8a397e3e54d863ec2e9ad14d67c22e508979a1b9f4834",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


# (stop_reason, pins, releases) of each ODE_RUNS entry
ODE_STOPS = {
    "least-loaded-above-high": ("t_end", 5, 0),
    "least-loaded-dip-absorbs": ("t_end", 5, 1),
    "least-loaded-short-s0": ("t_end", 0, 0),
    "power-of-1": ("residual", 0, 0),
    "power-of-2": ("t_end", 0, 0),
    "power-of-3": ("t_end", 0, 0),
    "pull-dip-absorbs": ("t_end", 5, 1),
    "pull-empty": ("t_end", 0, 0),
    "pull-saturated": ("t_end", 5, 0),
    "pull-saturated-dip-absorbs": ("t_end", 5, 2),
    "pull-stacked": ("t_end", 30, 25),
    "shedding-finite": ("t_end", 0, 0),
    "transfer-invite-dip-absorbs": ("t_end", 5, 1),
    "transfer-invite-empty": ("t_end", 0, 0),
    "transfer-invite-saturated": ("t_end", 5, 0),
}


def _run_ode(name):
    scheme, rho, s0, t_end, kwargs = ODE_RUNS[name]
    return integrate_ode(scheme, _load(rho), s0.copy(), t_end, **kwargs)


def _trajectory_digest(trajectory):
    h = hashlib.sha256()
    for t, frame in trajectory:
        h.update(float(t).hex().encode())
        h.update(frame.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(ODE_RUNS))
def test_ode_output_is_pinned_bit_for_bit(name):
    out = _run_ode(name)
    got = (
        float(out.t).hex(), out.steps, float(out.residual).hex(),
        float(out.max_projection).hex(),
        hashlib.sha256(out.tail.tobytes()).hexdigest(),
        _trajectory_digest(out.trajectory),
    )
    assert got == ODE_PINNED[name]


def test_ode_terminal_projection_error_is_pinned():
    with pytest.raises(NumericalError, match="projection distance 0.0012219"):
        integrate_ode(TransferToInvite(3, 5), _load(7.0), _empty(16), 2.0)


STALL = (TransferToLeastLoaded(60),
         SystemParams(n=100, lam=50.0, beta=1.0, nu=1.0, mu=100.0))


@pytest.fixture(scope="module")
def stalled():
    # least-loaded from empty below `high`: the band settles at the rule's
    # CASE_EPS cut, just short of the pin threshold, and the top band level's
    # drift is cancelled by the projection every step, so the residual stays
    # near 4e-8 and never reaches stop_residual
    scheme, params = STALL
    return integrate_ode(scheme, params, _empty(100), t_end=60.0, stop_residual=1e-9)


def test_ode_stops_when_a_step_changes_nothing(stalled):
    scheme, params = STALL
    assert stalled.stop_reason == "stationary"
    assert stalled.residual > 1e-9
    assert stalled.steps < math.ceil(60.0 / 1e-3)
    assert stalled.t < 60.0
    # every later step repeats the last one: a restart that cannot stop early
    # hands the same tail back
    again = integrate_ode(scheme, params, stalled.tail.copy(), t_end=0.01)
    assert again.stop_reason == "t_end"
    assert again.steps == 10
    assert again.tail.tobytes() == stalled.tail.tobytes()
    assert again.residual == stalled.residual
    # with stop_residual given, the same restart stops as soon as it can tell:
    # after its first step, which changes nothing, since the start's drift
    # released nothing
    early = integrate_ode(scheme, params, stalled.tail.copy(), t_end=0.01,
                          stop_residual=1e-9)
    assert (early.stop_reason, early.steps) == ("stationary", 1)


def test_ode_result_says_why_it_stopped_and_counts_pins(stalled):
    assert stalled.stop_reason == "stationary"
    assert stalled.pins == stalled.releases == 0

    on_residual = _run_ode("power-of-1")
    assert on_residual.stop_reason == "residual"
    assert on_residual.residual < 1e-4
    assert on_residual.steps < math.ceil(20.0 / 1.5e-3)
    assert on_residual.pins == on_residual.releases == 0

    on_t_end = _run_ode("pull-stacked")
    assert on_t_end.stop_reason == "t_end"
    assert on_t_end.steps == math.ceil(2.0 / 1.5e-3)
    # 12 levels pinned by the start, 18 pinned again on the way down; pins -
    # releases is the prefix still pinned, and those levels sit exactly at 1
    assert (on_t_end.pins, on_t_end.releases) == (30, 25)
    held = on_t_end.pins - on_t_end.releases
    assert np.all(on_t_end.tail[: held + 1] == 1.0)
    assert on_t_end.tail[held + 1] < 1.0


def test_ode_result_buffers_are_copies():
    out = _run_ode("power-of-2")
    frames = [frame for _, frame in out.trajectory]
    assert len(frames) == 3
    arrays = [out.tail] + frames
    for i, a in enumerate(arrays):
        assert not a.flags.writeable
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)
    assert not np.array_equal(frames[0], frames[-1])


@pytest.mark.parametrize("kwargs", [
    {"record_every": 0.0}, {"record_every": -1.0}, {"record_every": math.nan},
    {"record_every": math.inf}, {"dt": 0.0}, {"dt": -1e-3}, {"dt": math.nan},
    {"dt": math.inf}, {"t_end": 0.0}, {"t_end": math.nan}, {"t_end": math.inf},
    # a NaN, zero or negative stop_residual would never stop the run early
    {"stop_residual": math.nan}, {"stop_residual": 0.0},
    {"stop_residual": -1e-9}, {"stop_residual": math.inf},
])
def test_ode_rejects_non_positive_or_non_finite_step_arguments(kwargs):
    params = SystemParams(n=10, lam=1.0, beta=1.0, nu=1.0, mu=10.0)
    args = {"t_end": 1.0, **kwargs}
    with pytest.raises(ValueError, match="must be positive and finite"):
        integrate_ode(PowerOfD(d=1), params, _empty(5), **args)


@pytest.mark.parametrize("scheme", [
    PowerOfD(1), PowerOfD(2), Shedding(6), Shedding(math.inf),
    PullBased(3, 6), PullBased(3, math.inf), TransferToInvite(3, 6),
    TransferToLeastLoaded(6), PowerOfD(3),
])
def test_join_rule_writes_every_entry(scheme):
    # integrate_ode hands the rule a reused q buffer: whatever it held must
    # not leak into the result
    rule, need, _ = mf._join_rule(scheme, 5.0)
    rng = np.random.default_rng(4)
    tails = [np.sort(rng.random(10))[::-1] for _ in range(20)]
    tails += [_stacked(10, top) for top in (2, 3, 6, 9)]
    for s in tails:
        s = s.copy()
        s[0] = 1.0
        sp = np.zeros(max(s.size + 1, need + 2))
        sp[: s.size] = s
        q = np.full(sp.size - 1, np.nan)
        rule(sp, q)
        assert q.tobytes() == join_probs(scheme, s, 5.0).tobytes()


def test_error_hierarchy():
    assert issubclass(BracketError, NumericalError)
    assert issubclass(NumericalError, RuntimeError)
    assert issubclass(UnsupportedConfigError, ValueError)
