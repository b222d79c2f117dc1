"""Unit tests for the event-driven flow-level simulator.

Scheme rules are exercised through whole runs of the event loop, checked
for determinism, conservation properties and agreement with the analytic
laws at reduced scale; tests/test_flow_kernel.py ties the compiled kernel to
the Python loop draw for draw.
"""

import functools
import math

import numpy as np
import pytest

from conftest import without_kernel
from stickysim.core import (
    BinBased,
    PowerOfD,
    PullBased,
    Shedding,
    SystemParams,
    TransferToInvite,
    TransferToLeastLoaded,
    total_variation,
)
from stickysim.flow_sim import RngStream, SimConfig, SimStats, run_flow_sim
from stickysim.mean_field import (
    jsq_fixed_point,
    jsq_two_level_mass,
    shedding_fixed_point,
    solve_pull_fixed_point,
)
from stickysim.metrics import shedding_violation


# ---------------------------------------------------------------------------
# RNG stream
# ---------------------------------------------------------------------------


def test_rng_stream_deterministic_across_refills():
    a = RngStream(123)
    b = RngStream(123)
    # 70000 draws cross the 65536 buffer boundary
    seq_a = [a.uniform() for _ in range(70_000)]
    seq_b = [b.uniform() for _ in range(70_000)]
    assert seq_a == seq_b
    assert all(0.0 <= u < 1.0 for u in seq_a[:1000])


def test_rng_stream_seeds_differ():
    assert [RngStream(1).uniform() for _ in range(4)] != [
        RngStream(2).uniform() for _ in range(4)
    ]


# ---------------------------------------------------------------------------
# configuration and stats containers
# ---------------------------------------------------------------------------


def test_sim_config_defaults(full_params):
    cfg = SimConfig(params=full_params, scheme=PullBased(low=140, high=160))
    assert cfg.warmup == pytest.approx(50 * 1.5)
    assert cfg.horizon == pytest.approx(200 * 1.5)
    assert cfg.seed == 0 and cfg.tracked_server == 0
    assert not cfg.drain_to_threshold


def test_sim_config_validation(full_params):
    scheme = PullBased(low=140, high=160)
    with pytest.raises(ValueError):
        SimConfig(params=full_params, scheme=scheme, horizon=0.0)
    with pytest.raises(ValueError):
        SimConfig(params=full_params, scheme=scheme, warmup=-1.0)
    # a run with an infinite horizon never ends; a NaN or infinite warmup
    # never opens the measurement window
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            SimConfig(params=full_params, scheme=scheme, horizon=bad)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="warmup must be non-negative and finite"):
            SimConfig(params=full_params, scheme=scheme, warmup=bad)
    with pytest.raises(ValueError):
        SimConfig(params=full_params, scheme=scheme, tracked_server=500)
    with pytest.raises(ValueError):
        SimConfig(params=full_params, scheme=scheme, seed=-1)
    # the drain flag is a bin-run option; flow-level runs would ignore it
    with pytest.raises(ValueError, match="drain_to_threshold"):
        SimConfig(params=full_params, scheme=scheme, drain_to_threshold=True)
    SimConfig(params=full_params, scheme=BinBased(bins=1000, low=140, high=160),
              drain_to_threshold=True)


def test_sim_stats_invariants():
    hist = np.array([0.5, 0.5])
    series = np.zeros((1, 2))
    with pytest.raises(ValueError):
        SimStats(occupancy_hist=hist, violations=3, total_flows=2,
                 series=series, mean_occ=0.5)
    ok = SimStats(occupancy_hist=hist, violations=0, total_flows=0,
                  series=series, mean_occ=0.5)
    assert ok.violation_rate == 0.0
    assert ok.distribution().mean() == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------


def test_run_rejects_bin_scheme(small_params):
    cfg = SimConfig(params=small_params, scheme=BinBased(bins=40, low=2, high=5))
    with pytest.raises(TypeError):
        run_flow_sim(cfg)


def test_run_without_window_events_raises(small_params):
    cfg = SimConfig(params=small_params, scheme=PowerOfD(d=1),
                    warmup=1000.0, horizon=1e-9)
    with pytest.raises(ValueError):
        run_flow_sim(cfg)


def test_run_is_deterministic(small_params):
    cfg = SimConfig(params=small_params, scheme=PullBased(low=2, high=5),
                    seed=42, warmup=5.0, horizon=20.0)
    a = run_flow_sim(cfg)
    b = run_flow_sim(cfg)
    assert np.array_equal(a.occupancy_hist, b.occupancy_hist)
    assert np.array_equal(a.series, b.series)
    assert (a.violations, a.total_flows, a.mean_occ) == (
        b.violations, b.total_flows, b.mean_occ)
    c = run_flow_sim(SimConfig(params=small_params,
                               scheme=PullBased(low=2, high=5),
                               seed=43, warmup=5.0, horizon=20.0))
    assert not np.array_equal(a.occupancy_hist, c.occupancy_hist)


def test_run_histogram_is_distribution(small_params):
    cfg = SimConfig(params=small_params, scheme=PowerOfD(d=1),
                    seed=3, warmup=5.0, horizon=30.0)
    stats = run_flow_sim(cfg)
    assert stats.occupancy_hist.sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.violations == 0  # random assignment never violates
    assert stats.mean_occ == pytest.approx(3.0, rel=0.15)
    # histogram close to the Poisson law at this scale
    target = shedding_fixed_point(3.0, math.inf)
    assert total_variation(stats.occupancy_hist, target) < 0.1


def test_run_jsq_concentrates(small_params):
    cfg = SimConfig(params=small_params, scheme=PowerOfD(d=small_params.n),
                    seed=11, warmup=10.0, horizon=60.0)
    stats = run_flow_sim(cfg)
    target = jsq_fixed_point(3.0)
    # total population fluctuates; mass still concentrates near rho = 3
    assert stats.occupancy_hist[2:5].sum() > 0.8
    assert stats.distribution().mean() == pytest.approx(3.0, rel=0.15)
    assert total_variation(stats.occupancy_hist, target.p) < 0.5


def test_run_pull_matches_window_law():
    params = SystemParams(n=50, lam=3.0, beta=1.0, nu=1.0, mu=10.0)
    cfg = SimConfig(params=params, scheme=PullBased(low=2, high=5),
                    seed=9, warmup=20.0, horizon=120.0)
    stats = run_flow_sim(cfg)
    ref, _ = solve_pull_fixed_point(3.0, 2, 5)
    assert total_variation(stats.occupancy_hist, ref) < 0.08
    assert stats.violations == 0  # pull assignment never violates


def test_run_shedding_violation_rate_matches_theory():
    params = SystemParams(n=50, lam=3.0, beta=1.0, nu=1.0, mu=10.0)
    cfg = SimConfig(params=params, scheme=Shedding(high=5),
                    seed=21, warmup=20.0, horizon=200.0)
    stats = run_flow_sim(cfg)
    theory = shedding_violation(5, params)
    assert stats.violations > 100
    assert stats.violation_rate == pytest.approx(theory, rel=0.25)
    ref = shedding_fixed_point(3.0, 5)
    assert total_variation(stats.occupancy_hist, ref) < 0.08


def test_run_transfer_schemes_record_violations():
    params = SystemParams(n=50, lam=3.0, beta=1.0, nu=1.0, mu=10.0)
    for scheme in (TransferToInvite(low=2, high=5),
                   TransferToLeastLoaded(high=5)):
        cfg = SimConfig(params=params, scheme=scheme, seed=13,
                        warmup=20.0, horizon=120.0)
        stats = run_flow_sim(cfg)
        assert 0 < stats.violations <= stats.total_flows
        # occupancies must respect the cap except transient overshoot
        assert stats.occupancy_hist[6:].sum() < 1e-9


def test_series_tracks_one_server(small_params):
    cfg = SimConfig(params=small_params, scheme=PowerOfD(d=1), seed=2,
                    warmup=5.0, horizon=20.0, tracked_server=4)
    stats = run_flow_sim(cfg)
    assert stats.series.shape[1] == 2
    t = stats.series[:, 0]
    assert np.all(np.diff(t) >= 0)
    assert t[0] >= 5.0 and t[-1] <= 25.0
    # occupancy changes by one flow at a time
    steps = np.diff(stats.series[:, 1])
    nonzero = steps[steps != 0]
    assert np.all(np.abs(nonzero) == 1.0)


@pytest.mark.parametrize("engine", [
    run_flow_sim,
    pytest.param(functools.partial(without_kernel, run_flow_sim), id="python"),
])
def test_run_low_zero_still_enforces_high(engine):
    # low = 0 invites nobody, so the high threshold alone must steer
    # arrivals; random dispatch would spend ~0.21 of server-time above 12
    # (the Poisson(10) tail), the capped runs measure 0.063 and 0.049
    params = SystemParams(n=4, lam=10.0, beta=1.0, nu=1.0, mu=40.0)
    for scheme in (PullBased(low=0, high=12), TransferToInvite(low=0, high=12)):
        stats = engine(SimConfig(params=params, scheme=scheme, seed=1))
        assert stats.occupancy_hist[13:].sum() < 0.08, scheme


@pytest.mark.parametrize("n, horizon", [(20, 4000.0), (80, 2000.0),
                                        (320, 1000.0), (1280, 300.0)])
def test_run_jsq_two_level_mass_follows_finite_n_law(n, horizon):
    # the predictor ignores departure-driven imbalance and so sits slightly
    # above simulation: measured gaps 0.003-0.023 over seeds 1-3 at these n
    # (horizon 2000); the bounds allow that gap plus window noise
    params = SystemParams(n=n, lam=10.0, beta=1.0, nu=1.0, mu=50.0)
    stats = run_flow_sim(SimConfig(params=params, scheme=PowerOfD(d=n), seed=1,
                                   warmup=10.0, horizon=horizon))
    mass = float(stats.occupancy_hist[10:12].sum())
    gap = jsq_two_level_mass(10, n) - mass
    assert -0.01 <= gap <= 0.035, f"n={n}: simulated {mass:.4f}, gap {gap:+.4f}"
