"""Unit tests for the bin-indirected simulator: static hash, bin table,
bin-move destination rule and whole runs."""

import logging
import math

import numpy as np
import pytest
import scipy.stats

from conftest import without_kernel
from stickysim import bin_sim
from stickysim.bin_sim import (
    BinSimStats,
    BinTable,
    _bin_stats,
    _hash_block,
    _move_destination,
    hash_flow_to_bin,
    run_bin_sim,
)
from stickysim.core import BinBased, PullBased, SystemParams, total_variation
from stickysim.flow_sim import SimConfig, _run_py
from stickysim.mean_field import shedding_fixed_point


# ---------------------------------------------------------------------------
# static hash
# ---------------------------------------------------------------------------


def test_hash_frozen_values():
    # regression pins for the integer mixer
    assert hash_flow_to_bin(0, 5000) == 2535
    assert hash_flow_to_bin(1, 5000) == 2465
    assert hash_flow_to_bin(2, 5000) == 3110
    assert hash_flow_to_bin(123456789, 5000) == 897
    assert hash_flow_to_bin(2**63, 5000) == 3915
    assert hash_flow_to_bin(7, 1) == 0


def test_hash_takes_ids_modulo_2_to_the_64():
    for m in (1, 977, 5000, 2**40):
        for k in (0, 1, 2**63, 2**64 - 1):
            assert hash_flow_to_bin(2**64 + k, m) == hash_flow_to_bin(k, m)
            assert hash_flow_to_bin(3 * 2**64 + k, m) == hash_flow_to_bin(k, m)


def test_hash_rejects_bad_input():
    with pytest.raises(ValueError):
        hash_flow_to_bin(0, 0)
    with pytest.raises(ValueError):
        hash_flow_to_bin(-1, 10)


def test_hash_block_matches_scalar():
    m = 977  # prime modulus, off the power-of-two path
    block = _hash_block(2**63 - 500, 1000, m)
    assert block == [hash_flow_to_bin(2**63 - 500 + k, m) for k in range(1000)]


def test_hash_uniformity_chi_square():
    m = 5000
    counts = np.bincount(_hash_block(0, 1_000_000, m), minlength=m)
    stat, p = scipy.stats.chisquare(counts)
    assert p > 1e-3, f"hash badly non-uniform: chi2={stat:.1f} p={p:.2e}"


# ---------------------------------------------------------------------------
# bin table
# ---------------------------------------------------------------------------


def test_bin_table_round_robin_deal():
    t = BinTable.initial(bins=12, servers=5)
    assert t.n_bins == 12 and len(t.server_bins) == 5
    assert t.assignment == [b % 5 for b in range(12)]
    assert t.server_bins[0] == [0, 5, 10]
    assert t.server_bins[4] == [4, 9]
    t.check_consistency()
    assert t.server_load(0) == 0
    t.bin_load[5] += 2
    assert t.server_load(0) == 2


def test_bin_table_detects_corruption():
    t = BinTable.initial(bins=6, servers=3)
    t.assignment[0] = 2  # bin 0 still listed under server 0
    with pytest.raises(ValueError):
        t.check_consistency()
    t = BinTable.initial(bins=6, servers=3)
    t.bin_pos[3] = 0
    with pytest.raises(ValueError):
        t.check_consistency()
    t = BinTable.initial(bins=6, servers=3)
    t.server_bins[1].append(0)  # bin 0 listed twice
    with pytest.raises(ValueError):
        t.check_consistency()


def test_bin_table_rejects_empty():
    with pytest.raises(ValueError):
        BinTable.initial(bins=0, servers=3)
    with pytest.raises(ValueError):
        BinTable.initial(bins=3, servers=0)


# ---------------------------------------------------------------------------
# stats container
# ---------------------------------------------------------------------------


def test_bin_stats_invariants():
    hist = np.array([0.5, 0.5])
    series = np.zeros((1, 2))
    with pytest.raises(ValueError):
        BinSimStats(occupancy_hist=hist, violations=0, total_flows=5,
                    series=series, mean_occ=0.5, reallocations=-1)
    with pytest.raises(ValueError):
        BinSimStats(occupancy_hist=hist, violations=0, total_flows=5,
                    series=series, mean_occ=0.5, violated_flows=6)
    ok = BinSimStats(occupancy_hist=hist, violations=2, total_flows=5,
                     series=series, mean_occ=0.5, reallocations=1,
                     violated_flows=2)
    assert ok.violation_rate == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bin_params() -> SystemParams:
    return SystemParams(n=20, lam=3.0, beta=1.0, nu=1.0, mu=10.0)


def test_run_rejects_flow_level_scheme(bin_params):
    cfg = SimConfig(params=bin_params, scheme=PullBased(low=2, high=5))
    with pytest.raises(TypeError):
        run_bin_sim(cfg)


def test_run_with_table_validation(bin_params):
    cfg = SimConfig(params=bin_params, scheme=BinBased(bins=60, low=2, high=5),
                    seed=8, warmup=2.0, horizon=10.0)
    stats = _bin_stats(_run_py(cfg, validate_table=True))
    assert stats.occupancy_hist.sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.reallocations > 0
    assert stats.violations == stats.violated_flows
    assert stats.violated_flows <= stats.total_flows


def test_run_without_thresholds_moves_nothing(bin_params):
    cfg = SimConfig(params=bin_params,
                    scheme=BinBased(bins=200, low=0, high=math.inf),
                    seed=6, warmup=5.0, horizon=50.0)
    stats = run_bin_sim(cfg)
    assert stats.reallocations == 0
    assert stats.violations == 0
    assert stats.skipped_reallocations == 0
    # high bin count: behaves like uniform random assignment, Poisson law
    target = shedding_fixed_point(3.0, math.inf)
    assert total_variation(stats.occupancy_hist, target) < 0.1


def test_run_is_deterministic(bin_params):
    cfg = SimConfig(params=bin_params, scheme=BinBased(bins=60, low=2, high=5),
                    seed=17, warmup=2.0, horizon=15.0)
    a = run_bin_sim(cfg)
    b = run_bin_sim(cfg)
    assert np.array_equal(a.occupancy_hist, b.occupancy_hist)
    assert np.array_equal(a.series, b.series)
    assert (a.violations, a.total_flows, a.reallocations,
            a.violated_flows) == (b.violations, b.total_flows,
                                  b.reallocations, b.violated_flows)


def test_run_drain_variant_differs(bin_params):
    base = SimConfig(params=bin_params, scheme=BinBased(bins=40, low=2, high=5),
                     seed=23, warmup=2.0, horizon=25.0)
    drain = SimConfig(params=bin_params, scheme=BinBased(bins=40, low=2, high=5),
                      seed=23, warmup=2.0, horizon=25.0,
                      drain_to_threshold=True)
    a = run_bin_sim(base)
    b = run_bin_sim(drain)
    # the state-based trigger moves at least as many bins
    assert b.reallocations >= a.reallocations
    assert not np.array_equal(a.occupancy_hist, b.occupancy_hist)


def test_run_series_is_step_function(bin_params):
    cfg = SimConfig(params=bin_params, scheme=BinBased(bins=60, low=2, high=5),
                    seed=29, warmup=2.0, horizon=15.0, tracked_server=3)
    stats = run_bin_sim(cfg)
    t = stats.series[:, 0]
    assert np.all(np.diff(t) >= 0)
    assert t[0] >= 2.0 and t[-1] <= 17.0


def test_run_warns_when_bins_fewer_than_servers(bin_params, caplog):
    cfg = SimConfig(params=bin_params, scheme=BinBased(bins=10, low=2, high=5),
                    seed=3, warmup=1.0, horizon=5.0)
    with caplog.at_level(logging.WARNING, logger="stickysim.bin_sim"):
        run_bin_sim(cfg)
    assert any("bin" in rec.message for rec in caplog.records)


def test_move_destination_skips_the_origin_when_all_servers_are_full():
    us = np.linspace(0.0, 1.0, 400, endpoint=False)
    for origin in range(4):
        dests = {_move_destination(u, origin, 4, [], []) for u in us}
        assert dests == {0, 1, 2, 3} - {origin}
    # the invite set wins, then the below-high set; list order is honoured
    assert _move_destination(0.1, 0, 4, [3, 2], [1, 2]) == 3
    assert _move_destination(0.9, 0, 4, [3, 2], [1, 2]) == 2
    assert _move_destination(0.9, 0, 4, [], [1, 3]) == 3
    assert _move_destination(0.9, 0, 4, [], [3, 1]) == 1


def test_run_bin_moves_never_land_on_their_origin(monkeypatch):
    # at n = 4, rho = 10 with (3, 6) every server is often above high when a
    # trigger fires; drawing over all servers used to pick the origin in
    # 6 of 76 moves (seed 1), counting a reallocation that moved nothing
    calls = []

    def spy(u, origin, n, invite, below):
        dest = _move_destination(u, origin, n, invite, below)
        calls.append((origin, dest, len(invite) + len(below)))
        return dest

    # the compiled kernel never calls _move_destination: spy on the reference
    # loop, which test_sim_kernel holds the kernel to on this same config
    monkeypatch.setattr(bin_sim, "_move_destination", spy)
    params = SystemParams(n=4, lam=10.0, beta=1.0, nu=1.0, mu=40.0)
    stats = without_kernel(run_bin_sim, SimConfig(
        params=params, scheme=BinBased(bins=40, low=3, high=6), seed=1,
        warmup=0.0, horizon=50.0))
    assert stats.reallocations == len(calls) > 0
    assert any(open_servers == 0 for _, _, open_servers in calls)
    assert all(origin != dest for origin, dest, _ in calls)


def test_run_single_server_skips_every_move():
    # at n = 1 nothing moves, so the tracked server's series steps by one
    # flow at a time and shows every trigger: an arrival onto high + 1
    # (default) or onto any level above high (drain).  Each trigger is one
    # skip; drain used to count one per bin held (2,028 skips for 507
    # triggers at m = 4, seed 1, warmup 0, horizon 50)
    params = SystemParams(n=1, lam=10.0, beta=1.0, nu=1.0, mu=40.0)
    for drain in (False, True):
        cfg = SimConfig(params=params, scheme=BinBased(bins=5, low=3, high=6),
                        seed=2, warmup=1.0, horizon=20.0,
                        drain_to_threshold=drain)
        for stats in (run_bin_sim(cfg), without_kernel(run_bin_sim, cfg)):
            occ = stats.series[:, 1]
            onto = occ[1:] > 6 if drain else occ[1:] == 7
            triggers = int(np.sum((np.diff(occ) == 1) & onto))
            assert stats.skipped_reallocations == triggers > 0
            assert stats.reallocations == stats.violations == 0
