"""The compiled bin-event kernel against the pure-Python reference loop.

run_bin_sim runs sim_run in _kernel.c through ctypes when the kernel loads;
under conftest.without_kernel the loader reports none and the same call runs
the readable oracle, flow_sim._run_py, in bin mode.  Both consume the same
Philox uniforms in the same order, hash flows to bins with the same
splitmix64 mixer and keep every list in the same swap-remove/append order,
so every BinSimStats field must agree bit for bit.
"""

import functools
import logging
import math

import pytest

from conftest import assert_same_stats, isolate_loader, stats_sha256, without_kernel
from stickysim import _native
from stickysim.bin_sim import _bin_stats, run_bin_sim
from stickysim.core import BinBased, SystemParams
from stickysim.flow_sim import SimConfig, _run_py

# rho = 30 at n = 50: ~75k events, several draw-block refills per run
MID = SystemParams(n=50, lam=30.0, beta=1.0, nu=1.0, mu=200.0)
# rho = 10 at n = 4: every server is often above high, so moves take the
# last-resort destination branch
SMALL = SystemParams(n=4, lam=10.0, beta=1.0, nu=1.0, mu=40.0)
ONE = SystemParams(n=1, lam=10.0, beta=1.0, nu=1.0, mu=40.0)
# rho = 800 at n = 2 with one bin per server: the first move lifts the other
# server from ~700 to ~1400 flows, past the 1024-entry starting histogram
JUMP = SystemParams(n=2, lam=800.0, beta=1.0, nu=1.0, mu=5000.0)
# rho = 2200 at n = 2: nothing is credited during the warmup, so the first
# credit lands at an occupancy of ~2170 >= 2 * 1024 and the histogram has to
# double more than once in one credit
DEEP = SystemParams(n=2, lam=2200.0, beta=1.0, nu=1.0, mu=10000.0)

N = MID.n
CASES = {
    "m=2n": (MID, BinBased(2 * N, 25, 33), False, 0),
    "m=2n-drain": (MID, BinBased(2 * N, 25, 33), True, 0),
    "m=10n": (MID, BinBased(10 * N, 25, 33), False, 0),
    "m=10n-drain": (MID, BinBased(10 * N, 25, 33), True, 0),
    "m=100n": (MID, BinBased(100 * N, 25, 33), False, 0),
    "m=100n-drain": (MID, BinBased(100 * N, 25, 33), True, 0),
    "m<n": (MID, BinBased(N // 2, 40, 70), False, 0),
    "m<n-drain": (MID, BinBased(N // 2, 40, 70), True, 0),
    "low0": (MID, BinBased(10 * N, 0, 33), False, 0),
    "high-inf": (MID, BinBased(10 * N, 25, math.inf), False, 0),
    "high-inf-drain": (MID, BinBased(10 * N, 25, math.inf), True, 0),
    "tracked": (MID, BinBased(10 * N, 25, 33), False, 17),
    "tracked-drain": (MID, BinBased(2 * N, 25, 33), True, 31),
    "small-overload": (SMALL, BinBased(40, 3, 6), False, 2),
    "small-overload-drain": (SMALL, BinBased(40, 3, 6), True, 1),
    "single-server": (ONE, BinBased(5, 3, 6), False, 0),
    "single-server-drain": (ONE, BinBased(5, 3, 6), True, 0),
}


# SHA-256 over every stats field of each case (conftest.stats_sha256); both
# engines must reproduce these, so a change to both at once cannot drift
# unseen
PINNED = {
    "high-inf": "ee043c368fea8d4c280d896f9b9da00adf4dae8b0f8558d292a2790f6fe9b593",
    "high-inf-drain": "ee043c368fea8d4c280d896f9b9da00adf4dae8b0f8558d292a2790f6fe9b593",
    "low0": "b74a32b86d932039fa5d7dd8e4854ec9572a47770eca37e9c4c15e638c4068ec",
    "m<n": "201ea59624b061766e4f3729986c69534bf2d8021d7fd6e15ca32f2c5abcc88e",
    "m<n-drain": "7ec59fe2b6db8837795a9f9cf7a4fa44864f591316926869c9db1b0788b0f373",
    "m=100n": "12b11f545abe682f8259ec9e41c9eeb948b71d08309d4520b121a083181b66f3",
    "m=100n-drain": "4d15978988383875faf83fb4418253f613ba1bd82c77e91cebee090ffc4c3434",
    "m=10n": "abe7eb0be2c08f5ffc09712d5723d9f4142396e12e37e97a0c248ff5b42b741e",
    "m=10n-drain": "60cf6625d2b66ffd6cd09619f05d38828219678188a52b0350992c5402025bc3",
    "m=2n": "0e4d1bd870432ad6eae1f182dfd290c48c9d31d7c85868438541cba01bf76f11",
    "m=2n-drain": "a2026a6fd286990237786f584bb8d00f1b5720d54ccbf05f57c88f22a182b8c8",
    "single-server": "686adb261bda2fc53e3facad3c2c355ec8f328809bd2fae9608aec35c8f82eec",
    "single-server-drain": "69b01e4f9c4b49659785bda4b2b11177d4afd4d7f0b2c4dfec469268bd55a4fb",
    "small-overload": "1479f7ba40c5fb27bdf849d69f910ac0666532bbd02ca548673dbee1253a5fab",
    "small-overload-drain": "29c2d6f3371233680618f2ae0bd37d986966188807f7683e9045b7428a7ad769",
    "tracked": "5237167ff686f821932d626710cf47f8c177dfb75ea74ed780cfd200060c8b3f",
    "tracked-drain": "c176803b8e06a6e7fedd1e139d79786aabb961808e22265518cb7bd9b3963210",
}


def _config(params, scheme, drain, tracked, seed=7, warmup=5.0, horizon=20.0):
    return SimConfig(params=params, scheme=scheme, seed=seed, warmup=warmup,
                     horizon=horizon, tracked_server=tracked,
                     drain_to_threshold=drain)


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_reference(kernel, case):
    cfg = _config(*CASES[case])
    stats, ref = run_bin_sim(cfg), without_kernel(run_bin_sim, cfg)
    assert_same_stats(stats, ref)
    assert stats_sha256(stats) == stats_sha256(ref) == PINNED[case]
    # a triggered server always holds a bin to give up: only n = 1 skips
    if cfg.params.n >= 2:
        assert stats.skipped_reallocations == 0


def test_kernel_matches_reference_on_the_self_move_config(kernel):
    # the config of test_run_bin_moves_never_land_on_their_origin, where the
    # reference loop takes the all-servers-full destination branch
    cfg = _config(SMALL, BinBased(40, 3, 6), False, 0, seed=1, warmup=0.0,
                  horizon=50.0)
    stats = run_bin_sim(cfg)
    assert stats.reallocations > 0
    assert_same_stats(stats, without_kernel(run_bin_sim, cfg))


def test_single_server_kernel_skips_every_move(kernel):
    for drain in (False, True):
        stats = run_bin_sim(_config(*CASES["single-server"][:2], drain, 0))
        assert stats.skipped_reallocations > 0
        assert stats.reallocations == stats.violations == 0


def test_kernel_matches_reference_through_histogram_growth_by_moves(kernel):
    cfg = _config(JUMP, BinBased(2, 0, 700), False, 1, seed=3, warmup=0.0,
                  horizon=3.0)
    stats = run_bin_sim(cfg)
    assert stats.reallocations >= 1
    assert stats.occupancy_hist.size > 1024
    assert_same_stats(stats, without_kernel(run_bin_sim, cfg))


def test_kernel_matches_reference_through_multi_doubling_histogram_growth(kernel):
    cfg = _config(DEEP, BinBased(4, 2100, 2250), False, 0, seed=3, warmup=8.0,
                  horizon=0.5)
    stats = run_bin_sim(cfg)
    assert stats.occupancy_hist.size > 2048
    assert_same_stats(stats, without_kernel(run_bin_sim, cfg))


def test_kernel_matches_reference_past_a_hash_block_and_draw_refills(kernel):
    # > 65,536 flow ids: the reference hashes ids in blocks of 2**16 and
    # refills its draw block several times
    cfg = _config(MID, BinBased(10 * N, 25, 33), True, 0, horizon=60.0)
    stats = run_bin_sim(cfg)
    assert stats.total_flows > 1 << 16
    assert_same_stats(stats, without_kernel(run_bin_sim, cfg))


def test_validate_table_runs_the_reference_with_the_same_result(kernel):
    cfg = _config(SMALL, BinBased(40, 3, 6), True, 0)
    assert_same_stats(_bin_stats(_run_py(cfg, validate_table=True)), run_bin_sim(cfg))


def test_kernel_matches_reference_when_window_is_empty(kernel):
    cfg = SimConfig(params=SMALL, scheme=BinBased(40, 3, 6), warmup=1000.0,
                    horizon=1e-9)
    for engine in (run_bin_sim, functools.partial(without_kernel, run_bin_sim)):
        with pytest.raises(ValueError, match="measurement window"):
            engine(cfg)


def test_no_compiler_falls_back_to_reference(monkeypatch, tmp_path, caplog):
    cfg = _config(*CASES["m<n-drain"])
    expected = run_bin_sim(cfg)
    isolate_loader(monkeypatch, tmp_path, None)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        first = run_bin_sim(cfg)
        second = run_bin_sim(cfg)
    assert _native.kernel() is None
    native = [r for r in caplog.records if r.name == "stickysim._native"]
    assert len(native) == 1 and native[0].levelno == logging.WARNING
    assert "no C compiler" in native[0].getMessage()
    # the m < n warning is logged before dispatch, once per run
    bins = [r for r in caplog.records if r.name == "stickysim.bin_sim"]
    assert len(bins) == 2 and all("below server count" in r.getMessage()
                                  for r in bins)
    assert_same_stats(first, expected)
    assert_same_stats(second, expected)
