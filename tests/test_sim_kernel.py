"""The compiled event kernel against the pure-Python reference loop.

run_flow_sim and run_bin_sim run sim_run in _kernel.c through ctypes when
the kernel loads; under conftest.without_kernel the loader reports none and
the same call runs the readable oracle, flow_sim._run_py.  Both consume the
same Philox uniforms in the same order with the same double arithmetic, hash
flows to bins with the same splitmix64 mixer and keep every list in the same
swap-remove/append order, so every SimStats and BinSimStats field must agree
bit for bit.  One table of configs covers every flow mode and the bin scheme;
generated small configs of every mode hold the two engines to that on
corners the table misses.  The kernel's block-filling helper thread is held
to the same: a ThreadSanitizer build, runs on two Python threads at once,
and the pinned digests on one CPU.
"""

import functools
import json
import logging
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import assert_same_stats, isolate_loader, stats_sha256, without_kernel
from stickysim import _native
from stickysim.bin_sim import _bin_stats, run_bin_sim
from stickysim.core import (
    BinBased,
    PowerOfD,
    PullBased,
    Shedding,
    SystemParams,
    TransferToInvite,
    TransferToLeastLoaded,
)
from stickysim.flow_sim import SimConfig, _run_py, run_flow_sim

SRC = Path(_native.__file__).with_name("_kernel.c")

# rho = 30 at n = 50: ~75k events, several draw-block refills per run
MID = SystemParams(n=50, lam=30.0, beta=1.0, nu=1.0, mu=200.0)
# rho = 150 at n = 20, for the overload pull band of the reference load
HEAVY = SystemParams(n=20, lam=150.0, beta=1.0, nu=1.0, mu=800.0)
# rho = 10 at n = 4: every server is often above high, so bin moves take the
# last-resort destination branch
SMALL = SystemParams(n=4, lam=10.0, beta=1.0, nu=1.0, mu=40.0)
ONE = SystemParams(n=1, lam=10.0, beta=1.0, nu=1.0, mu=40.0)
# rho = 1200 at n = 2: occupancies pass the 1024-entry starting histogram
HUGE = SystemParams(n=2, lam=600.0, beta=2.0, nu=1.0, mu=5000.0)
# rho = 800 at n = 2 with one bin per server: the first move lifts the other
# server from ~700 to ~1400 flows, past the 1024-entry starting histogram
JUMP = SystemParams(n=2, lam=800.0, beta=1.0, nu=1.0, mu=5000.0)
# rho = 2200 at n = 2: nothing is credited during the warmup, so the first
# credit lands at an occupancy of ~2170 >= 2 * 1024 and the histogram has to
# double more than once in one credit
DEEP = SystemParams(n=2, lam=2200.0, beta=1.0, nu=1.0, mu=10000.0)
N = MID.n


def _config(params, scheme, tracked=0, seed=7, drain=False, warmup=5.0,
            horizon=20.0):
    return SimConfig(params=params, scheme=scheme, seed=seed, warmup=warmup,
                     horizon=horizon, tracked_server=tracked,
                     drain_to_threshold=drain)


def _run(cfg):
    """cfg run by the simulator of its scheme."""
    return (run_bin_sim if isinstance(cfg.scheme, BinBased) else run_flow_sim)(cfg)


CASES = {
    # every flow-level mode
    "d1": _config(MID, PowerOfD(1)),
    "d2": _config(MID, PowerOfD(2)),
    "d3": _config(MID, PowerOfD(3)),
    "d=n": _config(MID, PowerOfD(MID.n)),
    "d2-tracked": _config(MID, PowerOfD(2), 17),
    "pull": _config(MID, PullBased(25, 35)),
    "pull-overload": _config(MID, PullBased(20, 27), 3),
    "pull-overload-rho150": _config(HEAVY, PullBased(130, 145)),
    "pull-low0": _config(MID, PullBased(0, 33)),
    "pull-high-inf": _config(MID, PullBased(28, math.inf)),
    "pull-random": _config(MID, PullBased(0, math.inf)),
    "shedding": _config(MID, Shedding(33)),
    "shedding-inf": _config(MID, Shedding(math.inf)),
    "transfer-invite": _config(MID, TransferToInvite(25, 35)),
    "transfer-invite-low0": _config(MID, TransferToInvite(0, 33)),
    "transfer-least": _config(MID, TransferToLeastLoaded(33)),
    "small-d2": _config(SMALL, PowerOfD(2), 2),
    "small-d=n": _config(SMALL, PowerOfD(4), 2),
    "small-pull-overload": _config(SMALL, PullBased(3, 6), 2),
    "small-shedding": _config(SMALL, Shedding(6), 2),
    "small-transfer-invite": _config(SMALL, TransferToInvite(3, 6), 2),
    "small-transfer-least": _config(SMALL, TransferToLeastLoaded(6), 2),
    # the kernel keys its own Philox copy from numpy's seeding of each seed,
    # at either end of 64 bits and past it; d = 2's tie draws shift where
    # the many draw-block boundaries fall within an event
    "d2-seed0": _config(MID, PowerOfD(2), seed=0),
    "d2-seed2^32+1": _config(MID, PowerOfD(2), seed=2**32 + 1),
    "d2-seed2^63-1": _config(MID, PowerOfD(2), seed=2**63 - 1),
    "d2-seed2^64+5": _config(MID, PowerOfD(2), seed=2**64 + 5),
    "d2-seed2^100+3": _config(MID, PowerOfD(2), seed=2**100 + 3),
    # the bin scheme
    "m=2n": _config(MID, BinBased(2 * N, 25, 33)),
    "m=2n-drain": _config(MID, BinBased(2 * N, 25, 33), drain=True),
    "m=10n": _config(MID, BinBased(10 * N, 25, 33)),
    "m=10n-drain": _config(MID, BinBased(10 * N, 25, 33), drain=True),
    "m=100n": _config(MID, BinBased(100 * N, 25, 33)),
    "m=100n-drain": _config(MID, BinBased(100 * N, 25, 33), drain=True),
    "m<n": _config(MID, BinBased(N // 2, 40, 70)),
    "m<n-drain": _config(MID, BinBased(N // 2, 40, 70), drain=True),
    "low0": _config(MID, BinBased(10 * N, 0, 33)),
    "high-inf": _config(MID, BinBased(10 * N, 25, math.inf)),
    "high-inf-drain": _config(MID, BinBased(10 * N, 25, math.inf), drain=True),
    "tracked": _config(MID, BinBased(10 * N, 25, 33), 17),
    "tracked-drain": _config(MID, BinBased(2 * N, 25, 33), 31, drain=True),
    "small-overload": _config(SMALL, BinBased(40, 3, 6), 2),
    "small-overload-drain": _config(SMALL, BinBased(40, 3, 6), 1, drain=True),
    "single-server": _config(ONE, BinBased(5, 3, 6)),
    "single-server-drain": _config(ONE, BinBased(5, 3, 6), drain=True),
}


# SHA-256 over every stats field of each case (conftest.stats_sha256); both
# engines must reproduce these, so a change to both at once cannot drift
# unseen
PINNED = {
    "d1": "e26df77f87b02370b0fce3ef088e4fca566fb1f7b15573f45efb53be1070a470",
    "d2": "3138fb717fbf115381a4cb69d0ad8c855398f172894f51dca2d57f31b48973d4",
    "d2-seed0": "da4163c97af8f21fea4e5d0927fab1ed240b36d7aff2e8a4b5c95f0ed63877fe",
    "d2-seed2^100+3": "3fa660c8761829c2a760d9af26c95da5b2ea64372c61852ba0c140c4d2b30f3c",
    "d2-seed2^32+1": "0c3d36b9ed9010b0b624ac582edbee40b8fde868485b2ce171073372cdd31c4b",
    "d2-seed2^63-1": "f0fc4a122986639ed0fa7d3c67f2f4c00901aebc666a69b29d96b7fbbf0efab9",
    "d2-seed2^64+5": "9a566d32068c14698007125bd7f2239ba1d5e9ab646724d61b0d383dca885ff7",
    "d2-tracked": "39e2405bbef329b0c56e65368579f07963e9ff372b86676084f42d49a97795e3",
    "d3": "e772d8164084c67487733afe873a5edcbb2062ff82203d9b8f1368621f194fcc",
    "d=n": "388df7edf346cce99471de74d235a573c23ed9efdeb6731617b939d3a777435a",
    "pull": "38143d0b544996389343b4ae8396180e39eeaa1dfcef499f5ddd517b5bc4b5c5",
    "pull-high-inf": "ad536f01ac425d0862d494b954a71292adb616c8976f8f325ff0aa98941df02e",
    "pull-low0": "965b8b925878079002c55ebb50d8dbbea6963d94e9113399fd7ac8d80b85d75f",
    "pull-overload": "3e1fae98e00e22fa201e709b97e8cca4691eb1c7865ee1b96afa68e5e0ffb4bd",
    "pull-overload-rho150": "c6421a185ab35dd30d78a70c99dfa26a239e98d315fd4e661001742b6caf4b7b",
    "pull-random": "e26df77f87b02370b0fce3ef088e4fca566fb1f7b15573f45efb53be1070a470",
    "shedding": "34471d31883856738738fa7364d32ac7aa5031a3fc6a89492cd631808cdbec6e",
    "shedding-inf": "e26df77f87b02370b0fce3ef088e4fca566fb1f7b15573f45efb53be1070a470",
    "small-d2": "9a8db6ab82366426dbfd97b6fb928209899080bd24d8ff57976a5bbd4164c848",
    "small-d=n": "41ce0ec6e072509e859635675dd3c82387788c76378d9a2dc023becbaaceca04",
    "small-pull-overload": "c6712b864a17fcaa6c789040f1a1185f20ba9ded8777b0eda5b894f93923b155",
    "small-shedding": "fd12e51755a4dba1a85a9dc30600eaeaa0591b6b558ac0e67c3c6cb97926c83d",
    "small-transfer-invite": "5a34cf21af096d2eda86c6e4652eaf8aeb9ace208d8e4aef448837d6908e93b3",
    "small-transfer-least": "df0e198c3549b8540c8d242dcdf1347a69c6b6ec7c17c27e53cb528b675bb2ec",
    "transfer-invite": "3e57a4f72c3a4c11775100a90d242cca2af490fa31abcf1c31033554ab4123d0",
    "transfer-invite-low0": "cc6f37131d6c57b8cba06f383f7bdb0e3518a1462e93e6c49e0018ab0408e792",
    "transfer-least": "25621154d3060b9f91bdc6621f8b146fa2253c450e90d9fdc207c2ab02a1586e",
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_reference(kernel, case):
    cfg = CASES[case]
    stats, ref = _run(cfg), without_kernel(_run, cfg)
    assert_same_stats(stats, ref)
    assert stats_sha256(stats) == stats_sha256(ref) == PINNED[case]
    # a triggered server always holds a bin to give up: only n = 1 skips
    if isinstance(cfg.scheme, BinBased) and cfg.params.n >= 2:
        assert stats.skipped_reallocations == 0


def test_kernel_matches_reference_on_the_self_move_config(kernel):
    # the config of test_run_bin_moves_never_land_on_their_origin, where the
    # reference loop takes the all-servers-full destination branch
    cfg = _config(SMALL, BinBased(40, 3, 6), seed=1, warmup=0.0, horizon=50.0)
    stats = run_bin_sim(cfg)
    assert stats.reallocations > 0
    assert_same_stats(stats, without_kernel(run_bin_sim, cfg))


# a flow run passes the histogram's start by arrivals, a bin run by moves: its
# one-bin-per-server move lifts a server by ~700 flows at once
@pytest.mark.parametrize("cfg", [
    _config(HUGE, PowerOfD(1), 1, seed=3, warmup=4.0, horizon=6.0),
    _config(JUMP, BinBased(2, 0, 700), 1, seed=3, warmup=0.0, horizon=3.0),
], ids=["flow", "bin"])
def test_kernel_matches_reference_through_histogram_growth(kernel, cfg):
    stats = _run(cfg)
    assert stats.occupancy_hist.size > 1024
    if isinstance(cfg.scheme, BinBased):
        assert stats.reallocations >= 1
    assert_same_stats(stats, without_kernel(_run, cfg))


@pytest.mark.parametrize("scheme", [PowerOfD(1), BinBased(4, 2100, 2250)],
                         ids=["flow", "bin"])
def test_kernel_matches_reference_through_multi_doubling_histogram_growth(kernel,
                                                                         scheme):
    cfg = _config(DEEP, scheme, seed=3, warmup=8.0, horizon=0.5)
    stats = _run(cfg)
    assert stats.occupancy_hist.size > 2048
    assert_same_stats(stats, without_kernel(_run, cfg))


def test_kernel_matches_reference_past_a_hash_block_and_draw_refills(kernel):
    # > 65,536 flow ids: the reference hashes ids in blocks of 2**16 and
    # refills its draw block several times
    cfg = _config(MID, BinBased(10 * N, 25, 33), drain=True, horizon=60.0)
    stats = run_bin_sim(cfg)
    assert stats.total_flows > 1 << 16
    assert_same_stats(stats, without_kernel(run_bin_sim, cfg))


def test_validate_table_runs_the_reference_with_the_same_result(kernel):
    cfg = _config(SMALL, BinBased(40, 3, 6), drain=True)
    assert_same_stats(_bin_stats(_run_py(cfg, validate_table=True)), run_bin_sim(cfg))


@pytest.mark.parametrize("scheme", [PowerOfD(1), BinBased(40, 3, 6)],
                         ids=["flow", "bin"])
def test_kernel_matches_reference_when_window_is_empty(kernel, scheme):
    cfg = _config(SMALL, scheme, warmup=1000.0, horizon=1e-9)
    for engine in (_run, functools.partial(without_kernel, _run)):
        with pytest.raises(ValueError, match="measurement window"):
            engine(cfg)


_LEVELS = st.integers(0, 8)
_HIGHS = st.integers(1, 8)
_CAPS = _HIGHS | st.just(math.inf)


@st.composite
def _small_configs(draw):
    """A small config of any scheme: n from 1 to 12, d from 1 to n,
    thresholds from 0 to 16 or infinite under loads up to 80, so that
    overload is common, 1 to 3n bins with drain on and off, short windows
    (some with no event in them) and any tracked server."""
    n = draw(st.integers(1, 12))
    drain = draw(st.booleans())
    scheme = draw(st.one_of(
        # d = 1 and d = n are other modes: a second branch favours 1 < d < n
        st.builds(PowerOfD, st.integers(1, n)),
        st.builds(PowerOfD, st.integers(min(2, n), n)),
        st.builds(lambda low, gap: PullBased(low, low + gap), _LEVELS, _CAPS),
        st.builds(Shedding, _CAPS),
        st.builds(lambda low, gap: TransferToInvite(low, low + gap), _LEVELS, _HIGHS),
        st.builds(TransferToLeastLoaded, _HIGHS),
        st.builds(lambda bins, low, gap: BinBased(bins, low, low + gap),
                  st.integers(1, 3 * n), _LEVELS, _CAPS),
    ))
    params = SystemParams(n=n, lam=draw(st.floats(0.5, 40.0)),
                          beta=draw(st.sampled_from([0.5, 1.0, 2.0])),
                          nu=1.0, mu=1000.0)
    return SimConfig(
        params=params, scheme=scheme, seed=draw(st.integers(0, 2**64)),
        warmup=draw(st.floats(0.0, 3.0)), horizon=draw(st.floats(0.01, 4.0)),
        tracked_server=draw(st.integers(0, n - 1)),
        drain_to_threshold=drain and isinstance(scheme, BinBased),
    )


@settings(max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_small_configs())
# the only d-choices config at n <= 3, which the draws above miss
@example(cfg=SimConfig(params=SystemParams(n=3, lam=4.0, beta=1.0, nu=1.0, mu=1000.0),
                       scheme=PowerOfD(2), seed=1, warmup=1.0, horizon=4.0))
def test_kernel_matches_reference_on_drawn_configs(kernel, cfg):
    try:
        stats = _run(cfg)
    except ValueError as err:
        # an empty window: the reference loop fails with the same words
        with pytest.raises(ValueError) as ref_err:
            without_kernel(_run, cfg)
        assert str(ref_err.value) == str(err)
        return
    assert_same_stats(stats, without_kernel(_run, cfg))


# a bin run with fewer bins than servers also warns, before dispatch, once
# per run
@pytest.mark.parametrize("case, bin_warnings",
                         [("transfer-invite", 0), ("m<n-drain", 2)],
                         ids=["flow", "bin"])
def test_no_compiler_falls_back_to_reference(monkeypatch, tmp_path, caplog, case,
                                             bin_warnings):
    cfg = CASES[case]
    expected = _run(cfg)
    isolate_loader(monkeypatch, tmp_path, None)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        first = _run(cfg)
        second = _run(cfg)
    assert _native.kernel() is None
    native = [r for r in caplog.records if r.name == "stickysim._native"]
    assert len(native) == 1 and native[0].levelno == logging.WARNING
    assert "no C compiler" in native[0].getMessage()
    rest = [r.getMessage() for r in caplog.records if r.name != "stickysim._native"]
    assert len(rest) == bin_warnings
    assert all("below server count" in message for message in rest)
    assert_same_stats(first, expected)
    assert_same_stats(second, expected)


def test_failed_build_falls_back_and_leaves_no_partial_file(monkeypatch, tmp_path,
                                                            caplog):
    false = subprocess.run(["sh", "-c", "command -v false"], capture_output=True,
                           text=True).stdout.strip()
    if not false:
        pytest.skip("no false(1) to stand in for a failing compiler")
    isolate_loader(monkeypatch, tmp_path, false)
    cfg = CASES["d2"]
    with caplog.at_level(logging.WARNING, logger="stickysim._native"):
        stats = run_flow_sim(cfg)
    assert any("failed" in r.getMessage() for r in caplog.records)
    assert list(tmp_path.iterdir()) == []
    assert_same_stats(stats, without_kernel(run_flow_sim, cfg))


def test_build_lands_in_cache_keyed_by_source_and_flags(monkeypatch, tmp_path):
    cc = _native.compiler()
    if cc is None:
        pytest.skip("no C compiler")
    isolate_loader(monkeypatch, tmp_path, cc)
    assert _native.kernel() is not None
    built = sorted(p.name for p in tmp_path.iterdir())
    assert len(built) == 1
    assert built[0].startswith("_kernel-") and built[0].endswith(".so")
    # a second process-level load reuses the cached library without a compiler
    isolate_loader(monkeypatch, tmp_path, None)
    assert _native.kernel() is not None


def test_build_prunes_cached_builds_unused_for_over_a_week(monkeypatch, tmp_path):
    cc = _native.compiler()
    if cc is None:
        pytest.skip("no C compiler")
    cache = tmp_path / "cache"
    cache.mkdir()
    isolate_loader(monkeypatch, cache, cc)

    def age(path, seconds):
        os.utime(path, (time.time() - seconds,) * 2)

    week = _native.STALE_SECONDS
    for name, seconds in [("_kernel-old.so", week + 3600),
                          ("_kernel-recent.so", week - 3600),
                          ("other-old.so", week + 3600)]:
        (cache / name).write_bytes(b"")
        age(cache / name, seconds)
    # a stale name that cannot be unlinked: the build ignores the OSError
    (cache / "_kernel-dir.so").mkdir()
    age(cache / "_kernel-dir.so", week + 3600)
    source = tmp_path / "_kernel.c"
    source.write_text("int first;\n")
    first = _native._build(source)
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [first.name, "_kernel-dir.so", "_kernel-recent.so", "other-old.so"])
    # loading a stale build from the cache touches it, so the next build of
    # another source keeps it
    age(first, week + 3600)
    assert _native._build(source) == first
    source.write_text("int second;\n")
    second = _native._build(source)
    assert first.is_file() and second.is_file() and first != second


def test_kernel_source_compiles_cleanly_with_all_warnings(tmp_path):
    cc = _native.compiler()
    if cc is None:
        pytest.skip("no C compiler")
    proc = subprocess.run(
        [cc, *_native.FLAGS, "-Wall", "-Wextra", "-Werror", "-o",
         str(tmp_path / "kernel.so"), str(SRC), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# A standalone program around _kernel.c for ThreadSanitizer (its runtime
# cannot be preloaded into the interpreter): every flow mode and the bin
# scheme without and with drain, each run twice, ~450 blocks of uniforms per
# run, so the helper thread fills many ring slots while the loop reads.  The
# two runs must agree, and any race between the threads fails the program.
TSAN_DRIVER = r"""
#include "_kernel.c"

#include <stdio.h>

/* two results agree in every counter and array */
static int same(const sim_result *a, const sim_result *b, int64_t n)
{
    return a->started == b->started && a->violations == b->violations &&
           a->total_flows == b->total_flows && a->count == b->count &&
           a->reallocations == b->reallocations && a->skipped == b->skipped &&
           a->flow_int == b->flow_int && a->prev_t == b->prev_t &&
           a->hist_len == b->hist_len && a->series_rows == b->series_rows &&
           !memcmp(a->occ, b->occ, (size_t)n * sizeof *a->occ) &&
           !memcmp(a->last, b->last, (size_t)n * sizeof *a->last) &&
           !memcmp(a->hist, b->hist, (size_t)a->hist_len * sizeof *a->hist) &&
           !memcmp(a->series, b->series, (size_t)(2 * a->series_rows) * sizeof *a->series);
}

int main(void)
{
    /* every flow mode, then the bin scheme without and with drain */
    static const struct { int64_t mode, d, low, high, bins, drain; } cases[] = {
        {MODE_D_CHOICES, 1, 0, NO_CAP, 0, 0}, {MODE_D_CHOICES, 2, 0, NO_CAP, 0, 0},
        {MODE_LEAST, 0, 0, NO_CAP, 0, 0},     {MODE_PULL, 0, 25, 35, 0, 0},
        {MODE_SHED, 0, 0, 33, 0, 0},          {MODE_XFER_INVITE, 0, 25, 35, 0, 0},
        {MODE_XFER_LEAST, 0, 0, 33, 0, 0},    {MODE_BIN, 0, 25, 33, 100, 0},
        {MODE_BIN, 0, 25, 33, 100, 1},
    };
    for (size_t i = 0; i < sizeof cases / sizeof *cases; i++) {
        /* rho = 30 at n = 50 over 25 time units: ~450 blocks of uniforms */
        sim_params p = {.n = 50, .low = cases[i].low, .high = cases[i].high,
                        .hist_start = 64, .mode = cases[i].mode, .d = cases[i].d,
                        .bins = cases[i].bins, .drain = cases[i].drain,
                        .lam_total = 1500.0, .inv_beta = 1.0, .t_start = 5.0,
                        .t_stop = 25.0,
                        .key = {UINT64_C(0x243F6A8885A308D3), UINT64_C(0x13198A2E03707344)}};
        sim_result a, b;
        if (sim_run(&p, &a) != RUN_OK || sim_run(&p, &b) != RUN_OK) {
            fprintf(stderr, "case %zu: sim_run failed\n", i);
            return 1;
        }
        int ok = same(&a, &b, p.n);
        sim_free(&a);
        sim_free(&b);
        if (!ok) {
            fprintf(stderr, "case %zu: two runs differ\n", i);
            return 1;
        }
    }
    return 0;
}
"""


def test_block_helper_runs_clean_under_thread_sanitizer(tmp_path):
    cc = _native.compiler()
    if cc is None:
        pytest.skip("no C compiler")
    tsan = subprocess.run([cc, "-print-file-name=libtsan.so"], capture_output=True,
                          text=True, timeout=60).stdout.strip()
    if not Path(tsan).is_file():
        pytest.skip("the compiler ships no ThreadSanitizer runtime")
    driver, exe = tmp_path / "driver.c", tmp_path / "driver"
    driver.write_text(TSAN_DRIVER)
    build = subprocess.run(
        [cc, "-std=c99", "-fsanitize=thread", "-g", "-pthread", f"-I{SRC.parent}",
         "-o", str(exe), str(driver), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert build.returncode == 0, build.stderr
    env = dict(os.environ, TSAN_OPTIONS="halt_on_error=1")
    proc = subprocess.run([str(exe)], capture_output=True, text=True, timeout=300,
                          env=env)
    assert proc.returncode == 0 and "ThreadSanitizer" not in proc.stderr, \
        proc.stderr[-4000:]


def test_concurrent_runs_match_serial_runs(kernel):
    """Each run owns its block ring: two runs at once on two Python threads
    (ctypes drops the GIL around sim_run) give what each gives alone."""
    jobs = [[CASES[c] for c in ("d2", "pull", "transfer-least")],
            [CASES[c] for c in ("m=10n", "m=2n-drain", "tracked-drain")]]
    serial = [[_run(cfg) for cfg in job] for job in jobs]
    together = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def work(i):
        start.wait()
        together[i] = [_run(cfg) for cfg in jobs[i]]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got, want in zip(together, serial):
        assert got is not None and len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_stats(a, b)


# Pins itself to one CPU, so the block helper shares it with the event loop
# and the loop makes many blocks itself, then prints the digest of every
# pinned case.
ONE_CPU_CHILD = """
import json, os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from conftest import stats_sha256
from stickysim import _native
from test_sim_kernel import CASES, _run
assert _native.kernel() is not None, "kernel did not load"
print(json.dumps({c: stats_sha256(_run(cfg)) for c, cfg in CASES.items()}))
"""


def test_kernel_reproduces_the_pinned_digests_on_one_cpu(kernel):
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity control on this platform")
    here = Path(__file__).resolve().parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC.parents[1]), str(here)]))
    proc = subprocess.run([sys.executable, "-c", ONE_CPU_CHILD], capture_output=True,
                          text=True, timeout=600, env=env, cwd=here)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == PINNED


# Runs in a child process whose kernel is built with AddressSanitizer and
# UBSan: sim_run in every mode, the bin scheme with and without drain, with
# fewer bins than servers and on one server, a histogram that doubles, and
# ode_run on every mean-field rule.  Any bad access aborts the child.
SANITIZED_CHILD = """
import math
import numpy as np
from stickysim import _native
from stickysim.bin_sim import run_bin_sim
from stickysim.core import (BinBased, PowerOfD, PullBased, Shedding, SystemParams,
                            TransferToInvite, TransferToLeastLoaded)
from stickysim.flow_sim import SimConfig, run_flow_sim
from stickysim.mean_field import integrate_ode

_native.FLAGS += ("-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-g")
assert _native.kernel() is not None, "sanitized kernel did not build"

small = SystemParams(n=4, lam=10.0, beta=1.0, nu=1.0, mu=40.0)
deep = SystemParams(n=2, lam=2200.0, beta=1.0, nu=1.0, mu=10000.0)
one = SystemParams(n=1, lam=10.0, beta=1.0, nu=1.0, mu=40.0)
flow = [(small, PowerOfD(1)), (small, PowerOfD(2)), (small, PowerOfD(4)),
        (small, PullBased(3, 6)), (small, PullBased(0, math.inf)),
        (small, Shedding(6)), (small, TransferToInvite(3, 6)),
        (small, TransferToInvite(0, 6)), (small, TransferToLeastLoaded(6)),
        (deep, PowerOfD(1)), (one, PowerOfD(1)), (one, PullBased(3, 6))]
for params, scheme in flow:
    run_flow_sim(SimConfig(params=params, scheme=scheme, seed=5, warmup=2.0,
                           horizon=20.0))
bins = [(small, BinBased(bins=8, low=3, high=6)), (small, BinBased(bins=2, low=3, high=6)),
        (small, BinBased(bins=40, low=0, high=10)), (one, BinBased(bins=3, low=3, high=6))]
for params, scheme in bins:
    for drain in (False, True):
        run_bin_sim(SimConfig(params=params, scheme=scheme, seed=5, warmup=2.0,
                              horizon=20.0, drain_to_threshold=drain))

load = SystemParams(n=100, lam=6.0 / 1.5, beta=1.5, nu=1.0, mu=100.0)
s0 = np.zeros(16)
s0[0] = 1.0
for scheme in (PowerOfD(2), PullBased(5, 8), Shedding(8), TransferToInvite(5, 8),
               TransferToLeastLoaded(8)):
    out = integrate_ode(scheme, load, s0.copy(), 1.0, stop_residual=1e-9,
                        record_every=0.25)
    assert out.engine == "kernel", out.engine
# a d-choices tail full to its last level: the support edge sits at the top
# from the start, so every pass runs to size and the drift reads the padding
out = integrate_ode(PowerOfD(2), load, 0.8 ** np.arange(16), 1.0, record_every=0.25)
assert out.engine == "kernel" and out.tail[-1] > 0.0, out
"""


def test_kernel_runs_clean_under_address_and_undefined_sanitizers(tmp_path):
    cc = _native.compiler()
    if cc is None:
        pytest.skip("no C compiler")
    asan = subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True,
                          text=True, timeout=60).stdout.strip()
    if not Path(asan).is_file():
        pytest.skip("the compiler ships no AddressSanitizer runtime")
    env = dict(os.environ, PYTHONPATH=str(SRC.parents[1]), LD_PRELOAD=asan,
               ASAN_OPTIONS="detect_leaks=0", XDG_CACHE_HOME=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", SANITIZED_CHILD], capture_output=True,
                          text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr[-4000:]


def test_import_neither_builds_nor_loads_the_kernel():
    code = ("import sys, stickysim, stickysim.cli; "
            "print('stickysim._native' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60, env=env)
    assert out.stdout.strip() == "False"
