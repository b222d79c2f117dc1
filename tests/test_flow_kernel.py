"""The compiled flow-event kernel against the pure-Python reference loop.

run_flow_sim runs sim_run in _kernel.c through ctypes when the kernel loads;
under conftest.without_kernel the loader reports none and the same call runs
the readable oracle, flow_sim._run_py.  Both consume the same Philox uniforms
in the same order with the same double arithmetic, so every SimStats field
must agree bit for bit.  Generated small configs of every mode, the bin
scheme's included, hold the two engines to that on corners the pinned cases
miss.  The kernel's block-filling helper thread is held to the same: a
ThreadSanitizer build, runs on two Python threads at once, and the pinned
digests on one CPU.
"""

import functools
import json
import logging
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import test_bin_kernel
from conftest import assert_same_stats, isolate_loader, stats_sha256, without_kernel
from stickysim import _native
from stickysim.bin_sim import run_bin_sim
from stickysim.core import (
    BinBased,
    PowerOfD,
    PullBased,
    Shedding,
    SystemParams,
    TransferToInvite,
    TransferToLeastLoaded,
)
from stickysim.flow_sim import SimConfig, run_flow_sim

SRC = Path(_native.__file__).with_name("_kernel.c")

# rho = 30 at n = 50: ~75k events, several draw-block refills per run
MID = SystemParams(n=50, lam=30.0, beta=1.0, nu=1.0, mu=200.0)
# rho = 150 at n = 20, for the overload pull band of the reference load
HEAVY = SystemParams(n=20, lam=150.0, beta=1.0, nu=1.0, mu=800.0)
# rho = 10 at n = 4
SMALL = SystemParams(n=4, lam=10.0, beta=1.0, nu=1.0, mu=40.0)
# rho = 1200 at n = 2: occupancies pass the 1024-entry starting histogram
HUGE = SystemParams(n=2, lam=600.0, beta=2.0, nu=1.0, mu=5000.0)
# rho = 2200 at n = 2: nothing is credited during the warmup, so the first
# credit lands at an occupancy of ~2170 >= 2 * 1024 and the histogram has to
# double more than once in one credit
DEEP = SystemParams(n=2, lam=2200.0, beta=1.0, nu=1.0, mu=10000.0)

CASES = {
    "d1": (MID, PowerOfD(1), 0),
    "d2": (MID, PowerOfD(2), 0),
    "d3": (MID, PowerOfD(3), 0),
    "d=n": (MID, PowerOfD(MID.n), 0),
    "d2-tracked": (MID, PowerOfD(2), 17),
    "pull": (MID, PullBased(25, 35), 0),
    "pull-overload": (MID, PullBased(20, 27), 3),
    "pull-overload-rho150": (HEAVY, PullBased(130, 145), 0),
    "pull-low0": (MID, PullBased(0, 33), 0),
    "pull-high-inf": (MID, PullBased(28, math.inf), 0),
    "pull-random": (MID, PullBased(0, math.inf), 0),
    "shedding": (MID, Shedding(33), 0),
    "shedding-inf": (MID, Shedding(math.inf), 0),
    "transfer-invite": (MID, TransferToInvite(25, 35), 0),
    "transfer-invite-low0": (MID, TransferToInvite(0, 33), 0),
    "transfer-least": (MID, TransferToLeastLoaded(33), 0),
    "small-d2": (SMALL, PowerOfD(2), 2),
    "small-d=n": (SMALL, PowerOfD(4), 2),
    "small-pull-overload": (SMALL, PullBased(3, 6), 2),
    "small-shedding": (SMALL, Shedding(6), 2),
    "small-transfer-invite": (SMALL, TransferToInvite(3, 6), 2),
    "small-transfer-least": (SMALL, TransferToLeastLoaded(6), 2),
    # the kernel keys its own Philox copy from numpy's seeding of each seed,
    # at either end of 64 bits and past it; d = 2's tie draws shift where
    # the many draw-block boundaries fall within an event
    "d2-seed0": (MID, PowerOfD(2), 0, 0),
    "d2-seed2^32+1": (MID, PowerOfD(2), 0, 2**32 + 1),
    "d2-seed2^63-1": (MID, PowerOfD(2), 0, 2**63 - 1),
    "d2-seed2^64+5": (MID, PowerOfD(2), 0, 2**64 + 5),
    "d2-seed2^100+3": (MID, PowerOfD(2), 0, 2**100 + 3),
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
}


def _config(params, scheme, tracked, seed=7):
    return SimConfig(params=params, scheme=scheme, seed=seed, warmup=5.0,
                     horizon=20.0, tracked_server=tracked)


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_reference(kernel, case):
    cfg = _config(*CASES[case])
    stats, ref = run_flow_sim(cfg), without_kernel(run_flow_sim, cfg)
    assert_same_stats(stats, ref)
    assert stats_sha256(stats) == stats_sha256(ref) == PINNED[case]


def test_kernel_matches_reference_through_histogram_growth(kernel):
    cfg = SimConfig(params=HUGE, scheme=PowerOfD(1), seed=3, warmup=4.0,
                    horizon=6.0, tracked_server=1)
    stats = run_flow_sim(cfg)
    assert stats.occupancy_hist.size > 1024
    assert_same_stats(stats, without_kernel(run_flow_sim, cfg))


def test_kernel_matches_reference_through_multi_doubling_histogram_growth(kernel):
    cfg = SimConfig(params=DEEP, scheme=PowerOfD(1), seed=3, warmup=8.0,
                    horizon=0.5)
    stats = run_flow_sim(cfg)
    assert stats.occupancy_hist.size > 2048
    assert_same_stats(stats, without_kernel(run_flow_sim, cfg))


def test_kernel_matches_reference_when_window_is_empty(kernel):
    cfg = SimConfig(params=SMALL, scheme=PowerOfD(1), warmup=1000.0, horizon=1e-9)
    for engine in (run_flow_sim, functools.partial(without_kernel, run_flow_sim)):
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
    run = run_bin_sim if isinstance(cfg.scheme, BinBased) else run_flow_sim
    try:
        stats = run(cfg)
    except ValueError as err:
        # an empty window: the reference loop fails with the same words
        with pytest.raises(ValueError) as ref_err:
            without_kernel(run, cfg)
        assert str(ref_err.value) == str(err)
        return
    assert_same_stats(stats, without_kernel(run, cfg))


def test_no_compiler_falls_back_to_reference(monkeypatch, tmp_path, caplog):
    cfg = _config(*CASES["transfer-invite"])
    expected = run_flow_sim(cfg)
    isolate_loader(monkeypatch, tmp_path, None)
    with caplog.at_level(logging.WARNING, logger="stickysim._native"):
        first = run_flow_sim(cfg)
        second = run_flow_sim(cfg)
    assert _native.kernel() is None
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "no C compiler" in warnings[0].getMessage()
    assert_same_stats(first, expected)
    assert_same_stats(second, expected)


def test_failed_build_falls_back_and_leaves_no_partial_file(monkeypatch, tmp_path,
                                                            caplog):
    false = subprocess.run(["sh", "-c", "command -v false"], capture_output=True,
                           text=True).stdout.strip()
    if not false:
        pytest.skip("no false(1) to stand in for a failing compiler")
    isolate_loader(monkeypatch, tmp_path, false)
    cfg = _config(*CASES["d2"])
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
    jobs = [
        [(run_flow_sim, _config(*CASES[c])) for c in ("d2", "pull", "transfer-least")],
        [(run_bin_sim, test_bin_kernel._config(*test_bin_kernel.CASES[c]))
         for c in ("m=10n", "m=2n-drain", "tracked-drain")],
    ]
    serial = [[run(cfg) for run, cfg in job] for job in jobs]
    together = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def work(i):
        start.wait()
        together[i] = [run(cfg) for run, cfg in jobs[i]]

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
# pinned flow and bin case.
ONE_CPU_CHILD = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import test_bin_kernel as b, test_flow_kernel as f
from conftest import stats_sha256
from stickysim import _native
from stickysim.bin_sim import run_bin_sim
from stickysim.flow_sim import run_flow_sim
assert _native.kernel() is not None, "kernel did not load"
out = {"flow:" + c: stats_sha256(run_flow_sim(f._config(*f.CASES[c]))) for c in f.CASES}
out.update({"bin:" + c: stats_sha256(run_bin_sim(b._config(*b.CASES[c])))
            for c in b.CASES})
print(json.dumps(out))
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
    digests = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {f"flow:{c}": d for c, d in PINNED.items()}
    want.update({f"bin:{c}": d for c, d in test_bin_kernel.PINNED.items()})
    assert digests == want


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
