"""The compiled mean-field drift against the NumPy join rules.

integrate_ode evaluates each RK4 stage's drift (join rule plus arrival and
departure balance) with ode_drift in _kernel.c when the kernel loads; the
NumPy rules in mean_field are the readable oracle and the fallback.  Both do
the same double operations in the same order, so q, ds and every ODE output
must agree bit for bit.
"""

import ctypes
import hashlib
import logging
import math

import numpy as np
import pytest

from stickysim import _native
from stickysim import mean_field as mf
from stickysim.core import (
    PowerOfD,
    PullBased,
    Shedding,
    SystemParams,
    TransferToInvite,
    TransferToLeastLoaded,
)
from test_flow_kernel import _isolate_loader
from test_mean_field import ODE_PINNED, ODE_RUNS, _run_ode, _trajectory_digest

# the size of each struct _kernel.c exports, by its ctypes mirror
STRUCT_SIZES = {
    "SIZEOF_SIM_PARAMS": _native.SimParams,
    "SIZEOF_SIM_RESULT": _native.SimResult,
    "SIZEOF_DRIFT_PARAMS": _native.DriftParams,
}


@pytest.fixture
def kernel():
    if _native.kernel() is None:
        pytest.skip("compiled kernel unavailable (no C compiler)")


def _no_kernel(monkeypatch):
    # the process-wide load outcome, as if the build had failed
    monkeypatch.setattr(_native, "_loaded", [None])


# ---------------------------------------------------------------------------
# the drift itself, on random valid tails in every branch of every rule
# ---------------------------------------------------------------------------

# (scheme, rho, ones, (lo, hi)): the tail is 1 on levels 0..ones and falls
# through values drawn from [lo, hi) after that, so each case pins the branch
# its name gives (rates are for beta = 1.5, where the balance's division
# rounds)
DRIFT_CASES = {
    "pull-invites": (PullBased(5, 8), 6.0, 2, (0.0, 0.99)),
    "pull-band": (PullBased(5, 8), 6.0, 5, (0.0, 0.9)),
    "pull-band-dip-absorbs": (PullBased(5, 8), 2.0, 5, (0.0, 0.5)),
    "pull-saturated": (PullBased(3, 5), 7.0, 5, (0.0, 0.9)),
    "pull-saturated-dip-absorbs": (PullBased(3, 5), 2.0, 5, (0.0, 0.5)),
    "pull-low0": (PullBased(0, 8), 6.0, 0, (0.0, 0.9)),
    "pull-high-inf-invites": (PullBased(5, math.inf), 6.0, 2, (0.0, 0.99)),
    "pull-high-inf-band": (PullBased(5, math.inf), 6.0, 5, (0.0, 0.9)),
    "pull-high-inf-dip-absorbs": (PullBased(5, math.inf), 2.0, 5, (0.0, 0.5)),
    "invite-outstanding": (TransferToInvite(5, 8), 6.0, 2, (0.0, 0.99)),
    "invite-band": (TransferToInvite(5, 8), 6.0, 5, (0.9, 0.99)),
    "invite-band-dip-absorbs": (TransferToInvite(5, 8), 1.0, 5, (0.0, 0.5)),
    "invite-saturated": (TransferToInvite(3, 5), 8.0, 5, (0.0, 0.9)),
    "invite-saturated-dip-absorbs": (TransferToInvite(3, 5), 2.0, 5, (0.0, 0.5)),
    "invite-low0": (TransferToInvite(0, 8), 6.0, 0, (0.0, 0.9)),
    "least-below-high": (TransferToLeastLoaded(8), 6.0, 3, (0.9, 0.99)),
    "least-below-high-dip-absorbs": (TransferToLeastLoaded(8), 1.0, 3, (0.0, 0.5)),
    "least-empty": (TransferToLeastLoaded(8), 6.0, 0, (0.0, 0.9)),
    "least-at-high": (TransferToLeastLoaded(4), 7.0, 6, (0.0, 0.9)),
    "least-at-high-dip-absorbs": (TransferToLeastLoaded(4), 2.0, 6, (0.0, 0.5)),
    "shedding-finite": (Shedding(8), 6.0, 3, (0.0, 1.0)),
    "shedding-inf": (Shedding(math.inf), 6.0, 3, (0.0, 1.0)),
    "d1": (PowerOfD(1), 6.0, 3, (0.0, 1.0)),
    "d2": (PowerOfD(2), 6.0, 3, (0.0, 1.0)),
}


def _tails(rng, size, ones, lo, hi, count=150):
    """Valid tails: 1 on levels 0..ones, then non-increasing draws from
    [lo, hi); every third has a run of exact zeros at the end, every fifth
    repeats values, and every seventh moves the ones prefix within 2e-9 of 1,
    on both sides of the rules' CASE_EPS cut."""
    for k in range(count):
        s = np.ones(size)
        rest = np.sort(rng.uniform(lo, hi, size - ones - 1))[::-1]
        if k % 5 == 0:
            rest = np.repeat(rest[::2], 2)[: rest.size]
        if k % 3 == 0:
            rest[rng.integers(0, rest.size + 1):] = 0.0
        s[ones + 1:] = rest
        if k % 7 == 0 and ones > 0:
            s[1 : ones + 1] = 1.0 - np.sort(rng.uniform(0.0, 2e-9, ones))
        yield s


@pytest.mark.parametrize("size", [16, 6])
@pytest.mark.parametrize("case", sorted(DRIFT_CASES))
def test_kernel_drift_matches_python_bit_for_bit(kernel, monkeypatch, case, size):
    scheme, rho, ones, (lo, hi) = DRIFT_CASES[case]
    ones = min(ones, size - 2)
    params = SystemParams(n=100, lam=rho / 1.5, beta=1.5, nu=1.0, mu=100.0)
    width = max(size + 1, mf._join_rule(scheme, params.rho)[0] + 2)
    q_kernel, q_python = np.empty(width - 1), np.empty(width - 1)
    engine, kernel_drift = mf._bind_drift(scheme, params, size, q_kernel)
    assert engine == "kernel"
    _no_kernel(monkeypatch)
    engine, python_drift = mf._bind_drift(scheme, params, size, q_python)
    assert engine == "python"

    sp = np.zeros(width)
    ds_kernel, ds_python = np.zeros(size), np.zeros(size)
    rng = np.random.default_rng([sorted(DRIFT_CASES).index(case), size])
    for s in _tails(rng, size, ones, lo, hi):
        sp[:size] = s
        q_kernel.fill(math.nan)
        q_python.fill(math.nan)
        kernel_drift(mf._tail_views(sp, size), mf._drift_views(ds_kernel))
        python_drift(mf._tail_views(sp, size), mf._drift_views(ds_python))
        assert not np.isnan(q_kernel).any(), "q entry left unwritten"
        assert q_kernel.tobytes() == q_python.tobytes(), s
        assert ds_kernel.tobytes() == ds_python.tobytes(), s
        assert ds_kernel[0] == 0.0


# ---------------------------------------------------------------------------
# whole integrations
# ---------------------------------------------------------------------------


def _pinned(out):
    return (
        float(out.t).hex(), out.steps, float(out.residual).hex(),
        float(out.max_projection).hex(),
        hashlib.sha256(out.tail.tobytes()).hexdigest(),
        _trajectory_digest(out.trajectory),
    )


@pytest.mark.parametrize("engine", ["kernel", "python"])
@pytest.mark.parametrize("name", sorted(ODE_RUNS))
def test_pinned_runs_match_under_both_engines(kernel, monkeypatch, name, engine):
    if engine == "python":
        _no_kernel(monkeypatch)
    out = _run_ode(name)
    assert out.engine == engine
    assert _pinned(out) == ODE_PINNED[name]


def test_no_compiler_falls_back_to_python_drift(kernel, monkeypatch, tmp_path,
                                                caplog):
    expected = _run_ode("pull-stacked")
    _isolate_loader(monkeypatch, tmp_path, None)
    with caplog.at_level(logging.WARNING, logger="stickysim._native"):
        first = _run_ode("pull-stacked")
        second = _run_ode("pull-stacked")
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "no C compiler" in warnings[0].getMessage()
    assert warnings[0].name == "stickysim._native"
    assert (expected.engine, first.engine, second.engine) == ("kernel", "python",
                                                              "python")
    assert _pinned(first) == _pinned(second) == _pinned(expected)


def test_power_of_3_keeps_the_python_rule(monkeypatch, tmp_path):
    _isolate_loader(monkeypatch, tmp_path, None)
    s0 = np.zeros(20)
    s0[0] = 1.0
    params = SystemParams(n=100, lam=5.0, beta=1.0, nu=1.0, mu=100.0)
    out = mf.integrate_ode(PowerOfD(3), params, s0, t_end=0.5)
    assert out.engine == "python"
    # the kernel was not even looked for
    assert _native._loaded == []


# ---------------------------------------------------------------------------
# struct layout (that importing the package loads no kernel is
# test_flow_kernel's test_import_neither_builds_nor_loads_the_kernel)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(STRUCT_SIZES))
def test_struct_layout_matches_the_kernel(kernel, name):
    exported = ctypes.c_int64.in_dll(_native.kernel(), name).value
    assert exported == ctypes.sizeof(STRUCT_SIZES[name])


def test_bind_drift_rejects_a_short_join_buffer():
    params = SystemParams(n=100, lam=4.0, beta=1.5, nu=1.0, mu=100.0)
    with pytest.raises(ValueError, match="too short"):
        mf._bind_drift(PullBased(5, 12), params, 8, np.empty(10))
