"""The compiled mean-field RK4 kernels against their NumPy reference.

When the kernel loads, integrate_ode makes one call of ode_run in _kernel.c
for the whole integration, or one per record stride: it runs the step loop
(pinning, release, the residual and stationary stop rules) around the two
calls of a step.  ode_drift evaluates the drift at the step's start (join
rule, arrival and departure balance, dip-refill correction) and returns its
sup-norm, and ode_step runs the three RK4 stages (projected stage state plus
the corrected drift there) and the step end (RK4 combination, projection,
projection distance).  The NumPy code and the Python loop in mean_field are
the readable oracle and the fallback.  Both do the same double operations in
the same order, so q, every k, the stage and step-end states, the returned
norms and every ODE output must agree bit for bit.
"""

import ctypes
import functools
import hashlib
import logging
import math
import re
import subprocess
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import isolate_loader, without_kernel
from stickysim import _native, flow_sim
from stickysim import mean_field as mf
from stickysim.core import (
    PowerOfD,
    PullBased,
    Shedding,
    SystemParams,
    TransferToInvite,
    TransferToLeastLoaded,
)
from test_mean_field import (
    ODE_PINNED,
    ODE_RUNS,
    ODE_STOPS,
    STALL,
    _empty,
    _load,
    _run_ode,
    _trajectory_digest,
)

# the size of each struct _kernel.c exports, by its ctypes mirror
STRUCT_SIZES = {
    "SIZEOF_SIM_PARAMS": _native.SimParams,
    "SIZEOF_SIM_RESULT": _native.SimResult,
    "SIZEOF_DRIFT_PARAMS": _native.DriftParams,
    "SIZEOF_ODE_LOOP": _native.OdeLoop,
}

# each code array _kernel.c exports, by the Python names of its entries in
# enum order; NO_CAP is one int64, which reads as a one-entry array
MIRRORED_CODES = {
    "MODE_CODES": (flow_sim._D_CHOICES, flow_sim._LEAST, flow_sim._PULL,
                   flow_sim._SHED, flow_sim._XFER_INVITE, flow_sim._XFER_LEAST,
                   flow_sim._BIN),
    "RULE_CODES": (mf.RULE_POWER, mf.RULE_PULL, mf.RULE_SHEDDING, mf.RULE_INVITE,
                   mf.RULE_LEAST),
    "STOP_CODES": (mf.STOP_NONE, mf.STOP_RESIDUAL, mf.STOP_STATIONARY),
    "NO_CAP": (_native.NO_CAP,),
}


# the default step at beta = 1.5
DT = 1.5e-3


# ---------------------------------------------------------------------------
# the drift itself, on random tails in every branch of every rule
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
    "d3": (PowerOfD(3), 6.0, 3, (0.0, 1.0)),
    "d5": (PowerOfD(5), 6.0, 3, (0.0, 1.0)),
}


def _invite_low(scheme):
    # the `low` of the compiled rule: the invite threshold, 0 for the rest
    return mf._join_rule(scheme, 1.0)[2][2]


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


def _bound_case(case, size, *salt, count=150):
    """The RK4 pieces of DRIFT_CASES[case] at `size` levels bound on the
    kernel and on NumPy, a generator seeded by the case's name, size and
    salt, and the case's tails drawn from it.  The name's CRC-32 seeds it, so
    a new case draws no other case's tails anew."""
    scheme, rho, ones, (lo, hi) = DRIFT_CASES[case]
    params = SystemParams(n=100, lam=rho / 1.5, beta=1.5, nu=1.0, mu=100.0)
    on_kernel = mf._bind_ode(scheme, params, size, DT)
    on_python = without_kernel(mf._bind_ode, scheme, params, size, DT)
    assert (on_kernel.engine, on_python.engine) == ("kernel", "python")
    rng = np.random.default_rng([zlib.crc32(case.encode()), size, *salt])
    tails = _tails(rng, size, min(ones, size - 2), lo, hi, count)
    return (on_kernel, on_python), rng, tails


def _sats(size, case):
    """Pinned prefixes 0..sat to try: none, the whole tail, the middle, the
    tail's prefix of ones, and levels 1 and low - 1 under the invite
    threshold, where the dip-refill correction acts."""
    scheme, _, ones, _ = DRIFT_CASES[case]
    low = _invite_low(scheme)
    return sorted({sat for sat in (0, size - 1, size // 2, ones, 1, low - 1)
                   if 0 <= sat < size})


def _same_float(a, b):
    return math.isnan(a) and math.isnan(b) or a.hex() == b.hex()


def _same_step(a, b):
    """Two step(sat) results, (projection distance, moved), agree."""
    return _same_float(a[0], b[0]) and a[1] == b[1]


def _specials(rng, s, *ks):
    """Put exact 0, 1 and -0.0 at random levels of s (three each, or every
    level of a shorter tail) and at the matching entries of every k: each k
    entry 0 keeps a stage or step end on that value exactly, and -0.0
    everywhere gives -0.0."""
    for value, k_value in ((0.0, 0.0), (1.0, 0.0), (-0.0, -0.0)):
        at = rng.choice(s.size, size=min(3, s.size), replace=False)
        s[at] = value
        for k in ks:
            k[at] = k_value


def _roughen(rng, s, nan):
    """Push a third of the levels of s above 0 off [0, 1] by up to 0.3 and,
    with `nan`, make one of them NaN."""
    at = rng.choice(np.arange(1, s.size), size=max(1, s.size // 3), replace=False)
    s[at] += rng.choice([-0.3, 0.3], at.size) * rng.random(at.size)
    if nan:
        s[rng.choice(at)] = math.nan


@pytest.mark.parametrize("size", [16, 2, 3, 6, 7, 280, 281])
@pytest.mark.parametrize("case", sorted(DRIFT_CASES))
def test_kernel_drift_matches_python_bit_for_bit(kernel, case, size):
    # valid tails, then every other one off [0, 1] with -0.0 entries, and
    # every fourth with a NaN
    both, rng, tails = _bound_case(case, size)
    on_kernel, on_python = both
    sats = _sats(size, case)
    for n, s in enumerate(tails):
        if n % 2:
            _specials(rng, s)
            _roughen(rng, s, nan=n % 4 == 1)
        for sat in sats:
            sups = []
            for ode in both:
                ode.state[:size] = s
                ode.q.fill(math.nan)
                with np.errstate(all="ignore"):
                    sups.append(ode.drift(sat))
            if not np.isnan(s).any():
                assert not np.isnan(on_kernel.q).any(), "q entry left unwritten"
            assert on_kernel.q.tobytes() == on_python.q.tobytes(), (s, sat)
            assert on_kernel.k[0].tobytes() == on_python.k[0].tobytes(), (s, sat)
            assert on_kernel.k[0][0] == 0.0
            assert _same_float(*sups), (s, sat)
            assert _same_float(sups[0], float(np.abs(on_kernel.k[0]).max()))


# ---------------------------------------------------------------------------
# whole RK4 steps: the stages and the step end
# ---------------------------------------------------------------------------


def _steps_agree(both, size, s, k1, sat):
    """Run step(sat) from state s and drift k1 on both engines, every output
    buffer poisoned first, assert that they agree bit for bit, that `moved`
    says whether the step changed a bit of the state and that g holds the
    new state, and return the projection distance.  Level 0 of k2..k4 stays
    0, as in integrate_ode: neither engine writes it, and a NaN there would
    make every distance NaN."""
    outs = []
    for ode in both:
        ode.state[:size] = s
        ode.k[0] = k1
        ode.k[1:, 0] = 0.0
        for buf in (ode.g[:size], ode.q, ode.k[1:, 1:], ode.raw):
            buf.fill(math.nan)
        with np.errstate(all="ignore"):
            outs.append(ode.step(sat))
    on_kernel, on_python = both
    for name in ("g", "q", "k", "raw", "state"):
        ours, theirs = getattr(on_kernel, name), getattr(on_python, name)
        assert ours.tobytes() == theirs.tobytes(), (name, s, sat)
    assert _same_step(*outs), (s, sat)
    far, moved = outs[0]
    now = on_kernel.state[:size].tobytes()
    assert moved == (now != s.tobytes()), (s, sat)
    assert on_kernel.g[:size].tobytes() == now
    return far


@pytest.mark.parametrize("size", [2, 3, 6, 7, 16, 280, 281])
@pytest.mark.parametrize("case", sorted(DRIFT_CASES))
def test_kernel_stage_matches_python_bit_for_bit(kernel, case, size):
    # the three stages of a step: first stage states up to 0.3 outside the
    # tail on either side, so the projection clips both ways and its running
    # minimum does work; each stage's corrected drift goes into the next k row
    both, rng, tails = _bound_case(case, size, 1, count=30)
    on_kernel = both[0]
    for s in tails:
        k1 = rng.uniform(-0.3, 0.3, size) / (0.5 * DT)
        _specials(rng, s, k1)
        for sat in _sats(size, case):
            assert math.isfinite(_steps_agree(both, size, s, k1, sat))
            g = on_kernel.g[:size]
            assert np.all(g[: sat + 1] == 1.0)
            assert np.all(np.diff(g) <= 0.0) and g[-1] >= 0.0


@pytest.mark.parametrize("size", [2, 3, 6, 7, 16, 280, 281])
@pytest.mark.parametrize("case", sorted(DRIFT_CASES))
def test_kernel_finish_matches_python_bit_for_bit(kernel, case, size):
    # the step end: tails off [0, 1] with -0.0 entries, and a NaN in every
    # fourth tail or drift, which comes out of every projection as numpy's
    # does; the other tails give a finite distance
    both, rng, tails = _bound_case(case, size, 2, count=30)
    on_kernel = both[0]
    for n, s in enumerate(tails):
        k1 = rng.uniform(-0.05, 0.05, size) / (DT / 6.0)
        _specials(rng, s, k1)
        _roughen(rng, s, nan=n % 4 == 0)
        if n % 4 == 2:
            k1[rng.integers(1, size)] = math.nan
        for sat in _sats(size, case):
            far = _steps_agree(both, size, s, k1, sat)
            gap = np.abs(on_kernel.raw - on_kernel.state[:size])
            assert _same_float(far, float(gap.max()))
            assert math.isfinite(far) == (n % 4 in (1, 3)), (n, far)


# the cases whose invite threshold leaves room for a pinned level below it
CORRECTED = sorted(case for case, (scheme, *_) in DRIFT_CASES.items()
                   if _invite_low(scheme) >= 2)


# (a 2-level tail leaves no sat with 0 < sat < size - 1)
@pytest.mark.parametrize("size", [3, 6, 7, 16, 280, 281])
@pytest.mark.parametrize("case", CORRECTED)
def test_kernel_correction_matches_python_bit_for_bit(kernel, case, size):
    # the dip-refill correction's branch: levels 0..sat at 1 with
    # 0 < sat < low and the level above below 1, so departures make k1[sat]
    # negative; the correction fires on every tail and changes k1
    both, rng, tails = _bound_case(case, size, 3, count=30)
    on_kernel, on_python = both
    low = DRIFT_CASES[case][0].low
    fired = 0
    for s in tails:
        sat = int(rng.integers(1, min(low, size - 1)))
        s[: sat + 1] = 1.0
        s[sat + 1 :] *= rng.uniform(0.0, 0.99)
        on_kernel.state[:size] = s
        on_kernel.drift(0)
        uncorrected = on_kernel.k[0].copy()
        assert uncorrected[sat] < 0.0
        sups = []
        for ode in both:
            ode.state[:size] = s
            sups.append(ode.drift(sat))
        assert on_kernel.k[0].tobytes() == on_python.k[0].tobytes(), (s, sat)
        assert _same_float(*sups), (s, sat)
        fired += on_kernel.k[0].tobytes() != uncorrected.tobytes()
        assert math.isfinite(_steps_agree(both, size, s, on_kernel.k[0].copy(),
                                          sat))
    assert fired == 30


_LEVELS = st.integers(0, 45)
_HIGHS = st.integers(1, 45)
# every scheme the mean-field layer supports, thresholds on either side of
# the tail's length
_SCHEMES = st.one_of(
    st.builds(PowerOfD, st.integers(1, 6)),
    st.builds(lambda low, gap: PullBased(low, low + gap), _LEVELS,
              _HIGHS | st.just(math.inf)),
    st.builds(Shedding, _HIGHS | st.just(math.inf)),
    st.builds(lambda low, gap: TransferToInvite(low, low + gap), _LEVELS, _HIGHS),
    st.builds(TransferToLeastLoaded, _HIGHS),
)


@st.composite
def _tail_and_sat(draw):
    """A valid tail of 2 to 40 levels (1 on levels 0..ones, then
    non-increasing values in [0, 1]) and a pinned prefix 0..sat."""
    size = draw(st.integers(2, 40))
    ones = draw(st.integers(0, size - 1))
    rest = draw(st.lists(st.floats(0.0, 1.0), min_size=size - ones - 1,
                         max_size=size - ones - 1))
    s = np.ones(size)
    s[ones + 1:] = sorted(rest, reverse=True)
    return s, draw(st.integers(0, size - 1))


@settings(max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=_SCHEMES, rho=st.floats(0.05, 60.0), tail_sat=_tail_and_sat())
def test_kernel_drift_and_step_match_python_on_drawn_cases(kernel, scheme, rho,
                                                           tail_sat):
    # drift(sat), then step(sat) from there, on both engines
    s, sat = tail_sat
    size = s.size
    params = SystemParams(n=100, lam=rho / 1.5, beta=1.5, nu=1.0, mu=100.0)
    on_kernel = mf._bind_ode(scheme, params, size, DT)
    on_python = without_kernel(mf._bind_ode, scheme, params, size, DT)
    assert (on_kernel.engine, on_python.engine) == ("kernel", "python")
    for ode in (on_kernel, on_python):
        ode.state[:size] = s
    for call, same, written in (
            ("drift", _same_float, ("q", "k")),
            ("step", _same_step, ("q", "k", "state", "g", "raw"))):
        with np.errstate(all="ignore"):
            outs = [getattr(ode, call)(sat) for ode in (on_kernel, on_python)]
        assert same(*outs), call
        for name in written:
            ours, theirs = getattr(on_kernel, name), getattr(on_python, name)
            assert ours.tobytes() == theirs.tobytes(), (call, name)


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
def test_pinned_runs_match_under_both_engines(kernel, name, engine):
    out = _run_ode(name) if engine == "kernel" else without_kernel(_run_ode, name)
    assert out.engine == engine
    assert _pinned(out) == ODE_PINNED[name]
    assert (out.stop_reason, out.pins, out.releases) == ODE_STOPS[name]


def _benchmark_starts():
    """Criterion 2's five runs at 280 levels and rho = 150: least-loaded
    from the empty start, and pull, transfer-to-invite, least-loaded and
    random assignment from the two-point start (every server at 150)."""
    two_point = np.zeros(280)
    two_point[:151] = 1.0
    starts = {"least-loaded@empty": (TransferToLeastLoaded(160), _empty(280))}
    for name, scheme in (("pull", PullBased(140, 160)),
                         ("transfer-invite", TransferToInvite(140, 160)),
                         ("least-loaded", TransferToLeastLoaded(160)),
                         ("random", PowerOfD(1))):
        starts[f"{name}@two-point"] = (scheme, two_point)
    return starts


def _outcome(out):
    """What integrate_ode returns, but for the trajectory."""
    return _pinned(out)[:5] + (out.stop_reason, out.pins, out.releases)


def _same_run(ours, theirs):
    """ours, from the kernel, and theirs, from NumPy and the Python loop,
    agree in everything integrate_ode returns."""
    assert (ours.engine, theirs.engine) == ("kernel", "python")
    assert _outcome(ours) == _outcome(theirs)
    assert (_trajectory_digest(ours.trajectory)
            == _trajectory_digest(theirs.trajectory))


# how each of criterion 2's runs stops at stop_residual = 1e-9
BENCHMARK_STOPS = {
    "least-loaded@empty": ("stationary", 33170),
    "least-loaded@two-point": ("residual", 13309),
    "pull@two-point": ("residual", 13266),
    "random@two-point": ("residual", 12434),
    "transfer-invite@two-point": ("residual", 13266),
}


@pytest.mark.parametrize("name", sorted(_benchmark_starts()))
def test_wide_runs_match_under_both_engines(kernel, name):
    # the whole runs of criterion 2, each to where it stops by itself, with
    # a frame every 100 steps
    scheme, s0 = _benchmark_starts()[name]
    params = SystemParams(n=100, lam=100.0, beta=1.5, nu=100.0, mu=20000.0)

    def run():
        return mf.integrate_ode(scheme, params, s0.copy(), t_end=90.0,
                                stop_residual=1e-9, record_every=0.15)

    on_kernel, on_python = run(), without_kernel(run)
    _same_run(on_kernel, on_python)
    assert (on_kernel.stop_reason, on_kernel.steps) == BENCHMARK_STOPS[name]
    assert len(on_kernel.trajectory) == on_kernel.steps // 100


def test_compiled_loop_matches_python_on_the_stall(kernel):
    # the stationary stop, whose last still step and stopping check straddle
    # the end of a call when the record stride lands on the stop: `quiet`
    # carries over, and the stop's own step is recorded once
    scheme, params = STALL
    whole = mf.integrate_ode(scheme, params, _empty(100), t_end=60.0,
                             stop_residual=1e-9)
    assert (whole.stop_reason, whole.steps) == ("stationary", 32227)

    def run():
        return mf.integrate_ode(scheme, params, _empty(100), t_end=60.0,
                                stop_residual=1e-9, record_every=whole.t)

    on_kernel, on_python = run(), without_kernel(run)
    _same_run(on_kernel, on_python)
    assert _outcome(on_kernel) == _outcome(whole)
    [(t, frame)] = on_kernel.trajectory
    assert t == whole.t and frame.tobytes() == whole.tail.tobytes()


def _still_loop(engine):
    """The step loop of PullBased(5, 8) on 16 levels, with stop_residual
    1e-9, bound on `engine`, whose steps of 1e-20 change no bit of a tail
    that stays within [0.5, 1]."""
    params = SystemParams(n=100, lam=4.0, beta=1.5, nu=1.0, mu=100.0)
    bind = functools.partial(mf._bind_ode, PullBased(5, 8), params, 16, 1e-20,
                             1e-9)
    ode = bind() if engine == "kernel" else without_kernel(bind)
    assert ode.engine == engine
    ode.state[:16] = np.linspace(1.0, 0.5, 16)
    return ode


@pytest.mark.parametrize("engine", ["kernel", "python"])
def test_a_still_step_right_after_a_release_does_not_stop(kernel, engine):
    # the loop at step 5 as a step that released a level leaves it (quiet
    # 0): the k1 in hand may have been taken at the longer prefix, so the
    # still step to 6 does not stop the loop; the still step to 7 follows a
    # step that released nothing, so the loop stops at step 7
    ode = _still_loop(engine)
    loop = ode.loop
    loop.sup_k1 = ode.drift(0)
    loop.step, loop.quiet = 5, 0
    before = ode.state.tobytes()
    assert ode.run(7) == mf.STOP_NONE
    assert (loop.step, loop.quiet) == (7, 2)
    assert ode.run(10) == mf.STOP_STATIONARY
    assert loop.step == 7 and ode.state.tobytes() == before
    assert (loop.pins, loop.releases) == (0, 0)


@pytest.mark.parametrize("engine", ["kernel", "python"])
def test_a_nan_state_is_never_stationary(kernel, engine):
    # the NaN levels spread down the tail and then repeat bit for bit, so
    # quiet reaches 2, yet a NaN residual runs on to the step budget
    ode = _still_loop(engine)
    ode.state[8:16] = math.nan
    with np.errstate(all="ignore"):
        assert ode.run(40) == mf.STOP_NONE
    assert math.isnan(ode.loop.sup_k1)
    assert (ode.loop.step, ode.loop.quiet) == (40, 2)


@pytest.mark.parametrize("engine", ["kernel", "python"])
def test_terminal_projection_error_under_both_engines(kernel, engine):
    run = functools.partial(mf.integrate_ode, TransferToInvite(3, 5), _load(7.0),
                            _empty(16), 2.0)
    with pytest.raises(mf.NumericalError) as err:
        run() if engine == "kernel" else without_kernel(run)
    assert str(err.value) == ("projection distance 0.0012219 at the terminal step "
                              "exceeds 1e-06; reduce dt")


@pytest.mark.parametrize("stride", [1, 7, None])
def test_record_strides_split_the_loop_without_changing_it(kernel, stride):
    # pull-dip-absorbs pins and releases over 334 steps: a frame after every
    # step, every 7th step (7 does not divide 334, so the last call ends
    # between frames), or none; each stride gives the unrecorded run's
    # result, and its frames are every stride-th frame of stride 1
    scheme, rho, s0, t_end, _ = ODE_RUNS["pull-dip-absorbs"]

    def run(step):
        every = None if step is None else step * DT
        return mf.integrate_ode(scheme, _load(rho), s0.copy(), t_end,
                                record_every=every)

    on_kernel, on_python = run(stride), without_kernel(run, stride)
    _same_run(on_kernel, on_python)
    assert _pinned(on_kernel)[:5] == ODE_PINNED["pull-dip-absorbs"][:5]
    every_step = run(1).trajectory
    assert len(every_step) == on_kernel.steps == 334
    picked = every_step[stride - 1 :: stride] if stride else ()
    assert _trajectory_digest(on_kernel.trajectory) == _trajectory_digest(picked)


def test_a_stop_on_a_record_step_records_it_once(kernel):
    # power-of-1 stops on its residual at step 8408 = 8 * 1051: the call to
    # step 8408 returns, its frame is recorded, and the next call stops
    # before any step
    scheme, rho, s0, t_end, kwargs = ODE_RUNS["power-of-1"]

    def run():
        return mf.integrate_ode(scheme, _load(rho), s0.copy(), t_end,
                                record_every=1051 * DT, **kwargs)

    on_kernel, on_python = run(), without_kernel(run)
    _same_run(on_kernel, on_python)
    assert _pinned(on_kernel)[:5] == ODE_PINNED["power-of-1"][:5]
    assert (on_kernel.stop_reason, on_kernel.steps) == ("residual", 8408)
    assert len(on_kernel.trajectory) == 8
    t, frame = on_kernel.trajectory[-1]
    assert t == on_kernel.t and frame.tobytes() == on_kernel.tail.tobytes()


def test_no_compiler_falls_back_to_python_drift(kernel, monkeypatch, tmp_path,
                                                caplog):
    expected = _run_ode("pull-stacked")
    isolate_loader(monkeypatch, tmp_path, None)
    with caplog.at_level(logging.WARNING, logger="stickysim._native"):
        first = _run_ode("pull-stacked")
        second = _run_ode("pull-stacked")
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "no C compiler" in warnings[0].getMessage()
    assert warnings[0].name == "stickysim._native"
    assert (expected.engine, first.engine, second.engine) == ("kernel", "python",
                                                              "python")
    assert _pinned(first) == _pinned(second) == _pinned(expected)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_power_of_d_runs_on_the_kernel_at_every_d(kernel, d):
    # sp**d is d - 1 rounded products in both engines, so no d falls back
    params = SystemParams(n=100, lam=5.0, beta=1.0, nu=1.0, mu=100.0)

    def run():
        return mf.integrate_ode(PowerOfD(d), params, _empty(20), t_end=0.5,
                                record_every=0.25)

    on_kernel, on_python = run(), without_kernel(run)
    assert (on_kernel.engine, on_python.engine) == ("kernel", "python")
    assert _pinned(on_kernel) == _pinned(on_python)


# ---------------------------------------------------------------------------
# struct layout (that importing the package loads no kernel is
# test_sim_kernel's test_import_neither_builds_nor_loads_the_kernel)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(STRUCT_SIZES))
def test_struct_layout_matches_the_kernel(kernel, name):
    exported = ctypes.c_int64.in_dll(_native.kernel(), name).value
    assert exported == ctypes.sizeof(STRUCT_SIZES[name])


@pytest.mark.parametrize("name", sorted(MIRRORED_CODES))
def test_mirrored_codes_match_the_kernel(kernel, name):
    codes = MIRRORED_CODES[name]
    exported = (ctypes.c_int64 * len(codes)).in_dll(_native.kernel(), name)
    assert tuple(exported) == codes


def test_compile_flags_keep_every_rounding():
    # the engines agree bit for bit only while each double operation rounds
    # as written: no fused multiply-add, no value-unsafe math, and no -march,
    # which would let the build differ from host to host
    flags = _native.FLAGS
    assert "-ffp-contract=off" in flags
    unsafe = ("-ffast-math", "-Ofast", "-funsafe-math-optimizations",
              "-fassociative-math", "-ffinite-math-only")
    assert not set(unsafe) & set(flags)
    assert not any(flag.startswith("-march=") for flag in flags)


# each per-level loop of the ODE step that GCC vectorizes at FLAGS, by the
# text of the statement in its body; a rewrite that makes one scalar again
# changes no bit, so only the compiler's vectorizer report shows it
BALANCE = "ds[i] = lam * q[i - 1] - (double)i * (sp[i] - sp[i + 1]) / beta;"
VECTORIZED_LOOPS = {
    "stage": "g[i] = s[i] + scale * k_in[i];",
    "rk4": "double r = k1[i] + 2.0 * k2[i];",
    "project-clip": "v[i] = i <= sat ? 1.0 : clip_unit(src[i]);",
    "tail-diff": "q[j] = sp[j] - sp[j + 1];",
    "pull-invites": "q[j] = (sp[j] - sp[j + 1]) / (1.0 - s_low);",
    "pull-band": "q[j] = rem * (sp[j] - sp[j + 1]) / (1.0 - s_high);",
    "invite-boost-below-low": "q[j] = (sp[j] - sp[j + 1]) * boost;",
    "invite-boost-band": "q[j] *= boost;",
    "saturated": "q[j] = rem * (sp[j] - sp[j + 1]);",
    "d-choices-products": "q[j] *= sp[j];",
    "d-choices-differences": "q[j] -= q[j + 1];",
    "correction-sum": "sum += q[j];",
    "correction-siphon": "ds[j] = ds[j] - share * q[j - 1];",
}


@pytest.fixture(scope="module")
def vectorizer_report(tmp_path_factory):
    """_kernel.c's lines and the line numbers of the loops that GCC's
    -fopt-info-vec-optimized report names vectorized at _native.FLAGS."""
    cc = _native.compiler()
    if cc is None:
        pytest.skip("no C compiler")
    macros = subprocess.run([cc, "-dM", "-E", "-x", "c", "-"], input="",
                            capture_output=True, text=True, timeout=60).stdout
    if "__GNUC__" not in macros or "__clang__" in macros:
        pytest.skip("-fopt-info-vec-optimized is GCC's report")
    source = Path(_native.__file__).with_name("_kernel.c")
    proc = subprocess.run(
        [cc, *_native.FLAGS, "-fopt-info-vec-optimized", "-o",
         str(tmp_path_factory.mktemp("vec") / "kernel.so"), str(source), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    vectorized = {int(m) for m in re.findall(
        r"_kernel\.c:(\d+):\d+: optimized: loop vectorized", proc.stderr)}
    return source.read_text().splitlines(), vectorized, proc.stderr


def _assert_loop_vectorized(report, statement):
    lines, vectorized, stderr = report
    body = [n for n, line in enumerate(lines, 1) if statement in line]
    assert len(body) == 1, f"{statement!r} is not in _kernel.c exactly once"
    # GCC names a loop by the line of its `for`, the line above the body
    loop = body[0] - 1
    assert lines[loop - 1].lstrip().startswith("for ("), lines[loop - 1]
    assert loop in vectorized, stderr


def test_the_balance_loop_vectorizes_at_the_shipped_flags(vectorizer_report):
    # drift()'s arrival/departure balance runs in every drift evaluation, and
    # it vectorizes only with its bound in a local and an int counter
    _assert_loop_vectorized(vectorizer_report, BALANCE)


@pytest.mark.parametrize("statement", list(VECTORIZED_LOOPS.values()),
                         ids=list(VECTORIZED_LOOPS))
def test_each_step_loop_vectorizes_at_the_shipped_flags(vectorizer_report, statement):
    _assert_loop_vectorized(vectorizer_report, statement)


@pytest.mark.parametrize("engine", ["kernel", "python"])
def test_bound_buffers_cover_every_level_the_rule_reads(kernel, engine):
    # the kernel indexes the buffers unchecked, and PullBased(5, 12) reads
    # up to level 13 of an 8-level tail
    params = SystemParams(n=100, lam=4.0, beta=1.5, nu=1.0, mu=100.0)
    bind = functools.partial(mf._bind_ode, PullBased(5, 12), params, 8, DT)
    ode = bind() if engine == "kernel" else without_kernel(bind)
    assert ode.engine == engine
    assert ode.q.size >= 13
    assert ode.state.shape == ode.g.shape == (ode.q.size + 1,)
    assert ode.k.shape == (4, 8) and ode.raw.shape == (8,)
    buffers = (ode.state, ode.g, ode.k, ode.raw, ode.q)
    assert all(b.dtype == np.float64 and b.flags.c_contiguous for b in buffers)
