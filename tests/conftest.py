"""Shared fixtures: the reference parameter set and a reduced twin, the
compiled-kernel gate, loader isolation and the reference-engine switch the
kernel tests share, and the hypothesis profile of every property test.

The reference configuration (500 servers, offered load 150 per server,
processing capacity 200 flows per server) is what the acceptance suite
exercises end to end; the reduced twin keeps the same per-server load at a
fraction of the event volume for fast unit runs.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import settings

from stickysim import _native
from stickysim.core import SystemParams

# every property test draws the same examples on every run, with no per
# example time limit; each test sets its own max_examples
settings.register_profile("stickysim", derandomize=True, deadline=None)
settings.load_profile("stickysim")

# verdict lines collected by the acceptance tests; echoed after the run
# summary so they are visible without -s
acceptance_lines: list[str] = []


def stats_sha256(stats) -> str:
    """SHA-256 over every field of a stats dataclass, in field order.

    Arrays enter with their dtype, shape and raw bytes, scalars with their
    type and repr (exact for floats), so two runs share a digest only when
    every field agrees bit for bit.
    """
    h = hashlib.sha256()
    for field in dataclasses.fields(stats):
        x = getattr(stats, field.name)
        if isinstance(x, np.ndarray):
            part = f"{field.name}:{x.dtype.str}{x.shape}:".encode() + x.tobytes()
        else:
            part = f"{field.name}:{type(x).__name__}:{x!r}".encode()
        h.update(part + b";")
    return h.hexdigest()


def assert_same_stats(a, b) -> None:
    """Assert that two stats dataclasses agree in every field, bit for bit."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape, field.name
            assert x.tobytes() == y.tobytes(), field.name
        else:
            assert type(x) is type(y) and x == y, field.name


def without_kernel(call, *args, **kwargs):
    """call(*args, **kwargs) with the kernel loader reporting no kernel.

    Every engine then takes its pure-Python reference path, as it does when
    no kernel can be built; the loader's outcome is restored afterwards.
    """
    saved = _native._loaded
    _native._loaded = [None]
    try:
        return call(*args, **kwargs)
    finally:
        _native._loaded = saved


def isolate_loader(monkeypatch, tmp_path, compiler):
    """A fresh kernel loader for one test: `compiler` stands in for the
    host's C compiler (None: there is none), the build cache is tmp_path,
    and no load has been tried yet."""
    monkeypatch.setattr(_native, "compiler", lambda: compiler)
    monkeypatch.setattr(_native, "cache_dir", lambda: tmp_path)
    monkeypatch.setattr(_native, "_loaded", [])


@pytest.fixture
def kernel():
    """Skip the test when the compiled kernel cannot be built or loaded."""
    if _native.kernel() is None:
        pytest.skip("compiled kernel unavailable (no C compiler)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def full_params() -> SystemParams:
    return SystemParams(n=500, lam=100.0, beta=1.5, nu=100.0, mu=20000.0)


@pytest.fixture(scope="session")
def reduced_params() -> SystemParams:
    return SystemParams(n=100, lam=100.0, beta=1.5, nu=100.0, mu=20000.0)


@pytest.fixture(scope="session")
def small_params() -> SystemParams:
    # tiny system for hand-checkable runs: rho = 3 flows per server
    return SystemParams(n=20, lam=3.0, beta=1.0, nu=1.0, mu=10.0)
