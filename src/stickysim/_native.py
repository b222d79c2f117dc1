"""Build and load the compiled kernels.

The event loop of both simulators (sim_run, which makes its uniforms with
its own copy of numpy's Philox from the key in SimParams) and the mean-field
RK4 kernels live in one C99 source file shipped next to this module,
_kernel.c.  ode_run runs an integration's whole step loop (pinning, release,
the residual and stationary stop rules) in one call, carrying its state in
an OdeLoop from call to call; each step is ode_drift, the corrected drift at
the step's start and its sup-norm, and ode_step, the three stages with
their corrections and the step end, which also reports whether the step
changed any bit of the tail.  All three read one DriftParams bound
per integration, whose rule code is one of mean_field's RULE_* and covers
every mean-field scheme.  sim_run may start one helper thread per run, which
only fills blocks of uniforms ahead of the loop and is joined before sim_run
returns; no thread ever calls into Python, and the result is the same bit
for bit whichever thread filled a block.  On first use the file is compiled
with the host C compiler into a per-user cache directory (``$XDG_CACHE_HOME/stickysim``,
else ``~/.cache/stickysim``), under a name keyed by the SHA-256 of the
source and the compile flags, and loaded with ctypes.  Each build deletes
the cache's other builds of the source that have gone untouched for over a
week; a load of a cached build touches it.  Nothing here runs at package
import.

When no compiler is found, or the build or the load fails (a compiler
without ``unsigned __int128``, which Philox's products need, fails the
build), ``kernel`` logs one warning and returns None; callers then run their
pure-Python reference code, which produces the same results.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

logger = logging.getLogger(__name__)

# Every double operation rounds exactly as the Python reference does.
# -ffp-contract=off forbids fused multiply-add.  -O3 vectorizes the ODE's
# per-level loops (SSE2, two doubles at a time: the stages, the join rules,
# the drift's arrival/departure balance, the correction, the RK4 combination)
# but keeps IEEE semantics: each lane rounds as the scalar operation would,
# and a reduction is vectorized in its source order (the correction's sum, as
# a fold-left) or not at all (the NaN-aware sups).  No -ffast-math or any flag
# it implies, no -march.
# -pthread: sim_run's block-filling helper thread
FLAGS = ("-std=c99", "-O3", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")

_SOURCE = Path(__file__).resolve().with_name("_kernel.c")
# a cached build unused this long is deleted by the next build; checkouts of
# different sources share the cache, so their recent builds stay
STALE_SECONDS = 7 * 24 * 3600
# the outcome of the one build-and-load attempt per process, once made
_loaded: list[ctypes.CDLL | None] = []


def compiler() -> str | None:
    """Path of the host C compiler, or None when there is none."""
    return shutil.which("cc") or shutil.which("gcc")


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "stickysim"


def _build(source: Path) -> Path:
    """Compiled library for `source`, built into the cache if missing."""
    code = source.read_bytes()
    key = hashlib.sha256(code + "\0".join(FLAGS).encode()).hexdigest()[:24]
    target = cache_dir() / f"{source.stem}-{key}.so"
    if target.is_file():
        with contextlib.suppress(OSError):
            os.utime(target)  # in use: keep it from the next build's pruning
        return target
    cc = compiler()
    if cc is None:
        raise OSError("no C compiler found (looked for cc and gcc)")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{source.stem}-", suffix=".so",
                               dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run([cc, *FLAGS, "-o", tmp, str(source), "-lm"],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise OSError(f"{cc} failed: {proc.stderr.strip()[-2000:]}")
        os.replace(tmp, target)  # atomic: other processes never load a partial file
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    stale = time.time() - STALE_SECONDS
    for old in target.parent.glob(f"{source.stem}-*.so"):
        with contextlib.suppress(OSError):
            if old != target and old.stat().st_mtime < stale:
                old.unlink()
    return target


# ---------------------------------------------------------------------------
# kernel binding (mirrors the structs in _kernel.c)
# ---------------------------------------------------------------------------

_I64 = ctypes.c_int64
_F64 = ctypes.c_double
F64P = ctypes.POINTER(_F64)

# the kernel's "no upper threshold" value of `high`
NO_CAP = 2**63 - 1


class SimParams(ctypes.Structure):
    _fields_ = [
        ("n", _I64), ("low", _I64), ("high", _I64), ("tracked", _I64),
        ("hist_start", _I64), ("mode", _I64), ("d", _I64), ("bins", _I64),
        ("drain", _I64),
        ("lam_total", _F64), ("inv_beta", _F64), ("t_start", _F64),
        ("t_stop", _F64), ("key", ctypes.c_uint64 * 2),
    ]


class SimResult(ctypes.Structure):
    _fields_ = [
        ("started", _I64), ("violations", _I64), ("total_flows", _I64),
        ("count", _I64), ("reallocations", _I64), ("skipped", _I64),
        ("flow_int", _F64), ("prev_t", _F64),
        ("occ", ctypes.POINTER(_I64)), ("last", F64P),
        ("hist", F64P), ("hist_len", _I64),
        ("series", F64P), ("series_rows", _I64),
    ]


class DriftParams(ctypes.Structure):
    _fields_ = [
        ("rule", _I64), ("d", _I64), ("low", _I64), ("high", _I64),
        ("size", _I64), ("width", _I64),
        ("lam", _F64), ("beta", _F64), ("rho", _F64), ("case_eps", _F64),
        ("half_dt", _F64), ("dt", _F64), ("sixth_dt", _F64),
        ("q", F64P),
    ]


class OdeLoop(ctypes.Structure):
    _fields_ = [
        ("pin_tol", _F64), ("sat_tol", _F64), ("release_eps", _F64),
        ("stop_residual", _F64),
        ("step", _I64), ("sat", _I64), ("pins", _I64), ("releases", _I64),
        ("quiet", _I64),
        ("t", _F64), ("sup_k1", _F64), ("max_projection", _F64),
        ("last_projection", _F64),
    ]


def kernel() -> ctypes.CDLL | None:
    """The loaded kernels (sim_run, and ode_run with the ode_drift and
    ode_step it calls) with signatures set, or None.

    None of them calls back into Python, so each runs with the GIL released
    for the whole call.  sim_run may run one helper thread of its own while
    it runs (see _kernel.c); it joins it before returning, so no thread
    outlives the call.  Built and loaded on the first call; the outcome is
    kept for the process, so a fallback warns only once.
    """
    if not _loaded:
        try:
            path = _build(_SOURCE)
            lib = ctypes.CDLL(str(path))
        except (OSError, subprocess.SubprocessError) as exc:
            lib = None
            logger.warning("compiled kernel %s unavailable (%s); using the "
                           "pure-Python loop", _SOURCE.name, exc)
        else:
            lib.sim_run.argtypes = [ctypes.POINTER(SimParams),
                                    ctypes.POINTER(SimResult)]
            lib.sim_run.restype = ctypes.c_int
            lib.sim_free.argtypes = [ctypes.POINTER(SimResult)]
            lib.sim_free.restype = None
            # the buffers go in as plain addresses, taken once per integration
            ptr = ctypes.c_void_p
            lib.ode_drift.argtypes = [ptr, _I64, ptr, ptr]
            lib.ode_drift.restype = _F64
            lib.ode_step.argtypes = [ptr, _I64, ptr, ptr, ptr, ptr, ptr]
            lib.ode_step.restype = _F64
            lib.ode_run.argtypes = [ptr, ptr, ptr, ptr, ptr, ptr, _I64]
            lib.ode_run.restype = _I64
            logger.info("compiled kernel %s loaded from %s", _SOURCE.name, path)
        _loaded.append(lib)
    return _loaded[0]
