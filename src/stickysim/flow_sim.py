"""Event-driven flow-level simulation of the assignment schemes.

A run is an exact continuous-time Markov chain simulation: arrivals form a
Poisson process of rate n*lam, each admitted flow holds one server slot for an
independent exponential duration with mean beta.  Durations being memoryless,
the next departure is always a uniformly random active flow at total rate
count/beta, so the event loop needs no future-event heap: it draws the time to
the next event from the total rate and then picks the event type.

Statistics are time weighted: every server carries the time of its last
occupancy change, and the histogram is credited on each change, which keeps
the per-event cost constant.  All randomness comes from one Philox stream
per run, numpy's Philox(seed) read through Generator.random, consumed in a
fixed documented order, so a seed fully determines the run: the reference
loop reads it through RngStream and the kernel makes the same doubles with
its own copy of the generator.

The loop exists twice, once per engine, and each engine has one loop for
every scheme, the bin scheme of bin_sim included (mode _BIN): a compiled C
kernel (sim_run in _kernel.c, built on first use by _native) and the
pure-Python reference _run_py, which is the readable oracle.  run_flow_sim
and run_bin_sim both enter through _run, which takes the kernel when
_native.kernel() loads one and the reference loop otherwise; both give
bit-identical statistics.  The reference loop runs on the Python twins of
the kernel's helpers: RngStream.uniform for draws, _SwapList for every list
(the invite, below-high and per-occupancy server lists, and bin_sim's
per-server bin lists), as the kernel's ilist with list_add, list_drop,
list_update and list_move, _pull_pick for the pull rule's pick (pull_pick),
and _Window for the measurement window, which closes through _window_stats
like the kernel.  Each scheme's placement rule is written once per engine,
as a mode branch of the loop, and _loop_args is the one dispatch from a
config to its mode; the kernel differential tests tie the two engines
together draw for draw, and the run tests tie both to mean_field's laws.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (
    BinBased,
    FlowDistribution,
    PowerOfD,
    PullBased,
    SchemeConfig,
    Shedding,
    SystemParams,
    TransferToInvite,
    TransferToLeastLoaded,
)

__all__ = [
    "RngStream",
    "SimConfig",
    "SimStats",
    "run_flow_sim",
]

_BUFFER = 1 << 16

# simulated occupancies are unbounded in principle; the histogram grows by
# doubling from this size if a server ever climbs past it
_HIST_START = 1 << 10

DEFAULT_WARMUP_BETAS = 50.0
DEFAULT_HORIZON_BETAS = 200.0


class RngStream:
    """Buffered uniform stream over a counter-based generator (Philox).

    The same seed always yields the same draw sequence; simulation code
    documents how many draws each event consumes so runs are reproducible.
    uniform() returns the next draw in [0, 1).  The stream is a chain of
    blocks of _BUFFER uniforms, each made by gen.random(_BUFFER) when the
    one before runs out, and uniform is the chain's C-level __next__, so an
    event loop that binds it to a local pays about what an inline list index
    costs.  The loops draw exponentials by the inverse transform
    -log(1 - u) / rate, which never sees log(0) because uniforms live in
    [0, 1).
    """

    __slots__ = ("uniform",)
    uniform: Callable[[], float]

    def __init__(self, seed: int) -> None:
        gen = np.random.Generator(np.random.Philox(seed))
        first = gen.random(_BUFFER).tolist()

        def blocks() -> Iterator[list[float]]:
            yield first
            while True:
                yield gen.random(_BUFFER).tolist()

        self.uniform = itertools.chain.from_iterable(blocks()).__next__


@dataclass(frozen=True)
class SimConfig:
    """Run description for the flow-level (and bin-level) simulators.

    warmup/horizon default to multiples of the mean flow duration; statistics
    cover exactly [warmup, warmup + horizon).
    drain_to_threshold applies to bin runs only (a flow-level scheme with it
    set is rejected): when a threshold trigger fires, keep moving bins until
    the server is back at or below the high threshold instead of moving
    exactly one bin.
    """

    params: SystemParams
    scheme: SchemeConfig
    seed: int = 0
    warmup: float | None = None
    horizon: float | None = None
    tracked_server: int = 0
    drain_to_threshold: bool = False

    def __post_init__(self) -> None:
        beta = self.params.beta
        if self.warmup is None:
            object.__setattr__(self, "warmup", DEFAULT_WARMUP_BETAS * beta)
        if self.horizon is None:
            object.__setattr__(self, "horizon", DEFAULT_HORIZON_BETAS * beta)
        # an infinite horizon never ends; a NaN or infinite warmup never opens
        # the window
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(
                f"horizon must be positive and finite, got {self.horizon!r}"
            )
        if not (math.isfinite(self.warmup) and self.warmup >= 0):
            raise ValueError(
                f"warmup must be non-negative and finite, got {self.warmup!r}"
            )
        if not 0 <= self.tracked_server < self.params.n:
            raise ValueError(
                f"tracked_server must be in [0, {self.params.n}), "
                f"got {self.tracked_server!r}"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")
        if self.drain_to_threshold and not isinstance(self.scheme, BinBased):
            raise ValueError(
                "drain_to_threshold applies to bin runs only, got "
                f"{self.scheme!r}"
            )


@dataclass(frozen=True)
class SimStats:
    """Measurement-window statistics of one simulation run.

    occupancy_hist is the time-weighted fraction of server-time spent at each
    occupancy (sums to 1).  violations counts flows discarded or transferred;
    total_flows counts every flow arriving in the window, admitted or not, so
    violations/total_flows estimates the per-flow violation probability.
    series holds (time, occupancy) samples of the tracked server, one row per
    change plus the initial sample.  mean_occ is the time-average number of
    active flows per server.
    """

    occupancy_hist: np.ndarray
    violations: int
    total_flows: int
    series: np.ndarray
    mean_occ: float

    def __post_init__(self) -> None:
        hist = np.ascontiguousarray(np.asarray(self.occupancy_hist, np.float64))
        hist.flags.writeable = False
        object.__setattr__(self, "occupancy_hist", hist)
        series = np.ascontiguousarray(np.asarray(self.series, np.float64))
        series.flags.writeable = False
        object.__setattr__(self, "series", series)
        if self.violations > self.total_flows:
            raise ValueError("violations cannot exceed total_flows")

    @property
    def violation_rate(self) -> float:
        """Empirical per-flow violation probability (0 when no flows)."""
        if self.total_flows == 0:
            return 0.0
        return self.violations / self.total_flows

    def distribution(self) -> FlowDistribution:
        return FlowDistribution(self.occupancy_hist)


# ---------------------------------------------------------------------------
# event loop
# ---------------------------------------------------------------------------

# scheme modes shared by both engines
_D_CHOICES, _LEAST, _PULL, _SHED, _XFER_INVITE, _XFER_LEAST, _BIN = range(7)


def _loop_args(config: SimConfig) -> tuple[int, int, int | float, int, int, int]:
    """The event loop's (mode, low, high, d, bins, drain) for config's
    scheme, the bin scheme included; high may be math.inf.  PowerOfD(d)
    runs d-choices for d < n, d = 1 included, and least-loaded for d >= n:
    sampling all servers is exact least-loaded."""
    scheme = config.scheme
    if isinstance(scheme, BinBased):
        return (_BIN, scheme.low, scheme.high, 0, scheme.bins,
                int(config.drain_to_threshold))
    if isinstance(scheme, PowerOfD):
        d = scheme.d
        return _D_CHOICES if d < config.params.n else _LEAST, 0, 0, d, 0, 0
    if isinstance(scheme, PullBased):
        return _PULL, scheme.low, scheme.high, 0, 0, 0
    if isinstance(scheme, Shedding):
        return _SHED, 0, scheme.high, 0, 0, 0
    if isinstance(scheme, TransferToInvite):
        return _XFER_INVITE, scheme.low, scheme.high, 0, 0, 0
    if isinstance(scheme, TransferToLeastLoaded):
        return _XFER_LEAST, 0, scheme.high, 0, 0, 0
    raise TypeError(f"no simulation for {scheme!r}")


def _window_stats(
    started: bool,
    t_start: float,
    t_stop: float,
    occ: list[int],
    last: list[float],
    hist: list[float],
    count: int,
    flow_int: float,
    prev_t: float,
    series: list[float],
) -> dict:
    """Close the measurement window and return the SimStats array fields.

    Credits every server's open interval up to t_stop (growing `hist` in
    place as needed), trims and normalises the histogram, and shapes the flat
    (time, occupancy) series into rows.  Shared by every event engine, so
    their results agree bit for bit whenever their event loops do.
    """
    if not started:
        # the whole run ended inside warmup; measure nothing
        raise ValueError(
            "simulation produced no events inside the measurement window; "
            "increase horizon"
        )
    flow_int += count * (t_stop - prev_t)
    for s, o in enumerate(occ):
        while o >= len(hist):
            hist.extend([0.0] * len(hist))
        hist[o] += t_stop - last[s]
    top = max(occ)
    for i in range(len(hist) - 1, top, -1):
        if hist[i] != 0.0:
            top = i
            break
    hist_arr = np.asarray(hist[: top + 1], dtype=np.float64)
    hist_arr /= hist_arr.sum()
    horizon = t_stop - t_start
    return {
        "occupancy_hist": hist_arr,
        "series": np.asarray(series, dtype=np.float64).reshape(-1, 2),
        "mean_occ": flow_int / (horizon * len(occ)),
    }


def run_flow_sim(config: SimConfig) -> SimStats:
    """Simulate one run and return its measurement-window statistics.

    Draw order per event: one uniform for the inter-event time, one for the
    event type, then the assignment draws (uniform server picks, d-choices
    candidates, transfer destination) or the departing-flow pick.

    Runs the compiled kernel (sim_run in _kernel.c, built on first use) and
    falls back to the pure-Python reference loop, with one logged warning,
    when the kernel cannot be built or loaded; both give identical results.
    """
    if isinstance(config.scheme, BinBased):
        raise TypeError("BinBased configs are simulated by run_bin_sim")
    out = _run(config)
    del out["reallocations"], out["skipped"]
    return SimStats(**out)


def _run(config: SimConfig) -> dict:
    """One event-loop run: the compiled kernel, else the reference loop."""
    # imported here so that importing the package loads no kernel machinery
    from . import _native

    lib = _native.kernel()
    return _run_py(config) if lib is None else _run_kernel(lib, config)


def _run_kernel(lib, config: SimConfig) -> dict:
    """Run the compiled event loop sim_run on config's draws; close its window.

    sim_run reads config's system and window and the loop arguments
    _loop_args gives its scheme.  It draws from its own copy of the Philox
    stream of the reference loop, keyed by the key numpy derives from
    config.seed.  Returns what _run_py returns: the counters under
    SimResult's names and the SimStats array fields from _window_stats.
    """
    from . import _native as native

    params = config.params
    n = params.n
    mode, low, high, d, bins, drain = _loop_args(config)
    t_start = float(config.warmup)
    t_stop = t_start + float(config.horizon)
    p = native.SimParams(
        n=n, mode=mode, low=low, high=native.NO_CAP if high == math.inf else high,
        tracked=config.tracked_server, hist_start=_HIST_START,
        lam_total=params.lam * n, inv_beta=1.0 / params.beta,
        t_start=t_start, t_stop=t_stop, d=d, bins=bins, drain=drain,
        key=tuple(np.random.Philox(config.seed).state["state"]["key"].tolist()),
    )
    r = native.SimResult()
    try:
        if lib.sim_run(p, r):
            raise MemoryError("event kernel ran out of memory")

        def take(ptr, size):
            return np.ctypeslib.as_array(ptr, (size,)).tolist() if size else []

        return {
            "violations": r.violations, "total_flows": r.total_flows,
            "reallocations": r.reallocations, "skipped": r.skipped,
            **_window_stats(
                bool(r.started), t_start, t_stop,
                take(r.occ, n), take(r.last, n), take(r.hist, r.hist_len),
                r.count, r.flow_int, r.prev_t, take(r.series, 2 * r.series_rows),
            ),
        }
    finally:
        lib.sim_free(r)


# ---------------------------------------------------------------------------
# reference event engine: the Python twins of the kernel's helpers
# ---------------------------------------------------------------------------


class _SwapList(list):
    """List of distinct ids with O(1) add and swap-remove.

    The twin of the kernel's ilist, with add, drop and update the twins of
    list_add, list_drop and list_update: the list holds its members in
    swap-remove order and pos[x] is x's index in it, -1 when x is absent.
    Lists that partition one population (the per-occupancy server buckets,
    the bins of each server) share one pos.
    """

    __slots__ = ("pos",)

    def __init__(self, pos: list[int], members: Iterable[int] = ()) -> None:
        super().__init__(members)
        self.pos = pos

    def add(self, x: int) -> None:
        self.pos[x] = len(self)
        self.append(x)

    def drop(self, x: int) -> None:
        pos = self.pos
        p = pos[x]
        moved = self.pop()
        if moved != x:
            self[p] = moved
            pos[moved] = p
        pos[x] = -1

    def update(self, x: int, was: bool, now: bool) -> None:
        """Make x's membership follow a jump: member before `was`, after `now`."""
        if was != now:
            if now:
                self.add(x)
            else:
                self.drop(x)


def _threshold_lists(n: int, low: int) -> tuple[_SwapList, _SwapList]:
    """Invite (occ < low) and below-high (occ < high) lists of n empty servers.

    The twin of the kernel's setup of the same lists; low = 0 invites
    nobody: no occupancy is below zero.
    """
    if low > 0:
        invite = _SwapList(list(range(n)), range(n))
    else:
        invite = _SwapList([-1] * n)
    return invite, _SwapList(list(range(n)), range(n))


def _pull_pick(u: float, invite: list[int], below: list[int]) -> int:
    """The pull rule's pick from one uniform u: a uniform member of the
    invite list, else of the below-high list, else -1 (the kernel's
    pull_pick); each caller keeps its own last resort for -1."""
    if invite:
        return invite[int(u * len(invite))]
    if below:
        return below[int(u * len(below))]
    return -1


class _Window:
    """Measurement-window state of one reference run.

    The twin of the kernel's open_window and credit: per-server last-change
    times, the time-weighted histogram (doubling from _HIST_START), the
    tracked server's flat (time, occupancy) series and the integral of the
    active-flow count.  close() hands them to _window_stats.
    """

    __slots__ = ("t_start", "t_stop", "tracked", "started", "last", "hist",
                 "series", "flow_int", "prev_t")

    def __init__(self, config: SimConfig) -> None:
        self.t_start = float(config.warmup)
        self.t_stop = self.t_start + float(config.horizon)
        self.tracked = config.tracked_server
        self.started = False
        self.last = [0.0] * config.params.n
        self.hist = [0.0] * _HIST_START
        self.series: list[float] = []
        self.flow_int = 0.0
        self.prev_t = 0.0

    def open(self, occ: list[int]) -> bool:
        """Start measuring at the first event inside the window; returns True.

        Every server's interval starts at t_start and the series opens with
        the tracked server's occupancy.
        """
        self.started = True
        self.last = [self.t_start] * len(occ)
        self.prev_t = self.t_start
        self.series += (self.t_start, float(occ[self.tracked]))
        return True

    def advance(self, t: float, count: int) -> None:
        """Integrate the active-flow count up to the event at time t."""
        self.flow_int += count * (t - self.prev_t)
        self.prev_t = t

    def credit(self, s: int, o: int, o_new: int, t: float) -> None:
        """Time-weight server s's interval at occupancy o, then log o_new."""
        hist = self.hist
        while o >= len(hist):
            hist.extend([0.0] * len(hist))
        hist[o] += t - self.last[s]
        self.last[s] = t
        if s == self.tracked:
            self.series += (t, float(o_new))

    def close(self, occ: list[int], count: int) -> dict:
        """The SimStats array fields, from _window_stats."""
        return _window_stats(self.started, self.t_start, self.t_stop, occ,
                             self.last, self.hist, count, self.flow_int,
                             self.prev_t, self.series)


def _run_py(config: SimConfig, validate_table: bool = False) -> dict:
    """Pure-Python reference event loop of every scheme, sim_run's twin.

    The readable oracle the compiled kernel is tested against, and what _run
    takes whenever _native.kernel() reports no kernel.  Returns the counters
    under SimResult's names (violations, total_flows, reallocations,
    skipped) and the SimStats array fields from _window_stats.  A bin config
    (mode _BIN) reaches bin_sim's BinTable, _hash_block and
    _move_destination through that module.  validate_table (bin configs
    only, set by calling this directly) re-checks the bin-table bijection
    after every event; meant for small test runs, far too slow for
    production sizes.
    """
    params = config.params
    n = params.n
    mode, low, high, d, bins, drain = _loop_args(config)
    lam_total = params.lam * n
    need_invites = mode in (_PULL, _XFER_INVITE, _BIN)
    need_levels = mode in (_LEAST, _XFER_LEAST)

    uniform = RngStream(config.seed).uniform
    log = math.log
    win = _Window(config)
    t_start, t_stop = win.t_start, win.t_stop

    occ = [0] * n

    # invite and below-high lists; bin moves jump occupancies by whole bins
    # and update membership both ways
    if need_invites:
        invite, below = _threshold_lists(n, low)
    # per-occupancy server buckets with a running minimum for least-loaded
    if need_levels:
        level_pos = list(range(n))
        levels = [_SwapList(level_pos, range(n))]
        cur_min = 0
    if bins:
        # imported here: bin_sim imports this module
        from . import bin_sim

        move_destination = bin_sim._move_destination
        table = bin_sim.BinTable.initial(bins, n)
        assignment = table.assignment
        server_bins = table.server_bins
        bin_load = table.bin_load
        # moves of each bin so far
        bin_moves = [0] * bins
        # sequential flow ids feed the hash in blocks (vectorized, identical
        # to per-id hashing); ids are global and never recycled
        next_id = 0
        hash_buf: list[int] = []
        hash_idx = 0

    # active flows: slot i holds the server of one active flow, in bin mode
    # its bin; departures pick a uniform slot and swap-remove it.  Bin mode
    # keeps a parallel stamp: the bin's move count at the flow's arrival, or
    # -1 when it arrived before the window.  The flow is violated iff stamp
    # >= 0 and its bin has moved since, read at its departure or at the end
    # of the run, so violations never exceed total_flows
    slot: list[int] = []
    stamp: list[int] = []
    count = 0

    started = False
    violations = 0
    total_flows = 0
    reallocations = 0
    skipped = 0

    t = 0.0
    inv_beta = 1.0 / params.beta
    while True:
        rate = lam_total + count * inv_beta
        t += -log(1.0 - uniform()) / rate
        if t >= t_stop:
            break
        if not started and t >= t_start:
            started = win.open(occ)
        if started:
            win.advance(t, count)

        if uniform() * rate < lam_total:
            # ----- arrival -----
            if started:
                total_flows += 1
            # a bin arrival's server is dictated by its static bin: no draw
            if not bins:
                u = uniform()

            if bins:
                if hash_idx == len(hash_buf):
                    hash_buf = bin_sim._hash_block(next_id, _BUFFER, bins)
                    hash_idx = 0
                b = hash_buf[hash_idx]
                hash_idx += 1
                next_id += 1
                s = assignment[b]
            elif mode == _D_CHOICES:
                cands = [int(u * n)]
                needed = d - 1
                while needed:
                    c = int(uniform() * n)
                    if c not in cands:
                        cands.append(c)
                        needed -= 1
                s = cands[0]
                best = occ[s]
                nb = 1
                for c in cands[1:]:
                    o = occ[c]
                    if o < best:
                        best = o
                        s = c
                        nb = 1
                    elif o == best:
                        # uniform over ties without a second pass: replace the
                        # incumbent with probability 1/(ties so far)
                        nb += 1
                        if uniform() * nb < 1.0:
                            s = c
            elif mode == _LEAST:
                bucket = levels[cur_min]
                s = bucket[int(u * len(bucket))]
            elif mode == _PULL:
                s = _pull_pick(u, invite, below)
                if s < 0:
                    s = int(u * n)
            elif mode == _SHED:
                s = int(u * n)
                if occ[s] >= high:
                    if started:
                        violations += 1
                    continue
            elif mode == _XFER_INVITE:
                s = int(u * n)
                if occ[s] >= high:
                    if started:
                        violations += 1
                    u = uniform()
                    s = _pull_pick(u, invite, below)
                    if s < 0:
                        s = int(u * n)
            else:
                s = int(u * n)
                if occ[s] >= high:
                    if started:
                        violations += 1
                    bucket = levels[cur_min]
                    s = bucket[int(uniform() * len(bucket))]

            o = occ[s]
            occ[s] = o + 1
            if bins:
                slot.append(b)
                stamp.append(bin_moves[b] if started else -1)
                bin_load[b] += 1
            else:
                slot.append(s)
            count += 1
            if started:
                win.credit(s, o, o + 1, t)
            if need_invites:
                if o + 1 == low:
                    invite.drop(s)
                if o + 1 == high:
                    below.drop(s)
            elif need_levels:
                if o + 1 >= len(levels):
                    levels.append(_SwapList(level_pos))
                levels[o].drop(s)
                levels[o + 1].add(s)
                if not levels[o] and o == cur_min:
                    while not levels[cur_min]:
                        cur_min += 1

            if bins:
                # drain: any arrival leaving the server above high sheds bins
                # until it is back at or below high, at most as many as it
                # holds; default: one bin per upward high -> high + 1 crossing
                if drain:
                    moves = len(server_bins[s]) if o >= high else 0
                else:
                    moves = 1 if o == high else 0
                if moves and n == 1:
                    # no other server to take a bin: one skip per trigger
                    if started:
                        skipped += 1
                    moves = 0
                while moves and occ[s] > high:
                    moves -= 1
                    bins_here = server_bins[s]
                    mb = bins_here[int(uniform() * len(bins_here))]
                    dest = move_destination(uniform(), s, n, invite, below)
                    table.move(mb, dest)
                    bin_moves[mb] += 1
                    if started:
                        reallocations += 1
                    k = bin_load[mb]
                    if k:
                        o_old = occ[s]
                        o_new = o_old - k
                        occ[s] = o_new
                        d_old = occ[dest]
                        d_new = d_old + k
                        occ[dest] = d_new
                        if started:
                            win.credit(s, o_old, o_new, t)
                            win.credit(dest, d_old, d_new, t)
                        invite.update(s, o_old < low, o_new < low)
                        below.update(s, o_old < high, o_new < high)
                        invite.update(dest, d_old < low, d_new < low)
                        below.update(dest, d_old < high, d_new < high)
        else:
            # ----- departure: uniform over active flows -----
            if count == 0:
                continue
            j = int(uniform() * count)
            s = slot[j]
            count -= 1
            slot[j] = slot[count]
            slot.pop()
            if bins:
                b = s
                moves_at_arrival = stamp[j]
                stamp[j] = stamp[count]
                stamp.pop()
                bin_load[b] -= 1
                if moves_at_arrival >= 0 and bin_moves[b] != moves_at_arrival:
                    violations += 1
                s = assignment[b]
            o = occ[s]
            occ[s] = o - 1
            if started:
                win.credit(s, o, o - 1, t)
            if need_invites:
                if o == low:
                    invite.add(s)
                if o == high:
                    below.add(s)
            elif need_levels:
                levels[o].drop(s)
                levels[o - 1].add(s)
                if o - 1 < cur_min:
                    cur_min = o - 1

        if validate_table:
            table.check_consistency()
            if sum(bin_load) != count:
                raise ValueError("bin loads out of sync with flow count")
            if occ != [table.server_load(sv) for sv in range(n)]:
                raise ValueError("occupancy counters out of sync with table")

    if bins:
        violations += sum(1 for b, moves_at_arrival in zip(slot, stamp)
                          if moves_at_arrival >= 0 and bin_moves[b] != moves_at_arrival)
    return {
        "violations": violations, "total_flows": total_flows,
        "reallocations": reallocations, "skipped": skipped,
        **win.close(occ, count),
    }
