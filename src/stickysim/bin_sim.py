"""Event-driven simulation of the bin-indirected assignment scheme.

Flows are hashed statically onto a fixed set of bins; a dynamic table maps
each bin to one server, so a flow's server is wherever its bin currently
lives.  When a flow arrival pushes a server's active-flow count from the high
threshold to one above it, one uniformly random bin is taken from that server
and re-assigned, preferring servers below the low threshold, then servers
below the high threshold, then any other server.  Every flow active in a
moved bin has its server changed mid-lifetime and is counted as violated, at
most once per flow.  Two counters per bin carry this: its active flows, which
a move shifts between the two servers, and its moves so far.  An active flow
records its bin's move count at arrival and is violated iff the count has
changed by its departure or the end of the run, so a move touches no
per-flow state.

The bin scheme is one mode (_BIN) of flow_sim's single event loop: the pull
rule's invite and below-high lists plus the flow -> bin -> server lookup and
the bin moves.  run_bin_sim enters that loop through flow_sim._run like
every other scheme, so it runs on the compiled kernel (sim_run in _kernel.c,
built on first use by _native) when one loads and on the pure-Python
reference flow_sim._run_py otherwise.  The reference loop is the readable
oracle and the only engine that can re-check the bin table after every
event (flow_sim._run_py(config, validate_table=True)).  Both give
bit-identical statistics.  This module holds what the reference loop
reaches for in bin mode: BinTable, whose move is the twin of the kernel's
list_move, _hash_block, and _move_destination: the pull rule's pick
(flow_sim._pull_pick, the kernel's pull_pick), else a uniform server other
than the origin, as sim_run picks a bin move's destination.
Bin hashes come from a deterministic integer mixer, not from the random
stream.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import BinBased
from .flow_sim import SimConfig, SimStats, _pull_pick, _run, _SwapList

__all__ = [
    "BinTable",
    "BinSimStats",
    "hash_flow_to_bin",
    "run_bin_sim",
]

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
_HASH_GAMMA = 0x9E3779B97F4A7C15
_HASH_M1 = 0xBF58476D1CE4E5B9
_HASH_M2 = 0x94D049BB133111EB


def hash_flow_to_bin(flow_id: int, m: int) -> int:
    """Map a flow id to a bin in [0, m) with a fixed 64-bit mixer.

    The mixer is the splitmix64 output function (golden-gamma increment, two
    xor-shift-multiply rounds, final xor-shift), applied to the id modulo
    2**64 and reduced mod m.  Pure integer math, so the mapping is identical
    on every platform and in every run.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m!r}")
    if flow_id < 0:
        raise ValueError(f"flow_id must be non-negative, got {flow_id!r}")
    z = (flow_id + _HASH_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _HASH_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _HASH_M2) & _MASK64
    z ^= z >> 31
    return z % m


def _hash_block(start_id: int, count: int, m: int) -> list[int]:
    """Bins for the `count` sequential flow ids from start_id, vectorized.

    Bitwise-identical to hash_flow_to_bin per id; uint64 arithmetic wraps
    exactly like the masked integer version.
    """
    ids = np.arange(start_id, start_id + count, dtype=np.uint64)
    z = ids + np.uint64(_HASH_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_HASH_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_HASH_M2)
    z ^= z >> np.uint64(31)
    return (z % np.uint64(m)).tolist()


# ---------------------------------------------------------------------------
# bin table
# ---------------------------------------------------------------------------


@dataclass
class BinTable:
    """Mutable bin-to-server table with the bookkeeping the event loop needs.

    assignment[b] is the server currently holding bin b.  server_bins[s] is
    the list of bins at server s, with bin_pos[b] giving bin b's index there
    so a bin can be removed in O(1) by swapping with the last entry.
    bin_load[b] counts the flows active in bin b, all of which a move of b
    carries along.
    """

    assignment: list[int]
    server_bins: list[list[int]]
    bin_pos: list[int]
    bin_load: list[int]

    @classmethod
    def initial(cls, bins: int, servers: int) -> "BinTable":
        """Fresh empty table with bins dealt round-robin: bin b -> b mod n."""
        if bins < 1 or servers < 1:
            raise ValueError("need at least one bin and one server")
        bin_pos = [0] * bins
        server_bins = [_SwapList(bin_pos) for _ in range(servers)]
        for b in range(bins):
            server_bins[b % servers].add(b)
        return cls(
            assignment=[b % servers for b in range(bins)],
            server_bins=server_bins,
            bin_pos=bin_pos,
            bin_load=[0] * bins,
        )

    @property
    def n_bins(self) -> int:
        return len(self.assignment)

    @property
    def n_servers(self) -> int:
        return len(self.server_bins)

    def move(self, b: int, dest: int) -> None:
        """Re-assign bin b to server dest.

        Swap-removes b from its server's list and appends it to dest's; both
        engines keep this order, which later bin picks depend on.
        """
        self.server_bins[self.assignment[b]].drop(b)
        self.server_bins[dest].add(b)
        self.assignment[b] = dest

    def server_load(self, server: int) -> int:
        """Active flows at a server = flows across all its bins."""
        return sum(self.bin_load[b] for b in self.server_bins[server])

    def check_consistency(self) -> None:
        """Raise ValueError unless the cross-references form a bijection.

        Checks that every bin appears exactly once across the per-server
        lists, at the position bin_pos records, on the server assignment
        names.
        """
        seen = [0] * self.n_bins
        for s, bins_here in enumerate(self.server_bins):
            for p, b in enumerate(bins_here):
                if not 0 <= b < self.n_bins:
                    raise ValueError(f"unknown bin {b} at server {s}")
                seen[b] += 1
                if self.assignment[b] != s:
                    raise ValueError(
                        f"bin {b} listed at server {s} but assigned to "
                        f"{self.assignment[b]}"
                    )
                if self.bin_pos[b] != p:
                    raise ValueError(
                        f"bin {b} at position {p} but bin_pos says "
                        f"{self.bin_pos[b]}"
                    )
        missing = [b for b, c in enumerate(seen) if c != 1]
        if missing:
            raise ValueError(f"bins not listed exactly once: {missing[:8]}")
        if len(self.bin_load) != self.n_bins:
            raise ValueError("bin_load length does not match bin count")


@dataclass(frozen=True)
class BinSimStats(SimStats):
    """SimStats plus bin-move accounting.

    reallocations counts bin moves inside the measurement window.
    violated_flows counts flows that arrived inside the window and were in a
    moved bin before the window closed, each at most once (their bin's move
    counter changed while they were active); it equals the violations field
    for runs produced here, and violated_flows/total_flows estimates the
    per-flow violation probability.
    skipped_reallocations counts triggers inside the window with no other
    server to take a bin, one per trigger with or without drain, which
    happens only at n = 1: a trigger fires at the server holding the
    arriving flow's bin, and the drain loop stops after as many moves as the
    server held bins, so a triggered server always has a bin to give up.
    """

    reallocations: int = 0
    violated_flows: int = 0
    skipped_reallocations: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.reallocations < 0 or self.skipped_reallocations < 0:
            raise ValueError("reallocation counters cannot be negative")
        if not 0 <= self.violated_flows <= self.total_flows:
            raise ValueError("violated_flows must lie in [0, total_flows]")


# ---------------------------------------------------------------------------
# bin moves
# ---------------------------------------------------------------------------


def _move_destination(
    u: float, origin: int, n: int, invite: list[int], below: list[int]
) -> int:
    """Destination server of a triggered bin move, from one uniform u.

    The pull rule's pick (flow_sim._pull_pick): a uniform member of the
    invite list if it is nonempty, else of the below-high list.  When every
    server is at or above high, a uniform pick among the other n - 1
    servers: the origin is never drawn, so every counted reallocation
    really moves its flows.  The origin is never in either list (it has
    just passed high).  Callers ensure n >= 2.
    """
    dest = _pull_pick(u, invite, below)
    if dest >= 0:
        return dest
    dest = int(u * (n - 1))
    return dest + 1 if dest >= origin else dest


# ---------------------------------------------------------------------------
# event loop
# ---------------------------------------------------------------------------


def run_bin_sim(config: SimConfig) -> BinSimStats:
    """Simulate one bin-scheme run and return measurement-window statistics.

    The arriving flow's server comes from its bin, so arrivals consume no
    placement draw: per event the stream supplies one uniform for the
    inter-event time and one for the event type, then one for the departing
    flow on departures, and two per triggered bin move (bin pick, then
    destination pick).  A trigger fires when an arrival lifts a server from
    exactly `high` to `high + 1`; bin moves themselves never re-trigger.
    With drain_to_threshold set, the trigger is state based instead: any
    arrival leaving a server above `high` sheds bins until the server is
    back at or below `high`, bounded by the bins it held at trigger time.

    Runs the compiled kernel (sim_run in _kernel.c, built on first use) and
    falls back to the pure-Python reference loop, with one logged warning,
    when the kernel cannot be built or loaded; both give identical results.
    """
    scheme = config.scheme
    if not isinstance(scheme, BinBased):
        raise TypeError(f"run_bin_sim needs a BinBased scheme, got {scheme!r}")
    if scheme.bins < config.params.n:
        logger.warning(
            "bin count m=%d is below server count n=%d; servers without "
            "bins never receive flows",
            scheme.bins,
            config.params.n,
        )
    return _bin_stats(_run(config))


def _bin_stats(out: dict) -> BinSimStats:
    """BinSimStats of one event-loop run in bin mode."""
    reallocations = out.pop("reallocations")
    skipped = out.pop("skipped")
    return BinSimStats(reallocations=reallocations, violated_flows=out["violations"],
                       skipped_reallocations=skipped, **out)
