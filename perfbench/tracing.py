"""Spans around calls into stickysim's layers, recorded from outside the package.

A Tracer swaps each public entry point for a wrapper wherever a caller looks
it up: every attribute of every loaded ``stickysim`` module that holds the
original function object.  Calls made through a module attribute at call time
(``mf.fixed_point(...)`` in the CLI, ``join_probs`` inside ``fixed_point``)
therefore reach the wrapper; the harness modules call the package only
through module attributes for the same reason.

With ``timed=False`` only the two simulators are wrapped, and only to keep
their return values for the correctness checks; no clock is read.  With
``timed=True`` every target records a span: name, layer, start, end, the
index of the enclosing span, the id of the workload item that caused it, and
per-call attributes (flows, steps, ...).  Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

_NAME, _LAYER, _START, _END, _PARENT, _ITEM, _KEY, _ATTRS = range(8)


@dataclass(frozen=True)
class Target:
    """One entry point: ``layer`` is the stickysim module that defines it.

    ``annotate(args, kwargs, result)`` returns (key, attrs) for the span;
    ``capture`` keeps (item, name, args, result) for the checks.
    """

    layer: str
    name: str
    annotate: Callable | None = None
    capture: bool = False


def _scheme_label(scheme, n: int) -> str:
    kind = type(scheme).__name__
    if kind == "PowerOfD":
        if scheme.d == 1:
            return "d1"
        return "jsq" if scheme.d >= n else "d2"
    return {
        "PullBased": "pull",
        "Shedding": "shedding",
        "TransferToInvite": "transfer-invite",
        "TransferToLeastLoaded": "transfer-least",
    }[kind]


def bin_label(m: int, n: int, low: int, high, drain: bool) -> str:
    """Name of a bin configuration, e.g. ``m10n``, ``m2n-drain``.

    Thresholds other than the reference (140, 160) are tagged ``-nomove``:
    the only other pair the workloads use sits where no move fires.
    """
    label = f"m{m // n}n" if m % n == 0 else f"m{m}"
    if drain:
        label += "-drain"
    if (low, high) != (140, 160):
        label += "-nomove"
    return label


def _flow_annotate(args, kwargs, out):
    cfg = args[0] if args else kwargs["config"]
    key = _scheme_label(cfg.scheme, cfg.params.n)
    return key, {"flows": out.total_flows, "violations": out.violations}


def _bin_annotate(args, kwargs, out):
    cfg = args[0] if args else kwargs["config"]
    s = cfg.scheme
    key = bin_label(s.bins, cfg.params.n, s.low, s.high, cfg.drain_to_threshold)
    return key, {
        "flows": out.total_flows,
        "reallocations": out.reallocations,
        "skipped": out.skipped_reallocations,
    }


def _ode_annotate(args, kwargs, out):
    # integrate_ode(scheme, params, s0, t_end, dt=None, ...)
    params = args[1] if len(args) > 1 else kwargs["params"]
    t_end = args[3] if len(args) > 3 else kwargs["t_end"]
    dt = args[4] if len(args) > 4 else kwargs.get("dt")
    if dt is None:
        dt = 1e-3 * params.beta
    full = max(1, math.ceil(t_end / dt))
    return None, {"steps": out.steps, "hit_t_end": int(out.steps == full)}


def _experiment_annotate(args, kwargs, out):
    spec = args[0] if args else kwargs["spec"]
    return spec.name, None


TARGETS: tuple[Target, ...] = (
    Target("cli", "run_experiment", _experiment_annotate),
    Target("flow_sim", "run_flow_sim", _flow_annotate, capture=True),
    Target("bin_sim", "run_bin_sim", _bin_annotate, capture=True),
    Target("mean_field", "integrate_ode", _ode_annotate),
    Target("mean_field", "fixed_point"),
    Target("mean_field", "fixed_point_residual"),
    Target("mean_field", "solve_pull_fixed_point"),
    Target("mean_field", "solve_transfer_invite_fixed_point"),
    Target("mean_field", "solve_least_loaded_fixed_point"),
    Target("mean_field", "shedding_fixed_point"),
    Target("mean_field", "jsq_fixed_point"),
    Target("metrics", "tradeoff_curve"),
    Target("metrics", "delay_tail_shedding"),
    Target("metrics", "delay_tail_flow_jsq"),
    Target("metrics", "delay_tail_packet_random"),
    Target("metrics", "flow_average"),
    Target("metrics", "shedding_violation"),
    Target("core", "total_variation"),
)


class Tracer:
    """Installs wrappers for one round and collects spans and results."""

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        self.spans: list[list] = []
        self.results: list[tuple[str, str, tuple, object]] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "stickysim" or name.startswith("stickysim."))
        ]
        for target in TARGETS:
            if not (self.timed or target.capture):
                continue
            original = getattr(sys.modules[f"stickysim.{target.layer}"], target.name)
            wrapper = self._wrap(original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take_results(self) -> list[tuple[str, str, tuple, object]]:
        out, self.results = self.results, []
        return out

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        results = self.results_sink
        if not self.timed:
            def capture(*args, **kwargs):
                out = fn(*args, **kwargs)
                results(self.item, target.name, args, out)
                return out
            return capture

        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        name, layer = target.name, target.layer
        annotate, keep = target.annotate, target.capture

        def span(*args, **kwargs):
            idx = len(spans)
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.item,
                      None, None]
            spans.append(record)
            stack.append(idx)
            record[_START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            if annotate is not None:
                record[_KEY], record[_ATTRS] = annotate(args, kwargs, out)
            if keep:
                results(self.item, name, args, out)
            return out

        return span

    def results_sink(self, item, name, args, out) -> None:
        self.results.append((item, name, args, out))

    def span_dicts(self) -> list[dict]:
        return [
            {
                "name": s[_NAME], "layer": s[_LAYER], "start": s[_START],
                "end": s[_END], "parent": s[_PARENT], "item": s[_ITEM],
                "key": s[_KEY], "attrs": s[_ATTRS],
            }
            for s in self.spans
        ]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[_END] - s[_START] for s in spans]
    for s in spans:
        if s[_PARENT] >= 0:
            own[s[_PARENT]] -= s[_END] - s[_START]
    return own
