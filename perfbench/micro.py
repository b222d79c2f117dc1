"""Direct per-call timings of calls the traced round must not wrap.

Inner-loop calls (join probabilities inside the ODE right-hand side, the
block generator inside the event loops) would be distorted by a span per
call, so they are timed here on fixed inputs instead, only in the traced
run.  Each figure is the median over batches of the per-call time.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from stickysim import core
from stickysim import mean_field as mf
from stickysim import metrics as mx
from stickysim import flow_sim

BATCHES = 7

# fixed tails: each scheme's own fixed point (Poisson for two choices)
JOIN_SCHEMES = {
    "d2": core.PowerOfD(2),
    "pull": core.PullBased(140, 160),
    "shedding": core.Shedding(160),
    "transfer-invite": core.TransferToInvite(140, 160),
    "transfer-least": core.TransferToLeastLoaded(160),
}


def _per_call(fn, calls: int) -> float:
    """Median over BATCHES of the seconds one call takes."""
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def run(params: core.SystemParams, scale: float = 1.0) -> dict[str, float]:
    """All micro-timings; ``scale`` shrinks the batch sizes for smoke runs."""

    def calls(k: int) -> int:
        return max(1, int(k * scale))

    rho = params.rho
    out: dict[str, float] = {}
    draws = flow_sim._BUFFER
    out["flow_sim.rng.ns_per_draw"] = (
        _per_call(lambda: flow_sim.RngStream(12345), calls(5)) / draws * 1e9)

    size = 280
    for label, scheme in JOIN_SCHEMES.items():
        if isinstance(scheme, core.PowerOfD):
            law = mf.shedding_fixed_point(rho, math.inf)
        else:
            law = mf.fixed_point(scheme, rho)
        tail = np.zeros(size)
        tail[: law.p.size] = law.to_tail()[:size]
        out[f"mean_field.join_probs.{label}.us"] = _per_call(
            lambda: mf.join_probs(scheme, tail, rho), calls(300)) * 1e6

    pull = core.PullBased(140, 160)
    dist = mf.fixed_point(pull, rho)
    out["mean_field.fixed_point_residual.us"] = _per_call(
        lambda: mf.fixed_point_residual(pull, dist, rho), calls(200)) * 1e6

    h_values = list(range(150, 201))
    out["metrics.tradeoff_curve.ms"] = _per_call(
        lambda: mx.tradeoff_curve(h_values, 200.0, params), calls(5)) * 1e3
    out["metrics.delay_tail_shedding.us"] = _per_call(
        lambda: mx.delay_tail_shedding(160, 200.0, params), calls(200)) * 1e6
    poisson = mf.shedding_fixed_point(rho, math.inf)
    metric = mx.delay_tail_prob(np.arange(poisson.p.size), 200.0, params)
    out["metrics.flow_average.us"] = _per_call(
        lambda: mx.flow_average(poisson, metric), calls(500)) * 1e6
    out["metrics.shedding_violation.us"] = _per_call(
        lambda: mx.shedding_violation(160, params), calls(500)) * 1e6
    return out
