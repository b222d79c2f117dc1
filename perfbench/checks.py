"""Correctness checks: every checked output is one op, failed when wrong.

Bounds on simulated quantities are about twice the worst value seen across
60 seeds at the full profile, and sit far from what a broken result gives (a shifted or rescaled histogram, a wrong scheme, a lost
counter).  Exact relations (normalisation, counter identities, the CSV
holding what the simulator returned) are checked to rounding.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Op:
    """One checked output: ``failures`` lists each violated condition."""

    item: str
    what: str
    failures: list[str] = field(default_factory=list)

    def need(self, ok: bool, text: str) -> None:
        if not ok:
            self.failures.append(text)

    def within(self, name: str, value: float, bound: float) -> None:
        self.need(math.isfinite(value) and value <= bound,
                  f"{name} {value:.6g} > {bound:.6g}")

    @property
    def ok(self) -> bool:
        return not self.failures


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_array(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, np.float64).tobytes()).hexdigest()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def hist_stats(hist: np.ndarray) -> tuple[float, float]:
    levels = np.arange(hist.size)
    mean = float(levels @ hist)
    return mean, math.sqrt(max(float(((levels - mean) ** 2) @ hist), 0.0))


def sim_invariants(op: Op, cfg, stats) -> None:
    """SimStats/BinSimStats identities that hold for every run."""
    hist = stats.occupancy_hist
    op.need(hist.ndim == 1 and hist.size > 0, "empty histogram")
    op.need(float(hist.min()) >= 0.0, "negative histogram mass")
    op.within("|sum(hist) - 1|", abs(float(hist.sum()) - 1.0), 1e-9)
    mean, _ = hist_stats(hist)
    op.within("|hist mean - mean_occ|", abs(mean - stats.mean_occ),
              1e-9 * max(1.0, stats.mean_occ))
    op.need(stats.total_flows > 0, "no flows in the window")
    op.need(0 <= stats.violations <= stats.total_flows, "violations outside [0, flows]")
    series = stats.series
    t0, t1 = cfg.warmup, cfg.warmup + cfg.horizon
    op.need(series.shape[0] >= 1 and series[0, 0] == t0, "series does not start at warmup")
    op.need(bool(np.all(np.diff(series[:, 0]) >= 0.0)), "series times decrease")
    op.need(float(series[:, 0].max()) < t1, "series runs past the window")
    op.need(bool(np.all(series[:, 1] >= 0.0)), "negative tracked occupancy")
    if hasattr(stats, "reallocations"):
        op.need(stats.violated_flows == stats.violations,
                "violated_flows differs from violations")
        op.need(stats.reallocations >= 0 and stats.skipped_reallocations >= 0,
                "negative move counters")


def against_law(op: Op, stats, law: np.ndarray, tv_bound: float,
                pair_bound: float, mean_bound: float, std_bound: float | None) -> float:
    """Histogram against its analytic law; returns the TV distance.

    A law on at most two levels (shortest queue, a unit pull band) is matched
    by the mass the histogram puts on those levels, because TV at finite n is
    dominated by the spread around them.  Mean and spread are compared too:
    a wrong scheme changes the spread long before it moves TV past a bound
    that tolerates the finite-n noise.  ``std_bound`` None skips the spread,
    for a law that is only the large-m limit of the run.
    """
    hist = stats.occupancy_hist
    size = max(hist.size, law.size)
    a = np.zeros(size)
    a[: hist.size] = hist
    b = np.zeros(size)
    b[: law.size] = law
    tv = 0.5 * float(np.abs(a - b).sum())
    law_mean, law_std = hist_stats(law)
    if np.count_nonzero(law) <= 2:
        k = math.floor(law_mean + 1e-9)
        mass = float(a[k: k + 2].sum())
        op.need(mass >= pair_bound, f"mass on {{{k}, {k + 1}}} {mass:.4f} < {pair_bound}")
    else:
        op.within("TV to law", tv, tv_bound)
    op.within("|mean_occ - law mean|", abs(stats.mean_occ - law_mean), mean_bound)
    if std_bound is not None:
        _, std = hist_stats(hist)
        op.within("|std - law std|", abs(std - law_std), std_bound)
    return tv


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / reference if reference > 0 else math.inf
