"""Experiment runner: named experiments, CSV/JSON artifacts, comparisons.

Every experiment is a pure function of its parameter set and seed, so
re-running one writes byte-identical CSVs.  Floats are serialized with repr
(shortest round trip) and rows are written with plain newlines, which keeps
outputs diffable across platforms.  Summaries go to JSON next to the CSVs
and include the package version, the seed, wall-clock time, and every
tolerance the experiment used.  Sweep points run one after another.

Exit codes: 0 success, 1 validation error (bad arguments, unknown
experiment, malformed files), 2 numerical failure from the solvers,
3 comparison beyond threshold.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from . import __version__
from .core import (
    BinBased,
    FlowDistribution,
    PowerOfD,
    PullBased,
    Shedding,
    SystemParams,
    TransferToInvite,
    TransferToLeastLoaded,
    total_variation,
)
from . import mean_field as mf
from . import metrics as mx
from .flow_sim import SimConfig, run_flow_sim
from .bin_sim import run_bin_sim

__all__ = [
    "ExperimentSpec",
    "run_experiment",
    "compare",
    "list_experiments",
    "main",
]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_THRESHOLD = 3


@dataclass(frozen=True)
class ExperimentSpec:
    """A resolved experiment invocation: name, merged parameters, artifacts.

    params holds the experiment defaults overridden by config file and
    command line, in that order.  outputs names the CSV artifacts the run
    will produce (summary JSON is always written).
    """

    name: str
    params: Mapping[str, object]
    outputs: tuple[str, ...]
    seed: int = 0
    out_dir: Path = Path(".")


# rows hold str/int/float and are read once; csv.writer writes each cell as
# its str, which for a Python float is its repr (a numpy float scalar's repr
# differs, so rows hold Python floats)
_CsvTable = tuple[Sequence[str], Iterable[Iterable[object]]]
_RunnerResult = tuple[dict[str, _CsvTable], dict[str, object]]
_T = TypeVar("_T")
_Runner = Callable[[ExperimentSpec], _RunnerResult]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _system_params(p: Mapping[str, object]) -> SystemParams:
    return SystemParams(
        n=int(p["n"]),
        lam=float(p["lam"]),
        beta=float(p["beta"]),
        nu=float(p["nu"]),
        mu=float(p["mu"]),
    )


def _sim_config(spec: ExperimentSpec, scheme, seed: int | None = None,
                drain: bool = False) -> SimConfig:
    """The run of `scheme` at spec's system and window; seed defaults to spec's."""
    p = spec.params
    params = _system_params(p)
    return SimConfig(
        params=params,
        scheme=scheme,
        seed=spec.seed if seed is None else seed,
        warmup=float(p["warmup_betas"]) * params.beta,
        horizon=float(p["horizon_betas"]) * params.beta,
        drain_to_threshold=drain,
    )


def _high(p: Mapping[str, object]) -> int | float:
    v = p["high"]
    if v == math.inf:
        return math.inf
    return int(v)


def _histogram_table(
    empirical: np.ndarray, theory: FlowDistribution
) -> _CsvTable:
    size = max(empirical.size, theory.p.size)
    emp = np.zeros(size)
    emp[: empirical.size] = empirical
    th = np.zeros(size)
    th[: theory.p.size] = theory.p
    rows = zip(range(size), emp.tolist(), th.tolist())
    return ["i", "p_empirical", "p_theory"], rows


def _series_table(series: np.ndarray) -> _CsvTable:
    rows = zip(series[:, 0].tolist(), series[:, 1].astype(np.int64).tolist())
    return ["t", "occupancy"], rows


def _sigma_summary(diag: mf.SolveDiagnostics) -> dict[str, object]:
    return {"sigma": diag.sigma, "sigma_residual": diag.residual,
            "sigma_iterations": diag.iterations}


def _transfer_violation(theory: FlowDistribution, high: int | float) -> float:
    """The violation probability of a transfer scheme with threshold
    `high`: every arrival at a server holding `high` or more flows is moved,
    so it is the stationary tail P[occupancy >= high]."""
    tail = theory.to_tail()
    return float(tail[high]) if tail.size > high else 0.0


def _delay_metric(params: SystemParams, chi: float):
    return lambda i: mx.delay_tail_prob(i, chi, params)


def _list_param(
    p: Mapping[str, object], key: str, parse: Callable[[object], _T]
) -> list[_T]:
    """A list parameter, given as a list or as comma-separated text, with
    each item parsed by `parse`; blank items are skipped and an empty list
    is rejected."""
    raw = p[key]
    items = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
    out = [parse(v) for v in items if str(v).strip()]
    if not out:
        raise ValueError(f"{key} must list at least one value")
    return out


def _bin_count(item: object, n: int) -> int:
    """A bin count given either as an integer or as a multiple like '10n'."""
    tok = str(item).strip().lower()
    if tok.endswith("n"):
        return int(float(tok[:-1]) * n)
    return int(tok)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _run_sim_vs_theory(spec: ExperimentSpec, scheme, theory: FlowDistribution,
                       extra_summary: dict | None = None) -> _RunnerResult:
    stats = run_flow_sim(_sim_config(spec, scheme))
    tv = total_variation(stats.occupancy_hist, theory)
    summary: dict[str, object] = {
        "tv_empirical_vs_theory": tv,
        "mean_occupancy": stats.mean_occ,
        "violation_rate": stats.violation_rate,
        "violations": stats.violations,
        "total_flows": stats.total_flows,
    }
    if extra_summary:
        summary.update(extra_summary)
    tables = {
        "histogram": _histogram_table(stats.occupancy_hist, theory),
        "series": _series_table(stats.series),
    }
    return tables, summary


def _exp_fig_perfect_jsq(spec: ExperimentSpec) -> _RunnerResult:
    params = _system_params(spec.params)
    theory = mf.jsq_fixed_point(params.rho)
    stats = run_flow_sim(_sim_config(spec, PowerOfD(d=params.n)))
    k = math.floor(params.rho)
    hist = stats.occupancy_hist
    mass = float(hist[k : k + 2].sum()) if hist.size > k else 0.0
    tables = {
        "histogram": _histogram_table(hist, theory),
        "series": _series_table(stats.series),
    }
    summary = {
        "tv_empirical_vs_theory": total_variation(hist, theory),
        "mass_on_central_pair": mass,
        "central_pair": [k, k + 1],
        "mean_occupancy": stats.mean_occ,
        "total_flows": stats.total_flows,
    }
    return tables, summary


def _exp_random_uniform(spec: ExperimentSpec) -> _RunnerResult:
    params = _system_params(spec.params)
    theory = mf.shedding_fixed_point(params.rho, math.inf)
    return _run_sim_vs_theory(spec, PowerOfD(d=1), theory)


def _exp_power_of_2(spec: ExperimentSpec) -> _RunnerResult:
    p = spec.params
    params = _system_params(p)
    d = int(p["d"])
    rho = params.rho
    size = mf.default_i_max(rho) + 1
    s0 = np.zeros(size)
    s0[0] = 1.0
    res = mf.integrate_ode(
        PowerOfD(d=d),
        params,
        s0,
        t_end=float(p["t_end"]),
        stop_residual=float(p["stop_residual"]),
    )
    k = math.floor(rho)
    rows = []
    worst = -math.inf
    for i in range(res.tail.size):
        bound = mf.power_of_d_tail_bound(rho, d, i) if i >= k + 1 else ""
        if i >= k + 1:
            worst = max(worst, float(res.tail[i]) - bound)
        rows.append([i, float(res.tail[i]), bound])
    tables = {"tail": (["i", "s_terminal", "s_bound"], rows)}
    summary = {
        "ode_residual": res.residual,
        "ode_steps": res.steps,
        "ode_stop_reason": res.stop_reason,
        "ode_engine": res.engine,
        "ode_t": res.t,
        "ode_max_projection": res.max_projection,
        "ode_pins": res.pins,
        "ode_releases": res.releases,
        "worst_tail_excess_over_bound": worst,
        "tolerances": {"stop_residual": float(p["stop_residual"])},
    }
    return tables, summary


def _exp_pull(spec: ExperimentSpec) -> _RunnerResult:
    p = spec.params
    params = _system_params(p)
    low, high = int(p["low"]), _high(p)
    theory, diag = mf.solve_pull_fixed_point(params.rho, low, high)
    return _run_sim_vs_theory(
        spec,
        PullBased(low=low, high=high),
        theory,
        _sigma_summary(diag),
    )


def _exp_shedding(spec: ExperimentSpec) -> _RunnerResult:
    p = spec.params
    params = _system_params(p)
    high = _high(p)
    theory = mf.shedding_fixed_point(params.rho, high)
    eps_theory = mx.shedding_violation(high, params)
    return _run_sim_vs_theory(
        spec, Shedding(high=high), theory, {"violation_rate_theory": eps_theory}
    )


def _exp_transfer_invite(spec: ExperimentSpec) -> _RunnerResult:
    p = spec.params
    params = _system_params(p)
    low, high = int(p["low"]), _high(p)
    theory, diag = mf.solve_transfer_invite_fixed_point(params.rho, low, high)
    return _run_sim_vs_theory(
        spec,
        TransferToInvite(low=low, high=high),
        theory,
        {"violation_rate_theory": _transfer_violation(theory, high),
         **_sigma_summary(diag)},
    )


def _exp_transfer_least(spec: ExperimentSpec) -> _RunnerResult:
    p = spec.params
    params = _system_params(p)
    high = _high(p)
    theory = mf.solve_least_loaded_fixed_point(params.rho, high)
    return _run_sim_vs_theory(
        spec,
        TransferToLeastLoaded(high=high),
        theory,
        {"violation_rate_theory": _transfer_violation(theory, high)},
    )


def _exp_violation_curves(spec: ExperimentSpec) -> _RunnerResult:
    p = spec.params
    params = _system_params(p)
    h_values = _list_param(p, "h_values", int)
    low = int(p["low"])
    rows = []
    for h in h_values:
        for label, scheme, eps_theory in (
            ("shedding", Shedding(high=h), mx.shedding_violation(h, params)),
            (
                "transfer-invite",
                TransferToInvite(low=min(low, h - 1), high=h),
                None,
            ),
            ("transfer-least", TransferToLeastLoaded(high=h), None),
        ):
            if eps_theory is None:
                eps_theory = _transfer_violation(
                    mf.fixed_point(scheme, params.rho), h)
            stats = run_flow_sim(_sim_config(spec, scheme))
            rows.append(
                [label, h, stats.violation_rate, eps_theory, stats.violations]
            )
    tables = {
        "violations": (
            ["scheme", "h", "eps_empirical", "eps_theory", "observed"],
            rows,
        )
    }
    return tables, {"points": len(rows)}


def _exp_delay_tails(spec: ExperimentSpec) -> _RunnerResult:
    p = spec.params
    params = _system_params(p)
    high = _high(p)
    chis = _list_param(p, "chi_values", float)
    rows = []
    for chi in chis:
        rows.append([chi, "packet-random", mx.delay_tail_packet_random(chi, params)])
        rows.append([chi, "flow-jsq", mx.delay_tail_flow_jsq(chi, params)])
        rows.append([chi, "untruncated", mx.delay_tail_shedding(math.inf, chi, params)])
        rows.append([chi, "shedding", mx.delay_tail_shedding(high, chi, params)])
    tables = {"delay_tails": (["chi", "metric", "value"], rows)}
    return tables, {"high": p["high"], "points": len(rows)}


def _exp_tradeoff_shedding(spec: ExperimentSpec) -> _RunnerResult:
    p = spec.params
    params = _system_params(p)
    chi = float(p["chi"])
    h_min, h_max = int(p["h_min"]), int(p["h_max"])
    if h_max < h_min:
        raise ValueError(f"h_max must be at least h_min, got h_min={h_min}, "
                         f"h_max={h_max}")
    points = mx.tradeoff_curve(range(h_min, h_max + 1), chi, params)
    rows = [[pt.high, pt.epsilon, pt.delay_tail, pt.improvement] for pt in points]
    tables = {"tradeoff": (["h", "epsilon", "delay_tail", "improvement"], rows)}
    # null when no threshold sheds anything: there is no trade to report
    shedding = [pt.improvement for pt in points if pt.epsilon > 0]
    summary = {
        "chi": chi,
        "points": len(rows),
        "max_improvement_with_positive_eps": max(shedding) if shedding else None,
    }
    return tables, summary


def _exp_bin_occupancy(spec: ExperimentSpec) -> _RunnerResult:
    p = spec.params
    params = _system_params(p)
    low, high = int(p["low"]), _high(p)
    m, *rest = _list_param(p, "bins", lambda v: _bin_count(v, params.n))
    if rest:
        raise ValueError(f"bins must be one bin count, got {p['bins']!r}")
    theory, _ = mf.solve_transfer_invite_fixed_point(params.rho, low, high)
    cfg = _sim_config(spec, BinBased(bins=m, low=low, high=high))
    stats = run_bin_sim(cfg)
    ts = stats.series[:, 0]
    occ = stats.series[:, 1]
    seg = np.diff(np.append(ts, cfg.warmup + cfg.horizon))
    frac_le_high = float(seg[occ <= high].sum() / seg.sum())
    tables = {
        "histogram": _histogram_table(stats.occupancy_hist, theory),
        "series": _series_table(stats.series),
    }
    summary = {
        "bins": m,
        "tv_empirical_vs_theory": total_variation(stats.occupancy_hist, theory),
        "violation_rate": stats.violation_rate,
        "reallocations": stats.reallocations,
        "skipped_reallocations": stats.skipped_reallocations,
        "tracked_time_fraction_at_or_below_high": frac_le_high,
        "mean_occupancy": stats.mean_occ,
    }
    return tables, summary


def _exp_bin_violation(spec: ExperimentSpec) -> _RunnerResult:
    p = spec.params
    params_obj = _system_params(p)
    low, high = int(p["low"]), _high(p)
    ms = _list_param(p, "bins", lambda v: _bin_count(v, params_obj.n))
    n_seeds = int(p["seeds"])
    if n_seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {n_seeds}")
    rows = []
    means = []
    for m in ms:
        rates = []
        for k in range(n_seeds):
            st = run_bin_sim(_sim_config(spec, BinBased(bins=m, low=low, high=high),
                                         seed=spec.seed + k, drain=bool(p["drain"])))
            rates.append(st.violation_rate)
            rows.append([m, spec.seed + k, st.violation_rate, st.reallocations])
        means.append([m, float(np.mean(rates))])
    tables = {
        "violations": (["m", "seed", "eps_empirical", "reallocations"], rows),
        "violations_mean": (["m", "eps_mean"], means),
    }
    mono = all(means[i][1] >= means[i + 1][1] for i in range(len(means) - 1))
    return tables, {"monotone_non_increasing": mono, "seeds": n_seeds}


def _exp_bin_tradeoff(spec: ExperimentSpec) -> _RunnerResult:
    p = spec.params
    params = _system_params(p)
    ms = _list_param(p, "bins", lambda v: _bin_count(v, params.n))
    h_values = _list_param(p, "h_values", int)
    gap = int(p["gap"])
    fixed_low = str(p["low"]).strip()
    chi = float(p["chi"])
    baseline = mx.delay_tail_shedding(math.inf, chi, params)
    metric = _delay_metric(params, chi)
    rows = []
    for m in ms:
        for h in h_values:
            low = int(fixed_low) if fixed_low else max(0, h - gap)
            cfg = _sim_config(spec, BinBased(bins=m, low=low, high=h))
            st = run_bin_sim(cfg)
            tail = mx.flow_average(st.distribution(), metric)
            improvement = baseline / tail if tail > 0 else math.inf
            rows.append([m, h, st.violation_rate, tail, improvement])
    tables = {
        "tradeoff": (["m", "h", "epsilon", "delay_tail", "improvement"], rows)
    }
    return tables, {"chi": chi, "baseline_delay_tail": baseline}


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


_FULL = {
    "n": 500,
    "lam": 100.0,
    "beta": 1.5,
    "nu": 100.0,
    "mu": 20000.0,
}


@dataclass(frozen=True)
class _Experiment:
    name: str
    scheme: str
    description: str
    defaults: Mapping[str, object]
    outputs: tuple[str, ...]
    runner: _Runner


_CATALOG: tuple[_Experiment, ...] = (
    _Experiment(
        "fig-perfect-jsq",
        "jsq",
        "flow-level join-shortest-queue: tracked-server series + histogram",
        {**_FULL, "warmup_betas": 50.0, "horizon_betas": 200.0},
        ("histogram", "series"),
        _exp_fig_perfect_jsq,
    ),
    _Experiment(
        "random-uniform",
        "power-of-d",
        "uniform random assignment (d=1) vs Poisson occupancy",
        {**_FULL, "warmup_betas": 50.0, "horizon_betas": 200.0},
        ("histogram", "series"),
        _exp_random_uniform,
    ),
    _Experiment(
        "power-of-2",
        "power-of-d",
        "mean-field ODE terminal tail for d choices vs doubly exponential bound",
        {**_FULL, "d": 2, "t_end": 60.0, "stop_residual": 1e-9},
        ("tail",),
        _exp_power_of_2,
    ),
    _Experiment(
        "pull-thresholds",
        "pull",
        "pull-based thresholds (low, high): simulation vs analytic fixed point",
        {**_FULL, "low": 140, "high": 160, "warmup_betas": 50.0, "horizon_betas": 200.0},
        ("histogram", "series"),
        _exp_pull,
    ),
    _Experiment(
        "pull-tight",
        "pull",
        "pull-based with a one-level band around the mean load",
        {**_FULL, "low": 150, "high": 151, "warmup_betas": 50.0, "horizon_betas": 200.0},
        ("histogram", "series"),
        _exp_pull,
    ),
    _Experiment(
        "shedding",
        "shedding",
        "admission threshold (discard at high): simulation vs truncated Poisson",
        {**_FULL, "high": 160, "warmup_betas": 50.0, "horizon_betas": 200.0},
        ("histogram", "series"),
        _exp_shedding,
    ),
    _Experiment(
        "transfer-invite",
        "transfer-invite",
        "full-server transfer to inviting servers: simulation vs fixed point",
        {**_FULL, "low": 140, "high": 160, "warmup_betas": 50.0, "horizon_betas": 200.0},
        ("histogram", "series"),
        _exp_transfer_invite,
    ),
    _Experiment(
        "transfer-least",
        "transfer-least",
        "full-server transfer to the least-loaded server: simulation vs fixed point",
        {**_FULL, "high": 160, "warmup_betas": 50.0, "horizon_betas": 200.0},
        ("histogram", "series"),
        _exp_transfer_least,
    ),
    _Experiment(
        "violation-curves",
        "violations",
        "empirical vs theoretical violation rates over a high-threshold sweep",
        {
            **_FULL,
            "low": 140,
            "h_values": "152,156,160,165",
            "warmup_betas": 20.0,
            "horizon_betas": 60.0,
        },
        ("violations",),
        _exp_violation_curves,
    ),
    _Experiment(
        "delay-tails",
        "analytic",
        "closed-form delay-tail values across chi for the analytic schemes",
        {**_FULL, "high": 160, "chi_values": ",".join(str(c) for c in range(0, 301, 10))},
        ("delay_tails",),
        _exp_delay_tails,
    ),
    _Experiment(
        "tradeoff-shedding",
        "shedding",
        "violation vs delay-tail trade-off curve for the admission threshold",
        {**_FULL, "chi": 200.0, "h_min": 150, "h_max": 200},
        ("tradeoff",),
        _exp_tradeoff_shedding,
    ),
    _Experiment(
        "bin-occupancy",
        "bin",
        "bin-indirected scheme at one bin count: histogram, series, move stats",
        {
            **_FULL,
            "bins": "10n",
            "low": 140,
            "high": 160,
            "warmup_betas": 20.0,
            "horizon_betas": 40.0,
        },
        ("histogram", "series"),
        _exp_bin_occupancy,
    ),
    _Experiment(
        "bin-violation",
        "bin",
        "violation probability across bin counts, several seeds each",
        {
            **_FULL,
            "bins": "2n,5n,10n,20n",
            "low": 180,
            "high": 200,
            "seeds": 5,
            "drain": False,
            "warmup_betas": 6.0,
            "horizon_betas": 12.0,
        },
        ("violations", "violations_mean"),
        _exp_bin_violation,
    ),
    _Experiment(
        "bin-tradeoff",
        "bin",
        "violation vs delay-tail trade-off for the bin scheme over a high sweep",
        {
            **_FULL,
            "bins": "10n",
            "h_values": "170,180,190,200,205",
            # low = high - gap unless a fixed low is given explicitly
            "gap": 20,
            "low": "",
            "chi": 200.0,
            "warmup_betas": 10.0,
            "horizon_betas": 20.0,
        },
        ("tradeoff",),
        _exp_bin_tradeoff,
    ),
)

_BY_NAME = {e.name: e for e in _CATALOG}


def list_experiments(filter_text: str | None = None) -> list[tuple[str, str, str]]:
    """Catalog as (name, scheme tag, description), stable order.

    filter_text narrows by substring match against the name or scheme tag;
    an unknown filter just yields an empty list.
    """
    out = []
    for e in _CATALOG:
        if filter_text and filter_text not in e.name and filter_text != e.scheme:
            continue
        out.append((e.name, e.scheme, e.description))
    return out


# ---------------------------------------------------------------------------
# spec resolution and execution
# ---------------------------------------------------------------------------


def _coerce(default: object, raw: str, key: str = "") -> object:
    """Parse an override string against the default's type.

    An int `high` also takes inf, the schemes' "no upper threshold".
    """
    word = raw.strip().lower()
    if isinstance(default, bool):
        if word in ("1", "true", "yes", "on"):
            return True
        if word in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(default, int):
        if key == "high" and word in ("inf", "infinity"):
            return math.inf
        return int(raw)
    if isinstance(default, float):
        return float(raw)  # float() itself reads inf and infinity
    return raw


def build_spec(
    name: str,
    overrides: Mapping[str, str],
    seed: int,
    out_dir: Path,
    config_file: Path | None = None,
) -> ExperimentSpec:
    """Resolve an experiment invocation: defaults <- config file <- overrides."""
    if name not in _BY_NAME:
        known = ", ".join(sorted(_BY_NAME))
        raise ValueError(f"unknown experiment {name!r}; known: {known}")
    exp = _BY_NAME[name]
    params = dict(exp.defaults)

    def apply(key: str, raw: str) -> None:
        if key not in params:
            valid = ", ".join(sorted(params))
            raise ValueError(
                f"unknown parameter {key!r} for {name}; valid: {valid}"
            )
        params[key] = _coerce(params[key], raw, key)

    if config_file is not None:
        parser = configparser.ConfigParser()
        read = parser.read(config_file)
        if not read:
            raise ValueError(f"config file {config_file} not found or empty")
        if parser.has_section(name):
            for key, raw in parser.items(name):
                apply(key, raw)
    for key, raw in overrides.items():
        apply(key, raw)
    return ExperimentSpec(
        name=name,
        params=params,
        outputs=exp.outputs,
        seed=seed,
        out_dir=out_dir,
    )


def _write_csv(path: Path, table: _CsvTable) -> None:
    header, rows = table
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _json_default(v: object):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, Path):
        return str(v)
    raise TypeError(f"not JSON serializable: {type(v)}")


def _spell_non_finite(v: object) -> object:
    """v with every non-finite float, at any depth, replaced by the string
    the CLI reads it back from: "inf", "-inf" or "nan".  JSON has no
    literal for them."""
    if isinstance(v, dict):
        return {k: _spell_non_finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_spell_non_finite(x) for x in v]
    if isinstance(v, (float, np.floating)) and not math.isfinite(v):
        return str(float(v))
    return v


def run_experiment(spec: ExperimentSpec) -> list[Path]:
    """Execute one experiment; write its CSVs and summary JSON.

    Returns the paths written.  CSV bytes depend only on (params, seed);
    the summary additionally records wall-clock time and the package
    version, and spells each non-finite float as a string.
    """
    if spec.name not in _BY_NAME:
        raise ValueError(f"unknown experiment {spec.name!r}")
    exp = _BY_NAME[spec.name]
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    tables, summary = exp.runner(spec)
    wall = time.perf_counter() - t0

    unexpected = set(tables) - set(spec.outputs)
    if unexpected:
        raise RuntimeError(f"runner produced undeclared outputs: {unexpected}")
    written: list[Path] = []
    for artifact in spec.outputs:
        if artifact not in tables:
            continue
        path = spec.out_dir / f"{spec.name}_{artifact}.csv"
        _write_csv(path, tables[artifact])
        written.append(path)

    payload: dict[str, object] = {
        "experiment": spec.name,
        "version": f"stickysim {__version__}",
        "seed": spec.seed,
        "wall_clock_s": wall,
        "params": {k: spec.params[k] for k in sorted(spec.params)},
        "tolerances": summary.pop("tolerances", {}),
    }
    payload.update(summary)
    spath = spec.out_dir / f"{spec.name}_summary.json"
    with open(spath, "w") as fh:
        json.dump(_spell_non_finite(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False, default=_json_default)
        fh.write("\n")
    written.append(spath)
    return written


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _read_indexed_csv(path: Path) -> tuple[np.ndarray, np.ndarray, str]:
    """Load (index, value) pairs from a CSV; value column picked by name.

    Prefers p_empirical, then p_theory, then the second column.  The first
    column must be a non-negative integer index with no repeats, every value
    must be finite, and at least one data row must follow the header.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        rows = [r for r in reader if r]
    if len(header) < 2:
        raise ValueError(f"{path} needs at least two columns, got {header}")
    if not rows:
        raise ValueError(f"{path} has a header but no data rows")
    col = 1
    for wanted in ("p_empirical", "p_theory"):
        if wanted in header:
            col = header.index(wanted)
            break
    try:
        idx = np.array([int(r[0]) for r in rows])
        val = np.array([float(r[col]) for r in rows])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path} is not an indexed numeric CSV: {exc}") from exc
    if idx.min() < 0:
        raise ValueError(f"{path} has a negative index {int(idx.min())}")
    levels, counts = np.unique(idx, return_counts=True)
    if counts.max() > 1:
        raise ValueError(f"{path} repeats index {int(levels[counts.argmax()])}")
    bad = ~np.isfinite(val)
    if bad.any():
        at = int(bad.argmax())
        raise ValueError(f"{path} has a non-finite {header[col]} {float(val[at])!r} at "
                         f"index {int(idx[at])}")
    return idx, val, header[col]


@dataclass(frozen=True)
class CompareReport:
    """Outcome of comparing two indexed CSV columns."""

    tv_distance: float
    mean_gap: float
    tolerance: float
    column_a: str
    column_b: str

    @property
    def passed(self) -> bool:
        return self.tv_distance <= self.tolerance


def compare(path_a: Path, path_b: Path, tol: float) -> CompareReport:
    """Total-variation comparison of two indexed CSV files.

    Indices are aligned by value; levels present in only one file count with
    the other file's mass taken as zero.  mean_gap is the difference of the
    index-weighted means, useful when the files describe occupancy pmfs.
    tol must be non-negative and finite.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be non-negative and finite, got {tol!r}")
    idx_a, val_a, col_a = _read_indexed_csv(path_a)
    idx_b, val_b, col_b = _read_indexed_csv(path_b)
    # one entry per level present in either file, so memory follows the rows
    # and not the largest level
    levels = np.union1d(idx_a, idx_b)
    a = np.zeros(levels.size)
    a[np.searchsorted(levels, idx_a)] = val_a
    b = np.zeros(levels.size)
    b[np.searchsorted(levels, idx_b)] = val_b
    tv = 0.5 * float(np.abs(a - b).sum())
    gap = abs(float(levels @ a) - float(levels @ b))
    return CompareReport(
        tv_distance=tv, mean_gap=gap, tolerance=tol, column_a=col_a, column_b=col_b
    )


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _parse_overrides(pairs: list[str], extra: list[str]) -> dict[str, str]:
    """--param k=v pairs plus loose --key value / --key=value tokens."""
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param needs key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        out[key.strip()] = raw.strip()
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--"):
            raise ValueError(f"unexpected argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, _, raw = body.partition("=")
            out[key.strip()] = raw.strip()
            i += 1
        else:
            if i + 1 >= len(extra):
                raise ValueError(f"flag {tok!r} is missing a value")
            out[body.strip()] = extra[i + 1].strip()
            i += 2
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stickysim",
        description="run and compare sticky load-balancing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a named experiment")
    p_run.add_argument("experiment", help="experiment name (see `stickysim list`)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", type=Path, default=Path("out"))
    p_run.add_argument("--config", type=Path, default=None,
                       help="INI file with one section per experiment")
    p_run.add_argument("--param", action="append", default=[], metavar="K=V",
                       help="override one experiment parameter (repeatable)")

    p_cmp = sub.add_parser("compare", help="compare two indexed CSV files")
    p_cmp.add_argument("file_a", type=Path)
    p_cmp.add_argument("file_b", type=Path)
    p_cmp.add_argument("--tol", type=float, required=True)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.add_argument("filter", nargs="?", default=None,
                        help="substring of a name, or a scheme tag")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; our contract reserves
        # 2 for numerical failures, so remap
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION

    try:
        if args.command == "list":
            for name, scheme, desc in list_experiments(args.filter):
                print(f"{name:18s} [{scheme}] {desc}")
            return EXIT_OK

        if args.command == "compare":
            if extra:
                raise ValueError(f"unexpected arguments: {extra}")
            report = compare(args.file_a, args.file_b, args.tol)
            status = "PASS" if report.passed else "FAIL"
            print(
                f"{status}: TV={report.tv_distance:.6g} "
                f"(tol {report.tolerance:g}), mean gap={report.mean_gap:.6g}, "
                f"columns {report.column_a} vs {report.column_b}"
            )
            return EXIT_OK if report.passed else EXIT_THRESHOLD

        # run
        overrides = _parse_overrides(args.param, extra)
        spec = build_spec(
            args.experiment, overrides, args.seed, args.out, args.config
        )
        written = run_experiment(spec)
        for path in written:
            print(path)
        return EXIT_OK
    except mf.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
