"""The three workloads: which calls each makes, on which inputs, and how each
output is checked.

Every workload runs at the acceptance suite's reduced size, n = 100 servers
at rho = 150 (lam = 100, beta = 1.5, nu = 100, mu = 20000).  The seed picks
the simulator seeds and the random parameter draws; everything else is
fixed.  Inputs (experiment specs, simulator configs, ODE starts and targets,
random parameter sets) are built by ``build`` before the first timed call.
CLI experiments go through ``cli.build_spec`` and ``cli.run_experiment`` with
string overrides, exactly as ``stickysim run <name> --param k=v`` resolves
them, so their CSV bytes equal a command-line run at the same seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from stickysim import cli, core
from stickysim import mean_field as mf
from stickysim import metrics as mx
from stickysim import flow_sim

from checks import (
    Op,
    against_law,
    hist_stats,
    read_csv,
    relative_error,
    sim_invariants,
)
from tracing import bin_label


@dataclass(frozen=True)
class Bounds:
    """Check bounds for one profile (see checks.py for how they were set)."""

    tv: dict                # flow histogram vs law, by scheme label
    pair_mass: float        # least mass on a two-level law's support
    mean: float             # |mean occupancy - law mean|, flows per server
    std: float              # |occupancy spread - law spread|, wide laws
    narrow_std: float       # largest spread where the law sits on <= 2 levels
                            # or under two choices (Poisson spread is 12.2)
    shed_rel: float         # |empirical/theory - 1| shedding violation rate
    bin_tv: float           # bin run at m = 100n vs the transfer-invite law
    nomove_tv: float        # bin run where no move fires vs Poisson(rho)
    ode_tv: float           # ODE terminal state vs the analytic fixed point


@dataclass(frozen=True)
class Profile:
    n: int
    flow_betas: tuple[float, float]      # warmup, horizon in mean durations
    bin_betas: tuple[float, float]
    violation_h: str
    crit2_t_end: float
    crit3_t_end: float
    power_t_end: float
    crit1_triples: int
    crit7_pairs: int
    crit9_chis: tuple[float, ...]
    crit9_h_max: int
    bounds: Bounds


FULL = Profile(
    n=100,
    flow_betas=(6.0, 6.0),
    bin_betas=(6.0, 6.0),
    violation_h="160,165",
    crit2_t_end=90.0,
    crit3_t_end=60.0,
    power_t_end=60.0,
    crit1_triples=20,
    crit7_pairs=1000,
    crit9_chis=(1.0, 10.0, 100.0, 200.0),
    crit9_h_max=200,
    bounds=Bounds(
        tv={"d1": 0.12, "pull": 0.28, "shedding": 0.10,
            "transfer-invite": 0.25, "transfer-least": 0.25},
        pair_mass=0.10,
        mean=4.0,
        std=3.0,
        narrow_std=5.0,
        shed_rel=0.5,
        bin_tv=0.28,
        nomove_tv=0.12,
        ode_tv=1e-6,
    ),
)

# a smoke-test size: seconds per workload; statistical bounds are loose, the
# exact identities are not
TINY = Profile(
    n=100,
    flow_betas=(3.0, 1.0),
    bin_betas=(3.0, 1.0),
    violation_h="160",
    crit2_t_end=3.0,
    crit3_t_end=3.0,
    power_t_end=3.0,
    crit1_triples=3,
    crit7_pairs=50,
    crit9_chis=(1.0, 200.0),
    crit9_h_max=20,
    bounds=Bounds(
        tv={"d1": 0.6, "pull": 0.6, "shedding": 0.6,
            "transfer-invite": 0.6, "transfer-least": 0.6},
        pair_mass=0.0,
        mean=15.0,
        std=15.0,
        narrow_std=15.0,
        shed_rel=5.0,
        bin_tv=0.9,
        nomove_tv=0.6,
        ode_tv=1.0,
    ),
)

PROFILES = {"full": FULL, "tiny": TINY}

LAM, BETA, NU, MU = 100.0, 1.5, 100.0, 20000.0
RHO = LAM * BETA
LOW, HIGH = 140, 160


@dataclass
class Item:
    """One timed call plus the check of its output.

    ``check(output, sims)`` gets the call's return value and the simulator
    calls it made, as (name, config, stats) triples, and returns its ops.
    ``cli_args`` is the equivalent ``stickysim run`` argument list.
    """

    id: str
    call: Callable[[], object]
    check: Callable[[object, list], list[Op]]
    cli_args: list[str] | None = None


class Workload:
    """Inputs and items of one workload at one profile and seed."""

    def __init__(self, name: str, profile: Profile, seed: int, out_dir: Path):
        self.profile = profile
        self.bounds = profile.bounds
        self.seed = seed
        self.out_dir = out_dir
        self.params = core.SystemParams(n=profile.n, lam=LAM, beta=BETA, nu=NU, mu=MU)
        self._laws: dict = {}
        self.items: list[Item] = {
            "flow-schemes": self._flow_items,
            "bin-sweep": self._bin_items,
            "mean-field": self._mean_field_items,
        }[name]()

    # ------------------------------------------------------------------
    # CLI experiments

    def _experiment(self, name: str, overrides: dict, check, tag: str = "") -> Item:
        item_id = f"cli:{name}" + (f"@{tag}" if tag else "")
        out = self.out_dir / item_id.replace(":", "_").replace("@", "_")
        spec = cli.build_spec(name, overrides, self.seed, out)
        args = ["run", name, "--seed", str(self.seed)]
        for key, value in overrides.items():
            args += ["--param", f"{key}={value}"]
        return Item(item_id, lambda: cli.run_experiment(spec),
                    lambda paths, sims: check(item_id, paths, sims), args)

    def _sim_overrides(self, betas) -> dict:
        return {"n": str(self.profile.n), "warmup_betas": str(betas[0]),
                "horizon_betas": str(betas[1])}

    # ------------------------------------------------------------------
    # flow-schemes

    def _flow_items(self) -> list[Item]:
        base = self._sim_overrides(self.profile.flow_betas)
        items = [
            self._experiment(name, dict(base), self._check_flow_experiment)
            for name in ("fig-perfect-jsq", "random-uniform", "pull-thresholds",
                         "pull-tight", "shedding", "transfer-invite",
                         "transfer-least")
        ]
        items.append(self._experiment(
            "violation-curves", {**base, "h_values": self.profile.violation_h},
            self._check_violation_curves))
        # overload: rho = 150 sits above the upper threshold
        items.append(self._experiment(
            "pull-thresholds", {**base, "low": "130", "high": "145"},
            self._check_flow_experiment, tag="overload"))
        # no CLI experiment reaches the d-choices loop with 1 < d < n
        w, h = self.profile.flow_betas
        cfg = flow_sim.SimConfig(params=self.params, scheme=core.PowerOfD(2),
                                 seed=self.seed, warmup=w * BETA, horizon=h * BETA)
        items.append(Item("sim:power-of-d2", lambda: flow_sim.run_flow_sim(cfg),
                          lambda out, sims: self._sim_ops("sim:power-of-d2", sims)))
        return items

    def law(self, scheme) -> np.ndarray | None:
        """Analytic occupancy law of a flow scheme at this load, or None."""
        key = repr(scheme)
        if key not in self._laws:
            if isinstance(scheme, core.PowerOfD) and scheme.d >= self.params.n:
                law = mf.jsq_fixed_point(RHO).p
            elif isinstance(scheme, core.PowerOfD) and scheme.d > 1:
                law = None
            else:
                law = mf.fixed_point(scheme, RHO).p
            self._laws[key] = law
        return self._laws[key]

    def _sim_ops(self, item: str, sims: list) -> list[Op]:
        ops = []
        for k, (name, cfg, stats) in enumerate(sims):
            op = Op(item, f"{name}#{k}")
            sim_invariants(op, cfg, stats)
            if name == "run_bin_sim":
                self._check_bin_law(op, cfg, stats)
            else:
                self._check_flow_law(op, cfg, stats)
            ops.append(op)
        return ops

    def _check_flow_law(self, op: Op, cfg, stats) -> None:
        b = self.bounds
        law = self.law(cfg.scheme)
        if law is None:
            # two choices: mean pinned by conservation, spread far below Poisson
            _, std = hist_stats(stats.occupancy_hist)
            op.within("|mean_occ - rho|", abs(stats.mean_occ - RHO), b.mean)
            op.within("occupancy std", std, b.narrow_std)
            return
        label = type(cfg.scheme).__name__
        key = {"PowerOfD": "d1", "PullBased": "pull", "Shedding": "shedding",
               "TransferToInvite": "transfer-invite",
               "TransferToLeastLoaded": "transfer-least"}[label]
        std_bound = b.narrow_std if np.count_nonzero(law) <= 2 else b.std
        against_law(op, stats, law, b.tv[key], b.pair_mass, b.mean, std_bound)

    def _check_flow_experiment(self, item: str, paths: list[Path], sims) -> list[Op]:
        ops = self._sim_ops(item, sims)
        op = Op(item, "artifacts")
        (_, cfg, stats), = sims
        files = {p.name.rsplit("_", 1)[1]: p for p in paths}
        header, rows = read_csv(files["histogram.csv"])
        emp = [float(r[1]) for r in rows]
        hist = stats.occupancy_hist.tolist()
        op.need(emp[: len(hist)] == hist and not any(emp[len(hist):]),
                "histogram CSV differs from the simulated histogram")
        _, srows = read_csv(files["series.csv"])
        op.need(len(srows) == stats.series.shape[0],
                "series CSV row count differs from the simulated series")
        summary = json.loads(files["summary.json"].read_text())
        op.need(summary["total_flows"] == stats.total_flows,
                "summary flow count differs from the simulator")
        if isinstance(cfg.scheme, core.Shedding):
            op.within("shedding violation rate rel error",
                      relative_error(stats.violation_rate, summary["violation_rate_theory"]),
                      self.bounds.shed_rel)
        ops.append(op)
        return ops

    def _check_violation_curves(self, item: str, paths: list[Path], sims) -> list[Op]:
        ops = self._sim_ops(item, sims)
        op = Op(item, "artifacts")
        _, rows = read_csv(paths[0])
        op.need(len(rows) == len(sims), "one CSV row per simulated point expected")
        for row, (_, cfg, stats) in zip(rows, sims):
            h = int(row[1])
            op.need(float(row[2]) == stats.violation_rate
                    and int(row[4]) == stats.violations,
                    f"{row[0]} h={h}: CSV row differs from the simulator")
            op.need(0.0 < float(row[3]) < 1.0, f"{row[0]} h={h}: theory rate outside (0, 1)")
            if row[0] == "shedding":
                op.within(f"shedding h={h} violation rate rel error",
                          relative_error(float(row[2]), float(row[3])),
                          self.bounds.shed_rel)
        ops.append(op)
        return ops

    # ------------------------------------------------------------------
    # bin-sweep

    def _bin_items(self) -> list[Item]:
        base = self._sim_overrides(self.profile.bin_betas)
        return [
            # (140, 160) at m = 2n, 10n, 100n
            self._experiment("bin-tradeoff", {
                **base, "bins": "2n,10n,100n", "h_values": str(HIGH),
                "gap": str(HIGH - LOW)}, self._check_bin_tradeoff),
            # (140, 160) with drain at m = 2n, 10n; drain cascades make the
            # move count swing several-fold between seeds, so three seeds per
            # bin count keep the workload's cost steady across workload seeds
            self._experiment("bin-violation", {
                **base, "bins": "2n,10n", "low": str(LOW), "high": str(HIGH),
                "seeds": "3", "drain": "true"}, self._check_bin_violation),
            # (180, 200) at m = 10n: thresholds no occupancy reaches
            self._experiment("bin-occupancy", {
                **base, "bins": "10n", "low": "180", "high": "200"},
                self._check_bin_occupancy),
        ]

    def _check_bin_law(self, op: Op, cfg, stats) -> None:
        b = self.bounds
        s = cfg.scheme
        op.within("|mean_occ - rho|", abs(stats.mean_occ - RHO), b.mean)
        label = bin_label(s.bins, cfg.params.n, s.low, s.high, cfg.drain_to_threshold)
        if label == "m100n":
            # the transfer-invite law is the m -> infinity limit: its spread
            # is not the spread at finite m
            law = self.law(core.TransferToInvite(LOW, HIGH))
            against_law(op, stats, law, b.bin_tv, b.pair_mass, b.mean, None)
        elif label.endswith("-nomove"):
            law = self.law(core.PowerOfD(1))
            against_law(op, stats, law, b.nomove_tv, b.pair_mass, b.mean, b.std)

    def _check_bin_tradeoff(self, item: str, paths: list[Path], sims) -> list[Op]:
        ops = self._sim_ops(item, sims)
        op = Op(item, "artifacts")
        _, rows = read_csv(paths[0])
        op.need(len(rows) == len(sims), "one CSV row per simulated point expected")
        for row, (_, cfg, stats) in zip(rows, sims):
            op.need(int(row[0]) == cfg.scheme.bins and float(row[2]) == stats.violation_rate,
                    f"m={row[0]}: CSV row differs from the simulator")
            op.need(0.0 < float(row[3]) <= 1.0 and float(row[4]) > 0.0,
                    f"m={row[0]}: delay tail or improvement out of range")
        ops.append(op)
        return ops

    def _check_bin_violation(self, item: str, paths: list[Path], sims) -> list[Op]:
        ops = self._sim_ops(item, sims)
        op = Op(item, "artifacts")
        files = {p.name: p for p in paths}
        _, rows = read_csv(files["bin-violation_violations.csv"])
        op.need(len(rows) == len(sims), "one CSV row per simulated point expected")
        for row, (_, cfg, stats) in zip(rows, sims):
            op.need(cfg.drain_to_threshold, "drain flag did not reach the simulator")
            op.need(float(row[2]) == stats.violation_rate
                    and int(row[3]) == stats.reallocations,
                    f"m={row[0]}: CSV row differs from the simulator")
        ops.append(op)
        return ops

    def _check_bin_occupancy(self, item: str, paths: list[Path], sims) -> list[Op]:
        ops = self._sim_ops(item, sims)
        op = Op(item, "artifacts")
        (_, cfg, stats), = sims
        files = {p.name.rsplit("_", 1)[1]: p for p in paths}
        _, rows = read_csv(files["histogram.csv"])
        hist = stats.occupancy_hist.tolist()
        emp = [float(r[1]) for r in rows]
        op.need(emp[: len(hist)] == hist and not any(emp[len(hist):]),
                "histogram CSV differs from the simulated histogram")
        summary = json.loads(files["summary.json"].read_text())
        op.need(summary["reallocations"] == stats.reallocations,
                "summary reallocations differ from the simulator")
        frac = summary["tracked_time_fraction_at_or_below_high"]
        op.need(0.0 <= frac <= 1.0, f"tracked time fraction {frac} outside [0, 1]")
        ops.append(op)
        return ops

    # ------------------------------------------------------------------
    # mean-field

    def _mean_field_items(self) -> list[Item]:
        p = self.profile
        rng = np.random.default_rng(self.seed)
        items = [self._criterion_1(rng)]
        items += self._criterion_2()
        items += self._criterion_3()
        items += [self._criterion_6(), self._criterion_7(rng), self._criterion_9()]
        items.append(self._experiment(
            "power-of-2", {"n": str(p.n), "t_end": str(p.power_t_end)},
            self._check_power_of_2))
        items.append(self._experiment("delay-tails", {"n": str(p.n)},
                                      self._check_delay_tails))
        items.append(self._experiment("tradeoff-shedding", {"n": str(p.n)},
                                      self._check_tradeoff_shedding))
        return items

    def _criterion_1(self, rng) -> Item:
        """Stationarity residual of every closed-form law: the reference
        point plus random (rho, low, high) triples in the three band
        positions, drawn as in acceptance criterion 1 but from the seed."""
        cases = [(core.PullBased(LOW, HIGH), RHO), (core.TransferToInvite(LOW, HIGH), RHO),
                 (core.TransferToLeastLoaded(HIGH), RHO), (core.Shedding(HIGH), RHO),
                 (core.PullBased(150, 151), RHO)]
        per_band = -(-self.profile.crit1_triples // 3)
        triples = []
        for _ in range(per_band):
            rho = float(rng.uniform(2.0, 180.0))
            low = max(int(rho) - int(rng.integers(0, min(20, int(rho)))), 0)
            triples.append((rho, low, int(rho) + 1 + int(rng.integers(0, 20))))
        for _ in range(per_band):
            rho = float(rng.uniform(1.0, 150.0))
            low = math.ceil(rho) + int(rng.integers(1, 15))
            triples.append((rho, low, low + 1 + int(rng.integers(0, 15))))
        for _ in range(self.profile.crit1_triples - 2 * per_band):
            rho = float(rng.uniform(5.0, 180.0))
            high = max(1, math.floor(rho) - int(rng.integers(0, 10)))
            triples.append((rho, int(rng.integers(0, high)), high))
        for rho, low, high in triples:
            k = math.floor(rho)
            cases += [(core.PullBased(low, high), rho), (core.TransferToInvite(low, high), rho),
                      (core.Shedding(high), rho), (core.PullBased(k, k + 1), rho),
                      (core.TransferToLeastLoaded(high), rho)]

        def call():
            out = []
            for scheme, rho in cases:
                try:
                    dist = mf.fixed_point(scheme, rho)
                except mf.UnsupportedConfigError:
                    continue  # least-loaded band would reach occupancy 0
                out.append((scheme, rho, mf.fixed_point_residual(scheme, dist, rho)))
            return out

        def check(out, sims):
            ops = []
            for scheme, rho, residual in out:
                op = Op("crit1", f"{scheme!r} rho={rho:.6g}")
                op.within("stationarity residual", residual, 1e-8)
                ops.append(op)
            return ops

        return Item("crit1", call, check)

    def _criterion_2(self) -> list[Item]:
        """ODE convergence to the fixed points.  Least-loaded from the empty
        start runs to t_end with its residual stalled above stop_residual;
        the two-point start (every server at 150) stops on the residual for
        every scheme."""
        size = 280
        empty = np.zeros(size)
        empty[0] = 1.0
        two_point = np.zeros(size)
        two_point[:151] = 1.0
        runs = [(core.TransferToLeastLoaded(HIGH), "empty", empty)]
        runs += [(scheme, "two-point", two_point) for scheme in (
            core.PullBased(LOW, HIGH), core.TransferToInvite(LOW, HIGH),
            core.TransferToLeastLoaded(HIGH), core.PowerOfD(1))]
        items = []
        for scheme, start, s0 in runs:
            target = mf.fixed_point(scheme, RHO)
            item_id = f"crit2:{type(scheme).__name__}@{start}"

            def call(scheme=scheme, s0=s0):
                return mf.integrate_ode(scheme, self.params, s0.copy(),
                                        t_end=self.profile.crit2_t_end,
                                        stop_residual=1e-9)

            def check(out, sims, item_id=item_id, target=target):
                op = Op(item_id, "terminal state")
                tv = core.total_variation(out.distribution(), target)
                op.within("TV to fixed point", tv, self.bounds.ode_tv)
                return [op]

            items.append(Item(item_id, call, check))
        return items

    def _criterion_3(self) -> list[Item]:
        """Two-choice ODE tail under the doubly exponential bound at small
        loads; rho = 150 is the power-of-2 experiment."""
        items = []
        for rho, size in ((1.5, 40), (5.3, 60)):
            params = core.SystemParams(n=self.profile.n, lam=rho, beta=1.0, nu=1.0,
                                       mu=4.0 * (math.ceil(rho) + 2))
            s0 = np.zeros(size)
            s0[0] = 1.0
            item_id = f"crit3:rho={rho}"

            def call(params=params, s0=s0):
                return mf.integrate_ode(core.PowerOfD(2), params, s0.copy(),
                                        t_end=self.profile.crit3_t_end,
                                        stop_residual=1e-9)

            def check(out, sims, rho=rho, size=size, item_id=item_id):
                op = Op(item_id, "terminal tail")
                worst = max(float(out.tail[i]) - mf.power_of_d_tail_bound(rho, 2, i)
                            for i in range(math.floor(rho) + 1, size))
                op.within("tail excess over bound", worst, 1e-6)
                return [op]

            items.append(Item(item_id, call, check))
        return items

    def _criterion_6(self) -> Item:
        def call():
            return mx.tradeoff_curve(list(range(150, 201)), 200.0, self.params)

        def check(points, sims):
            op = Op("crit6", "operating point")
            band = [pt for pt in points if 3e-5 <= pt.epsilon <= 1.2e-4]
            op.need(bool(band), "no threshold with violation in [3e-5, 1.2e-4]")
            if band:
                pick = min(band, key=lambda pt: abs(pt.epsilon - 6e-5))
                op.need(pick.high == 195, f"picked h={pick.high}, expected 195")
                op.need(50.0 <= pick.improvement <= 200.0,
                        f"improvement {pick.improvement:.1f} outside [50, 200]")
            return [op]

        return Item("crit6", call, check)

    def _criterion_7(self, rng) -> Item:
        count = self.profile.crit7_pairs
        integer = count // 10
        loads = [float(v) for v in rng.uniform(0.01, 199.9, size=count - integer)]
        loads += [float(v) for v in rng.integers(1, 200, size=integer)]
        chis = [float(c) for c in rng.uniform(1e-3, 300.0, size=count)]

        def call():
            out = []
            for rho, chi in zip(loads, chis):
                params = core.SystemParams(n=self.profile.n, lam=rho / BETA, beta=BETA,
                                           nu=NU, mu=MU)
                out.append((rho, chi, mx.delay_tail_flow_jsq(chi, params),
                            mx.delay_tail_packet_random(chi, params)))
            return out

        def check(out, sims):
            ops = []
            for rho, chi, jsq, pkt in out:
                op = Op("crit7", f"rho={rho:.6g} chi={chi:.6g}")
                if rho == math.floor(rho):
                    op.need(abs(jsq - pkt) <= 1e-12 * pkt, "tails differ at an integer load")
                else:
                    op.need(jsq > pkt, "sticky tail below packet spraying")
                ops.append(op)
            return ops

        return Item("crit7", call, check)

    def _criterion_9(self) -> Item:
        grid = [(chi, h) for chi in self.profile.crit9_chis
                for h in range(1, self.profile.crit9_h_max + 1)]

        def call():
            out = []
            for chi, h in grid:
                closed = mx.delay_tail_shedding(h, chi, self.params)
                aggregated = mx.flow_average(
                    mf.shedding_fixed_point(RHO, h),
                    lambda lv, chi=chi: mx.delay_tail_prob(lv, chi, self.params))
                out.append((chi, h, abs(closed - aggregated)))
            return out

        def check(out, sims):
            ops = []
            for chi, h, gap in out:
                op = Op("crit9", f"chi={chi} h={h}")
                op.within("closed form vs flow average", gap, 1e-9)
                ops.append(op)
            return ops

        return Item("crit9", call, check)

    def _check_power_of_2(self, item: str, paths: list[Path], sims) -> list[Op]:
        op = Op(item, "tail")
        summary = json.loads(paths[-1].read_text())
        op.within("tail excess over bound", summary["worst_tail_excess_over_bound"], 1e-6)
        _, rows = read_csv(paths[0])
        tail = [float(r[1]) for r in rows]
        op.need(tail[0] == 1.0 and all(a >= b for a, b in zip(tail, tail[1:])),
                "terminal tail is not a non-increasing tail from 1")
        return [op]

    def _check_delay_tails(self, item: str, paths: list[Path], sims) -> list[Op]:
        op = Op(item, "delay tails")
        _, rows = read_csv(paths[0])
        by_chi: dict[str, dict[str, float]] = {}
        for chi, metric, value in rows:
            by_chi.setdefault(chi, {})[metric] = float(value)
        for chi, v in by_chi.items():
            op.need(all(0.0 < x <= 1.0 + 1e-12 for x in v.values()),
                    f"chi={chi}: tail outside (0, 1]")
            op.need(v["flow-jsq"] >= v["packet-random"] * (1 - 1e-12),
                    f"chi={chi}: sticky shortest queue beats packet spraying")
            op.need(v["shedding"] <= v["untruncated"] * (1 + 1e-12),
                    f"chi={chi}: truncation raised the tail")
        return [op]

    def _check_tradeoff_shedding(self, item: str, paths: list[Path], sims) -> list[Op]:
        op = Op(item, "trade-off curve")
        _, rows = read_csv(paths[0])
        eps = [float(r[1]) for r in rows]
        imp = [float(r[3]) for r in rows]
        op.need(all(0.0 < e < 1.0 for e in eps), "violation probability outside (0, 1)")
        op.need(all(a >= b for a, b in zip(eps, eps[1:])),
                "violation probability rises with the threshold")
        op.need(all(a <= b * (1 + 1e-12) for a, b in zip(imp[1:], imp)),
                "improvement rises with the threshold")
        return [op]
