"""Release acceptance gate: ten numbered criteria, one verdict line each.

Every test computes its criterion end to end, records a PASS/FAIL verdict
line (echoed after the run summary), then asserts.  Two clauses measure
finite-size concentration targets that this scale cannot reach; those tests
run the honest protocol, report the measured numbers, and fail with the
reason stated in their message (for 4b, the finite-n law
mean_field.jsq_two_level_mass) rather than loosening the bar.
"""

import math
import time

import numpy as np
import pytest

import conftest
from stickysim import cli
from stickysim import mean_field as mf
from stickysim import metrics as mx
from stickysim.core import (
    BinBased,
    PowerOfD,
    PullBased,
    Shedding,
    SystemParams,
    TransferToInvite,
    TransferToLeastLoaded,
    total_variation,
)
from stickysim.flow_sim import SimConfig, run_flow_sim
from stickysim.bin_sim import run_bin_sim

FULL = SystemParams(n=500, lam=100.0, beta=1.5, nu=100.0, mu=20000.0)
REDUCED = SystemParams(n=100, lam=100.0, beta=1.5, nu=100.0, mu=20000.0)
RHO = FULL.rho
BETA = FULL.beta
LOW, HIGH = 140, 160

# wall-clock seconds spent in the four bin-scheme sub-criteria; their
# runtime budget is shared
_bin_elapsed: dict[str, float] = {}


def _verdict(tag: str, ok: bool, text: str) -> None:
    line = f"criterion {tag:>3}: {'PASS' if ok else 'FAIL'}  {text}"
    conftest.acceptance_lines.append(line)
    print(line)


def _worse(worst: float, value: float) -> float:
    """max(worst, value), except that a non-finite value makes it NaN for
    good, so the criterion's `worst <= tol` fails.  Plain max would hide a
    NaN: max(0.0, nan) is 0.0."""
    if math.isnan(worst) or not math.isfinite(value):
        return math.nan
    return max(worst, value)


def _random_threshold_triples() -> list[tuple[float, int, int]]:
    """20 seeded (rho, low, high) draws stratified over the three band
    positions: load inside [low, high), load below low, load at or above
    high."""
    rng = np.random.default_rng(20260823)
    triples = []
    for _ in range(7):
        rho = float(rng.uniform(2.0, 180.0))
        low = max(int(rho) - int(rng.integers(0, min(20, int(rho)))), 0)
        high = int(rho) + 1 + int(rng.integers(0, 20))
        triples.append((rho, low, high))
    for _ in range(7):
        rho = float(rng.uniform(1.0, 150.0))
        low = math.ceil(rho) + int(rng.integers(1, 15))
        high = low + 1 + int(rng.integers(0, 15))
        triples.append((rho, low, high))
    for _ in range(6):
        rho = float(rng.uniform(5.0, 180.0))
        high = max(1, math.floor(rho) - int(rng.integers(0, 10)))
        low = int(rng.integers(0, high))
        triples.append((rho, low, high))
    return triples


def test_criterion_01_fixed_point_residuals():
    t0 = time.perf_counter()
    tol = 1e-8
    worst = 0.0

    def check(scheme, rho):
        nonlocal worst
        dist = mf.fixed_point(scheme, rho)
        worst = _worse(worst, mf.fixed_point_residual(scheme, dist, rho))

    # reference operating point, every solver
    check(PullBased(LOW, HIGH), RHO)
    check(TransferToInvite(LOW, HIGH), RHO)
    check(TransferToLeastLoaded(HIGH), RHO)
    check(Shedding(HIGH), RHO)
    check(PullBased(150, 151), RHO)  # shortest-queue law via a unit band

    least_band = least_jsq = 0
    for rho, low, high in _random_threshold_triples():
        check(PullBased(low, high), rho)
        check(TransferToInvite(low, high), rho)
        check(Shedding(high), rho)
        k = math.floor(rho)
        check(PullBased(k, k + 1), rho)  # shortest-queue law at this load
        try:
            check(TransferToLeastLoaded(high), rho)
        except mf.UnsupportedConfigError:
            continue  # threshold so far above rho that the band hits zero
        if rho >= high:
            least_jsq += 1
        else:
            least_band += 1

    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < 1.0 and least_band >= 3 and least_jsq >= 1
    _verdict(
        "1", ok,
        f"stationarity residual <= 1e-8 for every solver at the reference "
        f"point and 20 random triples (worst {worst:.2e}, {elapsed:.2f}s)",
    )
    assert worst <= tol
    assert least_band >= 3 and least_jsq >= 1
    assert elapsed < 1.0


def test_criterion_02_ode_converges_to_fixed_points():
    t0 = time.perf_counter()
    tol = 1e-6
    size = 280
    empty = np.zeros(size)
    empty[0] = 1.0
    stacked = np.zeros(size)
    stacked[:201] = 1.0  # every server holding 200 flows
    two_point = np.zeros(size)
    two_point[:151] = 1.0  # every server holding exactly 150
    starts = (empty, stacked, two_point)

    worst = 0.0
    steps = 0
    stops: dict[str, int] = {}
    engines: set[str] = set()
    for scheme in (
        PullBased(LOW, HIGH),
        TransferToInvite(LOW, HIGH),
        TransferToLeastLoaded(HIGH),
        PowerOfD(1),
    ):
        target = mf.fixed_point(scheme, RHO)
        for s0 in starts:
            out = mf.integrate_ode(
                scheme, FULL, s0.copy(), t_end=90.0, stop_residual=1e-9
            )
            worst = _worse(worst, total_variation(out.distribution(), target))
            steps += out.steps
            stops[out.stop_reason] = stops.get(out.stop_reason, 0) + 1
            engines.add(out.engine)
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < 30.0
    stopped = ", ".join(f"{n} {reason}" for reason, n in sorted(stops.items()))
    _verdict(
        "2", ok,
        f"ODE terminal state within TV 1e-6 of the analytic fixed point, "
        f"3 starts x 4 schemes (worst {worst:.2e}, {steps} steps, "
        f"stopped: {stopped}, ODE engine {'/'.join(sorted(engines))}, "
        f"{elapsed:.1f}s, {elapsed / steps * 1e6:.1f} µs per step)",
    )
    assert worst <= tol
    assert elapsed < 30.0


def test_criterion_03_two_choice_tail_bound():
    t0 = time.perf_counter()
    tol = 1e-6
    worst = -math.inf
    for rho, size in ((1.5, 40), (5.3, 60), (150.0, 230)):
        params = SystemParams(
            n=100, lam=float(rho), beta=1.0, nu=1.0, mu=4.0 * (math.ceil(rho) + 2)
        )
        s0 = np.zeros(size)
        s0[0] = 1.0
        out = mf.integrate_ode(
            PowerOfD(2), params, s0, t_end=60.0, stop_residual=1e-9
        )
        for i in range(math.floor(rho) + 1, size):
            excess = float(out.tail[i]) - mf.power_of_d_tail_bound(rho, 2, i)
            worst = _worse(worst, excess)
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < 10.0
    _verdict(
        "3", ok,
        f"two-choice ODE tail under the doubly-exponential bound above the "
        f"integer load (worst excess {worst:.2e}, {elapsed:.1f}s)",
    )
    assert worst <= tol
    assert elapsed < 10.0


def test_criterion_04a_simulation_matches_theory():
    schemes = (
        PullBased(LOW, HIGH),
        Shedding(HIGH),
        TransferToInvite(LOW, HIGH),
        TransferToLeastLoaded(HIGH),
    )
    worst_full = worst_reduced = 0.0
    slowest = 0.0
    for seed, scheme in enumerate(schemes, start=11):
        t0 = time.perf_counter()
        stats = run_flow_sim(SimConfig(params=FULL, scheme=scheme, seed=seed))
        run_s = time.perf_counter() - t0
        slowest = max(slowest, run_s)
        tv = total_variation(stats.occupancy_hist, mf.fixed_point(scheme, RHO))
        worst_full = _worse(worst_full, tv)
        assert run_s < 120.0, f"{scheme!r} took {run_s:.0f}s"

    t0 = time.perf_counter()
    for seed, scheme in enumerate(schemes, start=21):
        stats = run_flow_sim(
            SimConfig(
                params=REDUCED,
                scheme=scheme,
                seed=seed,
                warmup=20 * BETA,
                horizon=100 * BETA,
            )
        )
        tv = total_variation(stats.occupancy_hist, mf.fixed_point(scheme, RHO))
        worst_reduced = _worse(worst_reduced, tv)
    reduced_s = time.perf_counter() - t0

    ok = worst_full <= 0.05 and worst_reduced <= 0.08 and reduced_s < 15.0
    _verdict(
        "4a", ok,
        f"empirical occupancy within TV 0.05 of theory at n=500 over 200 "
        f"mean durations (worst {worst_full:.3f}, slowest run {slowest:.0f}s); "
        f"reduced n=100 variant within 0.08 (worst {worst_reduced:.3f}, "
        f"{reduced_s:.0f}s)",
    )
    assert worst_full <= 0.05
    assert worst_reduced <= 0.08
    assert reduced_s < 15.0


def test_criterion_04b_shortest_queue_concentration():
    t0 = time.perf_counter()
    stats = run_flow_sim(SimConfig(params=FULL, scheme=PowerOfD(FULL.n), seed=15))
    elapsed = time.perf_counter() - t0
    hist = stats.occupancy_hist
    mass = float(hist[150:152].sum()) if hist.size > 151 else float(hist[150:].sum())
    predicted = mf.jsq_two_level_mass(150, FULL.n)
    ok = mass >= 0.99 and elapsed < 120.0
    _verdict(
        "4b", ok,
        f"shortest-queue occupancy mass on {{150, 151}} >= 0.99 at n=500 "
        f"(measured {mass:.3f}, finite-n law {predicted:.3f}, {elapsed:.0f}s)",
    )
    if not ok:
        pytest.fail(
            f"shortest-queue concentration at n=500 measured {mass:.3f} < 0.99: "
            f"the total flow count is Poisson(n*rho), so the two-level mass is "
            f"about 1 - rho*P[Poisson(n*rho) = n*rho] = {predicted:.3f} here "
            f"(mean_field.jsq_two_level_mass, checked against simulation in "
            f"test_flow_sim); reaching 0.99 at this load needs n of about 2.4e5"
        )
    assert elapsed < 120.0


def test_criterion_05_violation_rates_match_theory():
    t0 = time.perf_counter()
    failures = []
    details = []

    def run(scheme, seed):
        return run_flow_sim(
            SimConfig(
                params=FULL,
                scheme=scheme,
                seed=seed,
                warmup=20 * BETA,
                horizon=60 * BETA,
            )
        )

    for seed, h in enumerate((152, 156, 160, 165), start=41):
        stats = run(Shedding(h), seed)
        theory = mx.shedding_violation(h, FULL)
        rel = abs(stats.violation_rate - theory) / theory
        details.append(f"discard h={h}: rel {rel:.3f} ({stats.violations} events)")
        if stats.violations < 50:
            failures.append(f"h={h}: only {stats.violations} violations")
        if rel > 0.20:
            failures.append(f"discard h={h}: rel error {rel:.3f} > 0.20")

    for seed, scheme in ((51, TransferToInvite(LOW, HIGH)),
                         (52, TransferToLeastLoaded(HIGH))):
        stats = run(scheme, seed)
        fp = mf.fixed_point(scheme, RHO)
        theory = float(fp.p[HIGH])
        rel = abs(stats.violation_rate - theory) / theory
        details.append(f"{scheme.__class__.__name__}: rel {rel:.3f}")
        if rel > 0.20:
            failures.append(
                f"{scheme.__class__.__name__}: rel error {rel:.3f} > 0.20"
            )

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    worst = max(float(d.split("rel ")[1].split(" ")[0].rstrip(")")) for d in details)
    _verdict(
        "5", ok,
        f"empirical violation rates within 20% of theory for 4 discard "
        f"thresholds and both transfer schemes (worst rel {worst:.3f}, "
        f"{elapsed:.0f}s)",
    )
    assert not failures, "; ".join(failures)
    assert elapsed < 300.0


def test_criterion_06_tradeoff_operating_point():
    t0 = time.perf_counter()
    points = mx.tradeoff_curve(list(range(150, 201)), 200.0, FULL)
    band = [pt for pt in points if 3e-5 <= pt.epsilon <= 1.2e-4]
    assert band, "no threshold with violation probability in [3e-5, 1.2e-4]"
    pick = min(band, key=lambda pt: abs(pt.epsilon - 6e-5))
    elapsed = time.perf_counter() - t0
    ok = 50.0 <= pick.improvement <= 200.0 and elapsed < 1.0
    _verdict(
        "6", ok,
        f"threshold {pick.high} trades violation probability "
        f"{pick.epsilon:.2e} for a {pick.improvement:.0f}x delay-tail "
        f"improvement at chi=200 (expected within [50, 200]x, {elapsed:.2f}s)",
    )
    assert pick.high == 195
    assert 50.0 <= pick.improvement <= 200.0
    assert elapsed < 1.0


def test_criterion_07_sticky_assignment_never_beats_packet_spraying():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    loads = [float(v) for v in rng.uniform(0.01, 199.9, size=900)]
    loads += [float(v) for v in rng.integers(1, 200, size=100)]
    chis = rng.uniform(1e-3, 300.0, size=1000)

    floor_violations = 0
    for rho, chi in zip(loads, chis):
        params = SystemParams(
            n=FULL.n, lam=rho / BETA, beta=BETA, nu=FULL.nu, mu=FULL.mu
        )
        jsq = mx.delay_tail_flow_jsq(float(chi), params)
        pkt = mx.delay_tail_packet_random(float(chi), params)
        if jsq < pkt * (1.0 - 1e-12):
            floor_violations += 1
        if rho == math.floor(rho):
            assert jsq == pytest.approx(pkt, rel=1e-12)
        else:
            assert jsq > pkt
    elapsed = time.perf_counter() - t0
    ok = floor_violations == 0 and elapsed < 1.0
    _verdict(
        "7", ok,
        f"flow-sticky shortest-queue delay tail >= packet-spraying tail on "
        f"1000 random (load, chi) pairs, equality exactly at integer loads "
        f"({elapsed:.2f}s)",
    )
    assert floor_violations == 0
    assert elapsed < 1.0


def _bin_stats(m, low, high, seed, warm_betas, horizon_betas):
    cfg = SimConfig(
        params=FULL,
        scheme=BinBased(bins=m, low=low, high=high),
        seed=seed,
        warmup=warm_betas * BETA,
        horizon=horizon_betas * BETA,
    )
    return run_bin_sim(cfg)


def test_criterion_08a_bin_scheme_caps_tracked_server():
    t0 = time.perf_counter()
    stats = _bin_stats(10 * FULL.n, LOW, HIGH, seed=2, warm_betas=20,
                       horizon_betas=40)
    series = stats.series
    # series rows are (time, new occupancy) change points starting at warmup;
    # the last state persists until the measurement stop
    edges = np.append(series[:, 0], (20 + 40) * BETA)
    durations = np.diff(edges)
    frac = float(durations[series[:, 1] <= HIGH].sum() / durations.sum())
    elapsed = time.perf_counter() - t0
    _bin_elapsed["a"] = elapsed
    ok = frac >= 0.99
    _verdict(
        "8a", ok,
        f"tracked server at or below the high threshold {frac:.2%} of the "
        f"time with 10 bins per server ({elapsed:.0f}s)",
    )
    assert frac >= 0.99


def test_criterion_08b_violations_fall_as_bins_grow():
    t0 = time.perf_counter()
    bin_counts = [2 * FULL.n, 5 * FULL.n, 10 * FULL.n, 20 * FULL.n]
    means = []
    for m in bin_counts:
        rates = [
            _bin_stats(m, 180, 200, seed=s, warm_betas=6, horizon_betas=12
                       ).violation_rate
            for s in range(5)
        ]
        means.append(float(np.mean(rates)))
    elapsed = time.perf_counter() - t0
    _bin_elapsed["b"] = elapsed
    monotone = all(b <= a for a, b in zip(means, means[1:]))
    _verdict(
        "8b", monotone,
        f"seed-averaged violation probability non-increasing in the bin "
        f"count ({', '.join(f'{v:.2e}' for v in means)}; {elapsed:.0f}s)",
    )
    assert monotone, f"violation means not monotone: {means}"


def test_criterion_08c_occupancy_approaches_fixed_point():
    t0 = time.perf_counter()
    target = mf.fixed_point(TransferToInvite(LOW, HIGH), RHO)
    tvs = []
    for m in (2 * FULL.n, 10 * FULL.n, 100 * FULL.n):
        stats = _bin_stats(m, LOW, HIGH, seed=5, warm_betas=6, horizon_betas=12)
        tvs.append(total_variation(stats.occupancy_hist, target))
    elapsed = time.perf_counter() - t0
    _bin_elapsed["c"] = elapsed
    decreasing = all(b < a for a, b in zip(tvs, tvs[1:]))
    ok = decreasing and tvs[-1] <= 0.1
    _verdict(
        "8c", ok,
        f"TV to the transfer-scheme fixed point falls with the bin count "
        f"({', '.join(f'{v:.3f}' for v in tvs)}; <= 0.1 at 100 bins per "
        f"server; {elapsed:.0f}s)",
    )
    assert decreasing, f"TV not decreasing: {tvs}"
    assert tvs[-1] <= 0.1


def test_criterion_08d_bin_tradeoff_operating_point():
    t0 = time.perf_counter()
    chi = 200.0
    baseline = mx.delay_tail_shedding(math.inf, chi, FULL)
    rows = []
    for h in range(195, 201):
        eps_vals, tails = [], []
        for seed in range(3):
            stats = _bin_stats(10 * FULL.n, LOW, h, seed=seed, warm_betas=10,
                               horizon_betas=20)
            eps_vals.append(stats.violation_rate)
            tails.append(
                mx.flow_average(
                    stats.distribution(),
                    lambda lv: mx.delay_tail_prob(lv, chi, FULL),
                )
            )
        eps = float(np.mean(eps_vals))
        improvement = baseline / float(np.mean(tails))
        rows.append((h, eps, improvement))
    elapsed = time.perf_counter() - t0
    _bin_elapsed["d"] = elapsed

    qualifying = [r for r in rows if r[1] <= 1e-4 and r[2] >= 30.0]
    total = sum(_bin_elapsed.values())
    ok = bool(qualifying) and total < 600.0
    best_eps = min(rows, key=lambda r: r[1])
    best_imp = max(rows, key=lambda r: r[2])
    _verdict(
        "8d", ok,
        f"bin-count 10n threshold sweep looking for violation <= 1e-4 with "
        f">= 30x delay-tail improvement (lowest violation {best_eps[1]:.2e} "
        f"at h={best_eps[0]} with {best_eps[2]:.0f}x; best improvement "
        f"{best_imp[2]:.0f}x at h={best_imp[0]} with {best_imp[1]:.2e}; "
        f"bin suite total {total:.0f}s)",
    )
    assert total < 600.0, f"bin-scheme criteria took {total:.0f}s"
    if not qualifying:
        pytest.fail(
            "no threshold reaches violation <= 1e-4 together with a >= 30x "
            "delay-tail improvement at 10 bins per server: each bin move "
            "carries ~15 flows at this ratio, which ties the violation rate "
            "to the residual occupancy mass at the threshold"
        )


def test_criterion_09_closed_form_matches_flow_average():
    t0 = time.perf_counter()
    worst = 0.0
    for chi in (1.0, 10.0, 100.0, 200.0):
        for h in range(1, 201):
            closed = mx.delay_tail_shedding(h, chi, FULL)
            aggregated = mx.flow_average(
                mf.shedding_fixed_point(RHO, h),
                lambda lv: mx.delay_tail_prob(lv, chi, FULL),
            )
            worst = _worse(worst, abs(closed - aggregated))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _verdict(
        "9", ok,
        f"closed-form discard-scheme delay tail equals the aggregated "
        f"per-occupancy average within 1e-9 on an 800-point grid "
        f"(worst gap {worst:.2e}, {elapsed:.1f}s)",
    )
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_10_reruns_are_byte_identical(tmp_path, capsys):
    tiny = [
        "--param", "n=20", "--param", "lam=3.0", "--param", "beta=1.0",
        "--param", "nu=1.0", "--param", "mu=10.0",
    ]
    runs = {
        "random-uniform": tiny + [
            "--param", "warmup_betas=5", "--param", "horizon_betas=15",
        ],
        "bin-occupancy": tiny + [
            "--param", "low=2", "--param", "high=5",
            "--param", "warmup_betas=2", "--param", "horizon_betas=6",
        ],
        "tradeoff-shedding": ["--param", "h_min=195", "--param", "h_max=200"],
    }
    mismatches = []
    for name, args in runs.items():
        for leg in ("x", "y"):
            rc = cli.main(
                ["run", name, "--seed", "9", "--out", str(tmp_path / leg)] + args
            )
            assert rc == cli.EXIT_OK
        for path in sorted((tmp_path / "x").glob(f"{name}_*.csv")):
            twin = tmp_path / "y" / path.name
            if path.read_bytes() != twin.read_bytes():
                mismatches.append(path.name)
    capsys.readouterr()
    ok = not mismatches
    _verdict(
        "10", ok,
        f"same-seed experiment reruns produce byte-identical CSV artifacts "
        f"across both simulators and the analytic runner",
    )
    assert not mismatches, f"outputs differ: {mismatches}"
