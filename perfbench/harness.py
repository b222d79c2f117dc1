"""One benchmark run inside its child process: set up, time, check, trace.

Untraced run: as many rounds of the workload's calls as should fit in
``seconds`` (at least one); ``norm_wall_s`` is the median round, in seconds at the
reference speed of speed.py.  Traced run: two untraced
rounds (the first is the cold first round of the process), one traced round,
then the micro-timings; it reports the per-layer metrics.  Every round is checked
after its timed region, and every round after the first must reproduce the
first round's output digests.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from checks import Op, sha256_array, sha256_file
from speed import REFERENCE_S, Probe, Sampler
from tracing import Tracer, self_times

FLOW_KEYS = ("d1", "d2", "jsq", "pull", "shedding", "transfer-invite", "transfer-least")
BIN_KEYS = ("m2n", "m10n", "m100n", "m2n-drain", "m10n-drain", "m10n-nomove")
LAYERS = ("flow_sim", "bin_sim", "mean_field", "metrics", "core")
MAX_FAILURES_KEPT = 50


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(root: Path, load_at_start: tuple[float, float, float]) -> dict:
    import numpy
    import stickysim

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "stickysim_file": stickysim.__file__,
        "loadavg_at_start": list(load_at_start),
        "threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_round(workload, tracer: Tracer, probe: Probe) -> tuple[float, float, list, list]:
    """Time one pass over the items.

    Returns (host seconds, seconds at the reference speed, outputs, simulator
    results).  An untraced round runs under the speed sampler; a traced round
    runs without it, so that no probe lands inside a span, and reports no
    reference-speed time.
    """
    outputs = []
    tracer.install()
    try:
        if tracer.timed:
            t0 = time.perf_counter()
            for item in workload.items:
                tracer.item = item.id
                outputs.append(item.call())
            wall, norm = time.perf_counter() - t0, math.nan
        else:
            with Sampler(probe) as sampler:
                for item in workload.items:
                    tracer.item = item.id
                    outputs.append(item.call())
            wall, norm = sampler.wall, sampler.norm
    finally:
        tracer.uninstall()
        tracer.item = None
    return wall, norm, outputs, tracer.take_results()


def check_round(workload, outputs: list, results: list) -> tuple[list[Op], dict, int]:
    """Ops, output digests and the number of simulated flows of one round."""
    sims: dict[str, list] = {}
    for item_id, name, args, out in results:
        sims.setdefault(item_id, []).append((name, args[0], out))
    ops: list[Op] = []
    digests: dict[str, dict] = {}
    flows = 0
    for item, out in zip(workload.items, outputs):
        mine = sims.get(item.id, [])
        ops += item.check(out, mine)
        entry = {}
        if item.cli_args is not None:
            entry["csv"] = {p.name: sha256_file(p) for p in out if p.suffix == ".csv"}
        if mine:
            entry["histograms"] = [sha256_array(st.occupancy_hist) for _, _, st in mine]
        digests[item.id] = entry
        flows += sum(st.total_flows for _, _, st in mine)
    return ops, digests, flows


def _sum(values) -> float:
    return float(sum(values))


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], traced_wall: float, cold_wall: float,
                  warm_wall: float, flows: int, micro: dict[str, float],
                  experiments, speed_index: float) -> dict:
    """Per-layer metrics from the traced round's spans plus the micro-timings.

    Returns {name: (value, unit)}.  A layer the workload never calls reports
    zero calls and zero seconds.
    """
    own = self_times(spans)
    dur = [s[3] - s[2] for s in spans]
    m: dict[str, tuple[float, str]] = {}

    def of(name: str, key=None):
        return [i for i, s in enumerate(spans)
                if s[0] == name and (key is None or s[6] == key)]

    for key in FLOW_KEYS:
        idx = of("run_flow_sim", key)
        secs = _sum(dur[i] for i in idx)
        n_flows = _sum(spans[i][7]["flows"] for i in idx)
        m[f"flow_sim.{key}.calls"] = (len(idx), "count")
        m[f"flow_sim.{key}.s"] = (secs, "s")
        m[f"flow_sim.{key}.flows"] = (n_flows, "count")
        m[f"flow_sim.{key}.flows_per_s"] = (n_flows / secs if secs else 0.0, "flows/s")
        m[f"flow_sim.{key}.violations"] = (
            _sum(spans[i][7]["violations"] for i in idx), "count")
    m["flow_sim.rng.ns_per_draw"] = (micro["flow_sim.rng.ns_per_draw"], "ns")

    for key in BIN_KEYS:
        idx = of("run_bin_sim", key)
        secs = _sum(dur[i] for i in idx)
        n_flows = _sum(spans[i][7]["flows"] for i in idx)
        moves = _sum(spans[i][7]["reallocations"] for i in idx)
        skipped = _sum(spans[i][7]["skipped"] for i in idx)
        m[f"bin_sim.{key}.s"] = (secs, "s")
        m[f"bin_sim.{key}.flows"] = (n_flows, "count")
        m[f"bin_sim.{key}.flows_per_s"] = (n_flows / secs if secs else 0.0, "flows/s")
        m[f"bin_sim.{key}.reallocations"] = (moves, "count")
        m[f"bin_sim.{key}.skipped"] = (skipped, "count")
        m[f"bin_sim.{key}.skipped_share"] = (
            skipped / (moves + skipped) if moves + skipped else 0.0, "ratio")

    fixed = [dur[i] * 1e6 for i in of("fixed_point")]
    m["mean_field.fixed_point.calls"] = (len(fixed), "count")
    m["mean_field.fixed_point.p50_us"] = (_percentile(fixed, 50), "us")
    m["mean_field.fixed_point.p90_us"] = (_percentile(fixed, 90), "us")
    for key, value in micro.items():
        if key.startswith("mean_field.join_probs."):
            m[key] = (value, "us")
    ode = of("integrate_ode")
    ode_s = _sum(dur[i] for i in ode)
    steps = _sum(spans[i][7]["steps"] for i in ode)
    m["mean_field.ode.calls"] = (len(ode), "count")
    m["mean_field.ode.s"] = (ode_s, "s")
    m["mean_field.ode.steps"] = (steps, "count")
    m["mean_field.ode.us_per_step"] = (ode_s / steps * 1e6 if steps else 0.0, "us")
    m["mean_field.ode.hit_t_end"] = (_sum(spans[i][7]["hit_t_end"] for i in ode), "count")
    m["mean_field.fixed_point_residual.us"] = (micro["mean_field.fixed_point_residual.us"], "us")

    m["metrics.tradeoff_curve.ms"] = (micro["metrics.tradeoff_curve.ms"], "ms")
    for key in ("delay_tail_shedding", "flow_average", "shedding_violation"):
        m[f"metrics.{key}.us"] = (micro[f"metrics.{key}.us"], "us")

    for name in experiments:
        m[f"cli.{name}.s"] = (_sum(dur[i] for i in of("run_experiment", name)), "s")
    self_by_layer = {layer: 0.0 for layer in ("cli",) + LAYERS}
    for s, t in zip(spans, own):
        self_by_layer[s[1]] += t
    top = _sum(dur[i] for i, s in enumerate(spans) if s[4] < 0)
    if abs(_sum(self_by_layer.values()) - top) > 1e-6 * max(traced_wall, 1.0):
        raise RuntimeError("span self times do not add up to the top-level spans")
    m["cli.self_s"] = (self_by_layer["cli"], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    m["harness.self_s"] = (traced_wall - top, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_share"] = ((traced_wall - warm_wall) / warm_wall, "ratio")
    m["workload.cold_wall_s"] = (cold_wall, "s")
    m["workload.warm_wall_s"] = (warm_wall, "s")
    m["workload.flows"] = (flows, "count")
    m["workload.flows_per_s"] = (flows / warm_wall, "flows/s")
    m["workload.speed_index"] = (speed_index, "ratio")
    return m


def child_main(args, root: Path) -> int:
    """Entry point of the measuring child (and of the set-up probes)."""
    load = os.getloadavg()
    import stickysim
    from workloads import PROFILES, Workload

    src = (root / "src").resolve()
    if not Path(stickysim.__file__).resolve().is_relative_to(src):
        print(f"stickysim imported from {stickysim.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    out_root = root / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    scratch = out_root / f"tmp-{os.getpid()}"
    try:
        workload = Workload(args.workload, PROFILES[args.profile], args.seed, scratch)
        setup_s = time.monotonic() - args.spawn_time
        probe = Probe()
        setup_norm_s = setup_s * REFERENCE_S / probe.median(3)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_norm_s": setup_norm_s}))
            return 0
        return _measure(args, root, workload, (setup_s, setup_norm_s), probe, load,
                        out_root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, root, workload, setup, probe, load, out_root) -> int:
    import micro
    from stickysim import cli

    ops: list[Op] = []
    walls: list[float] = []
    norm_walls: list[float] = []
    first_digests = None
    flows = 0
    per_layer = None
    started = time.monotonic()

    def one_round(tracer: Tracer) -> float:
        nonlocal first_digests, flows
        wall, norm, outputs, results = run_round(workload, tracer, probe)
        round_ops, digests, flows = check_round(workload, outputs, results)
        ops.extend(round_ops)
        if first_digests is None:
            first_digests = digests
        else:
            op = Op("determinism", f"round {len(walls) + 1}")
            op.need(digests == first_digests, "outputs differ from the first round")
            ops.append(op)
        walls.append(wall)
        norm_walls.append(None if tracer.timed else norm)
        return wall

    if args.trace:
        # the first round of a process runs slower (heap growth, first calls),
        # so tracing overhead is taken against a second, warm untraced round
        cold = one_round(Tracer(timed=False))
        warm = one_round(Tracer(timed=False))
        tracer = Tracer(timed=True)
        traced = one_round(tracer)
        timings = micro.run(workload.params, scale=1.0 if args.profile == "full" else 0.05)
        experiments = [name for name, _, _ in cli.list_experiments()]
        speed_index = statistics.median(probe.readings) / REFERENCE_S
        per_layer = layer_metrics(tracer.spans, traced, cold, warm, flows, timings,
                                  experiments, speed_index)
        spans_path = out_root / f"{args.workload}-s{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.span_dicts()))
    else:
        # start another round only if it should end within the time given
        while True:
            one_round(Tracer(timed=False))
            spent = time.monotonic() - started
            if spent * (len(walls) + 1) / len(walls) > args.seconds:
                break

    failed = [op for op in ops if not op.ok]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "profile": args.profile,
        "trace": args.trace,
        "provenance": provenance(root, load),
        "setup_s": setup[0],
        "setup_norm_s": setup[1],
        "round_walls_s": walls,
        "round_norm_walls_s": norm_walls,
        "probe_readings_s": probe.readings,
        "peak_rss_mb": rss_mb,
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [
            {"item": op.item, "what": op.what, "failures": op.failures}
            for op in failed[:MAX_FAILURES_KEPT]
        ],
        "digests": first_digests,
        "cli_args": {item.id: item.cli_args for item in workload.items if item.cli_args},
        "per_layer": per_layer and {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
    }
    detail_path = out_root / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1))
    for op in failed[:MAX_FAILURES_KEPT]:
        print(f"FAILED {op.item} {op.what}: {'; '.join(op.failures)}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup[0],
        "setup_norm_s": setup[1],
        "norm_walls": norm_walls,
        "rss_mb": rss_mb,
        "attempted": len(ops),
        "failed": len(failed),
        "per_layer": detail["per_layer"],
        "detail": str(detail_path),
    }))
    return 0
