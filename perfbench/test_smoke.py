"""Smoke test of the benchmark at its tiny profile.

Runs every workload through run.py, untraced and traced, and checks the
result line against the metric names and units in BENCHMARK.json; checks
that an experiment's CSV digest equals a command-line run of the same
experiment; and checks that a corrupted output raises the failed count.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@functools.cache
def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--profile", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = _run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_csv_digest_matches_a_command_line_run(tmp_path):
    _run("flow-schemes", 0)
    detail = json.loads((ROOT / ".perfbench_out" / f"flow-schemes-s{SEED}-t0.json").read_text())
    item = "cli:shedding"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "stickysim.cli", *detail["cli_args"][item],
         "--out", str(tmp_path)],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
    from checks import sha256_file

    digests = {p.name: sha256_file(p) for p in tmp_path.glob("*.csv")}
    assert digests and digests == detail["digests"][item]["csv"]


def _shifted_hist(run):
    def corrupt(config, *args, **kwargs):
        stats = run(config, *args, **kwargs)
        return dataclasses.replace(stats, occupancy_hist=np.roll(stats.occupancy_hist, 40))
    return corrupt


def _shifted_tail(run):
    def corrupt(*args, **kwargs):
        out = run(*args, **kwargs)
        return dataclasses.replace(out, tail=np.concatenate([np.ones(5), out.tail[:-5]]))
    return corrupt


@pytest.mark.parametrize("workload, module, name, corrupt", [
    ("flow-schemes", "flow_sim", "run_flow_sim", _shifted_hist),
    ("bin-sweep", "bin_sim", "run_bin_sim", _shifted_hist),
    ("mean-field", "mean_field", "integrate_ode", _shifted_tail),
])
def test_corrupted_output_is_counted_as_failed(monkeypatch, tmp_path, workload,
                                               module, name, corrupt):
    import importlib

    import harness
    from speed import Probe
    from tracing import Tracer
    from workloads import TINY, Workload

    mod = importlib.import_module(f"stickysim.{module}")
    original = getattr(mod, name)
    bad = corrupt(original)
    for holder in [m for n, m in sys.modules.items() if n.startswith("stickysim")]:
        for attr, value in list(vars(holder).items()):
            if value is original:
                monkeypatch.setattr(holder, attr, bad)
    wl = Workload(workload, TINY, SEED, tmp_path)
    _, _, outputs, results = harness.run_round(wl, Tracer(timed=False), Probe())
    ops, _, _ = harness.check_round(wl, outputs, results)
    failed = [op for op in ops if not op.ok]
    assert ops and failed
