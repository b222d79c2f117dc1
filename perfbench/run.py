"""stickysim benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload flow-schemes --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/`` (never from an installed copy).  The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Details (provenance, check failures,
output digests, spans) go to ``.perfbench_out/`` in the checkout.

The measurement happens in a fresh single-threaded child process.  Set-up
time is sampled several times per run: a few set-up-only children run first,
one after the other, then the measuring child; ``setup_s`` is the median.
No two children run at the same time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flow-schemes", "bin-sweep", "mean-field")
SETUP_SAMPLES = {"full": 9, "tiny": 2}
# a run must end within 180 s; keep a margin for the parent itself
RUN_DEADLINE_S = 170.0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="run as many rounds as should fit in this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=tuple(SETUP_SAMPLES), default="full",
                   help="'tiny' is a seconds-long smoke size")
    # internal: the child side of the protocol
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--spawn-time", type=float, default=0.0, help=argparse.SUPPRESS)
    return p


def _spawn(args, setup_only: bool, deadline: float) -> dict:
    """Run one child to completion and return its result record."""
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--profile", args.profile]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("no time left for another child process")
    cmd += ["--spawn-time", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=remaining)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.child:
        from harness import child_main

        return child_main(args, ROOT)

    if not (ROOT / "src" / "stickysim" / "__init__.py").is_file():
        print(f"error: no stickysim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        setups = [_spawn(args, True, deadline)["setup_norm_s"]
                  for _ in range(SETUP_SAMPLES[args.profile] - 1)]
        result = _spawn(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_norm_s"])

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "norm_wall_s": {"value": statistics.median(result["norm_walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["rss_mb"], "unit": "MiB"},
        }
    detail = Path(result["detail"])
    record = json.loads(detail.read_text())
    record["setup_norm_samples_s"] = setups
    detail.write_text(json.dumps(record, indent=1))
    print(f"detail: {detail.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
