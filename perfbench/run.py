"""Benchmark entry point: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload learn-maj9 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; ``onesided`` is imported from its
``src`` directory.  With ``--trace 0`` the end-to-end metrics are measured
with tracing off; ``--trace 1`` reports the per-layer metrics of a traced run
(see README.md).  The last stdout line is the JSON result; the lines before
it record the environment and print every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_REFS = HERE / "references.json"
DEFAULT_SEED = 0  # the seed the references were recorded at
WORKLOADS = ("learn-maj9", "exact-tradeoff", "wide-lp")

#: pinned for the child processes: one thread each, and a fixed glibc mmap
#: threshold, because the default one adapts to earlier frees and made peak RSS
#: depend on allocation history (230 or 270 MB on the same learn-maj9 input)
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": "131072"}

#: (name, unit) of the end-to-end metrics returned in the result
END_TO_END = (("wall_norm_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

SETUP_SAMPLES = 3  # set-up time is the median over this many fresh processes
TIME_LIMIT = 170.0  # seconds; a worker still running then is killed and the run fails


def _commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own (or git missing)
    return lines[1]


def _environment(args) -> dict:
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned_env": PINNED_ENV,
    }


def _worker(args, env: dict, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Run the worker in a fresh process; return its result and its start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--refs", str(args.refs), "--out", str(OUT), *extra]
    started = time.time()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the self-test only")
    ap.add_argument("--refs", type=Path, default=DEFAULT_REFS, help="reference values to check against")
    ap.add_argument("--record", action="store_true",
                    help="run one pass and store its observed values in --refs")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "onesided" / "__init__.py").is_file():
        print(f"error: no onesided sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {**os.environ, **PINNED_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    OUT.mkdir(exist_ok=True)

    deadline = time.monotonic() + TIME_LIMIT
    try:
        setups = []
        if not args.trace and not args.record:
            for _ in range(SETUP_SAMPLES - 1):
                probe, started = _worker(args, env, ["--setup-only"], deadline)
                setups.append(probe["ready"] - started)
        extra = ["--record"] if args.record else []
        result, started = _worker(args, env, extra, deadline)
        setups.append(result["ready"] - started)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    environment = {**_environment(args), "versions": result["versions"]}
    print("env " + json.dumps(environment, sort_keys=True))
    values = {
        "wall_norm_s": result["wall_norm_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    print(f"jobs {result['jobs_per_pass']} per pass, {result['passes']} untraced passes, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for name, unit in END_TO_END:
        print(f"metric {name} {values[name]!r} {unit}")
    # Printed but not returned (see README.md): raw wall_s swings with the host's speed
    # more than wall_norm_s, which is rescaled by the probes between jobs; fail_ratio
    # reads 0 on a correct run, and attempted/failed carry it; on exact-tradeoff the
    # median job takes under a second, and its time spread too widely between runs.
    print(f"metric wall_s {result['wall_s']!r} s")
    print(f"metric job_p50_s {result['job_p50_s']!r} s over {result['jobs_per_pass'] * result['passes']} jobs")
    print(f"metric fail_ratio {result['failed'] / result['attempted']!r} ratio")
    if args.trace:
        from spans import PER_LAYER

        metrics = {name: {"value": value, "unit": PER_LAYER[name][0]}
                   for name, value in result["per_layer"].items()}
        for name, m in metrics.items():
            print(f"layer {name} {m['value']!r} {m['unit']}")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
