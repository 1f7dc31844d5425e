"""One workload in one fresh process: set up, run passes, check, report.

Started by ``run.py``; prints one JSON object as its last stdout line.
With ``--setup-only`` it stops as soon as the first job could start and
reports only that moment, which ``run.py`` uses to sample set-up time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path


#: the median probe time, in seconds, over twenty 40 s runs on a shared 2-vCPU
#: x86-64 VM; normalized times read as the times that VM gives at its median speed
PROBE_REF = 0.0045


def _now() -> float:
    return time.perf_counter()


def _probe() -> float:
    """The host's current speed: the fastest of three runs of fixed interpreter work.

    The work (small-int and ``Fraction`` arithmetic, no ``onesided`` call) runs
    with the collector off, so a job cannot change what it costs, only the host
    can.  The fastest of three runs ignores a preemption inside one of them.
    """
    enabled = gc.isenabled()
    gc.disable()
    best = float("inf")
    for _ in range(3):
        start = _now()
        acc = 0
        for i in range(25_000):
            acc += i * i % 7
        f = Fraction(1, 3)
        for i in range(1, 300):
            f = f * Fraction(i + 1, i) + Fraction(1, i * i + 1)
        best = min(best, _now() - start)
    if enabled:
        gc.enable()
    return best


class Runner:
    """Runs a workload's job list in passes and keeps the measurements."""

    def __init__(self, jobs, references: dict, record: dict | None):
        self.jobs = jobs
        self.references = references
        self.record = record
        self.attempted = 0
        self.failed = 0

    def run_pass(self, index: int, tracer=None) -> dict:
        from workloads import compare

        times, norm, counts, job_ids = [], [], {}, []
        probe = _probe()
        for job in self.jobs:
            job_id = f"{index}:{job.key}"
            job_ids.append(job_id)
            self.attempted += 1
            problems = []
            start = _now()
            try:
                if tracer is None:
                    out = job.run()
                else:
                    with tracer.job(job_id):
                        out = job.run()
                raised = None
            except Exception:  # a raising job is a failed job, not a crashed benchmark
                raised = traceback.format_exc()
            times.append(_now() - start)
            before, probe = probe, _probe()
            norm.append(times[-1] * PROBE_REF / ((before + probe) / 2))
            if raised is not None:
                self.failed += 1
                print(f"FAILED {job.key}: raised\n{raised}", file=sys.stderr)
                continue
            print(f"job {times[-1]:.4f}s {job.key} probe {probe:.5f}s", file=sys.stderr)
            try:
                problems, observed, job_counts = job.check(out)
            except Exception:
                problems, observed, job_counts = [f"check raised\n{traceback.format_exc()}"], {}, {}
            for key, value in job_counts.items():
                counts[key] = counts.get(key, 0) + value
            if self.record is not None:
                self.record[job.key] = observed
            elif job.key in self.references:
                problems += compare(observed, self.references[job.key])
            if problems:
                self.failed += 1
                print(f"FAILED {job.key}:\n  " + "\n  ".join(problems), file=sys.stderr)
        return {"wall": sum(times), "norm": sum(norm), "times": times, "counts": counts,
                "job_ids": set(job_ids)}

    def run_for(self, passes: list, budget: float, start: float, tracer=None) -> None:
        """Run whole passes while the next one is expected to end within the budget."""
        while True:
            passes.append(self.run_pass(len(passes), tracer))
            typical = statistics.median(p["wall"] for p in passes)
            if _now() - start + typical > budget:
                return


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--refs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--record", action="store_true", help="store observed values as references")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import scipy

    from workloads import WARM_UP, build  # imports onesided

    args.out.mkdir(parents=True, exist_ok=True)
    jobs = build(args.workload, args.seed, args.size, args.out)
    ready = time.time()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    references = json.loads(args.refs.read_text()) if args.refs.is_file() else {}
    record = {} if args.record else None
    runner = Runner(jobs, references, record)

    start = _now()
    if args.workload in WARM_UP and not args.record:
        runner.run_pass(-1)  # checked like any other pass, but not timed into the metrics
    untraced: list = []
    runner.run_for(untraced, args.seconds / 2 if args.trace else args.seconds, start)
    result = {
        "ready": ready,
        "wall_s": statistics.median(p["wall"] for p in untraced),
        "wall_norm_s": statistics.median(p["norm"] for p in untraced),
        "job_p50_s": statistics.median(t for p in untraced for t in p["times"]),
        "jobs_per_pass": len(jobs),
        "passes": len(untraced),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        result["per_layer"] = _traced(runner, args, start, result["wall_s"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"], result["failed"] = runner.attempted, runner.failed

    if record is not None:
        merged = json.loads(args.refs.read_text()) if args.refs.is_file() else {}
        merged.update(record)
        args.refs.write_text(json.dumps(dict(sorted(merged.items())), indent=1) + "\n")
    print(json.dumps(result))
    return 0


def _traced(runner: Runner, args, start: float, untraced_wall: float) -> dict:
    from spans import PER_LAYER, Tracer, layer_metrics

    tracer = Tracer()
    traced: list = []
    tracer.install()
    try:
        runner.run_for(traced, args.seconds, start, tracer)
    finally:
        tracer.uninstall()

    per_pass = []
    for p in traced:
        m = layer_metrics(tracer.spans, p["job_ids"])
        m["harness.persist.bytes"] = p["counts"].get("harness.persist.bytes", 0)
        m["trace.wall_s"] = p["wall"]
        m["job.self_share"] = m["job.self_s"] / p["wall"] if p["wall"] > 0 else 0.0
        per_pass.append(m)
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not derived: {sorted(missing)}")

    spans_file = args.out / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json"
    spans_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "fields": ["name", "start", "end", "parent", "job", "counts"],
        "spans": tracer.spans,
    }))
    return {name: metrics[name] for name in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
