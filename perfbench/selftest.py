"""Self-test of the benchmark at its tiny size (about 20 s).

    python3 perfbench/selftest.py

Checks that every workload runs and passes its correctness gate, that every
end-to-end and per-layer metric named in README.md is printed with a unit,
that a corrupted reference value makes a job fail, and that the benchmark
refuses to run without the package sources.  Exits non-zero on the first
failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = ("wall_norm_s", "wall_s", "job_p50_s", "peak_rss_mb", "setup_s", "fail_ratio")
PER_LAYER = (
    "cube.cube_matrix.s", "cube.cube_matrix.points", "cube.empirical_metrics.s",
    "cube.eval_concept_batch.s",
    "poly.eval_on_cube.s", "poly.eval_on_cube.calls", "poly.eval_on_cube.points",
    "poly.sparse_mul.s", "poly.sparse_mul.term_pairs", "poly.expand.s",
    "poly.exact_multilinear.s", "poly.sparse_eval_batch.s",
    "constructions.step_poly.s", "constructions.schedule_attempts", "constructions.self_s",
    "certify.verify.s", "certify.verify.points", "certify.verify.self_s", "certify.points_per_s",
    "certify.min_eps.s", "certify.min_eps.calls",
    "lp.solve.s", "lp.solve.calls", "lp.backend.s", "lp.self_s", "lp.rows", "lp.cols", "lp.nnz",
    "lp.matrix_bytes", "lp.iterations", "lp.status.optimal",
    "learn.reliable_fit.s", "learn.agnostic_l1_fit.s", "learn.derandomize.s", "learn.fit_self_s",
    "learn.lp_rows_per_example",
    "harness.generate.s", "harness.brute_opt.s", "harness.brute_opt.positive.s",
    "harness.brute_opt.fully.s", "harness.brute_opt.pairs", "harness.run_experiment.s",
    "harness.persist.bytes",
    "job.self_s", "job.self_share", "trace.overhead_s",
)


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def printed_units(lines: list[str], kind: str) -> dict[str, str]:
    """name -> unit from the ``<kind> <name> <value> <unit> ...`` report lines."""
    return {parts[1]: parts[3] for parts in (line.split() for line in lines)
            if len(parts) >= 4 and parts[0] == kind}


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_workload(workload: str, declared: dict) -> None:
    code, lines = bench("--workload", workload, "--size", "tiny", "--seconds", "0.5")
    expect(code == 0, f"{workload}: exit code {code}")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {set(result)}")
    expect(result["correct"] and result["failed"] == 0, f"{workload}: a tiny job failed")
    units = printed_units(lines, "metric")
    for name in END_TO_END:
        expect(bool(units.get(name)), f"{workload}: end-to-end metric {name} printed without a unit")
    expect(set(result["metrics"]) == set(declared["end_to_end"]),
           f"{workload}: metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    expect(any(line.startswith("env ") and '"seed": 0' in line for line in lines),
           f"{workload}: no environment record")

    code, lines = bench("--workload", workload, "--size", "tiny", "--seconds", "0.5", "--trace", "1")
    expect(code == 0, f"{workload} traced: exit code {code}")
    result = json.loads(lines[-1])
    units = printed_units(lines, "layer")
    for name in PER_LAYER:
        expect(bool(units.get(name)), f"{workload} traced: per-layer metric {name} printed without a unit")
    expect(set(result["metrics"]) == set(declared["per_layer"]),
           f"{workload} traced: metrics differ from BENCHMARK.json")
    print(f"ok {workload}: {result['attempted']} traced jobs, "
          f"job self share {result['metrics']['job.self_share']['value']:.4f}")


def check_corrupted_reference(workload: str, scratch: Path) -> None:
    """Shift one recorded value of a tiny job; that job must now fail."""
    from run import DEFAULT_SEED
    from workloads import build

    refs = json.loads((HERE / "references.json").read_text())
    key = next(job.key for job in build(workload, DEFAULT_SEED, "tiny", scratch) if job.key in refs)
    entry = refs[key]
    if entry.get("approx"):
        name = next(iter(entry["approx"]))
        entry["approx"][name] += 1e-3
    else:
        name = next(iter(entry["exact"]))
        entry["exact"][name] = "corrupted"
    corrupted = scratch / "corrupted-references.json"
    corrupted.write_text(json.dumps(refs))
    code, lines = bench("--workload", workload, "--size", "tiny", "--seconds", "0",
                        "--refs", str(corrupted))
    result = json.loads(lines[-1])
    expect(code == 0 and result["failed"] > 0 and not result["correct"],
           f"{workload}: corrupting {key} / {name} did not fail a job")
    expect(any(line.startswith("metric fail_ratio") and float(line.split()[2]) > 0 for line in lines),
           f"{workload}: fail_ratio stayed 0 with a corrupted reference")
    print(f"ok {workload}: corrupted reference {name} fails the job")


def check_refuses_without_sources(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = bench("--workload", "wide-lp", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=bare, script=bare / HERE.name / "run.py")
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           "run.py produced a result without the package sources")
    print("ok: refuses to run without src/onesided")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {"end_to_end": [m["name"] for m in declared["end_to_end"]],
                "per_layer": [m["name"] for m in declared["per_layer"]],
                "workloads": [w["name"] for w in declared["workloads"]]}
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        scratch = Path(tmp)
        for workload in declared["workloads"]:
            check_workload(workload, declared)
            check_corrupted_reference(workload, scratch)
        check_refuses_without_sources(scratch)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
