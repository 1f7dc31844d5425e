"""The benchmark's workloads: seeded job lists and their correctness checks.

Building a job list is the workload's set-up (manifests, targets, formulas,
samples).  Each :class:`Job` has a timed ``run`` that only calls into
``onesided`` and an untimed ``check`` that judges the output.  The package is
reached through module attributes (``constructions.halfspace_onesided``), so
a traced run sees every call at the attribute it wraps.

``check`` returns ``(problems, observed, counts)``: property violations,
values compared against the recorded references when the job's key has one,
and per-job counts the trace reports.  ``observed`` holds an ``exact`` part
(compared with ``==``) and an ``approx`` part (floats compared within
:data:`APPROX_TOL` relative to ``max(1, |reference|)``).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from onesided import certify, constructions, cube, harness, learn, poly

WORKLOADS = ("learn-maj9", "exact-tradeoff", "wide-lp")
SIZES = ("full", "tiny")

APPROX_TOL = 1e-7

#: workloads whose first pass is a warm-up, run and checked but not timed.  On
#: exact-tradeoff the first pass was slower than the run's median pass in two
#: runs of three.  The LP-bound workloads showed no such step, and a warm-up pass
#: would take a fifth of their 40 s runs.
WARM_UP = frozenset({"exact-tradeoff"})


@dataclass
class Job:
    key: str  # unique, and names the job's inputs, so references follow them
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict, dict]]


def build(workload: str, seed: int, size: str, scratch: Path) -> list[Job]:
    """The job list of one workload, drawn from ``seed``."""
    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}, got {size!r}")
    builders = {
        "learn-maj9": _learn_maj9,
        "exact-tradeoff": _exact_tradeoff,
        "wide-lp": _wide_lp,
    }
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return builders[workload](rng, size == "full", scratch)


def compare(observed: dict, reference: dict) -> list[str]:
    """Mismatches between a job's observed values and its recorded references."""
    problems = []
    for name, want in reference.get("exact", {}).items():
        got = observed.get("exact", {}).get(name)
        if got != want:
            problems.append(f"{name}: {got!r} != reference {want!r}")
    for name, want in reference.get("approx", {}).items():
        got = observed.get("approx", {}).get(name)
        if got is None or abs(got - want) > APPROX_TOL * max(1.0, abs(want)):
            problems.append(f"{name}: {got!r} differs from reference {want!r} by more than {APPROX_TOL:g}")
    return problems


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _certificate_problems(label: str, cert, n: int) -> list[str]:
    if cert is None or not cert.ok:
        return [f"{label}: not certified ({cert.to_json() if cert else None})"]
    if cert.points_checked != 2 ** n:
        return [f"{label}: checked {cert.points_checked} points, expected 2^{n}"]
    return []


def _seeded_clauses(rng, n: int, count: int, width: int) -> tuple[tuple[int, ...], ...]:
    clauses = []
    for _ in range(count):
        variables = rng.choice(n, size=width, replace=False) + 1
        signs = rng.choice((-1, 1), size=width)
        clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
    return tuple(clauses)


def _poly_values(p: poly.SparsePolynomial, X: np.ndarray) -> np.ndarray:
    """Float values of a sparse polynomial, computed here rather than by the package."""
    X = X.astype(np.float64)
    out = np.zeros(X.shape[0])
    for mono, coef in p.terms.items():
        out += float(coef) * (X[:, [v - 1 for v in mono]].prod(axis=1) if mono else 1.0)
    return out


# ---------------------------------------------------------------------------
# learn-maj9: run_experiment on MAJ_9, reliable positive and fully reliable


def _learn_maj9(rng, full: bool, scratch: Path) -> list[Job]:
    n = 9 if full else 5
    samples = {"train": 20000, "calib": 5000, "heldout": 20000} if full else \
              {"train": 2000, "calib": 3200, "heldout": 2000}
    target = cube.Majority(n, tuple(range(1, n + 1)))
    W = float(poly.exact_multilinear(target, n).weight)  # 10.375 at n = 9
    seed = int(rng.integers(0, 2**31))
    manifests = [
        {"seed": seed, "concept": cube.format_concept(target),
         "noise": {"kind": "one_sided_positive", "eta": 0.1},
         "learner": {"algo": algo, "d": n, "W": W, "eps": 0.1},
         "samples": samples, "oracle": {"bank": "majority", "mode": mode}}
        for algo, mode in (("reliable_positive", "positive"), ("fully_reliable", "fully"))
    ]
    # one job per manifest, so the host-speed probes between jobs are a few seconds apart
    return [Job(f"learn-maj9 {m['learner']['algo']} MAJ_{n} seed={seed} m={samples}",
                _learn_run(m, scratch), check)
            for m, check in zip(manifests, (_positive_check, _fully_check))]


def _learn_run(manifest: dict, scratch: Path):
    def run():
        root = tempfile.mkdtemp(prefix="runs-", dir=scratch)
        return root, harness.run_experiment(manifest, root=root)

    return run


def _persisted(root: str, manifest) -> tuple[list[str], int]:
    """Whether the run's result.json was written, and the bytes under its run root (then removed)."""
    problems = []
    if not (Path(root) / manifest.hash / "result.json").is_file():
        problems.append(f"{manifest.learner['algo']}: result.json was not persisted")
    persisted = sum(f.stat().st_size for f in Path(root).rglob("*") if f.is_file())
    shutil.rmtree(root)
    return problems, persisted


def _positive_check(out) -> tuple[list[str], dict, dict]:
    root, pos = out
    problems, persisted = _persisted(root, pos)
    held, opt = pos.results["heldout_metrics"], pos.results["oracle"]["opt"]
    if held["false_pos"] > 0.15:
        problems.append(f"reliable_positive: false_pos {held['false_pos']} > 0.15")
    if held["false_neg"] > opt + 0.15:
        problems.append(f"reliable_positive: false_neg {held['false_neg']} > opt+ {opt} + 0.15")
    observed = {"exact": {"opt_positive": opt},
                "approx": {"objective_positive": pos.results["reports"]["fit"]["objective_value"]}}
    return problems, observed, {"harness.persist.bytes": persisted}


def _fully_check(out) -> tuple[list[str], dict, dict]:
    root, fully = out
    problems, persisted = _persisted(root, fully)
    held, opt = fully.results["heldout_metrics"], fully.results["oracle"]["opt"]
    if held["err"] > 0.15:
        problems.append(f"fully_reliable: err {held['err']} > 0.15")
    if held["unknown_rate"] > opt + 0.2:
        problems.append(f"fully_reliable: abstain {held['unknown_rate']} > opt? {opt} + 0.2")
    reports = fully.results["reports"]
    observed = {"exact": {"opt_fully": opt},
                "approx": {"objective_fully_positive": reports["positive"]["objective_value"],
                           "objective_fully_negative": reports["negative"]["objective_value"]}}
    return problems, observed, {"harness.persist.bytes": persisted}


# ---------------------------------------------------------------------------
# exact-tradeoff: exact-rational constructions on the SparseForm path


def _exact_tradeoff(rng, full: bool, scratch: Path) -> list[Job]:
    # n = 9 takes about 1.3 s; n = 10 takes 8-10 s alone, which leaves a 40 s run only three
    # passes to take a median over
    tradeoffs = ((9, 5, 0.1), (8, 4, 0.1)) if full else ((6, 3, 0.1),)
    # at n = 12 the DNF job sits between the cheap jobs and the CNF job, so it is the median job
    n_formula, count, width = (12, 3, 4) if full else (6, 2, 3)
    dnf = cube.Dnf(n_formula, _seeded_clauses(rng, n_formula, count, width))
    cnf = cube.Cnf(n_formula, _seeded_clauses(rng, n_formula, count, width))
    jobs = [Job(f"exact-tradeoff and_twosided_tradeoff n={n} d={d} eps={eps}",
                lambda n=n, d=d, eps=eps: constructions.and_twosided_tradeoff(n, d, eps),
                _construction_check(n))
            for n, d, eps in tradeoffs]
    jobs.append(Job(f"exact-tradeoff dnf_positive_onesided {cube.format_concept(dnf)} d=2 eps=0.1",
                    lambda: constructions.dnf_positive_onesided(dnf, 2, 0.1), _construction_check(n_formula)))
    jobs.append(Job(f"exact-tradeoff cnf_negative_onesided and exact_multilinear {cube.format_concept(cnf)} d=2 eps=0.1",
                    lambda: (constructions.cnf_negative_onesided(cnf, 2, 0.1), poly.exact_multilinear(cnf, n_formula)),
                    _cnf_check(n_formula)))

    # criterion-4 compositions: the acceptance pair, plus a seeded pair at n = 10
    pairs = [(cube.Halfspace(6, 0, (1, 1, 1, 0, 0, 0)), cube.Halfspace(6, 0, (0, 0, 0, 1, 1, 1)))]
    if full:  # unit weights on 3 drawn variables per half keep every expansion within the default cap
        picks = [set(rng.choice(5, size=3, replace=False) + offset) for offset in (0, 5)]
        pairs.append(tuple(cube.Halfspace(10, 0, tuple(int(j in pick) for j in range(10))) for pick in picks))
    names = "; ".join(f"{cube.format_concept(ha)} | {cube.format_concept(hb)}" for ha, hb in pairs)
    jobs.append(Job(f"exact-tradeoff compositions {names}", _composition_run(pairs), _composition_check))
    return jobs


def _construction_check(n: int):
    def check(res) -> tuple[list[str], dict, dict]:
        problems = _certificate_problems("construction", res.certificate, n)
        exact = {"certificate": res.certificate.to_json() if res.certificate else None,
                 "step_degree": res.step_degree,
                 "poly_sha256": _digest(poly.structured_to_json(res.poly))}
        return problems, {"exact": exact}, {}

    return check


def _cnf_check(n: int):
    construction = _construction_check(n)

    def check(out) -> tuple[list[str], dict, dict]:
        res, q = out
        problems, observed, _ = construction(res)
        # Parseval: the Fourier coefficients of a +-1 valued function square-sum to 1
        energy = sum((Fraction(c) ** 2 for c in q.terms.values()), start=Fraction(0))
        if energy != 1:
            problems.append(f"exact_multilinear: squared coefficients sum to {energy}, not 1")
        observed["exact"]["interpolant_sha256"] = _digest(poly.sparse_to_json(q))
        return problems, observed, {}

    return check


def _composition_run(pairs):
    def run():
        out = {}
        for i, (ha, hb) in enumerate(pairs):
            def either(bits, ha=ha, hb=hb):
                return 1 if cube.eval_concept(ha, bits) == 1 or cube.eval_concept(hb, bits) == 1 else -1

            def both(bits, ha=ha, hb=hb):
                return 1 if cube.eval_concept(ha, bits) == 1 and cube.eval_concept(hb, bits) == 1 else -1

            for label, sign, compose, target in (("or", "positive", constructions.or_compose, either),
                                                 ("and", "negative", constructions.and_compose, both)):
                parts = [constructions.halfspace_onesided(h, sign, 0.125).poly for h in (ha, hb)]
                whole = compose(parts)
                cert = certify.verify_onesided(whole, target, 0.25, sign)
                out[f"pair{i}.{label}"] = (ha.n, cert, [poly.expand(p) for p in parts], poly.expand(whole))
        return out

    return run


def _composition_check(out) -> tuple[list[str], dict, dict]:
    problems, exact = [], {}
    for label, (n, cert, parts, whole) in out.items():
        problems += _certificate_problems(label, cert, n)
        if whole.degree != max(p.degree for p in parts):
            problems.append(f"{label}: degree {whole.degree} is not the parts' maximum")
        if whole.weight > sum(p.weight for p in parts) + len(parts) - 1:
            problems.append(f"{label}: weight {float(whole.weight)} breaks the additive bound")
        exact[f"{label}.certificate"] = cert.to_json()
        exact[f"{label}.expanded_sha256"] = _digest(poly.sparse_to_json(whole))
    return problems, {"exact": exact}, {}


# ---------------------------------------------------------------------------
# wide-lp: LP fits with thousands of rows and no repeats, plus a min_eps table


def _wide_lp(rng, full: bool, scratch: Path) -> list[Job]:
    # m = 500 keeps a pass near 7 s, so a 40 s run times five or six passes (m = 800: 10 s, three)
    n, d, m, W, eps = (20, 2, 500, 4.0, 0.1) if full else (8, 2, 120, 4.0, 0.1)
    concept = cube.Majority(n, tuple(range(1, n // 2 + 2)))
    sample = harness.generate(concept, harness.NoiseModel("one_sided_positive", 0.1), m,
                              int(rng.integers(0, 2**31)))
    label = f"{cube.format_concept(concept)} m={m} sample_sha256={_digest(sample.points.tolist() + [sample.labels.tolist()])}"
    jobs = [Job(f"wide-lp reliable_fit {sign} d={d} W={W} eps={eps} {label}",
                lambda sign=sign: learn.reliable_fit(sample, d, W, eps, sign),
                _reliable_check(sample, W, eps, sign))
            for sign in ("positive", "negative")]
    jobs.append(Job(f"wide-lp agnostic_l1_fit d={d} W={W} {label}",
                    lambda: learn.agnostic_l1_fit(sample, d, W), _l1_check(sample, W)))

    table = [(f, deg, mode)
             for f in ((cube.Majority(9, tuple(range(1, 10))), cube.Disjunction(10, tuple(range(1, 11)))) if full
                       else (cube.Majority(3, (1, 2, 3)), cube.Disjunction(4, (1, 2, 3, 4))))
             for deg in ((2, 3) if full else (1, 2))
             for mode in ("positive", "negative", "twosided")]
    jobs.append(Job("wide-lp min_eps table " + ", ".join(f"{cube.format_concept(f)} d={deg} {mode}"
                                                         for f, deg, mode in table),
                    lambda: [certify.min_eps(f, deg, mode) for f, deg, mode in table],
                    _min_eps_check(table)))
    return jobs


def _fit_common(p, report, W: float) -> list[str]:
    problems = []
    if report.lp_status != "optimal":
        problems.append(f"LP status {report.lp_status}")
    if float(p.weight) > W + 1e-6:
        problems.append(f"weight {float(p.weight)} exceeds the cap {W}")
    return problems


def _objective_problems(recomputed: float, reported: float) -> list[str]:
    if abs(recomputed - reported) > 1e-6 * max(1.0, abs(reported)):
        return [f"objective {reported} disagrees with the recomputed loss {recomputed}"]
    return []


def _reliable_check(sample, W: float, eps: float, sign: str):
    def check(out) -> tuple[list[str], dict, dict]:
        p, report = out
        problems = _fit_common(p, report, W)
        values = _poly_values(p, sample.points)
        y = sample.labels
        if sign == "positive":
            worst = float(values[y == -1].max(initial=-math.inf)) - (-1.0 + eps)
            loss = float(np.maximum(0.0, 1.0 - values[y == 1]).sum())
        else:
            worst = (1.0 - eps) - float(values[y == 1].min(initial=math.inf))
            loss = float(np.maximum(0.0, 1.0 + values[y == -1]).sum())
        if worst > 1e-6:
            problems.append(f"hard constraint violated by {worst}")
        problems += _objective_problems(loss, report.objective_value)
        return problems, {"approx": {"objective": report.objective_value}}, {}

    return check


def _l1_check(sample, W: float):
    def check(out) -> tuple[list[str], dict, dict]:
        p, report = out
        problems = _fit_common(p, report, W)
        loss = float(np.abs(_poly_values(p, sample.points) - sample.labels).sum())
        problems += _objective_problems(loss, report.objective_value)
        return problems, {"approx": {"objective": report.objective_value}}, {}

    return check


def _min_eps_check(table):
    def check(out) -> tuple[list[str], dict, dict]:
        problems, approx = [], {}
        for (f, deg, mode), (eps, witness) in zip(table, out):
            label = f"{cube.format_concept(f)} d={deg} {mode}"
            X = cube.cube_matrix(f.n)
            fv = cube.eval_concept_batch(f, X)
            v = _poly_values(witness, X)
            slack = 1e-6
            pos, neg = v[fv == 1], v[fv == -1]
            bad = (pos < 1 - eps - slack).any() or (neg > -1 + eps + slack).any()
            if mode != "positive":
                bad |= (pos > 1 + eps + slack).any()
            if mode != "negative":
                bad |= (neg < -1 - eps - slack).any()
            if bad or eps < -1e-9:
                problems.append(f"min_eps {label}: witness misses eps={eps}")
            approx[label] = eps
        return problems, {"approx": approx}, {}

    return check
