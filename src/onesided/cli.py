"""Command-line binding over the library; no numeric logic lives here.

Exit codes: 0 success, 1 domain error (bad data, infeasible, cap exceeded),
2 usage error.  ``--json`` switches the commands that print results
(everything but ``bench`` and ``replay``) from human-readable tables to the
documented JSON schemas.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import certify as certify_mod
from . import constructions as cons
from . import harness, learn
from .cube import (Conjunction, Halfspace, Majority, empirical_metrics, format_concept, load_sample_csv,
                   majority_as_halfspace, parse_concept)
from .errors import InputError
from .poly import structured_from_json, structured_to_json


def _print(obj, as_json: bool, human: str) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True) if as_json else human)


def _as_halfspace(concept) -> Halfspace:
    if isinstance(concept, Halfspace):
        return concept
    if isinstance(concept, Majority):
        return majority_as_halfspace(concept)
    raise InputError("this construction needs a HALFSPACE or MAJ concept")


def _cmd_construct(args) -> int:
    concept = parse_concept(args.concept, args.n)
    if args.kind == "quarter":
        result = cons.certified(cons.halfspace_quarter(_as_halfspace(concept)), concept, "positive", 0.25, None)
    elif args.kind == "onesided":
        result = cons.halfspace_onesided(_as_halfspace(concept), args.sign, args.eps)
    elif args.kind == "and-tradeoff":
        if not isinstance(concept, Conjunction) or set(concept.literals) != set(range(1, concept.n + 1)):
            raise InputError("and-tradeoff targets the full positive conjunction, e.g. CONJ +1 +2 ... +n")
        result = cons.and_twosided_tradeoff(concept.n, args.d, args.eps)
    elif args.kind == "dnf":
        result = cons.dnf_positive_onesided(concept, args.d, args.eps)
    else:  # cnf
        result = cons.cnf_negative_onesided(concept, args.d, args.eps)
    out = {
        "construction": args.kind,
        "sign": result.claim.sign,
        "eps": result.claim.eps,
        "concept": format_concept(concept),
        "degree_bound": result.claim.degree_bound,
        # a claim past the float range is inf, which JSON cannot spell
        "weight_bound": result.claim.weight_bound if math.isfinite(result.claim.weight_bound) else None,
        "polynomial": structured_to_json(result.poly),
        "certificate": result.certificate.to_json() if result.certificate else None,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    human = (
        f"{args.kind} for {format_concept(concept)}: sign={result.claim.sign} eps={result.claim.eps}\n"
        f"degree<={result.claim.degree_bound} weight<={result.claim.weight_bound:.6g} "
        f"certified={result.certified}"
    )
    _print(out, args.json, human)
    return 0


def _cmd_certify(args) -> int:
    concept = parse_concept(args.concept, args.n)
    payload = json.loads(Path(args.poly).read_text())
    if not isinstance(payload, dict):
        raise InputError(f"{args.poly}: expected a JSON object, got {type(payload).__name__}")
    poly = structured_from_json(payload.get("polynomial", payload))
    if args.mode == "twosided":
        report = certify_mod.verify_twosided(poly, concept, args.eps)
    else:
        report = certify_mod.verify_onesided(poly, concept, args.eps, args.mode)
    human = (
        f"ok={report.ok} eps={report.eps_requested} points={report.points_checked}\n"
        f"worst_pos={report.worst_pos_violation:.3g} worst_neg={report.worst_neg_violation:.3g}"
        + (f"\nwitness={list(report.witness)}" if report.witness else "")
    )
    _print(report.to_json(), args.json, human)
    return 0


def _cmd_mineps(args) -> int:
    concept = parse_concept(args.concept, args.n)
    if args.dmax < 1:
        raise InputError(f"--dmax must be at least 1, got {args.dmax}")
    rows = []
    for d in range(1, args.dmax + 1):
        eps, _ = certify_mod.min_eps(concept, d, args.mode)
        rows.append({"d": d, "eps": eps})
    human = "\n".join(f"d={row['d']:2d}  eps={row['eps']:.9f}" for row in rows)
    _print({"concept": format_concept(concept), "mode": args.mode, "table": rows}, args.json, human)
    return 0


def _cmd_learn(args) -> int:
    train = load_sample_csv(args.train)
    calib = load_sample_csv(args.calib) if args.calib else None
    algo = args.algo.replace("-", "_")  # the CLI spells the registry names with hyphens
    hyp, reports, hyp_json = harness.train_learner(algo, train, calib, args.d, args.W, args.eps)
    out: dict = {"algo": args.algo}
    if "concept" in hyp_json:  # the eliminator outputs a concept and solves no LP
        out["concept"] = hyp_json["concept"]
    else:
        out["fit"] = reports.get("fit", reports)  # one fit report, or one per side
    if "polynomial" in hyp_json:  # a thresholded polynomial, which --out writes
        out["hypothesis"] = hyp_json
    if args.heldout:
        out["heldout_metrics"] = empirical_metrics(hyp, load_sample_csv(args.heldout)).to_json()
    if args.out:  # what a run directory stores as hypothesis.json
        Path(args.out).write_text(json.dumps(hyp_json, indent=2, sort_keys=True) + "\n")
    human_lines = [f"algo={args.algo}"]
    if "concept" in out:
        human_lines.append(f"hypothesis: {out['concept']}")
    if "heldout_metrics" in out:
        hm = out["heldout_metrics"]
        human_lines.append(
            f"heldout: false_pos={hm['false_pos']:.4f} false_neg={hm['false_neg']:.4f} "
            f"err={hm['err']:.4f} unknown={hm['unknown_rate']:.4f}"
        )
    _print(out, args.json, "\n".join(human_lines))
    return 0


def _cmd_plan(args) -> int:
    plan = learn.plan_samples(args.n, args.d, args.W, args.eps, args.delta)
    human = (
        f"term_rademacher = {plan.term_rademacher:.6g}\n"
        f"term_confidence = {plan.term_confidence:.6g}\n"
        f"m = {plan.m}"
    )
    _print({"m": plan.m, "term_rademacher": plan.term_rademacher, "term_confidence": plan.term_confidence},
           args.json, human)
    return 0


def _cmd_oracle(args) -> int:
    record = harness.oracle_record(load_sample_csv(args.sample), args.bank, args.mode)
    _print(record, args.json, f"opt({args.mode}) = {record['opt']:.6f} at {record['argmin']}")
    return 0


def _cmd_bench(args) -> int:
    """Run every manifest; one that fails prints an ``error:`` line with its path and stage,
    and the rest still run.  Each finished run prints its line and appends its ``--summary``
    row, in manifest order; the exit code is 1 when any manifest failed."""
    failed = False
    loaded = []
    for path in args.manifests:
        try:
            loaded.append((path, harness.RunManifest.from_json(json.loads(Path(path).read_text())).inputs_json()))
        except _DOMAIN_ERRORS as exc:
            print(f"error: {path}: load: {exc}", file=sys.stderr)
            failed = True
    paths = [path for path, _ in loaded]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_bench_one, inputs, args.root) for _, inputs in loaded]
            failed |= _bench_report(paths, (future.result() for future in futures), args.summary)
    else:
        failed |= _bench_report(paths, (_bench_one(inputs, args.root) for _, inputs in loaded), args.summary)
    return 1 if failed else 0


def _bench_one(inputs: dict, root: str | None) -> tuple[harness.RunManifest | None, str | None]:
    """(manifest, None) for a finished run; (None, "stage: message") for one that raised a domain error."""
    manifest = harness.RunManifest.from_json(inputs)
    try:
        return harness.run_experiment(manifest, root=root), None
    except _DOMAIN_ERRORS as exc:
        return None, f"{manifest.results.get('error', {}).get('stage', 'setup')}: {exc}"


def _bench_report(paths: list[str], outcomes, summary: str | None) -> bool:
    """Print (and record in ``summary``) each outcome as it arrives; True when any run failed."""
    failed = False
    for path, (manifest, error) in zip(paths, outcomes):
        if manifest is None:
            print(f"error: {path}: {error}", file=sys.stderr)
            failed = True
            continue
        if summary:
            harness.append_summary_csv(summary, manifest)
        held = manifest.results.get("heldout_metrics", {})
        print(f"{manifest.hash}  seed={manifest.seed}  err={held.get('err')}")
    return failed


def _cmd_replay(args) -> int:
    identical, manifest = harness.replay_run(args.run_dir)
    print(f"replay {manifest.hash}: {'byte-identical' if identical else 'MISMATCH'}")
    return 0 if identical else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="onesided", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of tables")

    p = sub.add_parser("construct", help="build an approximating polynomial with certificate")
    p.add_argument("--concept", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--kind", choices=["quarter", "onesided", "and-tradeoff", "dnf", "cnf"], required=True)
    p.add_argument("--sign", choices=["positive", "negative"], default="positive")
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("certify", help="re-check a stored polynomial against a concept")
    p.add_argument("--poly", required=True)
    p.add_argument("--concept", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--mode", choices=["positive", "negative", "twosided"], required=True)
    common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("mineps", help="LP oracle: degree vs minimal eps table")
    p.add_argument("--concept", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--mode", choices=["positive", "negative", "twosided"], required=True)
    p.add_argument("--dmax", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_mineps)

    p = sub.add_parser("learn", help="run a learner on CSV samples")
    p.add_argument("--train", required=True)
    p.add_argument("--calib", default=None)
    p.add_argument("--heldout", default=None)
    p.add_argument("--algo", required=True, choices=[name.replace("_", "-") for name in harness.LEARNERS])
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--W", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("plan", help="sample-size formula terms and their max")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--W", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("oracle", help="brute-force empirical optimum over a concept bank")
    p.add_argument("--sample", required=True)
    p.add_argument("--bank", choices=list(harness.BANKS), default="majority")
    p.add_argument("--mode", choices=["positive", "negative", "fully"], required=True)
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="execute manifest files, optionally in a worker pool")
    p.add_argument("manifests", nargs="+")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--root", default=None)
    p.add_argument("--summary", default=None, help="append one CSV row per run")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("replay", help="re-execute a run directory and compare bytes")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_replay)

    return parser


#: What a command reports as a domain error (exit code 1) instead of a traceback.
_DOMAIN_ERRORS = (InputError, ValueError, RuntimeError, OSError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
