"""Synthetic distributions, brute-force reliable baselines, and reproducible
experiment orchestration.

Randomness contract: every stream is a numpy ``Generator`` over ``PCG64``
seeded with ``SeedSequence([seed, stream])``, where ``stream`` is a fixed
small integer per run stage (train=1, calibration=2, heldout=3).  Draw order
inside :func:`generate` is fixed (points first, then one uniform vector for
label noise), so re-running a manifest reproduces identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .cube import (FULLY, NEGATIVE, POSITIVE, Concept, LabeledSample, Majority,
                   constant_concept, dedup, empirical_metrics, eval_concept_batch,
                   format_concept, parse_concept, save_sample_csv)
from .errors import InputError, ResourceLimitError
from .learn import (learn_agnostic_l1, learn_disjunction_positive, learn_fully_reliable,
                    learn_reliable)

GENERATOR_ID = "uniform-cube/pcg64"

TRAIN_STREAM, CALIB_STREAM, HELDOUT_STREAM = 1, 2, 3


# ---------------------------------------------------------------------------
# Noise models


@dataclass(frozen=True)
class NoiseModel:
    """Label noise applied on top of a planted concept.

    ``one_sided_positive(eta)`` flips labels only where the planted concept
    answers -1 (to +1), so the planted concept keeps a zero empirical
    false-positive rate on every draw; ``one_sided_negative`` mirrors it.
    ``adversarial_table`` replaces the whole joint distribution with an
    explicit finite table of (point, label, probability) rows.
    """

    kind: str = "none"
    eta: float = 0.0
    table: tuple[tuple[tuple[int, ...], int, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("none", "one_sided_positive", "one_sided_negative", "symmetric", "adversarial_table"):
            raise InputError(f"unknown noise kind {self.kind!r}")
        if self.kind.endswith("sided_positive") or self.kind in ("one_sided_negative", "symmetric"):
            if not 0 <= self.eta < 1:
                raise InputError("eta must lie in [0, 1)")
        if self.kind == "adversarial_table":
            if not self.table:
                raise InputError("adversarial_table needs a nonempty table")
            total = sum(prob for _, _, prob in self.table)
            if abs(total - 1.0) > 1e-9:
                raise InputError(f"table probabilities sum to {total}, expected 1")

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind in ("one_sided_positive", "one_sided_negative", "symmetric"):
            out["eta"] = self.eta
        if self.table is not None:
            out["table"] = [[list(p), y, prob] for p, y, prob in self.table]
        return out

    @staticmethod
    def from_json(obj: dict) -> "NoiseModel":
        table = obj.get("table")
        if table is not None:
            table = tuple((tuple(row[0]), int(row[1]), float(row[2])) for row in table)
        return NoiseModel(obj.get("kind", "none"), float(obj.get("eta", 0.0)), table)


def stage_rng(seed: int, stream: int) -> np.random.Generator:
    """The documented per-stage generator: PCG64(SeedSequence([seed, stream]))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(stream)])))


def generate(c: Concept, noise: NoiseModel, m: int, seed: int, stream: int = TRAIN_STREAM) -> LabeledSample:
    """Draw m labeled examples: uniform cube points, planted labels, then noise."""
    if m < 1:
        raise InputError("need m >= 1")
    rng = stage_rng(seed, stream)
    if noise.kind == "adversarial_table":
        rows = noise.table
        n = len(rows[0][0])
        probs = np.array([prob for _, _, prob in rows], dtype=np.float64)
        idx = rng.choice(len(rows), size=m, p=probs / probs.sum())
        pts = np.array([rows[i][0] for i in idx], dtype=np.int8)
        labels = np.array([rows[i][1] for i in idx], dtype=np.int8)
        return LabeledSample(pts, labels, n)
    X = (rng.integers(0, 2, size=(m, c.n)) * 2 - 1).astype(np.int8)
    y = eval_concept_batch(c, X).copy()
    if noise.kind != "none" and noise.eta > 0:
        u = rng.random(m)
        if noise.kind == "one_sided_positive":
            y[(y == -1) & (u < noise.eta)] = 1
        elif noise.kind == "one_sided_negative":
            y[(y == 1) & (u < noise.eta)] = -1
        elif noise.kind == "symmetric":
            flip = u < noise.eta
            y[flip] = -y[flip]
    return LabeledSample(X, y, c.n)


# ---------------------------------------------------------------------------
# Concept banks and brute-force optima


def majority_bank(n: int, cap: int = 14) -> list[Concept]:
    """Majorities over every variable subset (2^n concepts, incl. the empty
    subset, which is the constant -1)."""
    if n > cap:
        raise ResourceLimitError(f"majority bank enumerates 2^{n} concepts; cap is n={cap}")
    bank: list[Concept] = []
    for mask in range(2**n):
        vars_ = tuple(j + 1 for j in range(n) if (mask >> j) & 1)
        bank.append(Majority(n, vars_))
    return bank


def monotone_disjunction_bank(n: int, cap: int = 20) -> list[Concept]:
    """Monotone disjunctions over every variable subset (2^n concepts)."""
    if n > cap:
        raise ResourceLimitError(f"disjunction bank enumerates 2^{n} concepts; cap is n={cap}")
    from .cube import Disjunction

    return [
        Disjunction(n, tuple(j + 1 for j in range(n) if (mask >> j) & 1))
        for mask in range(2**n)
    ]


def _bank_eval(bank: Sequence[Concept], X: np.ndarray) -> np.ndarray:
    return np.stack([eval_concept_batch(c, X) for c in bank])


def brute_opt(s: LabeledSample, bank: Sequence[Concept], mode: str):
    """Exhaustive empirical optimum over a concept bank.

    ``positive``: minimal empirical false-negative rate among concepts with
    zero empirical false positives (include the constant -1 concept in the
    bank to keep the feasible set nonempty); ``negative`` mirrors.
    ``fully``: minimal abstain rate among concept pairs whose agreement
    classifier makes zero empirical errors; the search always includes the
    constant pair (always abstain), mirroring the feasibility guarantee.
    Ties break toward the lexicographically smallest concept encoding.
    Returns (optimal value, argmin concept) or, for ``fully``, a pair.
    """
    if s.m < 1:
        raise InputError("need a nonempty sample")
    if mode not in (POSITIVE, NEGATIVE, FULLY):
        raise InputError(f"mode must be positive, negative or fully, got {mode!r}")
    pts, npos, nneg = dedup(s.points, s.labels)
    m = s.m

    if mode == FULLY:
        work = list(bank)
        keys = {format_concept(c) for c in work}
        for sentinel in (constant_concept(s.n, -1), constant_concept(s.n, 1)):
            if format_concept(sentinel) not in keys:
                work.append(sentinel)
        E = _bank_eval(work, pts).astype(np.float64)
        w_err = np.where(E == 1, nneg, npos)  # per-concept error mass where agreement predicts E_i
        total = npos + nneg
        names = [format_concept(c) for c in work]
        best = None  # (value, name_i, name_j, i, j)
        for i in range(len(work)):
            # [E_j(x) == E_i(x)] = (1 + E_j(x) E_i(x)) / 2, so each masked sum over
            # the points is one mat-vec; all terms are integers, so float64 is exact
            err = (w_err[i].sum() + E @ (E[i] * w_err[i])) / 2
            unk = (m - (total.sum() + E @ (E[i] * total)) / 2) / m
            for j in np.flatnonzero(err == 0):
                cand = (float(unk[j]), *sorted((names[i], names[j])), i, int(j))
                if best is None or cand[:3] < best[:3]:
                    best = cand
        value, _, _, i, j = best
        return value, (work[i], work[j])

    E = _bank_eval(bank, pts).astype(np.int8)
    fp_mass = ((E == 1) * nneg).sum(axis=1)
    fn_mass = ((E == -1) * npos).sum(axis=1)
    feas = fp_mass == 0 if mode == POSITIVE else fn_mass == 0
    value_mass = fn_mass if mode == POSITIVE else fp_mass
    if not feas.any():
        raise InputError("no feasible concept in the bank; include the suitable constant concept")
    best = None
    for i in np.flatnonzero(feas):
        cand = (value_mass[i] / m, format_concept(bank[i]), i)
        if best is None or cand[:2] < best[:2]:
            best = cand
    return float(best[0]), bank[best[2]]


# ---------------------------------------------------------------------------
# Learner registry


def _disjunction(train, calib, d, W, eps):
    hyp = learn_disjunction_positive(train)
    return hyp, {}, {"concept": format_concept(hyp)}


def _reliable(sign: str):
    def fit(train, calib, d, W, eps):
        hyp, rep = learn_reliable(train, d, W, eps, sign, calib)
        return hyp, {"fit": rep.__dict__}, hyp.to_json()

    return fit


def _fully_reliable(train, calib, d, W, eps):
    hyp, reps = learn_fully_reliable(train, d, W, eps, calib)
    hyp_json = {"kind": "agreement", "note": "pair of thresholded one-sided hypotheses"}
    return hyp, {k: v.__dict__ for k, v in reps.items()}, hyp_json


def _agnostic_l1(train, calib, d, W, eps):
    hyp, rep = learn_agnostic_l1(train, d, W, calib)
    return hyp, {"fit": rep.__dict__}, hyp.to_json()


#: algo name -> (needs a calibration sample, trainer).
LEARNERS = {
    "disjunction": (False, _disjunction),
    "reliable_positive": (True, _reliable(POSITIVE)),
    "reliable_negative": (True, _reliable(NEGATIVE)),
    "fully_reliable": (True, _fully_reliable),
    "agnostic_l1": (True, _agnostic_l1),
}


def train_learner(algo: str, train: LabeledSample, calib: LabeledSample | None,
                  d: int, W: float, eps: float) -> tuple[object, dict, dict]:
    """Run a registered learner: (hypothesis, fit reports as dicts, hypothesis JSON).

    The reports are ``{"fit": ...}`` for a single LP fit, one entry per side
    for the fully reliable learner, and empty for the disjunction eliminator.
    """
    if algo not in LEARNERS:
        raise InputError(f"unknown learner algo {algo!r}")
    needs_calib, trainer = LEARNERS[algo]
    if needs_calib and calib is None:
        raise InputError(f"learner {algo!r} needs a calibration sample")
    return trainer(train, calib, d, W, eps)


# ---------------------------------------------------------------------------
# Experiment manifests


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def manifest_hash(manifest: dict) -> str:
    return hashlib.sha256(canonical_json(manifest).encode()).hexdigest()[:16]


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_root(explicit: str | None = None) -> Path:
    """Run directory root: explicit argument, else $ONESIDED_RUN_ROOT, else ./runs."""
    return Path(explicit or os.environ.get("ONESIDED_RUN_ROOT", "runs"))


@dataclass
class RunManifest:
    """Inputs and outcome of one experiment; replay must be byte-identical."""

    seed: int
    concept: str
    noise: NoiseModel
    learner: dict
    samples: dict
    generator: str = GENERATOR_ID
    oracle: dict | None = None
    results: dict = field(default_factory=dict)
    artifact_hashes: dict = field(default_factory=dict)

    def inputs_json(self) -> dict:
        obj = {
            "seed": self.seed,
            "generator": self.generator,
            "concept": self.concept,
            "noise": self.noise.to_json(),
            "learner": self.learner,
            "samples": self.samples,
        }
        if self.oracle is not None:
            obj["oracle"] = self.oracle
        return obj

    @staticmethod
    def from_json(obj: dict) -> "RunManifest":
        return RunManifest(
            seed=int(obj["seed"]),
            concept=obj["concept"],
            noise=NoiseModel.from_json(obj["noise"]),
            learner=dict(obj["learner"]),
            samples=dict(obj["samples"]),
            generator=obj.get("generator", GENERATOR_ID),
            oracle=obj.get("oracle"),
        )

    @property
    def hash(self) -> str:
        return manifest_hash(self.inputs_json())


def run_experiment(manifest: RunManifest | dict, root: str | None = None, persist: bool = True) -> RunManifest:
    """Generate data, train the requested learner, evaluate held out, persist.

    The run directory is content-addressed by the hash of the input manifest;
    it receives ``manifest.json`` (inputs), ``result.json`` (metrics and
    artifact hashes, canonically serialized), ``hypothesis.json``, and
    ``sample.csv`` (the training sample).  Any stage failure is recorded in
    the results under its stage tag before the error propagates.
    """
    if isinstance(manifest, dict):
        manifest = RunManifest.from_json(manifest)
    concept = parse_concept(manifest.concept)
    stage = "setup"
    try:
        stage = "generate"
        m_train = int(manifest.samples.get("train", 0))
        m_calib = int(manifest.samples.get("calib", 0))
        m_held = int(manifest.samples.get("heldout", 0))
        train = generate(concept, manifest.noise, m_train, manifest.seed, TRAIN_STREAM)
        calib = generate(concept, manifest.noise, m_calib, manifest.seed, CALIB_STREAM) if m_calib else None
        held = generate(concept, manifest.noise, m_held, manifest.seed, HELDOUT_STREAM) if m_held else None

        stage = "learn"
        learner = manifest.learner
        hyp, reports, hyp_json = train_learner(
            learner["algo"], train, calib, int(learner.get("d", 1)), float(learner.get("W", 1.0)),
            float(learner.get("eps", 0.1)))

        stage = "evaluate"
        results: dict = {"reports": reports}
        results["train_metrics"] = empirical_metrics(hyp, train).to_json()
        if held is not None:
            results["heldout_metrics"] = empirical_metrics(hyp, held).to_json()

        stage = "oracle"
        if manifest.oracle and held is not None:
            bank_name = manifest.oracle.get("bank", "majority")
            mode = manifest.oracle.get("mode", POSITIVE)
            bank = majority_bank(concept.n) if bank_name == "majority" else monotone_disjunction_bank(concept.n)
            opt_value, arg = brute_opt(held, bank, mode)
            arg_enc = [format_concept(a) for a in arg] if isinstance(arg, tuple) else format_concept(arg)
            results["oracle"] = {"bank": bank_name, "mode": mode, "opt": opt_value, "argmin": arg_enc}

        manifest.results = results
    except Exception as exc:
        manifest.results = dict(manifest.results or {})
        manifest.results["error"] = {"stage": stage, "message": str(exc)}
        if persist:
            _persist(manifest, None, None, root)
        raise
    if persist:
        _persist(manifest, hyp_json, train, root)
    return manifest


def _persist(manifest: RunManifest, hyp_json: dict | None, train: LabeledSample | None, root: str | None) -> None:
    run_dir = run_root(root) / manifest.hash
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "manifest.json").write_text(canonical_json(manifest.inputs_json()) + "\n")
    if hyp_json is not None:
        (run_dir / "hypothesis.json").write_text(canonical_json(hyp_json) + "\n")
    if train is not None:
        save_sample_csv(train, run_dir / "sample.csv")
    hashes = {}
    for name in ("manifest.json", "hypothesis.json", "sample.csv"):
        path = run_dir / name
        if path.exists():
            hashes[name] = _file_sha256(path)
    manifest.artifact_hashes = hashes
    result = {"results": manifest.results, "artifact_hashes": hashes}
    (run_dir / "result.json").write_text(canonical_json(result) + "\n")


def replay_run(run_dir: str | Path, root: str | None = None) -> tuple[bool, RunManifest]:
    """Re-execute a stored manifest and compare result.json byte-for-byte."""
    run_dir = Path(run_dir)
    manifest = RunManifest.from_json(json.loads((run_dir / "manifest.json").read_text()))
    old = (run_dir / "result.json").read_bytes()
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        redone = run_experiment(manifest, root=tmp)
        new = (Path(tmp) / redone.hash / "result.json").read_bytes()
    return old == new, redone


def append_summary_csv(path: str | Path, manifest: RunManifest) -> None:
    """Append one row per run to a sweep summary CSV (header written once)."""
    import csv

    path = Path(path)
    fields = ["hash", "seed", "concept", "algo", "false_pos", "false_neg", "err", "unknown_rate", "opt"]
    new = not path.exists()
    held = manifest.results.get("heldout_metrics", {})
    row = {
        "hash": manifest.hash,
        "seed": manifest.seed,
        "concept": manifest.concept,
        "algo": manifest.learner.get("algo"),
        "false_pos": held.get("false_pos"),
        "false_neg": held.get("false_neg"),
        "err": held.get("err"),
        "unknown_rate": held.get("unknown_rate"),
        "opt": manifest.results.get("oracle", {}).get("opt"),
    }
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        if new:
            writer.writeheader()
        writer.writerow(row)
