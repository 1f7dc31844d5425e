"""Synthetic distributions, brute-force reliable baselines, and reproducible
experiment orchestration.

Randomness contract: every stream is a numpy ``Generator`` over ``PCG64``
seeded with ``SeedSequence([seed, stream])``, where ``stream`` is a fixed
small integer per run stage (train=1, calibration=2, heldout=3).  Draw order
inside :func:`generate` is fixed (points first, then one uniform vector for
label noise), so re-running a manifest reproduces identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .cube import (FULLY, NEGATIVE, POSITIVE, Concept, Disjunction, LabeledSample, Majority,
                   constant_concept, empirical_metrics, eval_concept_batch,
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
            bad = [prob for _, _, prob in self.table if not prob >= 0]  # NaN fails >= too
            if bad:
                raise InputError(f"table probabilities must be >= 0, got {bad[0]}")
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
            table = tuple((tuple(row[0]), row[1], float(row[2])) for row in table)
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
        for point, _, _ in rows:
            if len(point) != c.n:
                raise InputError(f"table point {list(point)} has {len(point)} entries, the concept has n={c.n}")
        probs = np.array([prob for _, _, prob in rows], dtype=np.float64)
        idx = rng.choice(len(rows), size=m, p=probs / probs.sum())
        return LabeledSample(np.array([rows[i][0] for i in idx]), np.array([rows[i][1] for i in idx]), c.n)
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


def _subset_bank(kind, n: int, cap: int, name: str) -> list[Concept]:
    """``kind(n, subset)`` for every variable subset, in mask order (bit j selects x_{j+1})."""
    if n > cap:
        raise ResourceLimitError(f"{name} bank enumerates 2^{n} concepts; cap is n={cap}")
    return [kind(n, tuple(j + 1 for j in range(n) if (mask >> j) & 1)) for mask in range(2**n)]


def majority_bank(n: int) -> list[Concept]:
    """Majorities over every variable subset (2^n concepts, incl. the empty
    subset, which is the constant -1); the cap is n = 14."""
    return _subset_bank(Majority, n, 14, "majority")


def monotone_disjunction_bank(n: int) -> list[Concept]:
    """Monotone disjunctions over every variable subset (2^n concepts); the cap is n = 20."""
    return _subset_bank(Disjunction, n, 20, "disjunction")


#: oracle bank name -> bank builder over n variables.
BANKS = {"majority": majority_bank, "monotone-disjunction": monotone_disjunction_bank}


#: Bank rows per matrix product in the ``fully`` search.  The whole k x k product over the
#: MAJ_9 bank (514 concepts) raised the learn-maj9 benchmark's peak RSS by 6 MB; 64 rows by
#: under 1 MB, at the same speed.
_FULLY_BLOCK = 64


def _bank_eval(bank: Sequence[Concept], X: np.ndarray) -> np.ndarray:
    """Each concept's values at the rows of a +-1 matrix X, one int8 row per concept.

    The bank's majorities are one product of their 0/1 variable masks against X, and its
    disjunctions one product of their 0/1 literal masks against the literal indicators
    [X == 1 | X == -1].  Each entry sums at most 2n small integers, so float32 is exact.  A majority
    answers +1 iff its sum is > 0, so a tie and the empty majority answer -1; a disjunction iff a
    literal holds.  Any other concept is evaluated on its own.
    """
    n = X.shape[1]
    E = np.empty((len(bank), X.shape[0]), dtype=np.int8)
    # per kind: the mask columns of a concept, and the matrix the masks multiply
    kinds = {Majority: (lambda c: [v - 1 for v in c.vars], X),
             Disjunction: (lambda c: [l - 1 if l > 0 else n - l - 1 for l in c.literals],
                           np.hstack([X == 1, X == -1]))}
    for kind, (columns, values) in kinds.items():
        rows = [i for i, c in enumerate(bank) if isinstance(c, kind)]
        masks = np.zeros((len(rows), values.shape[1]), dtype=np.float32)
        for r, i in enumerate(rows):
            masks[r, columns(bank[i])] = 1.0
        E[rows] = np.where(masks @ values.T.astype(np.float32) > 0, np.int8(1), np.int8(-1))
    batched = tuple(kinds)
    for i, c in enumerate(bank):
        if not isinstance(c, batched):
            E[i] = eval_concept_batch(c, X)
    return E


def brute_opt(s: LabeledSample, bank: Sequence[Concept], mode: str):
    """Exhaustive empirical optimum over a concept bank.

    ``positive``: minimal empirical false-negative rate among concepts with
    zero empirical false positives; when no bank concept has none, the
    constant -1 concept (always feasible) and its rate; ``negative`` mirrors
    with the constant +1.
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
    pts, npos, nneg = s.deduped
    m = s.m

    if mode == FULLY:
        work = list(bank)
        keys = {format_concept(c) for c in work}
        for sentinel in (constant_concept(s.n, -1), constant_concept(s.n, 1)):
            if format_concept(sentinel) not in keys:
                work.append(sentinel)
        E = _bank_eval(work, pts).astype(np.float64)
        total = npos + nneg
        # rank[i] orders the names, so (min, max) of two ranks orders their sorted pair of names
        names = [format_concept(c) for c in work]
        rank = np.unique(names, return_inverse=True)[1]
        best = None  # (value, low rank, high rank, i, j)
        for lo in range(0, len(work), _FULLY_BLOCK):
            blk = slice(lo, lo + _FULLY_BLOCK)
            # [E_j(x) == E_i(x)] = (1 + E_j(x) E_i(x)) / 2, so the masked sums over the points
            # for a block of rows i are matrix products; all terms are integers, so float64 is exact
            w_err = np.where(E[blk] == 1, nneg, npos)  # error mass where agreement predicts E_i
            err = (w_err.sum(axis=1)[:, None] + (E[blk] * w_err) @ E.T) / 2
            ii, jj = np.nonzero(err == 0)
            if not len(ii):
                continue
            unk = (m - (total.sum() + (E[blk] * total) @ E.T)[ii, jj] / 2) / m
            ii += lo
            low, high = np.minimum(rank[ii], rank[jj]), np.maximum(rank[ii], rank[jj])
            k = np.lexsort((jj, ii, high, low, unk))[0]  # ties go to the first pair in (i, j) order
            cand = (float(unk[k]), int(low[k]), int(high[k]), int(ii[k]), int(jj[k]))
            best = cand if best is None or cand < best else best
        value, _, _, i, j = best
        return value, (work[i], work[j])

    E = _bank_eval(bank, pts).astype(np.int8)
    fp_mass = ((E == 1) * nneg).sum(axis=1)
    fn_mass = ((E == -1) * npos).sum(axis=1)
    feas = fp_mass == 0 if mode == POSITIVE else fn_mass == 0
    value_mass = fn_mass if mode == POSITIVE else fp_mass
    if not feas.any():  # the mode's constant is feasible and no concept's value exceeds its value
        value = (npos if mode == POSITIVE else nneg).sum() / m
        return float(value), constant_concept(s.n, -1 if mode == POSITIVE else 1)
    best = None
    for i in np.flatnonzero(feas):
        cand = (value_mass[i] / m, format_concept(bank[i]), i)
        if best is None or cand[:2] < best[:2]:
            best = cand
    return float(best[0]), bank[best[2]]


def oracle_record(s: LabeledSample, bank_name: str, mode: str) -> dict:
    """The brute-force optimum of ``s`` over the bank ``BANKS[bank_name]``, as the record a run
    stores: bank, mode, optimal value and the argmin's concept encoding (a list of two for
    ``fully``)."""
    if bank_name not in BANKS:
        raise InputError(f"unknown oracle bank {bank_name!r}; expected one of {sorted(BANKS)}")
    value, arg = brute_opt(s, BANKS[bank_name](s.n), mode)
    argmin = [format_concept(a) for a in arg] if isinstance(arg, tuple) else format_concept(arg)
    return {"bank": bank_name, "mode": mode, "opt": value, "argmin": argmin}


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
    oracle: dict | None = None
    results: dict = field(default_factory=dict)
    artifact_hashes: dict = field(default_factory=dict)

    def inputs_json(self) -> dict:
        obj = {
            "seed": self.seed,
            "generator": GENERATOR_ID,
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
        if obj.get("generator", GENERATOR_ID) != GENERATOR_ID:
            raise InputError(f"unknown generator {obj['generator']!r}; the only generator is {GENERATOR_ID!r}")
        return RunManifest(
            seed=int(obj["seed"]),
            concept=obj["concept"],
            noise=NoiseModel.from_json(obj["noise"]),
            learner=dict(obj["learner"]),
            samples=dict(obj["samples"]),
            oracle=obj.get("oracle"),
        )

    @property
    def hash(self) -> str:
        return manifest_hash(self.inputs_json())


def run_experiment(manifest: RunManifest | dict, root: str | None = None) -> RunManifest:
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
            results["oracle"] = oracle_record(held, manifest.oracle.get("bank", "majority"),
                                              manifest.oracle.get("mode", POSITIVE))

        manifest.results = results
    except Exception as exc:
        manifest.results = dict(manifest.results or {})
        manifest.results["error"] = {"stage": stage, "message": str(exc)}
        _persist(manifest, None, None, root)
        raise
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


def replay_run(run_dir: str | Path) -> tuple[bool, RunManifest]:
    """Re-execute a stored manifest and compare result.json byte-for-byte."""
    run_dir = Path(run_dir)
    manifest = RunManifest.from_json(json.loads((run_dir / "manifest.json").read_text()))
    old = (run_dir / "result.json").read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        redone = run_experiment(manifest, root=tmp)
        new = (Path(tmp) / redone.hash / "result.json").read_bytes()
    return old == new, redone


def append_summary_csv(path: str | Path, manifest: RunManifest) -> None:
    """Append one row per run to a sweep summary CSV (header written once)."""
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
