"""Boolean cube points, concepts, labeled samples, and empirical error metrics.

Conventions used throughout the package:

* Points live on the cube {-1, +1}^n with +1 = True, -1 = False.
* ``sgn(t) = -1`` for ``t <= 0`` and ``+1`` otherwise, so a halfspace whose
  linear form evaluates to exactly 0 answers -1.
* Variables are 1-based.  A *signed literal* is a nonzero integer whose sign
  selects the polarity: ``+j`` is the literal x_j, ``-j`` is its negation.
* Partial classifiers answer -1, +1, or 0, where 0 encodes "abstain".
* Sides and modes are named by the tags :data:`POSITIVE`, :data:`NEGATIVE`,
  :data:`TWOSIDED` and :data:`FULLY`, shared by every module.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import DimensionError, InputError

Bits = Sequence[int]

POSITIVE, NEGATIVE, TWOSIDED, FULLY = "positive", "negative", "twosided", "fully"


@dataclass(frozen=True)
class CubePoint:
    """A single point of {-1, +1}^n."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (-1, 1) for b in self.bits):
            raise InputError(f"cube point entries must be -1 or +1, got {self.bits}")

    @property
    def n(self) -> int:
        return len(self.bits)


def as_bits(x: Union[CubePoint, Bits], n: int | None = None) -> tuple[int, ...]:
    """Coerce a point-like value to a validated tuple of +-1 entries."""
    bits = x.bits if isinstance(x, CubePoint) else tuple(int(b) for b in x)
    if any(b not in (-1, 1) for b in bits):
        raise InputError(f"cube point entries must be -1 or +1, got {bits}")
    if n is not None and len(bits) != n:
        raise DimensionError(f"point has {len(bits)} entries, expected {n}")
    return bits


def cube_matrix(n: int) -> np.ndarray:
    """All 2^n cube points as a (2^n, n) +-1 matrix.

    Rows are in lexicographic order over bit patterns with -1 < +1 and x_1 the
    most significant coordinate: row 0 is all -1, row 2^n - 1 is all +1.
    """
    if n < 0:
        raise InputError("dimension must be nonnegative")
    idx = np.arange(2**n, dtype=np.int64)
    cols = [(idx >> (n - j)) & 1 for j in range(1, n + 1)]
    return (np.stack(cols, axis=1).astype(np.int8) * 2 - 1) if n else np.zeros((1, 0), np.int8)


# ---------------------------------------------------------------------------
# Concepts


@dataclass(frozen=True)
class Disjunction:
    """OR of signed literals; the empty disjunction is identically -1."""

    n: int
    literals: tuple[int, ...]

    def __post_init__(self):
        _check_literals(self.literals, self.n)


@dataclass(frozen=True)
class Conjunction:
    """AND of signed literals; the empty conjunction is identically +1."""

    n: int
    literals: tuple[int, ...]

    def __post_init__(self):
        _check_literals(self.literals, self.n)


@dataclass(frozen=True)
class Majority:
    """Majority vote over a variable subset, ties answering -1."""

    n: int
    vars: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise InputError(f"duplicate variable in majority subset {self.vars}")
        if any(not 1 <= v <= self.n for v in self.vars):
            raise InputError(f"majority variables out of range [1, {self.n}]: {self.vars}")


@dataclass(frozen=True)
class Halfspace:
    """sgn(w0 + sum_i w_i x_i) with integer weights and sgn(0) = -1."""

    n: int
    w0: int
    w: tuple[int, ...]

    def __post_init__(self):
        if len(self.w) != self.n:
            raise DimensionError(f"halfspace has {len(self.w)} weights, declared n={self.n}")
        if self.weight < 1:
            raise InputError("halfspace weight |w0| + sum|w_i| must be >= 1")

    @property
    def weight(self) -> int:
        return abs(self.w0) + sum(abs(wi) for wi in self.w)


@dataclass(frozen=True)
class Dnf:
    """OR of AND-clauses; each clause is a tuple of signed literals.

    A variable appears at most once per clause.
    """

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            _check_clause(clause, self.n)


@dataclass(frozen=True)
class Cnf:
    """AND of OR-clauses; each clause is a tuple of signed literals.

    A variable appears at most once per clause.
    """

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            _check_clause(clause, self.n)


Concept = Union[Disjunction, Conjunction, Majority, Halfspace, Dnf, Cnf]

_CONCEPT_TYPES = (Disjunction, Conjunction, Majority, Halfspace, Dnf, Cnf)

#: Evaluable targets accepted by certification and metric helpers.
BoolFunc = Union[Concept, Callable[[tuple[int, ...]], int]]


def is_concept(x) -> bool:
    """Whether ``x`` is one of the concept classes (rather than a plain callable)."""
    return isinstance(x, _CONCEPT_TYPES)


def _check_literals(literals: Sequence[int], n: int) -> None:
    if len(set(literals)) != len(literals):
        raise InputError(f"duplicate signed literal in {literals}")
    for lit in literals:
        if lit == 0 or not 1 <= abs(lit) <= n:
            raise InputError(f"literal {lit} out of range for n={n}")


def _check_clause(literals: Sequence[int], n: int) -> None:
    _check_literals(literals, n)
    if len({abs(l) for l in literals}) != len(literals):
        raise InputError(f"variable repeated within clause {literals}")


def majority_as_halfspace(c: Majority) -> Halfspace:
    """The unit-weight halfspace computing a (nonempty) majority."""
    if not c.vars:
        raise InputError("the empty majority is constant -1, not a halfspace")
    w = tuple(1 if j in set(c.vars) else 0 for j in range(1, c.n + 1))
    return Halfspace(c.n, 0, w)


def constant_concept(n: int, value: int) -> Concept:
    """The constant -1 (empty disjunction) or +1 (tautological clause) concept."""
    if value == -1:
        return Disjunction(n, ())
    if value == 1:
        if n < 1:
            raise InputError("constant +1 concept needs n >= 1")
        return Disjunction(n, (1, -1))
    raise InputError("constant concept value must be -1 or +1")


def _literal_sat(lit: int, bits: Sequence[int]) -> bool:
    return bits[abs(lit) - 1] == (1 if lit > 0 else -1)


def eval_concept(c: Concept, x: Union[CubePoint, Bits]) -> int:
    """Evaluate a concept at a cube point, returning -1 or +1."""
    bits = as_bits(x, c.n)
    if isinstance(c, Disjunction):
        return 1 if any(_literal_sat(l, bits) for l in c.literals) else -1
    if isinstance(c, Conjunction):
        return 1 if all(_literal_sat(l, bits) for l in c.literals) else -1
    if isinstance(c, Majority):
        return 1 if sum(bits[v - 1] for v in c.vars) > 0 else -1
    if isinstance(c, Halfspace):
        t = c.w0 + sum(wi * b for wi, b in zip(c.w, bits))
        return 1 if t > 0 else -1
    if isinstance(c, Dnf):
        return 1 if any(all(_literal_sat(l, bits) for l in cl) for cl in c.clauses) else -1
    if isinstance(c, Cnf):
        return 1 if all(any(_literal_sat(l, bits) for l in cl) for cl in c.clauses) else -1
    raise TypeError(f"not a concept: {c!r}")


def eval_concept_batch(c: Concept, X: np.ndarray) -> np.ndarray:
    """Vectorized :func:`eval_concept` over the rows of a +-1 matrix."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != c.n:
        raise DimensionError(f"matrix has {X.shape[1] if X.ndim == 2 else '?'} columns, expected {c.n}")
    m = X.shape[0]
    if isinstance(c, (Disjunction, Conjunction)):
        sat = np.ones(m, dtype=bool) if isinstance(c, Conjunction) else np.zeros(m, dtype=bool)
        for lit in c.literals:
            hit = X[:, abs(lit) - 1] == (1 if lit > 0 else -1)
            sat = (sat & hit) if isinstance(c, Conjunction) else (sat | hit)
        return np.where(sat, 1, -1).astype(np.int8)
    if isinstance(c, Majority):
        s = X[:, [v - 1 for v in c.vars]].sum(axis=1) if c.vars else np.zeros(m)
        return np.where(s > 0, 1, -1).astype(np.int8)
    if isinstance(c, Halfspace):
        t = c.w0 + X.astype(np.int64) @ np.asarray(c.w, dtype=np.int64)
        return np.where(t > 0, 1, -1).astype(np.int8)
    if isinstance(c, (Dnf, Cnf)):
        outer_and = isinstance(c, Cnf)
        acc = np.ones(m, dtype=bool) if outer_and else np.zeros(m, dtype=bool)
        for clause in c.clauses:
            if outer_and:  # clause is an OR
                inner = np.zeros(m, dtype=bool)
                for lit in clause:
                    inner |= X[:, abs(lit) - 1] == (1 if lit > 0 else -1)
                acc &= inner
            else:  # clause is an AND
                inner = np.ones(m, dtype=bool)
                for lit in clause:
                    inner &= X[:, abs(lit) - 1] == (1 if lit > 0 else -1)
                acc |= inner
        return np.where(acc, 1, -1).astype(np.int8)
    raise TypeError(f"not a concept: {c!r}")


def eval_target(f: BoolFunc, bits: tuple[int, ...]) -> int:
    """Evaluate a concept or a plain +-1-valued callable at one point."""
    v = eval_concept(f, bits) if is_concept(f) else f(bits)
    if v not in (-1, 1):
        raise InputError(f"target returned {v!r}, expected -1 or +1")
    return v


def target_values(f: BoolFunc, X: np.ndarray) -> np.ndarray:
    """+-1 values (int8) of a concept or a plain callable target on the rows of X."""
    if is_concept(f):
        return eval_concept_batch(f, X)
    return np.array([eval_target(f, tuple(int(v) for v in row)) for row in X], dtype=np.int8)


# ---------------------------------------------------------------------------
# Concept text format


def format_concept(c: Concept) -> str:
    """Canonical one-line text encoding (also used as a deterministic sort key)."""

    def lits(ls: Iterable[int]) -> str:
        return " ".join(f"{l:+d}" for l in sorted(ls, key=lambda l: (abs(l), -l)))

    if isinstance(c, Majority):
        return ("MAJ " + " ".join(str(v) for v in sorted(c.vars))).strip()
    if isinstance(c, Disjunction):
        return ("DISJ " + lits(c.literals)).strip()
    if isinstance(c, Conjunction):
        return ("CONJ " + lits(c.literals)).strip()
    if isinstance(c, Halfspace):
        return "HALFSPACE " + " ".join(str(v) for v in (c.w0, *c.w))
    if isinstance(c, (Dnf, Cnf)):
        kw = "DNF" if isinstance(c, Dnf) else "CNF"
        body = "".join(f"({lits(cl)})" for cl in c.clauses)
        return f"{kw} {body}".strip()
    raise TypeError(f"not a concept: {c!r}")


def parse_concept(text: str, n: int | None = None) -> Concept:
    """Parse the one-concept-per-line text format.

    When ``n`` is omitted it defaults to the largest variable index mentioned
    (for HALFSPACE the weight count fixes it).
    """
    text = text.strip()
    if not text:
        raise InputError("empty concept text")
    kw, _, rest = text.partition(" ")
    kw = kw.upper()
    rest = rest.strip()

    def ints(s: str) -> list[int]:
        return [int(tok) for tok in s.split()] if s else []

    if kw == "HALFSPACE":
        ws = ints(rest)
        if not ws:
            raise InputError("HALFSPACE needs w0 and at least zero weights")
        dim = len(ws) - 1
        if n is not None and n != dim:
            raise DimensionError(f"HALFSPACE lists {dim} weights but n={n} given")
        return Halfspace(dim, ws[0], tuple(ws[1:]))
    if kw == "MAJ":
        vs = ints(rest)
        dim = n if n is not None else (max(vs) if vs else 1)
        return Majority(dim, tuple(sorted(vs)))
    if kw in ("DISJ", "CONJ"):
        ls = ints(rest)
        dim = n if n is not None else (max(abs(l) for l in ls) if ls else 1)
        cls = Disjunction if kw == "DISJ" else Conjunction
        return cls(dim, tuple(sorted(ls, key=lambda l: (abs(l), -l))))
    if kw in ("DNF", "CNF"):
        clauses = []
        body = rest
        while body:
            body = body.lstrip()
            if not body:
                break
            if body[0] != "(":
                raise InputError(f"expected '(' in {kw} clause list: {body!r}")
            close = body.index(")")
            clauses.append(tuple(ints(body[1:close])))
            body = body[close + 1:]
        allv = [abs(l) for cl in clauses for l in cl]
        dim = n if n is not None else (max(allv) if allv else 1)
        cls = Dnf if kw == "DNF" else Cnf
        return cls(dim, tuple(clauses))
    raise InputError(f"unknown concept keyword {kw!r}")


# ---------------------------------------------------------------------------
# Samples


@dataclass(frozen=True)
class LabeledSample:
    """A sequence of labeled cube points sharing one dimension."""

    points: np.ndarray  # (m, n) with +-1 entries
    labels: np.ndarray  # (m,) with +-1 entries
    n: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int8)
        lab = np.asarray(self.labels, dtype=np.int8)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise DimensionError(f"points shaped {pts.shape}, expected (m, {self.n})")
        if lab.shape != (pts.shape[0],):
            raise InputError("labels length must equal the number of points")
        if pts.size and not np.isin(pts, (-1, 1)).all():
            raise InputError("sample points must be +-1 valued")
        if lab.size and not np.isin(lab, (-1, 1)).all():
            raise InputError("labels must be +-1 valued")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", lab)

    @property
    def m(self) -> int:
        return int(self.points.shape[0])


def dedup(points: np.ndarray, labels: np.ndarray):
    """Distinct points (sorted) with their +1 and -1 label counts.

    Merging repeated points into counted rows keeps LP optima and empirical
    rates exact.
    """
    distinct, inverse = np.unique(points, axis=0, return_inverse=True)
    k = distinct.shape[0]
    pos = np.zeros(k, dtype=np.int64)
    negc = np.zeros(k, dtype=np.int64)
    np.add.at(pos, inverse[labels == 1], 1)
    np.add.at(negc, inverse[labels == -1], 1)
    return distinct, pos, negc


def make_sample(points: Iterable[Bits], labels: Iterable[int], n: int) -> LabeledSample:
    pts = np.array([as_bits(p, n) for p in points], dtype=np.int8).reshape(-1, n)
    return LabeledSample(pts, np.array(list(labels), dtype=np.int8), n)


def save_sample_csv(s: LabeledSample, path) -> None:
    """Write the sample CSV: header x1,...,xn,y then one +-1 row per example."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(1, s.n + 1)] + ["y"])
        for row, y in zip(s.points, s.labels):
            writer.writerow([int(v) for v in row] + [int(y)])


def load_sample_csv(path) -> LabeledSample:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "y":
            raise InputError("sample CSV must start with header x1,...,xn,y")
        n = len(header) - 1
        pts, labels = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != n + 1:
                raise InputError(f"CSV row has {len(row)} fields, expected {n + 1}")
            vals = [int(v) for v in row]
            pts.append(vals[:-1])
            labels.append(vals[-1])
    return make_sample(pts, labels, n)


# ---------------------------------------------------------------------------
# Hypotheses and error metrics


@dataclass(frozen=True)
class PartialHypothesis:
    """A total three-valued classifier; ``decide`` answers -1, 0 (abstain), or +1."""

    n: int
    decide: Callable[[tuple[int, ...]], int]
    decide_batch: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)


@dataclass(frozen=True)
class ErrorMetrics:
    false_pos: float
    false_neg: float
    err: float
    unknown_rate: float

    def to_json(self) -> dict:
        return asdict(self)


def _predictions(h, s: LabeledSample) -> np.ndarray:
    if is_concept(h):
        return eval_concept_batch(h, s.points)
    batch = getattr(h, "decide_batch", None)
    if batch is not None:
        return np.asarray(batch(s.points))
    decide = getattr(h, "decide", None) or h
    return np.array([decide(tuple(int(v) for v in row)) for row in s.points])


def empirical_metrics(h, s: LabeledSample) -> ErrorMetrics:
    """Unweighted empirical error rates of a (possibly partial) classifier.

    ``h`` may be a concept, a PartialHypothesis, any object with ``decide`` /
    ``decide_batch``, or a bare callable on bit tuples.
    """
    if s.m < 1:
        raise InputError("empirical metrics need at least one example")
    pred = _predictions(h, s)
    y = s.labels
    m = s.m
    return ErrorMetrics(
        false_pos=float(np.count_nonzero((pred == 1) & (y == -1))) / m,
        false_neg=float(np.count_nonzero((pred == -1) & (y == 1))) / m,
        err=float(np.count_nonzero(pred == -y)) / m,
        unknown_rate=float(np.count_nonzero(pred == 0)) / m,
    )
