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
import operator
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union, get_args

import numpy as np

from .errors import DimensionError, InputError

Bits = Sequence[int]

POSITIVE, NEGATIVE, TWOSIDED, FULLY = "positive", "negative", "twosided", "fully"

#: Cap on the dimension of every path that spans the whole cube (2^24 points).
CUBE_CAP = 24


_BITS = frozenset({-1, 1})


def as_bits(x: Bits, n: int) -> tuple[int, ...]:
    """Validate a sequence of n +-1 entries, then coerce it to a tuple of ints."""
    raw = tuple(x)
    try:
        valid = _BITS.issuperset(raw)  # entries equal to -1 or +1, such as numpy ints, 1.0 or True
    except TypeError:  # an unhashable entry is no cube coordinate either
        valid = False
    if not valid:
        raise InputError(f"cube point entries must be -1 or +1, got {raw}")
    if len(raw) != n:
        raise DimensionError(f"point has {len(raw)} entries, expected {n}")
    return tuple(map(int, raw))


def store_integer_weights(form) -> None:
    """Store the fields w0 and w of a frozen linear form (a halfspace or an affine form) as a
    Python int and a tuple of them; any value that is not an integer (a Fraction or a float,
    even an integral one) raises InputError."""
    try:
        w0, w = operator.index(form.w0), tuple(map(operator.index, form.w))
    except TypeError:
        raise InputError(f"weights must be integers, got w0={form.w0!r}, w={form.w!r}") from None
    object.__setattr__(form, "w0", w0)
    object.__setattr__(form, "w", w)


def linear_form(X: np.ndarray, w0: int, w: Sequence[int]) -> np.ndarray:
    """w0 + X @ w in int64 over the rows of a +-1 int8 matrix, one column gather per
    distinct nonzero weight, so X is never copied to int64 (eight times its size)."""
    cols: dict[int, list[int]] = {}
    for j, wj in enumerate(w):
        if wj:
            cols.setdefault(wj, []).append(j)
    t = np.full(X.shape[0], w0, dtype=np.int64)
    for wj, js in cols.items():
        s = X[:, js].sum(axis=1, dtype=np.int64)
        t += s if wj == 1 else wj * s
    return t


def cube_matrix(n: int) -> np.ndarray:
    """All 2^n cube points as a (2^n, n) +-1 matrix.

    Rows are in lexicographic order over bit patterns with -1 < +1 and x_1 the
    most significant coordinate: row 0 is all -1, row 2^n - 1 is all +1.
    """
    if n < 0:
        raise InputError("dimension must be nonnegative")
    X = np.empty((2**n, n), dtype=np.int8)
    for j in range(n):
        runs = X[:, j].reshape(-1, 2, 2 ** (n - 1 - j))  # a view: column j alternates runs of -1 and +1
        runs[:, 0], runs[:, 1] = -1, 1
    return X


# ---------------------------------------------------------------------------
# Concepts


@dataclass(frozen=True)
class _Literals:
    """The literal-list shape: signed literals over n variables, none repeated (a variable may
    appear in both polarities).  ``clauses`` views it as one clause, the view that the
    evaluators share with the clause-list shape."""

    n: int
    literals: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "literals", _signed_literals(self.literals, self.n))

    @property
    def clauses(self) -> tuple[tuple[int, ...]]:
        return (self.literals,)


@dataclass(frozen=True)
class _Clauses:
    """The clause-list shape: clauses of signed literals over n variables, each clause naming a
    variable at most once."""

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        clauses = tuple(_signed_literals(clause, self.n) for clause in self.clauses)
        for clause in clauses:
            if len({abs(l) for l in clause}) != len(clause):
                raise InputError(f"variable repeated within clause {clause}")
        object.__setattr__(self, "clauses", clauses)


class Disjunction(_Literals):
    """OR of signed literals; the empty disjunction is identically -1."""


class Conjunction(_Literals):
    """AND of signed literals; the empty conjunction is identically +1."""


@dataclass(frozen=True)
class Majority:
    """Majority vote over a variable subset, ties answering -1."""

    n: int
    vars: tuple[int, ...]
    w0 = 0  # not a field: with ``w``, the threshold view sgn(w0 + w.x) with unit weights on vars

    def __post_init__(self):
        vs = _int_tuple(self.vars, "majority variables")
        if len(set(vs)) != len(vs):
            raise InputError(f"duplicate variable in majority subset {vs}")
        if vs and not 1 <= min(vs) <= max(vs) <= self.n:
            raise InputError(f"majority variables out of range [1, {self.n}]: {vs}")
        object.__setattr__(self, "vars", vs)

    @cached_property
    def w(self) -> tuple[int, ...]:
        return tuple(int(j in self.vars) for j in range(1, self.n + 1))


@dataclass(frozen=True)
class Halfspace:
    """sgn(w0 + sum_i w_i x_i) with integer weights and sgn(0) = -1."""

    n: int
    w0: int
    w: tuple[int, ...]

    def __post_init__(self):
        store_integer_weights(self)
        if len(self.w) != self.n:
            raise DimensionError(f"halfspace has {len(self.w)} weights, declared n={self.n}")
        if self.weight < 1:
            raise InputError("halfspace weight |w0| + sum|w_i| must be >= 1")

    @property
    def weight(self) -> int:
        return abs(self.w0) + sum(abs(wi) for wi in self.w)


class Dnf(_Clauses):
    """OR of AND-clauses; each clause is a tuple of signed literals.

    A variable appears at most once per clause.
    """


class Cnf(_Clauses):
    """AND of OR-clauses; each clause is a tuple of signed literals.

    A variable appears at most once per clause.
    """


Concept = Union[Disjunction, Conjunction, Majority, Halfspace, Dnf, Cnf]

_CONCEPT_TYPES = get_args(Concept)

#: Evaluable targets accepted by certification and metric helpers.
BoolFunc = Union[Concept, Callable[[tuple[int, ...]], int]]


def is_concept(x) -> bool:
    """Whether ``x`` is one of the concept classes (rather than a plain callable)."""
    return isinstance(x, _CONCEPT_TYPES)


def _int_tuple(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as a tuple of Python ints; one that is not an integer (1.5, or even 1.0) raises
    InputError, as in :func:`store_integer_weights`."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise InputError(f"{what} must be integers, got {values!r}") from None


def _signed_literals(literals: Iterable[int], n: int) -> tuple[int, ...]:
    """The literals as a tuple of Python ints, each naming a variable in [1, n], none repeated."""
    lits = _int_tuple(literals, "literals")
    if len(set(lits)) != len(lits):
        raise InputError(f"duplicate signed literal in {lits}")
    for lit in lits:
        if lit == 0 or not 1 <= abs(lit) <= n:
            raise InputError(f"literal {lit} out of range for n={n}")
    return lits


def majority_as_halfspace(c: Majority) -> Halfspace:
    """The unit-weight halfspace computing a (nonempty) majority."""
    if not c.vars:
        raise InputError("the empty majority is constant -1, not a halfspace")
    return Halfspace(c.n, 0, c.w)


def constant_concept(n: int, value: int) -> Concept:
    """The constant -1 (empty disjunction) or +1 (tautological clause) concept."""
    if value == -1:
        return Disjunction(n, ())
    if value == 1:
        if n < 1:
            raise InputError("constant +1 concept needs n >= 1")
        return Disjunction(n, (1, -1))
    raise InputError("constant concept value must be -1 or +1")


#: The clause formulas read as an AND of OR-clauses; the others are an OR of AND-clauses.
_CNF_SHAPED = (Disjunction, Cnf)


def _literal_sat(lit: int, bits: Sequence[int]) -> bool:
    return bits[abs(lit) - 1] == (1 if lit > 0 else -1)


def eval_concept(c: Concept, x: Bits) -> int:
    """Evaluate a concept at a cube point, returning -1 or +1."""
    bits = as_bits(x, c.n)
    if isinstance(c, (Halfspace, Majority)):
        return 1 if c.w0 + sum(map(operator.mul, c.w, bits)) > 0 else -1
    if not is_concept(c):
        raise TypeError(f"not a concept: {c!r}")
    inner, outer = (any, all) if isinstance(c, _CNF_SHAPED) else (all, any)
    return 1 if outer(inner(_literal_sat(l, bits) for l in cl) for cl in c.clauses) else -1


def eval_concept_batch(c: Concept, X: np.ndarray) -> np.ndarray:
    """Vectorized :func:`eval_concept` over the rows of a +-1 matrix, in two branches.

    Thresholds: a majority is the unit-weight linear form (the empty one answers -1).
    Clause formulas: a disjunction is a one-clause CNF and a conjunction a one-clause DNF.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != c.n:
        raise DimensionError(f"matrix has {X.shape[1] if X.ndim == 2 else '?'} columns, expected {c.n}")
    if isinstance(c, (Halfspace, Majority)):
        return np.where(linear_form(X, c.w0, c.w) > 0, 1, -1).astype(np.int8)
    if not is_concept(c):
        raise TypeError(f"not a concept: {c!r}")
    cnf = isinstance(c, _CNF_SHAPED)
    inner, outer = (np.logical_or, np.logical_and) if cnf else (np.logical_and, np.logical_or)
    sat = np.full(X.shape[0], cnf)
    for clause in c.clauses:
        hit = np.full(X.shape[0], not cnf)  # the empty clause: false in a CNF, true in a DNF
        for lit in clause:
            inner(hit, X[:, abs(lit) - 1] == (1 if lit > 0 else -1), out=hit)
        outer(sat, hit, out=sat)
    return np.where(sat, 1, -1).astype(np.int8)


def target_values(f: BoolFunc, X: np.ndarray) -> np.ndarray:
    """+-1 values (int8) of a concept or a plain callable target on the rows of X.

    A callable is called with each row as a tuple of ints and must answer -1 or +1.
    """
    if is_concept(f):
        return eval_concept_batch(f, X)
    values = [f(tuple(row)) for row in np.asarray(X).tolist()]
    for v in values:
        if v not in (-1, 1):
            raise InputError(f"target returned {v!r}, expected -1 or +1")
    return np.array(values, dtype=np.int8)


# ---------------------------------------------------------------------------
# Concept text format


#: Each concept class's keyword in the text format.
_KEYWORDS = {Disjunction: "DISJ", Conjunction: "CONJ", Majority: "MAJ", Halfspace: "HALFSPACE",
             Dnf: "DNF", Cnf: "CNF"}


def _text_order(literals: Iterable[int]) -> list[int]:
    """Signed literals in text order: by variable, the positive literal first."""
    return sorted(literals, key=lambda l: (abs(l), -l))


def format_concept(c: Concept) -> str:
    """Canonical one-line text encoding (also used as a deterministic sort key)."""

    def lits(ls: Iterable[int]) -> str:
        return " ".join(f"{l:+d}" for l in _text_order(ls))

    kw = next((kw for cls, kw in _KEYWORDS.items() if isinstance(c, cls)), None)
    if kw is None:
        raise TypeError(f"not a concept: {c!r}")
    if isinstance(c, Halfspace):
        body = " ".join(str(v) for v in (c.w0, *c.w))
    elif isinstance(c, Majority):
        body = " ".join(str(v) for v in sorted(c.vars))
    elif isinstance(c, _Literals):
        body = lits(c.literals)
    else:
        body = "".join(f"({lits(cl)})" for cl in c.clauses)
    return f"{kw} {body}".rstrip()


def parse_concept(text: str, n: int | None = None) -> Concept:
    """Parse the one-concept-per-line text format: a keyword, whitespace, then its body.

    When ``n`` is omitted it defaults to the largest variable index mentioned
    (for HALFSPACE the weight count fixes it).
    """
    text = text.strip()
    if not text:
        raise InputError("empty concept text")
    words = text.split(maxsplit=1)
    kw, rest = words[0].upper(), words[1] if len(words) == 2 else ""
    cls = {word: cls for cls, word in _KEYWORDS.items()}.get(kw)
    if cls is None:
        raise InputError(f"unknown concept keyword {kw!r}")

    def ints(s: str) -> list[int]:
        return _parse_ints(s.split(), f"concept text {text!r}")

    if cls is Halfspace:
        ws = ints(rest)
        if not ws:
            raise InputError("HALFSPACE needs w0 and at least zero weights")
        dim = len(ws) - 1
        if n is not None and n != dim:
            raise DimensionError(f"HALFSPACE lists {dim} weights but n={n} given")
        return Halfspace(dim, ws[0], tuple(ws[1:]))
    if issubclass(cls, _Clauses):
        fields = []
        body = rest.lstrip()
        while body:
            if body[0] != "(":
                raise InputError(f"expected '(' in {kw} clause list: {body!r}")
            close = body.find(")")
            if close < 0:
                raise InputError(f"unclosed clause in {kw} clause list: {body!r}")
            fields.append(tuple(ints(body[1:close])))
            body = body[close + 1:].lstrip()
        mentioned = [l for clause in fields for l in clause]
    else:
        fields = mentioned = (sorted if cls is Majority else _text_order)(ints(rest))
    dim = n if n is not None else max((abs(l) for l in mentioned), default=1)
    return cls(dim, tuple(fields))


def _parse_ints(tokens: Iterable[str], where: str) -> list[int]:
    """The tokens as ints; the first that is not an integer raises InputError naming it and where."""
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise InputError(f"{where}: {tok!r} is not an integer") from None
    return values


# ---------------------------------------------------------------------------
# Samples


@dataclass(frozen=True)
class LabeledSample:
    """A sequence of labeled cube points sharing one dimension."""

    points: np.ndarray  # (m, n) with +-1 entries
    labels: np.ndarray  # (m,) with +-1 entries
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"sample dimension must be >= 1, got n={self.n}")
        pts, lab = np.asarray(self.points), np.asarray(self.labels)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise DimensionError(f"points shaped {pts.shape}, expected (m, {self.n})")
        if lab.shape != (pts.shape[0],):
            raise InputError("labels length must equal the number of points")
        if pts.size and not np.isin(pts, (-1, 1)).all():
            raise InputError("sample points must be +-1 valued")
        if lab.size and not np.isin(lab, (-1, 1)).all():
            raise InputError("labels must be +-1 valued")
        object.__setattr__(self, "points", pts.astype(np.int8, copy=False))
        object.__setattr__(self, "labels", lab.astype(np.int8, copy=False))

    @property
    def m(self) -> int:
        return int(self.points.shape[0])

    @cached_property
    def deduped(self):
        """:func:`dedup` of the sample, computed once (the arrays are never changed after construction)."""
        return dedup(self.points, self.labels)


def dedup(points: np.ndarray, labels: np.ndarray):
    """Distinct points with their +1 and -1 label counts.

    The distinct rows come in the order of ``np.unique(points, axis=0)``:
    lexicographic with -1 < +1 and x_1 the most significant coordinate, as in
    :func:`cube_matrix`.  Each row is keyed by its +1 pattern packed into
    big-endian 64-bit words, so one sort over the words orders every n.
    Merging repeated points into counted rows keeps LP optima and empirical
    rates exact.
    """
    packed = np.packbits(points == 1, axis=1)  # (m, ceil(n / 8)) bytes, x_1 in the top bit
    # zero-padded to whole words, read big-endian so that word order is row order
    keys = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(">u8")
    order = np.lexsort(keys.T[::-1])  # the last key is the primary one: word 0 leads
    sorted_keys = keys[order]
    start = np.ones(len(order), dtype=bool)
    start[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    group = np.cumsum(start) - 1
    k = int(start.sum())
    y = labels[order]
    pos = np.bincount(group[y == 1], minlength=k).astype(np.int64, copy=False)
    negc = np.bincount(group[y == -1], minlength=k).astype(np.int64, copy=False)
    return points[order[start]], pos, negc


def make_sample(points: Iterable[Bits], labels: Iterable[int], n: int) -> LabeledSample:
    rows = [as_bits(p, n) for p in points]
    pts = np.array(rows, dtype=np.int8).reshape(len(rows), n)  # (m, 0) at n = 0, for LabeledSample to reject
    return LabeledSample(pts, np.array(list(labels), dtype=np.int8), n)


#: The text of one CSV entry, indexed by (last column of its row?, +1?), NUL-padded to 4 bytes.
_CSV_CELLS = np.array([[b"-1,", b"1,"], [b"-1\r\n", b"1\r\n"]], dtype="S4").view(np.uint8).reshape(2, 2, 4)


def save_sample_csv(s: LabeledSample, path) -> None:
    """Write the sample CSV: header x1,...,xn,y then one +-1 row per example.

    Rows end in ``\r\n``, the dialect of ``csv.writer``; the body is built in one
    pass over a table of cell texts.
    """
    last = (np.arange(s.n + 1) == s.n).view(np.int8)
    plus = (np.column_stack([s.points, s.labels]) == 1).view(np.int8)
    cells = _CSV_CELLS[last, plus]  # (m, n + 1, 4)
    with open(path, "wb") as fh:
        fh.write((",".join([f"x{j}" for j in range(1, s.n + 1)] + ["y"]) + "\r\n").encode())
        fh.write(cells[cells != 0].tobytes())


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
            vals = _parse_ints(row, f"sample CSV line {reader.line_num}")
            pts.append(vals[:-1])
            labels.append(vals[-1])
    return make_sample(pts, labels, n)


# ---------------------------------------------------------------------------
# Hypotheses and error metrics


@dataclass(frozen=True)
class PartialHypothesis:
    """A three-valued classifier: ``decide_batch`` maps a (k, n) +-1 matrix to k answers,
    each -1, 0 (abstain), or +1."""

    n: int
    decide_batch: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ErrorMetrics:
    false_pos: float
    false_neg: float
    err: float
    unknown_rate: float

    def to_json(self) -> dict:
        return asdict(self)


def predict(h, X: np.ndarray) -> np.ndarray:
    """Answers of a hypothesis on the rows of X: a concept is evaluated, anything else
    answers through its ``decide_batch``."""
    return eval_concept_batch(h, X) if is_concept(h) else h.decide_batch(X)


def empirical_metrics(h, s: LabeledSample) -> ErrorMetrics:
    """Unweighted empirical error rates of a (possibly partial) classifier.

    ``h`` is a concept or an object with ``n`` and ``decide_batch`` (a
    PartialHypothesis or a ReliableHypothesis); see :func:`predict`.  It is
    asked once per distinct point of ``s.deduped``, and each answer counts as
    many times as its point's +1 and -1 labels: the rates are these integer
    counts over m, the same as counting example by example.
    """
    if s.m < 1:
        raise InputError("empirical metrics need at least one example")
    distinct, pos, negc = s.deduped
    pred = predict(h, distinct)
    fp, fn = int(negc[pred == 1].sum()), int(pos[pred == -1].sum())
    m = s.m
    return ErrorMetrics(
        false_pos=fp / m,
        false_neg=fn / m,
        err=(fp + fn) / m,
        unknown_rate=int((pos + negc)[pred == 0].sum()) / m,
    )
