"""Learners: the disjunction eliminator, the reliable hinge-loss LP learner
with rounding and derandomization, the weight-capped L1 learner, the fully
reliable combiner, and sample-size planning.

The reliable fit solves, over polynomial coefficients of degree <= d and
weight <= W,

    minimize   sum over true-labeled examples of (1 - p(x_i))_+
    subject to p(x_i) <= -1 + eps   for every false-labeled example,

(the negative-side learner mirrors every role).  The L1 learner solves the
least-absolute-deviation form: one equality row p(x_j) - e+_j + e-_j = y_j
per distinct labeled point, with both slacks >= 0 and weighted by the point's
count.  Duplicate sample points are merged into weighted rows
(``LabeledSample.deduped``, computed once per sample) before solving; the
optimum is unchanged.

One builder (``_fit``) writes and solves both LPs.  A fit states only its own
rows: the points, a scale on p(x) per row, a slack block, the right-hand side,
the slack weights, and whether the rows are <= or =.  The reliable fit gives
the hinge rows -side * p(x_j) - xi_j <= -1, then the hard rows
side * p(x_j) <= -1 + eps.  The builder lays the columns out as [c (free, one
per monomial) | c+ | c- (>= 0, one each per monomial) | slacks | z], ends
``A_ub`` with the cap row sum_S (c+_S + c-_S) <= W and ``A_eq`` with the split
rows c_S - c+_S + c-_S = 0, one per monomial, so sum_S |c_S| <= W while the
fit rows read c alone.

The builder writes p at the fit's k rows (a point carrying both labels gives
the reliable fit two) in one of two ways (``_point_values``), chosen by nonzero
count for M monomials over n variables.  Dense: each row holds the M
characters of its point over the c columns (k*M nonzeros) and z is empty.
Butterfly: z is free columns z_1..z_T of 2^n each, T = ceil(n/2), with the
equality rows z_t = (4-point Walsh-Hadamard transform on a pair of bits of
z_(t-1)) before the split rows, where z_0 holds c_S at the bit mask of S
(absent monomials are left out), so z_T holds p on every cube point and each
row reads p(x_j) as one nonzero.  The pairs run from the top bits down; an odd
n ends with a one-bit stage on bit 0.  A two-bit stage's rows hold at most 5
nonzeros and a one-bit stage's 3, so the butterfly has at most 3n*2^n
nonzeros, the count of n one-bit stages, and the route is taken when
3n*2^n < k*M.  Both forms have the same optimum; only
the fit's own rows and the cap row count in ``FitReport.constraints_active``.
A dense-route program is solved through its explicit dual (``lp.dual``),
which HiGHS solved 1.4-5.8 times faster on every dense fit measured; a
butterfly-route program is solved as written, where the dual was slower.
The primal is dropped before the solve, so the active rows are counted from
the slack the solve returns.  Where the optimum is not unique, the two
forms can end at different optimal vertices.

Fitted coefficients are rounded to multiples of ``COEF_GRID``, so a learned
polynomial of weight below 2^21 evaluates exactly in float64: points of equal
exact value get equal values, and a calibrated threshold never splits them.

Derandomization always uses a fresh calibration sample, never training data.
One threshold search serves it (both sides; the negative is the mirror) and the
L1 learner's error-minimizing threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp as lpmod
from .cube import NEGATIVE, POSITIVE, Disjunction, LabeledSample, PartialHypothesis, as_bits, predict
from .errors import InfeasibleError, InputError, ResourceLimitError
from .poly import SparsePolynomial, characters, monomials_upto, sparse_eval_batch, sparse_to_json

#: Calibration sample must have at least CALIBRATION_FACTOR / eps^2 examples.
CALIBRATION_FACTOR = 2.0

#: Cap on the number of monomial features in a fit.
FEATURE_CAP = 8192

#: Fitted coefficients are rounded to multiples of this power of two.  Sums of
#: such multiples are exact in float64 below 2^21, so a learned polynomial's
#: values at points of equal exact value are equal floats.
COEF_GRID = 2.0**-32


def chop(a: float) -> float:
    """Clamp to [-1, 1] (identity inside, sign outside)."""
    return -1.0 if a < -1.0 else (1.0 if a > 1.0 else float(a))


# ---------------------------------------------------------------------------
# Hypothesis and report types


@dataclass(frozen=True)
class ReliableHypothesis:
    """A polynomial with a calibrated threshold.

    It answers sgn-style by comparing H(x) = chop(p(x)) against the
    threshold: the positive-side learner answers +1 iff H(x) > t, the
    negative-side learner +1 iff H(x) >= t (the exact mirror).  Randomized
    rounding is the free function :func:`randomized_round`.  ``clamp=False``
    skips the chop (used by the agnostic learner, which thresholds the raw
    polynomial).
    """

    p: SparsePolynomial
    sign: str
    threshold: float
    calibration_m: int | None
    clamp: bool = True

    @property
    def n(self) -> int:
        return self.p.n

    def decide_batch(self, X: np.ndarray) -> np.ndarray:
        v = sparse_eval_batch(self.p, X)
        v = np.clip(v, -1.0, 1.0) if self.clamp else v
        hit = v > self.threshold if self.sign == POSITIVE else v >= self.threshold
        return np.where(hit, 1, -1).astype(np.int8)

    def to_json(self) -> dict:
        return {
            "polynomial": sparse_to_json(self.p),
            "sign": self.sign,
            # the only mode; kept so hypothesis.json, whose hash result.json
            # records, replays byte-identical across versions
            "mode": "thresholded",
            "threshold": self.threshold,
            "calibration_m": self.calibration_m,
            "clamp": self.clamp,
        }


@dataclass(frozen=True)
class FitReport:
    objective_value: float
    constraints_active: int
    eps: float | None
    W: float
    d: int
    m: int
    lp_status: str  # always "optimal" (a failed solve raises); result.json stores it


@dataclass(frozen=True)
class SamplePlan:
    m: int
    term_rademacher: float
    term_confidence: float


# ---------------------------------------------------------------------------
# The eliminator for disjunctions


def learn_disjunction_positive(s: LabeledSample) -> Disjunction:
    """Keep every literal no false-labeled example satisfies.

    Starts from the disjunction over all 2n literals and, for each example
    labeled -1, drops the literals that example satisfies.  The output
    classifies every sample negative as -1 and is maximal: re-adding any
    dropped literal fires on some sample negative.
    """
    neg = s.points[s.labels == -1]
    keep: list[int] = []
    for j in range(1, s.n + 1):
        col = neg[:, j - 1] if neg.size else np.empty(0)
        if not (col == 1).any():
            keep.append(j)
        if not (col == -1).any():
            keep.append(-j)
    return Disjunction(s.n, tuple(sorted(keep, key=lambda l: (abs(l), -l))))


# ---------------------------------------------------------------------------
# LP fits


def _takes_butterfly(n: int, k: int, M: int) -> bool:
    """Whether p at k points is written through the butterfly: 3n*2^n, the nonzeros of n
    one-bit stages and an upper bound on those of the ceil(n/2) stages it is written in,
    against the k*M nonzeros of the dense character block."""
    return 3 * n * 2**n < k * M


def _point_values(X: np.ndarray, monos, gap: int):
    """p at the rows of X over the fit's columns [c | ``gap`` columns | z], as ``(P, B)``:
    ``P @ x`` is p(X) at every x with ``B @ x = 0``.  Both are CSR, with int32 indices while they fit.

    Dense: row j of ``P`` holds the M characters of x_j over c, z is empty and ``B`` has no
    rows.  Butterfly: z = [z_1 | ... | z_T] of 2^n columns each for T = ceil(n/2) stages, ``B``
    holds their T*2^n rows and row j of ``P`` one 1 at x_j's index in z_T.  A point's index has
    bit v - 1 set iff x_v = -1, and z_0[mask of S] = c_S.  Each stage is the 4-point Walsh-Hadamard
    transform on a pair of bits, from the top pair down (5 nonzeros a row, fewer in the first stage
    where a monomial is absent); an odd n ends with a one-bit stage on bit 0 (3 nonzeros a row),
    next to z_T and the fit rows, where the solver took fewer iterations than with it first.  So
    z_T[index of x] = p(x).
    """
    from scipy import sparse  # loaded on the first fit, as in onesided.lp

    (k, n), M = X.shape, len(monos)
    if _takes_butterfly(n, k, M):
        N = 1 << n
        idx = np.arange(N, dtype=np.int32)
        z = M + gap  # first column of z_1
        # the column of each entry of z_0: c's column at each mask, -1 where absent
        prev = np.full(N, -1, dtype=np.int32)
        prev[[sum(1 << (v - 1) for v in mono) for mono in monos]] = np.arange(M)
        rows, cols, vals = [], [], []
        # bits (n - 2, n - 1), then (n - 4, n - 3), ...; an odd n ends with bit 0 alone
        stages = [(lo, 2) for lo in range(n - 2, -1, -2)] + [(0, 1)] * (n % 2)
        for t, (lo, r) in enumerate(stages):
            # z_(t+1)[i] - sum_j (-1)^|i & j| z_t[i with the stage's bits set to those of j] = 0,
            # over the 2^r patterns j of the stage's bits lo .. lo + r - 1
            bits = ((1 << r) - 1) << lo
            js = np.arange(1 << r, dtype=np.int32)[:, None] << lo
            odd = sum(((idx & js) >> b) & 1 for b in range(lo, lo + r)) & 1  # the parity of |i & j|
            here = z + t * N + idx
            stage_cols = np.vstack([here, prev[(idx & ~bits) | js]])
            stage_vals = np.vstack([np.ones(N), 2.0 * odd - 1.0])
            keep = stage_cols >= 0
            rows.append(np.broadcast_to(t * N + idx, stage_cols.shape)[keep])
            cols.append(stage_cols[keep])
            vals.append(stage_vals[keep])
            prev = here
        nz = len(stages) * N
        B = sparse.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(nz, z + nz))
        at = (X < 0) @ (1 << np.arange(n, dtype=np.int32))  # each point's index in the cube
        row_cols, row_vals = prev[at][:, None], np.ones((k, 1))
    else:
        B = sparse.csr_array((0, M + gap))
        row_cols, row_vals = np.broadcast_to(np.arange(M, dtype=np.int32), (k, M)), characters(X, monos)
    w = row_cols.shape[1]
    indptr = np.arange(0, k * w + 1, w, dtype=sparse.get_index_dtype(maxval=k * w))
    P = sparse.csr_array((row_vals.astype(np.float64).ravel(), row_cols.ravel(), indptr), shape=(k, B.shape[1]))
    return P, B


def _fit_program(X: np.ndarray, monos, scale: np.ndarray, slack, b: np.ndarray,
                 weights: np.ndarray, equality: bool, W: float) -> lpmod.LinearProgram:
    """Minimize ``weights`` . xi over [c (free) | c+, c- >= 0 | slacks xi >= 0 | z (free)] subject
    to the fit rows scale_j * p(x_j) + ``slack``_j . xi (= if ``equality``, else <=) b_j, one per
    row of X, the cap row sum_S (c+_S + c-_S) <= W, and the split rows c_S - c+_S + c-_S = 0.

    ``A_ub`` holds the fit's <= rows, then the cap row; ``A_eq`` the fit's equality rows, then
    the butterfly rows, if any, then the split rows, one per monomial S.
    """
    from scipy import sparse

    M, (k, ns) = len(monos), slack.shape
    P, B = _point_values(X, monos, 2 * M + ns)
    nz = B.shape[1] - 3 * M - ns
    P.data *= np.repeat(scale, np.diff(P.indptr))
    fit = P + sparse.hstack([sparse.csr_array((k, 3 * M)), slack, sparse.csr_array((k, nz))], format="csr")
    del P  # so that at most two copies of the point block are live while the rows are stacked
    eye = sparse.identity(M, format="csr")
    split = sparse.hstack([eye, -eye, eye, sparse.csr_array((M, ns + nz))], format="csr")
    cap = sparse.hstack([sparse.csr_array((1, M)), sparse.csr_array(np.ones((1, 2 * M))),
                         sparse.csr_array((1, ns + nz))], format="csr")
    zeros = np.zeros(B.shape[0] + M)
    if equality:
        A_ub, b_ub = cap, [W]
        A_eq, b_eq = sparse.vstack([fit, B, split], format="csr"), np.concatenate([b, zeros])
    else:
        A_ub, b_ub = sparse.vstack([fit, cap], format="csr"), np.append(b, W)
        A_eq, b_eq = sparse.vstack([B, split], format="csr"), zeros
    return lpmod.LinearProgram(
        np.concatenate([np.zeros(3 * M), weights, np.zeros(nz)]), A_ub, b_ub, A_eq, b_eq,
        bounds=tuple([(None, None)] * M + [(0.0, None)] * (2 * M + ns) + [(None, None)] * nz),
    )


def _fit(s: LabeledSample, d: int, W: float, eps: float | None, X: np.ndarray, scale: np.ndarray,
         slack, b: np.ndarray, weights: np.ndarray, equality: bool) -> tuple[SparsePolynomial, FitReport]:
    """Solve the fit of degree <= d and weight <= W whose own rows are given as for
    :func:`_fit_program`: the polynomial rounded to ``COEF_GRID``, and its report, whose
    active constraints are the fit's rows and the cap row that hold with equality."""
    if s.m < 1:
        raise InputError("cannot fit an empty sample")
    monos = monomials_upto(s.n, d)
    if len(monos) > FEATURE_CAP:
        raise ResourceLimitError(f"{len(monos)} monomial features exceed cap {FEATURE_CAP}")
    if not (math.isfinite(W) and W >= 0):
        raise InputError(f"weight cap W must be finite and >= 0, got {W}")
    program = _fit_program(X, monos, scale, slack, b, weights, equality, W)
    if not _takes_butterfly(s.n, len(X), len(monos)):
        program = lpmod.dual(program)  # rebound, so the primal's matrices are freed before the solve
    sol = lpmod.solve(program)
    coefs = np.round(sol.values[:len(monos)] / COEF_GRID) * COEF_GRID
    poly = SparsePolynomial(s.n, {mono: float(c) for mono, c in zip(monos, coefs) if c != 0.0})
    # A_ub holds only the fit's <= rows and the cap row
    active = (len(b) if equality else 0) + int(np.count_nonzero(np.abs(sol.slack) <= lpmod.FEASIBILITY_TOL))
    return poly, FitReport(max(0.0, sol.objective_value), active, eps, float(W), d, s.m, "optimal")


def reliable_fit(
    s: LabeledSample,
    d: int,
    W: float,
    eps: float,
    sign: str,
) -> tuple[SparsePolynomial, FitReport]:
    """Solve the hinge-loss LP with hard constraints on the protected side."""
    if sign not in (POSITIVE, NEGATIVE):
        raise InputError(f"sign must be positive or negative, got {sign!r}")
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    from scipy import sparse

    distinct, pos, negc = s.deduped
    # side = +1 for the positive-side learner, -1 for its mirror
    side, hinge_counts, hard_counts = (1.0, pos, negc) if sign == POSITIVE else (-1.0, negc, pos)
    hinge_idx, hard_idx = np.flatnonzero(hinge_counts), np.flatnonzero(hard_counts)
    nh, nhard = len(hinge_idx), len(hard_idx)
    # xi_j >= 1 - side * p(x_j), written -side * p(x_j) - xi_j <= -1, at every point carrying
    # the other label; then side * p(x_j) <= -1 + eps at every point carrying the protected label
    slack = sparse.vstack([-sparse.identity(nh, format="csr"), sparse.csr_array((nhard, nh))], format="csr")
    try:
        return _fit(s, d, W, eps, distinct[np.concatenate([hinge_idx, hard_idx])],
                    np.repeat([-side, side], [nh, nhard]), slack, np.repeat([-1.0, -1.0 + eps], [nh, nhard]),
                    hinge_counts[hinge_idx], equality=False)
    except InfeasibleError as exc:
        raise InfeasibleError(f"hinge LP infeasible (weight cap W={W} too small for eps={eps})") from exc


def agnostic_l1_fit(s: LabeledSample, d: int, W: float) -> tuple[SparsePolynomial, FitReport]:
    """Minimize sum_i |p(x_i) - y_i| subject to weight(p) <= W."""
    from scipy import sparse

    distinct, pos, negc = s.deduped
    # the distinct labeled points: per distinct x in turn, (x, -1) then (x, +1) where seen
    counts = np.stack([negc, pos], axis=1).ravel()
    seen = np.flatnonzero(counts)
    counts, k = counts[seen], len(seen)
    eye = sparse.identity(k, format="csr")
    # per distinct (x_j, y_j) in turn: p(x_j) - e+_j + e-_j = y_j, so |p(x_j) - y_j| = e+_j + e-_j at the optimum
    return _fit(s, d, W, None, distinct[seen // 2], np.ones(k), sparse.hstack([-eye, eye], format="csr"),
                np.where(seen % 2, 1.0, -1.0), np.concatenate([counts, counts]), equality=True)


# ---------------------------------------------------------------------------
# Rounding, derandomization, threshold selection


def randomized_round(p: SparsePolynomial, x, u: float) -> int:
    """+1 with probability (1 + chop(p(x)))/2, decided by the supplied draw u."""
    v = float(p.eval(as_bits(x, p.n)))
    if v <= -1.0:
        return -1
    if v >= 1.0:
        return 1
    return 1 if u < (1.0 + v) / 2.0 else -1


def _threshold_counts(values: np.ndarray, labels: np.ndarray):
    """Candidates t (-inf, the distinct values ascending, +inf) and, for "+1 iff value > t"
    at each, the +1 labels with value <= t and the -1 labels with value > t."""
    candidates = np.concatenate([[-math.inf], np.unique(values), [math.inf]])
    order = np.argsort(values)
    below = np.searchsorted(values[order], candidates, side="right")  # points answered -1 at each t
    pos_upto = np.concatenate([[0], np.cumsum(labels[order] == 1)])
    neg_upto = np.concatenate([[0], np.cumsum(labels[order] == -1)])
    return candidates, pos_upto[below], neg_upto[-1] - neg_upto[below]


def derandomize(
    p: SparsePolynomial,
    fresh: LabeledSample,
    eps: float,
    sign: str,
) -> ReliableHypothesis:
    """Pick the calibrated threshold over H(x) = chop(p(x)) on a fresh sample.

    Positive side: the smallest t (among observed H values and +-inf
    sentinels) whose empirical false-positive rate is at most eps; the +inf
    sentinel (hypothesis identically -1) always qualifies, so this never
    fails.  Negative side is the exact mirror: the largest t with empirical
    false-negative rate at most eps under the H >= t convention, found as
    minus the positive-side threshold of (-H, -y).
    """
    if sign not in (POSITIVE, NEGATIVE):
        raise InputError(f"sign must be positive or negative, got {sign!r}")
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    need = math.ceil(CALIBRATION_FACTOR / eps**2)
    if fresh.m < need:
        raise InputError(f"calibration sample of {fresh.m} examples; need >= {need} for eps={eps}")
    H = np.clip(sparse_eval_batch(p, fresh.points), -1.0, 1.0)
    side = 1.0 if sign == POSITIVE else -1.0  # the negative side searches (-H, -y), then negates t
    candidates, _, false_pos = _threshold_counts(side * H, side * fresh.labels)
    t = side * float(candidates[np.argmax(false_pos / fresh.m <= eps)])  # the first t within budget
    return ReliableHypothesis(p, sign, t, fresh.m)


def choose_error_threshold(values: np.ndarray, labels: np.ndarray) -> float:
    """Threshold minimizing empirical error of +1 iff value > t (ties: smaller t)."""
    candidates, false_neg, false_pos = _threshold_counts(np.asarray(values, dtype=np.float64),
                                                         np.asarray(labels))
    return float(candidates[np.argmin(false_neg + false_pos)])  # argmin takes the earliest, i.e. smallest, t


# ---------------------------------------------------------------------------
# End-to-end learners


def learn_reliable(
    s: LabeledSample,
    d: int,
    W: float,
    eps: float,
    sign: str,
    fresh: LabeledSample,
) -> tuple[ReliableHypothesis, FitReport]:
    """Hinge-loss fit followed by threshold calibration on the fresh sample."""
    poly, report = reliable_fit(s, d, W, eps, sign)
    return derandomize(poly, fresh, eps, sign), report


def agreement_hypothesis(h_pos, h_neg) -> PartialHypothesis:
    """Answer the shared value where both classifiers agree, abstain otherwise.

    Each side is a concept or an object with ``decide_batch`` (see :func:`cube.predict`).
    """

    def decide_batch(X: np.ndarray) -> np.ndarray:
        a, b = predict(h_pos, X), predict(h_neg, X)
        return np.where(a == b, a, 0).astype(np.int8)

    return PartialHypothesis(h_pos.n, decide_batch)


def learn_fully_reliable(
    s: LabeledSample,
    d: int,
    W: float,
    eps: float,
    fresh: LabeledSample,
) -> tuple[PartialHypothesis, dict[str, FitReport]]:
    """Agreement of the two one-sided learners, each run at eps/4."""
    h_pos, rep_pos = learn_reliable(s, d, W, eps / 4.0, POSITIVE, fresh)
    h_neg, rep_neg = learn_reliable(s, d, W, eps / 4.0, NEGATIVE, fresh)
    return agreement_hypothesis(h_pos, h_neg), {POSITIVE: rep_pos, NEGATIVE: rep_neg}


def learn_agnostic_l1(
    s: LabeledSample,
    d: int,
    W: float,
    fresh: LabeledSample,
) -> tuple[ReliableHypothesis, FitReport]:
    """Weight-capped L1 fit, thresholded on fresh data to minimize error."""
    poly, report = agnostic_l1_fit(s, d, W)
    t = choose_error_threshold(sparse_eval_batch(poly, fresh.points), fresh.labels)
    return ReliableHypothesis(poly, POSITIVE, t, fresh.m, clamp=False), report


# ---------------------------------------------------------------------------
# Sample-size formulas (natural logarithms throughout)


def plan_samples(n: int, d: int, W: float, eps: float, delta: float) -> SamplePlan:
    """m = max(512/eps^4 * W^2 d ln(2n), 64/eps^2 * (W+1)^2 ln(1/delta))."""
    if n < 1 or d < 1 or not 0 < W < math.inf:
        raise InputError("n, d must be >= 1 and W finite and > 0")
    if not 0 < eps <= 1 or not 0 < delta < 1:
        raise InputError("need eps in (0, 1] and delta in (0, 1)")
    try:
        term1 = 512.0 / eps**4 * W**2 * d * math.log(2 * n)
        term2 = 64.0 / eps**2 * (W + 1) ** 2 * math.log(1.0 / delta)
        return SamplePlan(math.ceil(max(term1, term2)), term1, term2)
    except (OverflowError, ZeroDivisionError):  # W**2 or eps**4 out of float range, or an infinite m
        raise InputError(f"the sample size for W={W}, eps={eps}, delta={delta} overflows a float") from None


def rademacher_bound(W: float, d: int, n: int, m: float) -> float:
    """W * sqrt(2 d ln(2n) / m) for degree-d weight-W polynomials on the cube."""
    if n < 1 or d < 0 or not math.isfinite(W):
        raise InputError("need n >= 1, d >= 0 and a finite W")
    if not 1 <= m < math.inf:
        raise InputError(f"need a finite m >= 1, got {m}")
    try:
        return W * math.sqrt(2.0 * d * math.log(2 * n) / m)
    except OverflowError:  # an integer m beyond float range
        raise InputError("sample size m overflows a float") from None
