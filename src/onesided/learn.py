"""Learners: the disjunction eliminator, the reliable hinge-loss LP learner
with rounding and derandomization, the weight-capped L1 learner, the fully
reliable combiner, and sample-size planning.

The reliable fit solves, over polynomial coefficients of degree <= d and
weight <= W,

    minimize   sum over true-labeled examples of (1 - p(x_i))_+
    subject to p(x_i) <= -1 + eps   for every false-labeled example,

(the negative-side learner mirrors every role).  The LP is built in matrix
form over the columns [c (one per monomial) | u (one per monomial) | hinge
slacks]: a block of character rows of the sample with -I on the slacks,
a block of hard rows, then the weight-cap block, which encodes the cap with
split variables as the row pair c_S - u_S <= 0, -c_S - u_S <= 0 per
monomial and one row sum u_S <= W, so the objective stays exactly the
hinge sum.  The L1 learner uses the same layout with one absolute-error
slack per distinct labeled point.  Duplicate sample points are merged into
weighted rows before solving; the optimum is unchanged.

Derandomization always uses a fresh calibration sample, never training data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import lp as lpmod
from .cube import (NEGATIVE, POSITIVE, Disjunction, LabeledSample, PartialHypothesis, as_bits,
                   dedup)
from .errors import InfeasibleError, InputError, ResourceLimitError, SolverError
from .poly import SparsePolynomial, characters, monomials_upto, sparse_eval_batch

#: Calibration sample must have at least CALIBRATION_FACTOR / eps^2 examples.
CALIBRATION_FACTOR = 2.0

#: Default cap on the number of monomial features in a fit.
FEATURE_CAP = 8192


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
    sign: str = POSITIVE
    threshold: float | None = None
    calibration_m: int | None = None
    clamp: bool = True

    @property
    def n(self) -> int:
        return self.p.n

    def _h(self, values: np.ndarray) -> np.ndarray:
        return np.clip(values, -1.0, 1.0) if self.clamp else values

    def decide(self, x) -> int:
        v = self._h(np.array([float(self.p.eval(as_bits(x, self.n)))]))[0]
        if self.sign == POSITIVE:
            return 1 if v > self.threshold else -1
        return 1 if v >= self.threshold else -1

    def decide_batch(self, X: np.ndarray) -> np.ndarray:
        v = self._h(sparse_eval_batch(self.p, X))
        hit = v > self.threshold if self.sign == POSITIVE else v >= self.threshold
        return np.where(hit, 1, -1).astype(np.int8)

    def to_json(self) -> dict:
        from .poly import sparse_to_json

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
    lp_status: str


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
    if s.n < 1:
        raise InputError("need dimension >= 1")
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


def _weight_block(M: int, W: float, nslack: int):
    """Weight-cap rows over the columns [c (M) | u (M) | slacks (nslack)].

    Rows c_S - u_S <= 0 and -c_S - u_S <= 0 for each monomial S in turn,
    then sum_S u_S <= W.
    """
    eye = sparse.identity(M, format="csr")
    split = sparse.hstack([sparse.kron(eye, np.array([[1.0], [-1.0]])),
                           sparse.kron(eye, np.array([[-1.0], [-1.0]]))])
    cap = sparse.hstack([sparse.csr_array((1, M)), sparse.csr_array(np.ones((1, M)))])
    A = sparse.hstack([sparse.vstack([split, cap]), sparse.csr_array((2 * M + 1, nslack))])
    b = np.zeros(2 * M + 1)
    b[-1] = W
    return A, b


def _capped_program(A_fit, b_fit: np.ndarray, slack_weights: np.ndarray, M: int, W: float) -> lpmod.LinearProgram:
    """Minimize the weighted slacks over [c | u | slacks]: the fit rows, then the weight cap."""
    A_cap, b_cap = _weight_block(M, W, len(slack_weights))
    return lpmod.LinearProgram(
        np.concatenate([np.zeros(2 * M), slack_weights.astype(np.float64)]),
        sparse.vstack([A_fit, A_cap], format="csr"),
        np.concatenate([b_fit, b_cap]),
        bounds=tuple([(None, None)] * M + [(0.0, None)] * (M + len(slack_weights))),
    )


def _extract_poly(n: int, monos, coeffs: np.ndarray) -> SparsePolynomial:
    return SparsePolynomial(n, {m: float(c) for m, c in zip(monos, coeffs) if abs(c) > 1e-12})


def reliable_fit(
    s: LabeledSample,
    d: int,
    W: float,
    eps: float,
    sign: str = POSITIVE,
    feature_cap: int = FEATURE_CAP,
) -> tuple[SparsePolynomial, FitReport]:
    """Solve the hinge-loss LP with hard constraints on the protected side."""
    if sign not in (POSITIVE, NEGATIVE):
        raise InputError(f"sign must be positive or negative, got {sign!r}")
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    if s.m < 1:
        raise InputError("cannot fit an empty sample")
    monos = monomials_upto(s.n, d)
    if len(monos) > feature_cap:
        raise ResourceLimitError(f"{len(monos)} monomial features exceed cap {feature_cap}")
    distinct, pos, negc = dedup(s.points, s.labels)
    phi = characters(distinct, monos)
    M = len(monos)

    # side = +1 for the positive-side learner, -1 for its mirror
    side, hinge_counts, hard_counts = (1.0, pos, negc) if sign == POSITIVE else (-1.0, negc, pos)
    hinge_idx, hard_idx = np.flatnonzero(hinge_counts), np.flatnonzero(hard_counts)
    nh, nhard = len(hinge_idx), len(hard_idx)
    A_fit = sparse.vstack([
        # xi_j >= 1 - side * p(x_j), written -side * p(x_j) - xi_j <= -1
        sparse.hstack([sparse.csr_array(-side * phi[hinge_idx]), sparse.csr_array((nh, M)),
                       -sparse.identity(nh, format="csr")]),
        # side * p(x_j) <= -1 + eps on every point carrying the protected label
        sparse.hstack([sparse.csr_array(side * phi[hard_idx]), sparse.csr_array((nhard, M + nh))]),
    ])
    b_fit = np.concatenate([np.full(nh, -1.0), np.full(nhard, -1.0 + eps)])
    program = _capped_program(A_fit, b_fit, hinge_counts[hinge_idx], M, W)
    sol = lpmod.solve(program)
    if sol.status == "infeasible":
        raise InfeasibleError(f"hinge LP infeasible (weight cap W={W} too small for eps={eps})")
    if sol.status != "optimal":
        raise SolverError(f"hinge LP ended with status {sol.status}")
    poly = _extract_poly(s.n, monos, sol.values[:M])
    active = lpmod.count_active(program, sol.values)
    report = FitReport(max(0.0, sol.objective_value), active, eps, float(W), d, s.m, sol.status)
    return poly, report


def agnostic_l1_fit(
    s: LabeledSample,
    d: int,
    W: float,
    feature_cap: int = FEATURE_CAP,
) -> tuple[SparsePolynomial, FitReport]:
    """Minimize sum_i |p(x_i) - y_i| subject to weight(p) <= W."""
    if s.m < 1:
        raise InputError("cannot fit an empty sample")
    monos = monomials_upto(s.n, d)
    if len(monos) > feature_cap:
        raise ResourceLimitError(f"{len(monos)} monomial features exceed cap {feature_cap}")
    rows = np.hstack([s.points, s.labels[:, None]])
    distinct, counts = np.unique(rows, axis=0, return_counts=True)
    X, y = distinct[:, :-1], distinct[:, -1].astype(np.float64)
    M, k = len(monos), X.shape[0]
    # per distinct (x_j, y_j) in turn: p(x_j) - e_j <= y_j, then -p(x_j) - e_j <= -y_j
    up_down = np.array([[1.0], [-1.0]])
    A_fit = sparse.hstack([sparse.csr_array(np.kron(characters(X, monos), up_down)),
                           sparse.csr_array((2 * k, M)),
                           sparse.kron(sparse.identity(k, format="csr"), np.array([[-1.0], [-1.0]]))])
    program = _capped_program(A_fit, np.kron(y, [1.0, -1.0]), counts, M, W)
    sol = lpmod.solve(program)
    if sol.status == "infeasible":
        raise InfeasibleError("L1 LP infeasible")
    if sol.status != "optimal":
        raise SolverError(f"L1 LP ended with status {sol.status}")
    poly = _extract_poly(s.n, monos, sol.values[:M])
    active = lpmod.count_active(program, sol.values)
    report = FitReport(max(0.0, sol.objective_value), active, None, float(W), d, s.m, sol.status)
    return poly, report


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


def derandomize(
    p: SparsePolynomial,
    fresh: LabeledSample,
    eps: float,
    sign: str = POSITIVE,
) -> ReliableHypothesis:
    """Pick the calibrated threshold over H(x) = chop(p(x)) on a fresh sample.

    Positive side: the smallest t (among observed H values and +-inf
    sentinels) whose empirical false-positive rate is at most eps; the +inf
    sentinel (hypothesis identically -1) always qualifies, so this never
    fails.  Negative side is the exact mirror: the largest t with empirical
    false-negative rate at most eps under the H >= t convention.
    """
    if sign not in (POSITIVE, NEGATIVE):
        raise InputError(f"sign must be positive or negative, got {sign!r}")
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    need = math.ceil(CALIBRATION_FACTOR / eps**2)
    if fresh.m < need:
        raise InputError(f"calibration sample of {fresh.m} examples; need >= {need} for eps={eps}")
    H = np.clip(sparse_eval_batch(p, fresh.points), -1.0, 1.0)
    y = fresh.labels
    m = fresh.m
    candidates = [-math.inf] + [float(v) for v in np.unique(H)] + [math.inf]
    if sign == POSITIVE:
        neg_sorted = np.sort(H[y == -1])
        for t in candidates:  # ascending; false_+ is non-increasing in t
            fp = (neg_sorted.size - np.searchsorted(neg_sorted, t, side="right")) / m
            if fp <= eps:
                return ReliableHypothesis(p, POSITIVE, t, m)
    else:
        pos_sorted = np.sort(H[y == 1])
        for t in reversed(candidates):  # descending; false_- is non-decreasing in t
            fn = np.searchsorted(pos_sorted, t, side="left") / m
            if fn <= eps:
                return ReliableHypothesis(p, NEGATIVE, t, m)
    raise AssertionError("sentinel threshold always satisfies the bound")


def choose_error_threshold(values: np.ndarray, labels: np.ndarray) -> float:
    """Threshold minimizing empirical error of +1 iff value > t (ties: smaller t)."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    candidates = [-math.inf] + [float(v) for v in np.unique(values)] + [math.inf]
    best_t, best_err = None, None
    for t in candidates:
        pred = np.where(values > t, 1, -1)
        err = float(np.count_nonzero(pred != labels)) / labels.size
        if best_err is None or err < best_err - 1e-15:
            best_t, best_err = t, err
    return best_t


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


def agreement_hypothesis(h_pos, h_neg, n: int) -> PartialHypothesis:
    """Answer the shared value where both classifiers agree, abstain otherwise."""

    def decide(x) -> int:
        a, b = h_pos.decide(x), h_neg.decide(x)
        return a if a == b else 0

    def decide_batch(X: np.ndarray) -> np.ndarray:
        a, b = h_pos.decide_batch(X), h_neg.decide_batch(X)
        return np.where(a == b, a, 0).astype(np.int8)

    return PartialHypothesis(n, decide, decide_batch)


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
    return agreement_hypothesis(h_pos, h_neg, s.n), {POSITIVE: rep_pos, NEGATIVE: rep_neg}


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
    if n < 1 or d < 1 or W <= 0:
        raise InputError("n, d must be >= 1 and W > 0")
    if not 0 < eps <= 1 or not 0 < delta < 1:
        raise InputError("need eps in (0, 1] and delta in (0, 1)")
    term1 = 512.0 / eps**4 * W**2 * d * math.log(2 * n)
    term2 = 64.0 / eps**2 * (W + 1) ** 2 * math.log(1.0 / delta)
    return SamplePlan(math.ceil(max(term1, term2)), term1, term2)


def rademacher_bound(W: float, d: int, n: int, m: float) -> float:
    """W * sqrt(2 d ln(2n) / m) for degree-d weight-W polynomials on the cube."""
    if m < 1:
        raise InputError("need m >= 1")
    return W * math.sqrt(2.0 * d * math.log(2 * n) / m)
