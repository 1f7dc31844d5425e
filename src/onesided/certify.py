"""Ground-truth verification of approximating polynomials.

Two routes, kept deliberately independent of the construction code:

* exhaustive one-sided / two-sided checks over the full cube
  (:func:`verify_onesided`, :func:`verify_twosided`), and
* an LP oracle (:func:`min_eps`) computing the exact minimal achievable
  error at a fixed degree, which is the designated independent source for
  every frozen epsilon value in the test suite.  A target symmetric in its
  literals (a majority, or an OR or AND of literals on distinct variables)
  takes the level LP: by symmetrization its optimum is that of a symmetric
  witness, which has one coefficient per degree and is constrained once per
  number of false literals.  Every other target takes the full-cube LP, one
  column per monomial and one row block per point; the tests compare the two.

The exhaustive checks apply one slack rule, max((1 - eps) - f p, f p - (1 + eps))
with the second term only where the mode bounds p on both sides, to the extremes
of the integer cube numerators of p on each side of f, in Python ints, and decide
exactly: a check passes when every slack is <= 0.  Every slack falls one for one
as eps grows, so a float LP witness is certified at its solved eps plus a margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from . import lp as lpmod
from .cube import (CUBE_CAP, NEGATIVE, POSITIVE, TWOSIDED, BoolFunc, Concept, Conjunction, Disjunction,
                   Majority, cube_matrix, eval_concept_batch, target_values)
from .errors import InputError, ResourceLimitError
from .poly import (SparsePolynomial, StructuredPolynomial, characters, cube_numerators, from_lp_solution,
                   monomials_upto)

#: Cap on the matrix entries (rows x columns) of the oracle's cube LP, counted as two rows
#: per cube point.  Solves at n = 12-14, d = 3-4 peaked at 188-229 bytes of RSS per entry,
#: so an admitted program stays below 5.5 GB; n = 14 at d = 3 (15.4M entries) peaked at 2.8 GB.
CUBE_LP_ENTRY_CAP = 24_000_000


@dataclass(frozen=True)
class CertReport:
    """Outcome of an exhaustive check.

    ``worst_pos_violation`` / ``worst_neg_violation`` are the worst signed
    slacks over the target's +1 / -1 points, as floats (negative or zero means
    the condition holds there; -inf marks an empty side).  ``witness`` is the
    earliest point of the largest exact slack if it is > 0; ``ok`` means none.
    """

    eps_requested: float
    worst_pos_violation: float
    worst_neg_violation: float
    points_checked: int
    witness: tuple[int, ...] | None

    @property
    def ok(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "eps": self.eps_requested,
            "worst_pos": self.worst_pos_violation,
            "worst_neg": self.worst_neg_violation,
            "points": self.points_checked,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def _both_sides(fvals, mode: str) -> np.ndarray:
    """True where the mode bounds p(x) on both sides, |p(x) - f(x)| <= eps, not only f(x) p(x) >= 1 - eps;
    fvals is an array of f's values or one value."""
    return np.where(fvals == 1, mode != POSITIVE, mode != NEGATIVE)


def _scan(
    p: StructuredPolynomial,
    f: BoolFunc,
    eps: float,
    sign: str,
) -> CertReport:
    if not math.isfinite(eps):
        raise InputError(f"eps must be finite, got {eps}")
    n = p.n
    if getattr(f, "n", None) not in (None, n):
        raise InputError(f"polynomial dimension {n} != target dimension {f.n}")
    nums, denom = cube_numerators(p)  # first: past CUBE_CAP it raises before anything spans the cube
    X = cube_matrix(n)
    fvals = target_values(f, X)
    e, k = Fraction(eps).as_integer_ratio()

    # With p = nums / denom and g = f nums, the slack times denom * k is
    # max(denom (k - e) - k g, k g - denom (k + e)), the second term only where the mode
    # bounds p on both sides, which it does on all of one side of f or none of it.  The
    # first term falls and the second rises with g, so a side's worst slack is at its
    # least g, or at its largest g where both terms apply: a few exact Python-int slacks
    # from the side's extremes, with no per-point arithmetic beyond min, max and ==.
    worst = {}
    peaks = []  # (side, g, slack) for each extreme g that attains its side's worst slack
    for side in (1, -1):
        on_side = fvals == side
        if not on_side.any():
            continue
        first = nums[np.argmax(on_side)]
        lo, hi = (int(reduce(nums, where=on_side, initial=first)) for reduce in (np.min, np.max))
        g_min, g_max = (lo, hi) if side == 1 else (-hi, -lo)
        candidates = [(g_min, denom * (k - e) - k * g_min)]
        if _both_sides(side, sign):
            candidates.append((g_max, k * g_max - denom * (k + e)))
        worst[side] = max(slack for _, slack in candidates)
        peaks += [(side, g, slack) for g, slack in candidates if slack == worst[side]]

    largest = max(worst.values())
    wit = None
    if largest > 0:  # the witness is the earliest point where g takes a value of largest slack
        hit = np.zeros(nums.shape, dtype=bool)
        for side, g, slack in peaks:
            if slack == largest:
                hit |= (fvals == side) & (nums == side * g)
        wit = tuple(int(v) for v in X[int(np.argmax(hit))])
    wp, wn = (float(Fraction(worst[side], denom * k)) if side in worst else float("-inf") for side in (1, -1))
    return CertReport(float(eps), wp, wn, int(X.shape[0]), wit)


def verify_onesided(
    p: StructuredPolynomial,
    f: BoolFunc,
    eps: float,
    sign: str,
) -> CertReport:
    """Exhaustively check the one-sided approximation conditions.

    Positive sign requires p >= 1 - eps on f^{-1}(+1) and |p + 1| <= eps on
    f^{-1}(-1); negative sign is the mirror.  Enumeration is lexicographic
    over bit patterns, so the reported witness (the worst violating point,
    earliest among ties) is deterministic.
    """
    if sign not in (POSITIVE, NEGATIVE):
        raise InputError(f"sign must be positive or negative, got {sign!r}")
    return _scan(p, f, eps, sign)


def verify_twosided(
    p: StructuredPolynomial,
    f: BoolFunc,
    eps: float,
) -> CertReport:
    """Exhaustively check |p(x) - f(x)| <= eps over the full cube."""
    return _scan(p, f, eps, TWOSIDED)


def _error_program(matrix: np.ndarray, fvals: np.ndarray, mode: str) -> lpmod.LinearProgram:
    """The program min eps over the columns [coefficients | eps], where row r of ``matrix``
    holds the basis values at a point of target value fvals[r].

    Rows are grouped by point: -f p - eps <= -1 (p gets within eps of f), followed, where
    the mode bounds both sides there, by f p - eps <= 1 (p overshoots f by at most eps).
    """
    from scipy import sparse  # loaded on the first LP build, as in onesided.lp

    point = np.repeat(np.arange(matrix.shape[0]), 1 + _both_sides(fvals, mode))
    second = np.zeros(point.size, dtype=bool)
    second[1:] = point[1:] == point[:-1]
    side = np.where(second, fvals[point], -fvals[point]).astype(np.int8)
    A_ub = sparse.hstack([sparse.csr_array(matrix[point] * side[:, None]),
                          sparse.csr_array(np.full((point.size, 1), -1.0))], format="csr")
    b_ub = np.where(second, 1.0, -1.0)
    cols = matrix.shape[1]
    objective = np.zeros(cols + 1)
    objective[-1] = 1.0
    return lpmod.LinearProgram(objective, A_ub, b_ub, bounds=((None, None),) * cols + ((0.0, None),))


def _symmetric_literals(f: Concept) -> tuple[int, ...] | None:
    """The signed literals over which f is symmetric, each naming its own variable, or None.

    A majority is symmetric in its variables, and an OR or AND of literals on distinct
    variables in its literals; a literal -j is x_j with the sign flipped.
    """
    if isinstance(f, Majority):
        return f.vars
    if isinstance(f, (Disjunction, Conjunction)) and len({abs(l) for l in f.literals}) == len(f.literals):
        return f.literals
    return None


def _krawtchouk(s: int, D: int) -> np.ndarray:
    """The (s + 1, D + 1) matrix K[u, j] = sum_i (-1)^i C(u, i) C(s - u, j - i): the sum of all
    degree-j monomials over s literals at a point where u of them are false (-1)."""
    return np.array([[sum((-1) ** i * math.comb(u, i) * math.comb(s - u, j - i) for i in range(j + 1))
                      for j in range(D + 1)] for u in range(s + 1)], dtype=np.float64)


def _level_points(literals: tuple[int, ...], n: int) -> np.ndarray:
    """One cube point per level u = 0..s, where the first u literals are false and the rest true."""
    s = len(literals)
    lits = np.array(literals, dtype=np.int64)
    sigma = np.sign(lits).astype(np.int8)
    false = np.arange(s)[None, :] < np.arange(s + 1)[:, None]
    X = np.ones((s + 1, n), dtype=np.int8)
    X[:, np.abs(lits) - 1] = np.where(false, -sigma, sigma)
    return X


def min_eps(f: Concept, d: int, mode: str) -> tuple[float, SparsePolynomial]:
    """Exact minimal eps achievable for the concept f at degree <= d, with an optimal witness.

    The LP's variables are the coefficients of p over the monomials of degree <= d plus
    eps itself; it minimizes eps subject to the mode's constraints at every cube point, and
    raises :func:`lp.solve`'s error if it ends without an optimum.  This is the oracle
    behind every frozen epsilon constant in the tests.  It is solved in one of two forms,
    chosen by the concept's type, both built by one program builder (:func:`_error_program`):

    * Symmetric targets (a majority, or an OR or AND of literals on distinct variables S)
      take the level LP.  Write y_i = sigma_i x_i for the literal sign sigma_i, so f is a
      symmetric function of y_S.  The constraints are convex in p and the same at x and at
      any point with the same f value, so averaging a feasible p over the values of the
      variables outside S and over permutations of y_S keeps it feasible at the same eps
      (Minsky-Papert symmetrization).  Some optimal p is therefore sum_j c_j e_j(y_S), with
      e_j the sum of all degree-j monomials, j <= D = min(d, |S|).  At a point where u
      literals are false, e_j takes the Krawtchouk value K_j(u; |S|), so the LP has the
      D + 2 columns c_0..c_D, eps and one row block per level u = 0..|S|, with f read at
      one point of each level.  The witness spreads c back as coefficient sigma_T c_|T| on
      each monomial T in S: the symmetric optimum, not a vertex of the cube LP.
    * Every other target (halfspaces, DNFs, CNFs, disjunctions with both signs of a
      variable) takes the cube LP: one column per monomial and one row block per cube
      point.  Its matrix is dense, so :data:`CUBE_LP_ENTRY_CAP` bounds its entries
      before the cube is enumerated.

    Both forms are solved by :func:`lp.solve`, so the witness is a vertex of its LP.  The
    n cap (n <= 14) holds on both forms, since the witness has one term per monomial, at
    most 2^14; the entry cap holds on the cube LP, and within it that LP has at most 2,928
    monomial columns.  The returned eps is never below 0 (nor -0.0).
    """
    if mode not in (POSITIVE, NEGATIVE, TWOSIDED):
        raise InputError(f"mode must be positive, negative or twosided, got {mode!r}")
    n = f.n
    if n > 14:
        raise ResourceLimitError(f"LP oracle caps at n=14, got n={n}")
    monos = monomials_upto(n, d)
    literals = _symmetric_literals(f)
    if literals is None:
        entries = 2 ** (n + 1) * (len(monos) + 1)  # at most two rows per cube point, over [monomials | eps]
        if entries > CUBE_LP_ENTRY_CAP:
            raise ResourceLimitError(f"cube LP of up to {entries} matrix entries exceeds cap {CUBE_LP_ENTRY_CAP}")
        X = cube_matrix(n)
        basis, fvals = characters(X, monos), eval_concept_batch(f, X)
    else:
        basis = _krawtchouk(len(literals), min(d, len(literals)))
        fvals = eval_concept_batch(f, _level_points(literals, n))
    sol = lpmod.solve(_error_program(basis, fvals, mode))
    if literals is None:
        coefs = sol.values[:-1]
    else:  # spread c_j over the degree-j monomials in the literals' variables
        sign = {abs(l): 1 if l > 0 else -1 for l in literals}
        coefs = np.array([math.prod(sign[v] for v in mono) * sol.values[len(mono)] if sign.keys() >= set(mono)
                          else 0.0 for mono in monos])
    return max(0.0, float(sol.values[-1])), from_lp_solution(n, monos, coefs)
