"""Ground-truth verification of approximating polynomials.

Two routes, kept deliberately independent of the construction code:

* exhaustive one-sided / two-sided checks over the full cube
  (:func:`verify_onesided`, :func:`verify_twosided`), and
* an LP oracle (:func:`min_eps`) computing the exact minimal achievable
  error at a fixed degree, which is the designated independent source for
  every frozen epsilon value in the test suite.

Certification slack is 1e-9 on exact-rational evaluations and 1e-7 when
checking floating-point LP witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import numpy as np
from scipy import sparse

from . import lp as lpmod
from .cube import NEGATIVE, POSITIVE, TWOSIDED, BoolFunc, cube_matrix, target_values
from .errors import InputError, ResourceLimitError, SolverError
from .poly import (SparsePolynomial, StructuredPolynomial, characters, eval_on_cube,
                   monomials_upto)

EXACT_TOL = 1e-9
LP_WITNESS_TOL = 1e-7

#: Default cap on cube enumeration (2^24 points).
CUBE_CAP = 24

#: Default cap on the number of monomial columns in the LP oracle.
LP_MONOMIAL_CAP = 4096


@dataclass(frozen=True)
class CertReport:
    """Outcome of an exhaustive check.

    ``worst_pos_violation`` / ``worst_neg_violation`` are the worst signed
    slacks over the target's +1 / -1 points (negative or zero means the
    condition holds there; -inf marks an empty side).  ``ok`` holds exactly
    when both are <= the tolerance used for the check.
    """

    ok: bool
    eps_requested: float
    worst_pos_violation: float
    worst_neg_violation: float
    points_checked: int
    witness: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "eps": self.eps_requested,
            "worst_pos": self.worst_pos_violation,
            "worst_neg": self.worst_neg_violation,
            "points": self.points_checked,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def _dim_of(p: StructuredPolynomial, f: BoolFunc) -> int:
    n = getattr(f, "n", None)
    if n is None:
        return p.n
    if n != p.n:
        raise InputError(f"polynomial dimension {p.n} != target dimension {n}")
    return n


def _scan(
    p: StructuredPolynomial,
    f: BoolFunc,
    eps: float,
    sign: str,
    cap: int,
    tol: float,
) -> CertReport:
    n = _dim_of(p, f)
    if n > cap:
        raise ResourceLimitError(f"exhaustive check enumerates 2^{n} points; cap is 2^{cap}")
    X = cube_matrix(n)
    fvals = target_values(f, X)
    pvals = eval_on_cube(p)
    eps_f = Fraction(eps)
    one = Fraction(1)

    worst_pos = None  # worst slack over f^{-1}(+1)
    worst_neg = None  # worst slack over f^{-1}(-1)
    witness = None
    witness_v = None
    for i in range(X.shape[0]):
        v = pvals[i]
        if fvals[i] == 1:
            if sign == POSITIVE:
                slack = (one - eps_f) - v          # need p >= 1 - eps
            elif sign == NEGATIVE:
                slack = abs(v - one) - eps_f       # need |p - 1| <= eps
            else:
                slack = abs(v - one) - eps_f
            if worst_pos is None or slack > worst_pos:
                worst_pos = slack
                if slack > tol and (witness_v is None or slack > witness_v):
                    witness, witness_v = i, slack
        else:
            if sign == POSITIVE:
                slack = abs(v + one) - eps_f       # need |p + 1| <= eps
            elif sign == NEGATIVE:
                slack = v - (-one + eps_f)         # need p <= -1 + eps
            else:
                slack = abs(v + one) - eps_f
            if worst_neg is None or slack > worst_neg:
                worst_neg = slack
                if slack > tol and (witness_v is None or slack > witness_v):
                    witness, witness_v = i, slack
    wp = float(worst_pos) if worst_pos is not None else float("-inf")
    wn = float(worst_neg) if worst_neg is not None else float("-inf")
    ok = wp <= tol and wn <= tol
    wit = tuple(int(v) for v in X[witness]) if witness is not None else None
    return CertReport(ok, float(eps), wp, wn, int(X.shape[0]), wit)


def verify_onesided(
    p: StructuredPolynomial,
    f: BoolFunc,
    eps: float,
    sign: str = POSITIVE,
    cap: int = CUBE_CAP,
    tol: float = EXACT_TOL,
) -> CertReport:
    """Exhaustively check the one-sided approximation conditions.

    Positive sign requires p >= 1 - eps on f^{-1}(+1) and |p + 1| <= eps on
    f^{-1}(-1); negative sign is the mirror.  Enumeration is lexicographic
    over bit patterns, so the reported witness (the worst violating point,
    earliest among ties) is deterministic.
    """
    if sign not in (POSITIVE, NEGATIVE):
        raise InputError(f"sign must be positive or negative, got {sign!r}")
    return _scan(p, f, eps, sign, cap, tol)


def verify_twosided(
    p: StructuredPolynomial,
    f: BoolFunc,
    eps: float,
    cap: int = CUBE_CAP,
    tol: float = EXACT_TOL,
) -> CertReport:
    """Exhaustively check |p(x) - f(x)| <= eps over the full cube."""
    return _scan(p, f, eps, TWOSIDED, cap, tol)


def min_eps(
    f: BoolFunc,
    d: int,
    mode: str,
    n: int | None = None,
    monomial_cap: int = LP_MONOMIAL_CAP,
) -> tuple[float, SparsePolynomial]:
    """Exact minimal eps achievable at degree <= d, with an optimal witness.

    Solves the LP whose variables are the coefficients over all monomials of
    degree <= d plus eps itself, with the per-point constraints of the chosen
    mode, minimizing eps.  This is the brute-force oracle behind every frozen
    epsilon constant in the tests.
    """
    if mode not in (POSITIVE, NEGATIVE, TWOSIDED):
        raise InputError(f"mode must be positive, negative or twosided, got {mode!r}")
    n = getattr(f, "n", n)
    if n is None:
        raise InputError("dimension required for callable targets")
    if n > 14:
        raise ResourceLimitError(f"LP oracle caps at n=14, got n={n}")
    monos = monomials_upto(n, d)
    if len(monos) > monomial_cap:
        raise ResourceLimitError(f"LP oracle monomial count {len(monos)} exceeds cap {monomial_cap}")
    X = cube_matrix(n)
    fvals = target_values(f, X)
    chi = characters(X, monos)

    # Columns [coefficients | eps], rows grouped by point x in cube order:
    # -f(x) p(x) - eps <= -1 (p gets within eps of f(x)), followed, where the
    # mode bounds both sides at x, by f(x) p(x) - eps <= 1 (p overshoots f(x)
    # by at most eps).
    two_rows = np.where(fvals == 1, mode != POSITIVE, mode != NEGATIVE)
    point = np.repeat(np.arange(X.shape[0]), 1 + two_rows)
    second = np.zeros(point.size, dtype=bool)
    second[1:] = point[1:] == point[:-1]
    side = np.where(second, fvals[point], -fvals[point]).astype(np.int8)
    A_ub = sparse.hstack([sparse.csr_array(chi[point] * side[:, None]),
                          sparse.csr_array(np.full((point.size, 1), -1.0))], format="csr")
    b_ub = np.where(second, 1.0, -1.0)
    objective = np.zeros(len(monos) + 1)
    objective[-1] = 1.0
    bounds = [(None, None)] * len(monos) + [(0.0, None)]
    sol = lpmod.solve(lpmod.LinearProgram(objective, A_ub, b_ub, bounds=tuple(bounds)))
    if sol.status != "optimal":
        raise SolverError(f"LP oracle did not reach optimality: status={sol.status}")
    coeffs = sol.values[:-1]
    terms = {mono: float(c) for mono, c in zip(monos, coeffs) if abs(c) > 1e-12}
    return float(sol.values[-1]), SparsePolynomial(n, terms)
