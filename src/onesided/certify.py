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

The exhaustive checks apply one slack rule (:func:`_worst_slacks`), max((1 - eps) - f p,
f p - (1 + eps)) with the second term only where the mode bounds p on both sides, to
the extremes of the integer numerators of p on each side of f, in Python ints, and
decide exactly: a check passes when every slack is <= 0.  Every slack falls one for one
as eps grows, so a float LP witness is certified at its solved eps plus a margin.  The
numerators come from one of two routes, which give the same report:

* the level route (:func:`verify_levels`) for an ``AffineForm`` against a halfspace or
  a majority, and for the AND tradeoff's block counts: p and f read x only through a
  pair of integer statistics, so a DP finds the reachable pairs, outer is evaluated once
  per reachable statistic, and the cube is never built.  Its cap is
  :data:`LEVEL_STATE_CAP` on the DP's states, not ``CUBE_CAP``;
* the cube scan for every other pair, over the cube numerators of p, within
  ``CUBE_CAP``.  An affine form whose level states pass their cap within ``CUBE_CAP``
  is scanned this way too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import lp as lpmod
from .cube import (CUBE_CAP, NEGATIVE, POSITIVE, TWOSIDED, BoolFunc, Concept, Conjunction, Disjunction,
                   Halfspace, Majority, cube_matrix, eval_concept_batch, target_values)
from .errors import InputError, ResourceLimitError
from .poly import (AffineForm, SparsePolynomial, StructuredPolynomial, UniPoly, characters, cube_numerators,
                   from_lp_solution, monomials_upto)

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


def _both_sides(side: int, mode: str) -> bool:
    """Whether the mode bounds p on both sides where f = side, |p - f| <= eps, not only f p >= 1 - eps."""
    return mode != (POSITIVE if side == 1 else NEGATIVE)


def _worst_slacks(extremes: dict[int, set[int]], den: int, e: int, k: int,
                  mode: str) -> tuple[dict[int, int], set[tuple[int, int]]]:
    """The slack rule of both routes, on each side's extremes, exactly for eps = e / k.

    ``extremes[side]`` holds the least and the largest numerator of p = numerator / den over
    the points where f = side.  With g = f * numerator, the slack times den * k is
    max(den (k - e) - k g, k g - den (k + e)), the second term only where the mode bounds p
    on both sides.  The first term falls and the second rises with g, so a side's worst
    slack is at one of its extremes, and no numerator strictly between reaches it.  Returns
    the worst slack of each side present (times den * k), and the (side, numerator) pairs
    where the largest of them is reached when it is > 0, which the witness is the earliest
    point of; none when it is <= 0.
    """
    slacks = {}
    for side, nums in extremes.items():
        for num in nums:
            g = side * num
            slacks[side, num] = den * (k - e) - k * g
            if _both_sides(side, mode):
                slacks[side, num] = max(slacks[side, num], k * g - den * (k + e))
    worst: dict[int, int] = {}
    for (side, _), slack in slacks.items():
        worst[side] = max(worst.get(side, slack), slack)
    largest = max(worst.values())
    return worst, {key for key, slack in slacks.items() if slack == largest > 0}


def _exact_eps(eps: float) -> tuple[int, int]:
    if not math.isfinite(eps):
        raise InputError(f"eps must be finite, got {eps}")
    return Fraction(eps).as_integer_ratio()


def _report(eps: float, worst: dict[int, int], scale: int, points: int, witness) -> CertReport:
    """The report of the exact worst slacks ``worst[side]`` (times ``scale``) over the sides present."""
    wp, wn = (float(Fraction(worst[side], scale)) if side in worst else float("-inf") for side in (1, -1))
    return CertReport(float(eps), wp, wn, points, witness)


def _scan(
    p: StructuredPolynomial,
    f: BoolFunc,
    eps: float,
    mode: str,
) -> CertReport:
    """The level route for an affine form against a threshold, one variable per group; the cube
    scan for every other pair, and for those whose level states pass the cap within ``CUBE_CAP``."""
    n = p.n
    if getattr(f, "n", None) not in (None, n):
        raise InputError(f"polynomial dimension {n} != target dimension {f.n}")
    if isinstance(p, AffineForm) and isinstance(f, (Halfspace, Majority)):
        try:
            return verify_levels(p.outer, p.w0, f.w0, _variable_groups(p.w, f.w), eps, mode)
        except ResourceLimitError:
            if n > CUBE_CAP:
                raise
    e, k = _exact_eps(eps)
    nums, denom = cube_numerators(p)  # first: past CUBE_CAP it raises before anything spans the cube
    X = cube_matrix(n)
    fvals = target_values(f, X)
    extremes = {}  # no per-point arithmetic beyond min, max and ==
    for side in (1, -1):
        on_side = fvals == side
        if on_side.any():
            first = nums[np.argmax(on_side)]
            extremes[side] = {int(reduce(nums, where=on_side, initial=first)) for reduce in (np.min, np.max)}
    worst, peaks = _worst_slacks(extremes, denom, e, k, mode)
    wit = None
    if peaks:
        hit = np.zeros(nums.shape, dtype=bool)
        for side, num in peaks:
            hit |= (fvals == side) & (nums == num)
        wit = tuple(int(v) for v in X[int(np.argmax(hit))])
    return _report(eps, worst, denom * k, int(X.shape[0]), wit)


#: Cap on the states of :func:`verify_levels`, summed over its suffix sets.  It admits every pair
#: of forms over n <= 19, whose suffix sets hold at most 2^(n+1) - 1 states; at n = 19 with
#: distinct subset sums in both forms (1.05M states) a check peaked at 351 MB RSS in 2.3 s, and a
#: check that reaches the cap takes about 1.3 s before it raises.
LEVEL_STATE_CAP = 1_100_000

#: One group of :func:`verify_levels`: each (p statistic, f statistic) value pair the group takes,
#: mapped to the earliest assignment of its variables that takes it, in that order.
Group = Mapping[tuple[int, int], tuple[int, ...]]


def _variable_groups(w: Sequence[int], v: Sequence[int]) -> list[Group]:
    """One group per variable j, taking (-w_j, -v_j) at -1 and (w_j, v_j) at +1."""
    groups = []
    for wj, vj in zip(w, v):
        group: dict = {}
        for bit in (-1, 1):
            group.setdefault((bit * wj, bit * vj), (bit,))  # a variable neither form reads has one value
        groups.append(group)
    return groups


def verify_levels(outer: UniPoly, a0: int, b0: int, groups: Sequence[Group], eps: float, mode: str) -> CertReport:
    """The certificate of p = outer(a0 + sum_G g_G(x_G)) against f = sgn(b0 + sum_G h_G(x_G)) in
    ``mode``, equal to the cube scan's, without building the cube.

    The groups G are consecutive runs of the variables x_1..x_n, in order; ``groups[i]``
    maps each pair (g, h) that group i takes to the earliest assignment of its variables
    (in ``cube_matrix`` order) that takes it, listed in that order.  p and f depend on x
    only through the pair of statistics (a0 + sum g, b0 + sum h), so:

    * a suffix DP finds the pairs each suffix of groups reaches; outer is evaluated once
      per reachable p statistic, by integer Horner, and the slack rule of the cube scan
      runs on each side's extremes;
    * the witness is the earliest cube row of the largest slack: a walk over the groups
      takes, in order, the first value from which the rest still reach a pair of that
      slack, and appends its earliest assignment.

    ``points_checked`` is 2^n.  The suffix sets hold at most :data:`LEVEL_STATE_CAP` states
    in all; past it the DP raises ``ResourceLimitError``.
    """
    if mode not in (POSITIVE, NEGATIVE, TWOSIDED):
        raise InputError(f"mode must be positive, negative or twosided, got {mode!r}")
    e, k = _exact_eps(eps)
    reach = [{(0, 0)}]  # reach[-1]: the sums over the groups after the one being added
    states = 1
    n = 0
    for group in reversed(groups):
        n += len(next(iter(group.values())))
        if len(group) == 1 and (0, 0) in group:  # a group neither form reads adds no state
            reach.append(reach[-1])
            continue
        reach.append({(g + sg, h + sh) for g, h in group for sg, sh in reach[-1]})
        states += len(reach[-1])
        if states > LEVEL_STATE_CAP:
            raise ResourceLimitError(f"level certificate passes {LEVEL_STATE_CAP} states")
    reach.reverse()  # reach[i]: the sums over groups[i:]

    nums = {stat: outer.numerator_at(stat) for stat in {a0 + g for g, _ in reach[0]}}  # p = num / outer.den
    levels = {(g, h): (1 if b0 + h > 0 else -1, nums[a0 + g]) for g, h in reach[0]}  # (side, numerator)
    on_side: dict[int, list[int]] = {1: [], -1: []}
    for side, num in levels.values():
        on_side[side].append(num)
    extremes = {side: {min(values), max(values)} for side, values in on_side.items() if values}
    worst, peaks = _worst_slacks(extremes, outer.den, e, k, mode)
    wit = None
    if peaks:
        need = {pair for pair, level in levels.items() if level in peaks}
        wit = []
        for group, rest in zip(groups, reach[1:]):
            for (g, h), bits in group.items():
                after = {(ng - g, nh - h) for ng, nh in need} & rest  # what the rest must still reach
                if after:
                    need = after
                    wit += bits
                    break
        wit = tuple(wit)
    return _report(eps, worst, outer.den * k, 2**n, wit)


def verify_onesided(
    p: StructuredPolynomial,
    f: BoolFunc,
    eps: float,
    sign: str,
) -> CertReport:
    """Exhaustively check the one-sided approximation conditions.

    Positive sign requires p >= 1 - eps on f^{-1}(+1) and |p + 1| <= eps on
    f^{-1}(-1); negative sign is the mirror.  The reported witness is the worst
    violating point, earliest among ties in the lexicographic order of
    ``cube_matrix``, on either route.
    """
    if sign not in (POSITIVE, NEGATIVE):
        raise InputError(f"sign must be positive or negative, got {sign!r}")
    return _scan(p, f, eps, sign)


def verify_twosided(
    p: StructuredPolynomial,
    f: BoolFunc,
    eps: float,
) -> CertReport:
    """Exhaustively check |p(x) - f(x)| <= eps over the full cube, on the routes of :func:`verify_onesided`."""
    return _scan(p, f, eps, TWOSIDED)


def _error_program(matrix: np.ndarray, fvals: np.ndarray, mode: str) -> lpmod.LinearProgram:
    """The program min eps over the columns [coefficients | eps], where row r of ``matrix``
    holds the basis values at a point of target value fvals[r].

    Rows are grouped by point: -f p - eps <= -1 (p gets within eps of f), followed, where
    the mode bounds both sides there, by f p - eps <= 1 (p overshoots f by at most eps).
    """
    from scipy import sparse  # loaded on the first LP build, as in onesided.lp

    both = np.where(fvals == 1, _both_sides(1, mode), _both_sides(-1, mode))
    point = np.repeat(np.arange(matrix.shape[0]), 1 + both)
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
