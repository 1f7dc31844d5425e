"""Point-by-point references: exact cube values and certification, one Fraction at a time, the
reliable and fully reliable brute-force optima, one bank row at a time, and univariate
polynomials and step polynomials, one Fraction coefficient at a time."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from onesided.cube import NEGATIVE, POSITIVE, constant_concept, cube_matrix, eval_concept_batch, format_concept
from onesided.poly import SparsePolynomial, SumForm, eval_exact


def exact_value(p, x):
    """p(x) with every coefficient taken as its exact Fraction, as certification takes it."""
    if isinstance(p, SparsePolynomial):
        return sum((Fraction(c) * math.prod(x[v - 1] for v in mono) for mono, c in p.terms.items()), Fraction(0))
    if isinstance(p, SumForm):
        return sum((exact_value(part, x) for part in p.parts), p.offset)
    return eval_exact(p, x)


def pointwise_slacks(p, f, eps, mode):
    """(x, f(x), slack) at every cube point in ``cube_matrix`` row order, one Fraction at a time."""
    eps_q = Fraction(eps)
    for row in cube_matrix(p.n):
        x = tuple(int(b) for b in row)
        v, fx = exact_value(p, x), f(x)
        if fx == 1:
            slack = (1 - eps_q) - v if mode == POSITIVE else abs(v - 1) - eps_q
        else:
            slack = v - (eps_q - 1) if mode == NEGATIVE else abs(v + 1) - eps_q
        yield x, fx, slack


def pointwise_report(p, f, eps, mode):
    """CertReport JSON of a point-by-point Fraction scan: the worst slack on each side of f, and
    the earliest point of the largest slack as witness when that slack is > 0."""
    worst, witness, witness_slack = {1: None, -1: None}, None, Fraction(0)
    for x, fx, slack in pointwise_slacks(p, f, eps, mode):
        if worst[fx] is None or slack > worst[fx]:
            worst[fx] = slack
        if slack > witness_slack:
            witness, witness_slack = list(x), slack
    wp, wn = (float(worst[s]) if worst[s] is not None else float("-inf") for s in (1, -1))
    return {"ok": witness is None, "eps": float(eps), "worst_pos": wp, "worst_neg": wn,
            "points": 2**p.n, "witness": witness}


def table_target(table):
    """The Boolean function with these values in ``cube_matrix`` row order."""
    n = len(table).bit_length() - 1
    return dict(zip(itertools.product((-1, 1), repeat=n), table)).__getitem__


def onesided_opt_by_rows(s, bank, mode):
    """``brute_opt(s, bank, mode)`` for ``positive`` or ``negative``, one pass over the sample per
    bank row: among the concepts that never answer the mode's sign on a point of the other label,
    the first in bank order with the smallest (error count on the mode's label, encoding); when
    there is none, the constant of the other sign and its error count.  Rates are counts over m."""
    sign = 1 if mode == POSITIVE else -1
    best = None  # (count, name, i)
    for i, c in enumerate(bank):
        pred = eval_concept_batch(c, s.points)
        if np.any((pred == sign) & (s.labels == -sign)):
            continue
        cand = (int(np.count_nonzero((pred == -sign) & (s.labels == sign))), format_concept(c), i)
        if best is None or cand[:2] < best[:2]:
            best = cand
    if best is None:
        return np.count_nonzero(s.labels == sign) / s.m, constant_concept(s.n, -sign)
    return best[0] / s.m, bank[best[2]]


def fully_opt_by_rows(s, bank):
    """``brute_opt(s, bank, "fully")`` with one mat-vec per bank row i: the masked sums of the pairs
    (i, j) over the distinct points, and the first pair in (i, j) order among the smallest
    (abstain rate, sorted pair of encodings)."""
    pts, npos, nneg = s.deduped
    m = s.m
    work = list(bank)
    keys = {format_concept(c) for c in work}
    for sentinel in (constant_concept(s.n, -1), constant_concept(s.n, 1)):
        if format_concept(sentinel) not in keys:
            work.append(sentinel)
    E = np.stack([eval_concept_batch(c, pts) for c in work]).astype(np.float64)
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


@dataclass(frozen=True)
class FractionPoly:
    """A univariate polynomial as one reduced Fraction per coefficient, each operation taking a gcd
    per coefficient: the reference for ``poly.UniPoly``.  coeffs[i] is the coefficient of t^i;
    trailing zeros are stripped."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, t):
        acc = Fraction(0) if isinstance(t, (Fraction, int)) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return FractionPoly(tuple(ai + bi for ai, bi in itertools.zip_longest(a, b, fillvalue=Fraction(0))))

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return FractionPoly(tuple(c * other for c in self.coeffs))
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly(tuple(out))

    __rmul__ = __mul__

    def shift(self, c):
        cs = list(self.coeffs) or [Fraction(0)]
        cs[0] += Fraction(c)
        return FractionPoly(tuple(cs))

    def compose_affine(self, alpha, beta):
        inner = FractionPoly((Fraction(beta), Fraction(alpha)))
        acc = FractionPoly((Fraction(0),))
        for c in reversed(self.coeffs):
            acc = (acc * inner).shift(c)
        return acc

    def pow(self, k):
        acc = FractionPoly((Fraction(1),))
        for _ in range(k):
            acc = acc * self
        return acc

    def max_abs_coeff(self):
        return max((abs(c) for c in self.coeffs), default=Fraction(0))


def fraction_chebyshev(d):
    """T_d by T_{k+1} = 2t*T_k - T_{k-1}, in :class:`FractionPoly`."""
    prev, cur = FractionPoly((1,)), FractionPoly((0, 1))
    if d == 0:
        return prev
    for _ in range(d - 1):
        prev, cur = cur, FractionPoly((0, 2)) * cur + Fraction(-1) * prev
    return cur


def fraction_step_poly(params):
    """``constructions.step_poly`` in :class:`FractionPoly`: C^-1 * prod_{i=0..a}(t-i) *
    prod_{j=W-b..W-1}(t-j) * T_r((t-a)/(W-b-a)), with C the same expression at t = W."""
    W, a, b, r = params.W, params.a, params.b, params.r
    prod = FractionPoly((1,))
    for root in itertools.chain(range(a + 1), range(W - b, W)):
        prod = prod * FractionPoly((-root, 1))
    poly = prod * fraction_chebyshev(r).compose_affine(Fraction(1, W - b - a), Fraction(-a, W - b - a))
    return poly * (1 / poly(W))
