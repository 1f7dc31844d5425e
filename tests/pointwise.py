"""Point-by-point references: exact cube values and certification, one Fraction at a time, and the
fully reliable brute-force optimum, one bank row at a time."""

import itertools
import math
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
