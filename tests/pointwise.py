"""A point-by-point exact reference for cube values and certification, one Fraction at a time."""

import itertools
import math
from fractions import Fraction

from onesided.cube import NEGATIVE, POSITIVE, cube_matrix
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
