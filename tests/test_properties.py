"""Property tests; they need the optional ``hypothesis`` package (the ``test`` extra)."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from onesided.cube import Majority, constant_concept, cube_matrix, dedup, eval_concept_batch, format_concept
from onesided.harness import (NoiseModel, brute_opt, generate, majority_bank,
                              monotone_disjunction_bank)
from onesided.lp import FEASIBILITY_TOL, LinearProgram, check_feasible, solve
from onesided.poly import (AffineForm, SparseForm, SparsePolynomial, UniPoly,
                           eval_exact, eval_on_cube, exact_multilinear, expand)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


# ---------------------------------------------------------------------------
# LP layer


@st.composite
def feasible_programs(draw):
    """Random bounded LPs built around a known feasible point x0 >= 0."""
    seed = draw(st.integers(0, 2**32 - 1))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    A = rng.uniform(-2, 2, size=(rows, cols)) * (rng.random((rows, cols)) < 0.7)
    x0 = rng.uniform(0, 3, size=cols)
    b = A @ x0 + rng.uniform(0, 1, size=rows)
    c = rng.uniform(-1, 1, size=cols)
    return LinearProgram(c, sparse.csr_array(A), b, bounds=tuple((0.0, 5.0) for _ in range(cols)))


@settings(max_examples=60, deadline=None)
@given(feasible_programs())
def test_solution_is_feasible_property(program):
    sol = solve(program)
    assert sol.status == "optimal"
    assert check_feasible(program, sol.values) <= FEASIBILITY_TOL


# ---------------------------------------------------------------------------
# Brute-force optimum, fully reliable mode


def _fully_opt_by_masked_sums(s, bank):
    """Reference for the fully mode: integer masked sums over the points, pair by pair."""
    pts, npos, nneg = dedup(s.points, s.labels)
    work = list(bank)
    names = [format_concept(c) for c in work]
    for value in (-1, 1):
        if format_concept(constant_concept(s.n, value)) not in names:
            work.append(constant_concept(s.n, value))
            names.append(format_concept(work[-1]))
    E = np.stack([eval_concept_batch(c, pts) for c in work])
    best = None
    for i in range(len(work)):
        for j in range(len(work)):
            agree = E[j] == E[i]
            err = int(np.where(E[i] == 1, nneg, npos)[agree].sum())
            if err == 0:
                unk = (s.m - int((npos + nneg)[agree].sum())) / s.m
                cand = (unk, *sorted((names[i], names[j])))
                best = cand if best is None or cand < best else best
    return best


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 60), seed=st.integers(0, 2**31), eta=st.sampled_from([0.0, 0.1, 0.3]))
def test_brute_opt_fully_matches_masked_sums(n, m, seed, eta):
    s = generate(Majority(n, tuple(range(1, n + 1))), NoiseModel("symmetric", eta), m, seed=seed)
    bank = majority_bank(n) + monotone_disjunction_bank(n)
    value, pair = brute_opt(s, bank, "fully")
    assert (value, *sorted(format_concept(c) for c in pair)) == _fully_opt_by_masked_sums(s, bank)


# ---------------------------------------------------------------------------
# Walsh-Hadamard transform against the per-point paths
#
# A round trip through the transform cannot catch a consistently wrong index
# or sign convention, so each face is compared with a per-point evaluation.

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=50)


@st.composite
def exact_sparse_forms(draw):
    n = draw(st.integers(0, 7))
    monomial = st.sets(st.integers(1, n), max_size=n).map(lambda s: tuple(sorted(s))) if n else st.just(())
    return SparseForm(SparsePolynomial(n, draw(st.dictionaries(monomial, fractions, max_size=20))))


@settings(max_examples=80, deadline=None)
@given(exact_sparse_forms())
def test_eval_on_cube_matches_pointwise_eval(p):
    assert eval_on_cube(p) == [p.poly.eval(tuple(int(b) for b in row)) for row in cube_matrix(p.n)]


@st.composite
def affine_forms(draw):
    n = draw(st.integers(1, 8))  # n and the outer degree (at most 9) stay inside EXPANSION_CAP
    outer = UniPoly(tuple(draw(st.lists(fractions, max_size=10))))
    return AffineForm(outer, draw(st.integers(-3, 3)), tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))))


@settings(max_examples=60, deadline=None)
@given(affine_forms())
def test_expand_matches_eval_exact(p):
    q = expand(p)
    for row in cube_matrix(p.n):
        bits = tuple(int(b) for b in row)
        assert q.eval(bits) == eval_exact(p, bits)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(st.sampled_from([-1, 1]), min_size=2**n, max_size=2**n)))
def test_exact_multilinear_matches_character_sums(table):
    n = len(table).bit_length() - 1
    points = list(itertools.product((-1, 1), repeat=n))  # cube_matrix row order
    f = dict(zip(points, table))
    want = {}
    for size in range(n + 1):
        for mono in itertools.combinations(range(1, n + 1), size):
            total = sum(f[x] * int(np.prod([x[v - 1] for v in mono])) for x in points)
            if total:
                want[mono] = Fraction(total, 2**n)
    assert exact_multilinear(f.__getitem__, n).terms == want
