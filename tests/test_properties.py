"""Property tests; they need the optional ``hypothesis`` package (the ``test`` extra)."""

import collections
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy import optimize, sparse
from pointwise import FractionPoly
from pointwise import exact_value as _exact_value
from pointwise import pointwise_report as _pointwise_report
from pointwise import pointwise_slacks as _pointwise_slacks
from pointwise import table_target as _target
from test_learn import brute_threshold_scan

import onesided.learn as learn
import onesided.lp as lpmod
from onesided.certify import min_eps, verify_onesided, verify_twosided
from onesided.constructions import halfspace_onesided
from onesided.cube import (NEGATIVE, POSITIVE, TWOSIDED, Cnf, Conjunction, Disjunction, Dnf, ErrorMetrics,
                           Halfspace, LabeledSample, Majority, constant_concept, cube_matrix, dedup,
                           empirical_metrics, eval_concept, eval_concept_batch, format_concept, linear_form,
                           majority_as_halfspace, make_sample, predict)
from onesided.errors import InfeasibleError
from onesided.harness import (NoiseModel, brute_opt, generate, majority_bank,
                              monotone_disjunction_bank)
from onesided.learn import (CALIBRATION_FACTOR, COEF_GRID, ReliableHypothesis, agnostic_l1_fit,
                            agreement_hypothesis, chop, choose_error_threshold, derandomize, reliable_fit)
from onesided.lp import FEASIBILITY_TOL, LinearProgram, check_feasible, solve
from onesided.poly import (AffineForm, SparsePolynomial, SumForm, UniPoly, characters, compose_counts,
                           cube_numerators, eval_exact, eval_on_cube, exact_multilinear, expand, interpolate,
                           monomials_upto, sparse_eval_batch)

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


@settings(max_examples=60)
@given(feasible_programs())
def test_solution_is_feasible_property(program):
    sol = solve(program)
    assert check_feasible(program, sol.values) <= FEASIBILITY_TOL


# ---------------------------------------------------------------------------
# The L1 fit and the error oracle against independently solved LPs


def _two_row_l1_optimum(counts, n, d, W):
    """Optimum of the L1 fit written with two rows per distinct labeled point (x, y) of count w:
    p(x) - e <= y and -p(x) - e <= -y, then |c_S| <= u_S and sum u <= W; minimize sum w e."""
    monos = monomials_upto(n, d)
    M, k = len(monos), len(counts)
    rows, b = [], []
    for j, (x, y) in enumerate(counts):
        chi = [math.prod(x[v - 1] for v in mono) for mono in monos]
        e = [0] * k
        e[j] = -1
        rows += [chi + [0] * M + e, [-v for v in chi] + [0] * M + e]
        b += [y, -y]
    for i in range(M):
        for sgn in (1, -1):
            row = [0] * (2 * M + k)
            row[i], row[M + i] = sgn, -1
            rows.append(row)
            b.append(0)
    rows.append([0] * M + [1] * M + [0] * k)
    b.append(W)
    res = optimize.linprog([0] * (2 * M) + list(counts.values()), A_ub=np.array(rows, dtype=float), b_ub=b,
                           bounds=[(None, None)] * M + [(0, None)] * (M + k), method="highs")
    assert res.status == 0
    return res.fun


@st.composite
def repeated_samples(draw):
    """Samples over a small pool of points, so points repeat and some carry both labels."""
    n = draw(st.integers(1, 5))
    pool = draw(st.lists(st.tuples(*[st.sampled_from([-1, 1])] * n), min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from([-1, 1])), min_size=1, max_size=30))
    return make_sample([x for x, _ in picks], [y for _, y in picks], n)


@settings(max_examples=80)
@given(s=repeated_samples(), d=st.integers(1, 3), W=st.sampled_from([0.0, 0.5, 2.0]))
def test_agnostic_l1_fit_matches_two_row_lp(s, d, W):
    d = min(d, s.n)
    p, report = agnostic_l1_fit(s, d, W)
    counts = collections.Counter((tuple(int(v) for v in x), int(y)) for x, y in zip(s.points, s.labels))
    assert report.objective_value == pytest.approx(_two_row_l1_optimum(counts, s.n, d, W), rel=1e-9, abs=1e-9)
    loss = sum(w * abs(float(p.eval(x)) - y) for (x, y), w in counts.items())
    assert report.objective_value == pytest.approx(loss, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# The butterfly route of the fits against the dense route


def _fit_by_route(butterfly: bool, fit, *args):
    """``fit(*args)`` with p at the sample points written the given way, or None when the LP
    is infeasible."""
    with mock.patch.object(learn, "_takes_butterfly", lambda n, k, M: butterfly):
        try:
            return fit(*args)
        except InfeasibleError:
            return None


@st.composite
def small_samples(draw):
    """Samples over a pool of points at n <= 6, so points repeat and some carry both labels."""
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(st.tuples(*[st.sampled_from([-1, 1])] * n), min_size=1, max_size=12))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from([-1, 1])), min_size=1, max_size=40))
    return make_sample([x for x, _ in picks], [y for _, y in picks], n)


# ---------------------------------------------------------------------------
# The dense fits solved through their dual against the same primal solved as written


def _dense_fit(through_dual: bool, fit, *args):
    """``fit(*args)`` on the dense route with its program solved through the dual or as written,
    and that primal program; None when the LP is infeasible."""
    seen = {}
    real_dual = lpmod.dual

    def dual(program):
        seen["program"] = program
        return real_dual(program) if through_dual else program

    with mock.patch.object(learn, "_takes_butterfly", lambda n, k, M: False), mock.patch.object(lpmod, "dual", dual):
        try:
            return fit(*args), seen["program"]
        except InfeasibleError:
            return None


def _one_optimal_polynomial(program, value: float, M: int) -> bool:
    """Whether the coefficients c (the first M columns) take one value on the program's optimal
    face: a generic functional of c spans at most 1e-7 on the points within 1e-9 of the optimum."""
    r = np.zeros(program.nvars)
    r[:M] = np.random.default_rng(0).standard_normal(M)
    A_ub = sparse.vstack([program.A_ub, program.c[None, :]], format="csr")
    b_ub = np.append(program.b_ub, value + 1e-9 * max(1.0, abs(value)))
    lo, neg_hi = (solve(LinearProgram(sgn * r, A_ub, b_ub, program.A_eq, program.b_eq, program.bounds)).objective_value
                  for sgn in (1.0, -1.0))
    return -neg_hi - lo <= 1e-7


@st.composite
def wide_samples(draw):
    """Samples over a pool of points at n <= 8, so points repeat and some carry both labels."""
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(st.tuples(*[st.sampled_from([-1, 1])] * n), min_size=1, max_size=24))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from([-1, 1])), min_size=1, max_size=60))
    return make_sample([x for x, _ in picks], [y for _, y in picks], n)


@settings(max_examples=100, deadline=None)
@given(s=wide_samples(), d=st.integers(0, 3), W=st.sampled_from([0.0, 0.25, 1.0, 4.0, 64.0]),
       fit=st.sampled_from([POSITIVE, NEGATIVE, "l1"]))
def test_dual_route_matches_the_primal(s, d, W, fit):
    d = min(d, s.n)
    args = (agnostic_l1_fit, s, d, W) if fit == "l1" else (reliable_fit, s, d, W, 0.25, fit)
    via_dual, via_primal = _dense_fit(True, *args), _dense_fit(False, *args)
    assert (via_dual is None) == (via_primal is None)
    if via_dual is None:
        return
    ((p, report), program), ((q, ref), _) = via_dual, via_primal
    obj = ref.objective_value
    assert abs(report.objective_value - obj) <= 1e-9 * max(1.0, abs(obj))
    # the recovered x is a feasible point of the primal with the optimal value
    x = solve(lpmod.dual(program)).values
    assert check_feasible(program, x) <= FEASIBILITY_TOL
    assert abs(program.c @ x - obj) <= 1e-9 * max(1.0, abs(obj))
    # two optimal vertices can differ where the optimum is not unique; where it is, both routes find it
    if _one_optimal_polynomial(program, obj, len(monomials_upto(s.n, d))):
        assert all(abs(p.terms.get(S, 0.0) - q.terms.get(S, 0.0)) <= COEF_GRID for S in p.terms.keys() | q.terms.keys())
        assert report.constraints_active == ref.constraints_active


def _butterfly_fit(fit, *args):
    """``fit(*args)`` on the butterfly route, with the program it solved and that program's
    optimum x; None when the LP is infeasible."""
    seen = {}
    real_solve = lpmod.solve

    def solve_and_keep(program):
        seen["program"], seen["sol"] = program, real_solve(program)
        return seen["sol"]

    with mock.patch.object(learn, "_takes_butterfly", lambda n, k, M: True), \
            mock.patch.object(lpmod, "solve", solve_and_keep):
        try:
            return fit(*args), seen["program"], seen["sol"].values
        except InfeasibleError:
            return None


@settings(max_examples=100, deadline=None)
@given(s=wide_samples().filter(lambda s: s.n <= 7), d=st.integers(0, 7),
       W=st.sampled_from([0.0, 0.25, 1.0, 4.0, 64.0]), fit=st.sampled_from([POSITIVE, NEGATIVE, "l1"]))
def test_butterfly_fit_matches_dense_fit(s, d, W, fit):
    # the butterfly of two-bit stages against the dense character block, W from infeasible to loose
    d = min(d, s.n)
    args = (agnostic_l1_fit, s, d, W) if fit == "l1" else (reliable_fit, s, d, W, 0.25, fit)
    dense, butterfly = _fit_by_route(False, *args), _butterfly_fit(*args)
    assert (dense is None) == (butterfly is None)
    if dense is None:
        return
    (q, ref), ((p, report), program, x) = dense, butterfly
    obj = ref.objective_value
    assert abs(report.objective_value - obj) <= 1e-9 * max(1.0, abs(obj))
    assert check_feasible(program, x) <= FEASIBILITY_TOL
    # the butterfly's polynomial has that loss (up to its rounding to COEF_GRID)
    v = sparse_eval_batch(p, s.points)
    if fit == "l1":
        loss = np.abs(v - s.labels).sum()
    else:
        side = 1.0 if fit == POSITIVE else -1.0
        loss = np.maximum(0.0, 1.0 - side * v[s.labels == side]).sum()
    assert abs(loss - obj) <= 1e-6 * max(1.0, abs(obj))
    # two optimal vertices can differ where the optimum is not unique; where it is, both routes find it
    if _one_optimal_polynomial(program, obj, len(monomials_upto(s.n, d))):
        assert all(abs(p.terms.get(S, 0.0) - q.terms.get(S, 0.0)) <= COEF_GRID for S in p.terms.keys() | q.terms.keys())


def _pair_capped_optimum(s, d, W, fit):
    """Optimum of a fit with the weight cap written over [c | u | slacks] as the row pair
    c_S - u_S <= 0, -c_S - u_S <= 0 per monomial and sum u <= W, p dense at the distinct points;
    None when infeasible."""
    distinct, pos, negc = s.deduped
    phi = characters(distinct, monomials_upto(s.n, d)).astype(float)
    M = phi.shape[1]
    if fit == "l1":
        seen = [(j, y, w) for j in range(len(distinct)) for y, w in ((-1, negc[j]), (1, pos[j])) if w]
        k = len(seen)
        A_eq = np.hstack([phi[[j for j, _, _ in seen]], np.zeros((k, M)), -np.eye(k), np.eye(k)])
        b_eq, A_ub, b_ub = [y for _, y, _ in seen], np.zeros((0, 2 * M + 2 * k)), []
        weights = [w for _, _, w in seen] * 2
    else:
        side, hinge_w, hard_w = (1.0, pos, negc) if fit == POSITIVE else (-1.0, negc, pos)
        hinge, hard = phi[hinge_w > 0], phi[hard_w > 0]
        nh = len(hinge)
        A_ub = np.block([[-side * hinge, np.zeros((nh, M)), -np.eye(nh)],
                         [side * hard, np.zeros((len(hard), M + nh))]])
        b_ub = [-1.0] * nh + [-0.75] * len(hard)
        A_eq = b_eq = None
        weights = list(hinge_w[hinge_w > 0])
    nslack = len(weights)
    split = np.zeros((2 * M + 1, 2 * M + nslack))
    for j in range(M):
        split[2 * j, [j, M + j]] = [1, -1]
        split[2 * j + 1, [j, M + j]] = [-1, -1]
    split[-1, M:2 * M] = 1
    res = optimize.linprog([0.0] * (2 * M) + weights, A_ub=np.vstack([A_ub, split]),
                           b_ub=list(b_ub) + [0.0] * (2 * M) + [W], A_eq=A_eq, b_eq=b_eq,
                           bounds=[(None, None)] * M + [(0, None)] * (M + nslack), method="highs")
    assert res.status in (0, 2)
    return res.fun if res.status == 0 else None


@settings(max_examples=80, deadline=None)
@given(s=small_samples(), d=st.integers(0, 6), W=st.sampled_from([0.0, 0.25, 1.0, 4.0]),
       fit=st.sampled_from([POSITIVE, NEGATIVE, "l1"]), butterfly=st.booleans())
def test_split_cap_fit_matches_pair_capped_fit(s, d, W, fit, butterfly):
    # c = c+ - c- with sum (c+ + c-) <= W against the [c | u] row pairs, on either route
    d = min(d, s.n)
    args = (agnostic_l1_fit, s, d, W) if fit == "l1" else (reliable_fit, s, d, W, 0.25, fit)
    ours, ref = _fit_by_route(butterfly, *args), _pair_capped_optimum(s, d, W, fit)
    if ref is None:
        assert ours is None
        return
    p, report = ours
    assert abs(report.objective_value - ref) <= 1e-7 * max(1.0, abs(ref))
    # rounding to COEF_GRID moves each of the M coefficients by at most half a grid step
    assert sum(abs(c) for c in p.terms.values()) <= W + len(monomials_upto(s.n, d)) * 2.0**-33


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), d=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_butterfly_rows_give_p_on_the_cube(n, d, seed):
    # z_t from a plain Walsh-Hadamard pass two bits at a time (from the top pair down, bit 0 alone
    # last when n is odd) satisfies every butterfly row, and P x = characters c for
    # x = [c | gap | z] over the whole column layout
    monos = monomials_upto(n, min(d, n))
    rng = np.random.default_rng(seed)
    c, gap = rng.integers(-9, 10, len(monos)).astype(float), int(rng.integers(0, 4))
    X = cube_matrix(n)[rng.permutation(2**n)]
    with mock.patch.object(learn, "_takes_butterfly", lambda n, k, M: True):
        P, B = learn._point_values(X, monos, gap)
    z = np.zeros(2**n)
    z[[sum(1 << (v - 1) for v in mono) for mono in monos]] = c
    h = np.array([[1, 1], [1, -1]])
    stages = []
    for lo, r in [(lo, 2) for lo in range(n - 2, -1, -2)] + [(0, 1)] * (n % 2):
        # the entries of z that differ only in bits lo .. lo + r - 1 times the 2^r-point Walsh-Hadamard matrix
        z = np.einsum("ij,ajb->aib", h if r == 1 else np.kron(h, h), z.reshape(-1, 2**r, 2**lo)).ravel()
        stages.append(z)
    assert len(stages) == (n + 1) // 2 and B.shape[0] == len(stages) * 2**n
    x = np.concatenate([c, np.zeros(gap), *stages])
    assert np.array_equal(B @ x, np.zeros(B.shape[0]))
    assert np.array_equal(P @ x, sparse_eval_batch(SparsePolynomial(n, dict(zip(monos, c))), X))


@settings(max_examples=200)
@given(n=st.integers(1, 6), data=st.data())
def test_grid_coefficients_evaluate_exactly(n, data):
    # a polynomial rounded to COEF_GRID, as the fits return it, has exact float values
    monos = data.draw(st.lists(st.sets(st.integers(1, n)).map(lambda v: tuple(sorted(v))),
                               min_size=1, max_size=20, unique=True))
    coefs = data.draw(st.lists(st.floats(-16.0, 16.0), min_size=len(monos), max_size=len(monos)))
    p = SparsePolynomial(n, {m: float(np.round(c / COEF_GRID) * COEF_GRID) for m, c in zip(monos, coefs)})
    X = cube_matrix(n)
    exact = [sum(Fraction(c) * math.prod(int(x[v - 1]) for v in m) for m, c in p.terms.items()) for x in X]
    assert [Fraction(v) for v in sparse_eval_batch(p, X)] == exact


_FRACTION_COEFS = st.fractions(-1000, 1000, max_denominator=10**6)
_FLOAT_COEFS = st.floats(-1e6, 1e6)


@settings(max_examples=200)
@given(n=st.integers(1, 5), kind=st.sampled_from(["fraction", "float", "mixed"]), data=st.data())
def test_weight_matches_the_pairwise_sum(n, kind, data):
    coef = {"fraction": _FRACTION_COEFS, "float": _FLOAT_COEFS,
            "mixed": st.one_of(_FRACTION_COEFS, _FLOAT_COEFS)}[kind]
    terms = data.draw(st.dictionaries(st.sets(st.integers(1, n)).map(lambda v: tuple(sorted(v))), coef, max_size=20))
    p = SparsePolynomial(n, terms)
    pairwise = sum((abs(c) for c in p.terms.values()), start=Fraction(0))  # one Fraction addition per term
    assert p.weight == pairwise and type(p.weight) is type(pairwise)


@st.composite
def symmetric_targets(draw):
    """MAJ, OR and AND over a random support of at most 6 variables, possibly empty, literals signed
    for OR and AND."""
    n = draw(st.integers(1, 6))
    support = draw(st.lists(st.integers(1, n), min_size=0, max_size=n, unique=True))
    kind = draw(st.sampled_from([Majority, Disjunction, Conjunction]))
    if kind is Majority:
        return Majority(n, tuple(support))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(support), max_size=len(support)))
    return kind(n, tuple(s * v for s, v in zip(signs, support)))


def cube_route_twin(f):
    """The same function as the symmetric target f, as a concept that min_eps solves on the cube LP."""
    if isinstance(f, Majority):
        return majority_as_halfspace(f) if f.vars else Dnf(f.n, ())
    if isinstance(f, Disjunction):
        return Dnf(f.n, tuple((lit,) for lit in f.literals))
    return Cnf(f.n, tuple((lit,) for lit in f.literals))


def _solve_spied(f, d, mode):
    """min_eps(f, d, mode) and the (c, kwargs, result) of each backend call it made."""
    calls = []
    real = lpmod.linprog

    def spy(c, **kwargs):
        calls.append((c, kwargs, real(c, **kwargs)))
        return calls[-1][2]

    with mock.patch.object(lpmod, "linprog", spy):
        return min_eps(f, d, mode), calls


@settings(max_examples=80)
@given(f=symmetric_targets(), d=st.integers(1, 3), mode=st.sampled_from([POSITIVE, NEGATIVE, TWOSIDED]))
def test_min_eps_matches_interior_point_resolve(f, d, mode):
    twin = cube_route_twin(f)
    assert np.array_equal(eval_concept_batch(twin, cube_matrix(f.n)), eval_concept_batch(f, cube_matrix(f.n)))
    (eps, _), calls = _solve_spied(twin, d, mode)
    (c, kwargs, res), = calls
    assert kwargs["method"] == "highs"
    interior = optimize.linprog(c, **{**kwargs, "method": "highs-ipm"})  # a second, independent solver
    assert interior.status == 0
    assert eps == pytest.approx(interior.fun, abs=1e-9)
    program = LinearProgram(c, kwargs["A_ub"], kwargs["b_ub"], bounds=tuple(kwargs["bounds"]))
    assert check_feasible(program, res.x) <= 1e-9


def _assert_level_route_matches_cube_route(f, d, mode):
    (eps, witness), calls = _solve_spied(f, d, mode)
    support = {abs(lit) for lit in (f.vars if isinstance(f, Majority) else f.literals)}
    (c, _, _), = calls
    assert len(c) == min(d, len(support)) + 2  # the level LP: c_0..c_D and eps
    assert math.copysign(1.0, eps) == 1.0 and eps >= 0.0
    assert eps == pytest.approx(min_eps(cube_route_twin(f), d, mode)[0], abs=1e-9)
    assert all(set(mono) <= support and len(mono) <= d for mono in witness.terms)
    if mode == TWOSIDED:
        assert verify_twosided(witness, f, eps + 2e-7).ok
    else:
        assert verify_onesided(witness, f, eps + 2e-7, mode).ok


@settings(max_examples=120, deadline=None)
@given(f=symmetric_targets(), d=st.integers(0, 3), mode=st.sampled_from([POSITIVE, NEGATIVE, TWOSIDED]))
def test_level_lp_matches_cube_lp(f, d, mode):
    _assert_level_route_matches_cube_route(f, d, mode)


@pytest.mark.parametrize("f", [Majority(9, tuple(range(1, 10))), Disjunction(10, tuple(range(1, 11)))],
                         ids=["MAJ_9", "OR_10"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("mode", [POSITIVE, NEGATIVE, TWOSIDED])
def test_level_lp_matches_cube_lp_on_the_benchmark_table(f, d, mode):
    _assert_level_route_matches_cube_route(f, d, mode)


def test_disjunction_naming_a_variable_twice_takes_the_cube_lp():
    f = Disjunction(3, (1, -1))  # x_1 or not x_1: constant +1, symmetric in no literal set
    (eps, witness), calls = _solve_spied(f, 2, TWOSIDED)
    (c, kwargs, _), = calls
    assert len(c) == len(monomials_upto(3, 2)) + 1  # one column per monomial and eps: the cube LP
    assert kwargs["A_ub"].shape[0] == 2 * 8  # two rows per cube point
    assert eps == 0.0 and verify_twosided(witness, f, 2e-7).ok


# ---------------------------------------------------------------------------
# Error threshold against the per-candidate loop


def _threshold_by_loop(values, labels):
    """One pass over the sample per candidate t, keeping the earliest strictly smaller error."""
    candidates = [-math.inf] + [float(v) for v in np.unique(values)] + [math.inf]
    best_t, best_err = None, None
    for t in candidates:
        pred = np.where(values > t, 1, -1)
        err = float(np.count_nonzero(pred != labels)) / labels.size
        if best_err is None or err < best_err - 1e-15:
            best_t, best_err = t, err
    return best_t


@settings(max_examples=200)
@given(st.lists(st.tuples(st.one_of(st.sampled_from([-1.0, -0.25, 0.0, 0.5, 1.0]), st.floats(-2, 2)),
                          st.sampled_from([-1, 1])), min_size=1, max_size=40))
def test_choose_error_threshold_matches_loop(pairs):
    values, labels = np.array([v for v, _ in pairs]), np.array([y for _, y in pairs])
    assert choose_error_threshold(values, labels) == _threshold_by_loop(values, labels)


# Cube values with exact dyadic coefficients: ties, 0.0, and plateaus at -1 and +1 after the clamp
DYADIC_VALUES = [Fraction(v) for v in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 4), Fraction(1, 2), 1, Fraction(3, 2))]


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(1, 3), eps=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
       bias=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_derandomize_matches_brute_scan_property(data, n, eps, bias, seed):
    values = data.draw(st.lists(st.sampled_from(DYADIC_VALUES), min_size=2**n, max_size=2**n))
    p = interpolate(n, values)
    rng = np.random.default_rng(seed)
    m = math.ceil(CALIBRATION_FACTOR / eps**2) + int(rng.integers(0, 30))
    X = cube_matrix(n)[rng.integers(0, 2**n, m)]
    y = np.where(rng.random(m) < bias, 1, -1).astype(np.int8)
    H = np.clip(sparse_eval_batch(p, X), -1.0, 1.0)
    for sign in (POSITIVE, NEGATIVE):
        assert derandomize(p, LabeledSample(X, y, n), eps, sign).threshold == brute_threshold_scan(H, y, eps, sign)


# ---------------------------------------------------------------------------
# Concept evaluation: the batch rule against the per-point reference


@st.composite
def concepts(draw, n=None):
    """A concept of any of the six types (on n variables, or a drawn n <= 5), empty literal sets,
    majorities, clauses and clause lists included."""
    n = draw(st.integers(0, 5)) if n is None else n
    kind = draw(st.sampled_from(["maj", "halfspace", "disj", "conj", "dnf", "cnf"]))
    if kind == "maj":
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return Majority(n, tuple(j + 1 for j in range(n) if mask[j]))
    if kind == "halfspace":
        w0, w = draw(st.integers(-3, 3)), tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
        return Halfspace(n, w0 if w0 or any(w) else 1, w)
    literals = [s * v for v in range(1, n + 1) for s in (1, -1)]
    if kind in ("disj", "conj"):  # a flat literal set may hold both polarities of a variable
        lits = tuple(draw(st.lists(st.sampled_from(literals), unique=True, max_size=4))) if n else ()
        return (Disjunction if kind == "disj" else Conjunction)(n, lits)
    clause = st.lists(st.integers(1, n), unique=True, max_size=3).flatmap(
        lambda vs: st.tuples(*[st.sampled_from([v, -v]) for v in vs])) if n else st.just(())
    return (Dnf if kind == "dnf" else Cnf)(n, tuple(draw(st.lists(clause, max_size=3))))


@settings(max_examples=300)
@given(concepts())
def test_eval_concept_batch_matches_pointwise(c):
    X = cube_matrix(c.n)
    assert eval_concept_batch(c, X).tolist() == [eval_concept(c, tuple(row)) for row in X.tolist()]


# ---------------------------------------------------------------------------
# Hypothesis answers: the batch protocol against per-point references


def _metrics_by_loop(pred, y):
    """ErrorMetrics of per-point answers, counted one example at a time."""
    m = len(y)
    return ErrorMetrics(sum(p == 1 and t == -1 for p, t in zip(pred, y)) / m,
                        sum(p == -1 and t == 1 for p, t in zip(pred, y)) / m,
                        sum(p == -t for p, t in zip(pred, y)) / m,
                        sum(p == 0 for p in pred) / m)


@settings(max_examples=200)
@given(pair=st.integers(1, 5).flatmap(lambda n: st.tuples(concepts(n), concepts(n))),  # a sample has n >= 1
       m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_agreement_of_concepts_matches_pointwise(pair, m, seed):
    c1, c2 = pair
    rng = np.random.default_rng(seed)
    X = (rng.integers(0, 2, (m, c1.n)) * 2 - 1).astype(np.int8)
    y = np.where(rng.random(m) < 0.5, 1, -1).astype(np.int8)
    pred = []
    for row in X.tolist():
        a, b = eval_concept(c1, row), eval_concept(c2, row)
        pred.append(a if a == b else 0)
    assert empirical_metrics(agreement_hypothesis(c1, c2), LabeledSample(X, y, c1.n)) == _metrics_by_loop(pred, y.tolist())


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(1, 4), m=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["concept", "reliable", "agreement"]))
def test_count_weighted_metrics_match_per_example_counting(data, n, m, seed, kind):
    # at most 16 distinct points among up to 60 examples, so most points repeat
    rng = np.random.default_rng(seed)
    X = (rng.integers(0, 2, (m, n)) * 2 - 1).astype(np.int8)
    y = np.where(rng.random(m) < 0.5, 1, -1).astype(np.int8)

    def reliable():
        p = interpolate(n, data.draw(st.lists(st.sampled_from(DYADIC_VALUES), min_size=2**n, max_size=2**n)))
        sign = data.draw(st.sampled_from([POSITIVE, NEGATIVE]))
        return ReliableHypothesis(p, sign, data.draw(st.sampled_from([-0.5, 0.0, 0.5])), None)

    if kind == "concept":
        h = data.draw(concepts(n))
    elif kind == "reliable":
        h = reliable()
    else:
        h = agreement_hypothesis(reliable(), data.draw(concepts(n)))
    pred = [int(predict(h, row[None, :])[0]) for row in X]  # one example at a time
    assert empirical_metrics(h, LabeledSample(X, y, n)) == _metrics_by_loop(pred, y.tolist())


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(0, 3), sign=st.sampled_from([POSITIVE, NEGATIVE]), clamp=st.booleans(),
       t=st.sampled_from([-math.inf, -1.0, math.inf, 1.0] + [float(v) for v in DYADIC_VALUES]))
def test_reliable_hypothesis_batch_matches_pointwise(data, n, sign, clamp, t):
    # dyadic cube values give dyadic coefficients, so the float batch evaluation is exact
    p = interpolate(n, data.draw(st.lists(st.sampled_from(DYADIC_VALUES), min_size=2**n, max_size=2**n)))
    X = cube_matrix(n)
    answers = ReliableHypothesis(p, sign, t, None, clamp).decide_batch(X)
    for x, answer in zip(X.tolist(), answers.tolist()):
        v = float(p.eval(x))
        v = chop(v) if clamp else v
        assert answer == (1 if (v > t if sign == POSITIVE else v >= t) else -1)


# ---------------------------------------------------------------------------
# Dedup against np.unique


def _dedup_by_unique(points, labels):
    """Reference for dedup: np.unique over the rows, label counts gathered through the inverse."""
    distinct, inverse = np.unique(points, axis=0, return_inverse=True)
    k = distinct.shape[0]
    pos = np.zeros(k, dtype=np.int64)
    negc = np.zeros(k, dtype=np.int64)
    np.add.at(pos, inverse[labels == 1], 1)
    np.add.at(negc, inverse[labels == -1], 1)
    return distinct, pos, negc


@settings(max_examples=300)
@given(n=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 70]),  # across the byte and the 64-bit word boundaries
       m=st.integers(0, 80), kinds=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_dedup_matches_np_unique(n, m, kinds, seed):
    # rows drawn from a few kinds, most of them one flipped coordinate away from the first, so
    # points repeat heavily and distinct points differ in a single byte or word
    rng = np.random.default_rng(seed)
    base = np.repeat((rng.integers(0, 2, (1, n)) * 2 - 1).astype(np.int8), kinds, axis=0)
    base[np.arange(1, kinds), rng.integers(0, n, kinds - 1)] *= -1
    fresh = rng.random(kinds) < 0.25
    base[fresh] = rng.integers(0, 2, (int(fresh.sum()), n)) * 2 - 1
    points = base[rng.integers(0, kinds, m)]
    labels = np.where(rng.random(m) < 0.5, 1, -1).astype(np.int8)
    got, want = dedup(points, labels), _dedup_by_unique(points, labels)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    if m == 0:
        assert got[0].shape == (0, n) and got[1].shape == got[2].shape == (0,)


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


@settings(max_examples=30)
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


def sparse_forms(n, coefs=fractions):
    monomial = st.sets(st.integers(1, n), max_size=n).map(lambda s: tuple(sorted(s))) if n else st.just(())
    return st.dictionaries(monomial, coefs, max_size=20).map(lambda terms: SparsePolynomial(n, terms))


def affine_forms(n, outer=fractions):
    return st.builds(lambda outer, w0, w: AffineForm(UniPoly(tuple(outer)), w0, tuple(w)),
                     st.lists(outer, max_size=10), st.integers(-3, 3),
                     st.lists(st.integers(-3, 3), min_size=n, max_size=n))


def structured_forms(n, coefs=fractions, outer=fractions):
    """Sparse and affine forms over n variables, and sums of them with an offset."""
    part = st.one_of(sparse_forms(n, coefs), affine_forms(n, outer))
    sums = st.builds(lambda parts, offset: SumForm(tuple(parts), offset),
                     st.lists(part, min_size=1, max_size=3), fractions)
    return st.one_of(part, sums)


@settings(max_examples=80)
@given(st.integers(0, 7).flatmap(structured_forms))
def test_eval_on_cube_matches_pointwise_eval(p):
    assert eval_on_cube(p) == [eval_exact(p, tuple(int(b) for b in row)) for row in cube_matrix(p.n)]


@settings(max_examples=60)
@given(st.integers(1, 8).flatmap(affine_forms))  # n stays inside EXPANSION_CAP, which bounds variables only
def test_expand_matches_eval_exact(p):
    q = expand(p)
    for row in cube_matrix(p.n):
        bits = tuple(int(b) for b in row)
        assert q.eval(bits) == eval_exact(p, bits)


BIG = 2**70
# ints and Fractions from small to 2^70-sized, of either sign
exact_scalars = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG),
                          st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
                          st.fractions(min_value=-4, max_value=4, max_denominator=9))
small_scalars = st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=7))
# degrees 0..30, the zero polynomial (no coefficients, or only zeros) and trailing zeros included
coefficient_lists = st.lists(exact_scalars, max_size=31)


def _same(p, ref):
    """p has ref's coefficients, degree and largest |coefficient|, in the canonical form of those
    coefficients (so == and hash agree with the reference's)."""
    return (p.coeffs == ref.coeffs and p.degree == ref.degree and p.max_abs_coeff() == ref.max_abs_coeff()
            and p == UniPoly(ref.coeffs) and hash(p) == hash(UniPoly(ref.coeffs)))


@settings(max_examples=120)
@given(a=coefficient_lists, b=coefficient_lists, c=exact_scalars)
def test_unipoly_arithmetic_matches_per_coefficient_fractions(a, b, c):
    p, q, rp, rq = UniPoly(a), UniPoly(b), FractionPoly(a), FractionPoly(b)
    assert _same(p, rp) and _same(q, rq)
    assert _same(p + q, rp + rq)
    assert _same(p * q, rp * rq)
    assert _same(p * c, rp * c) and _same(c * p, rp * c)
    assert _same(-p, rp * -1)
    assert _same(p.shift(c), rp.shift(c))
    assert (p == q) == (rp == rq)


@settings(max_examples=60)
@given(a=coefficient_lists, alpha=small_scalars, beta=small_scalars, k=st.integers(0, 3))
def test_unipoly_composition_and_powers_match_per_coefficient_fractions(a, alpha, beta, k):
    p, rp = UniPoly(a), FractionPoly(a)
    assert _same(p.compose_affine(alpha, beta), rp.compose_affine(alpha, beta))
    assert _same(p.pow(k), rp.pow(k))


@settings(max_examples=120)
@given(a=coefficient_lists, t=st.integers(-60, 60), u=small_scalars,
       x=st.floats(min_value=-8, max_value=8, allow_nan=False))
def test_unipoly_evaluation_matches_per_coefficient_fractions(a, t, u, x):
    p, rp = UniPoly(a), FractionPoly(a)
    assert p(t) == p(np.int64(t)) == rp(t)
    assert p(Fraction(u)) == rp(Fraction(u))
    assert p(x) == rp(x)  # the same float Horner, so the same bits


@settings(max_examples=80)
@given(data=st.data(), n=st.integers(0, 8),
       outer=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12), max_size=6).map(
           lambda cs: UniPoly(tuple(cs))))
def test_compose_counts_matches_interpolate(data, n, outer):
    counts = data.draw(st.lists(st.integers(-40, 40), min_size=2**n, max_size=2**n))
    assert compose_counts(n, outer, np.array(counts, dtype=np.int64)) == interpolate(n, [outer(c) for c in counts])


@settings(max_examples=40)
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


# ---------------------------------------------------------------------------
# Certification against a per-point scan


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(0, 6), eps=st.one_of(st.sampled_from([0, 0.1, 0.25]), st.floats(0, 2)))
def test_certification_matches_pointwise_scan(data, n, eps):
    table = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=2**n, max_size=2**n))
    f = _target(table)
    # forms that track f put many slacks near 0 and tie them
    tracking = st.builds(lambda s, c: SumForm((interpolate(n, [s * t for t in table]),), c),
                         st.sampled_from([1, Fraction(3, 4), Fraction(9, 10), Fraction(11, 10)]),
                         st.fractions(-Fraction(1, 4), Fraction(1, 4), max_denominator=20))
    floats = st.floats(-20, 20)
    p = data.draw(st.one_of(structured_forms(n, st.one_of(fractions, floats)), tracking))
    for sign in (POSITIVE, NEGATIVE):
        assert verify_onesided(p, f, eps, sign).to_json() == _pointwise_report(p, f, eps, sign)
    assert verify_twosided(p, f, eps).to_json() == _pointwise_report(p, f, eps, TWOSIDED)


#: Exact numbers of every size up to 2^66, so that cube numerators fall on both sides of the 2^62
#: bound below which they are int64: the bit length is drawn first, then the number.
wide = st.one_of(
    st.integers(0, 66).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)),
    st.builds(Fraction, st.integers(-(2**64), 2**64), st.sampled_from([2, 3, 7, 2**20, 2**40])),
    st.sampled_from([2**62 - 1, 2**62, -(2**62), 2**61, 2**63]),
    fractions,
)


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(0, 5), mode=st.sampled_from([POSITIVE, NEGATIVE, TWOSIDED]),
       eps=st.sampled_from([0, 0.1, 0.25, 2.0**-60, 2.0**62, 2.0**64, 2.0**70]))
def test_int64_and_object_numerators_match_pointwise_reference(data, n, mode, eps):
    # eps = 0.1 has the 2^55 denominator; the small eps fail most draws and the huge ones pass them
    table = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=2**n, max_size=2**n))
    f = _target(table)
    p = data.draw(structured_forms(n, wide, wide))
    nums, denom = cube_numerators(p)
    hypothesis.event(f"numerators: {nums.dtype}")
    points = list(itertools.product((-1, 1), repeat=n))  # cube_matrix row order
    assert [Fraction(v, denom) for v in nums.tolist()] == [_exact_value(p, x) for x in points]
    rep = verify_twosided(p, f, eps) if mode == TWOSIDED else verify_onesided(p, f, eps, mode)
    assert rep.to_json() == _pointwise_report(p, f, eps, mode)


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(0, 5), eps=st.one_of(st.sampled_from([0, 0.1, 0.25]), st.floats(0, 2)),
       mode=st.sampled_from([POSITIVE, NEGATIVE, TWOSIDED]),
       shift=st.one_of(st.none(), st.builds(Fraction, st.integers(0, 999), st.sampled_from([10**12, 10**15, 2**60]))))
def test_ok_iff_no_witness_iff_every_exact_slack_nonpositive(data, n, eps, mode, shift):
    table = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=2**n, max_size=2**n))
    f = _target(table)
    p = data.draw(structured_forms(n, st.one_of(fractions, st.floats(-20, 20))))
    if shift is not None:
        # shift p by an exact correction to the values (1 - eps - shift) f, where every slack is
        # exactly shift: 0 or a positive Fraction below 1e-9, which only an exact decision rejects
        goal = [(1 - Fraction(eps) - shift) * y for y in table]
        points = itertools.product((-1, 1), repeat=n)
        p = SumForm((p, interpolate(n, [g - _exact_value(p, x) for g, x in zip(goal, points)])), Fraction(0))
    rep = verify_twosided(p, f, eps) if mode == TWOSIDED else verify_onesided(p, f, eps, mode)
    largest = max(slack for *_, slack in _pointwise_slacks(p, f, eps, mode))
    assert rep.ok == (rep.witness is None) == (largest <= 0)
    if shift is not None:
        assert largest == shift


# ---------------------------------------------------------------------------
# Halfspace constructions certify at every weight and eps


@st.composite
def small_halfspaces(draw):
    n = draw(st.integers(1, 6))
    w0 = draw(st.integers(-3, 3))
    w = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    hypothesis.assume(abs(w0) + sum(map(abs, w)) >= 1)
    return Halfspace(n, w0, tuple(w))


@settings(max_examples=200)
@given(h=small_halfspaces(), sign=st.sampled_from([POSITIVE, NEGATIVE]),
       eps=st.sampled_from([0.5, 0.1, 0.01, 1e-3, 1e-6]))
def test_halfspace_onesided_certifies(h, sign, eps):
    res = halfspace_onesided(h, sign, eps)
    assert res.certified
    assert res.certificate == verify_onesided(res.poly, h, eps, sign)


# ---------------------------------------------------------------------------
# The linear-form kernel against a plain int64 mat-vec


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(0, 12), m=st.integers(0, 40), w0=st.integers(-50, 50))
def test_linear_form_matches_int64_matvec(data, n, m, w0):
    # few distinct weights, so zeros, negatives and repeated weights all occur
    w = data.draw(st.lists(st.sampled_from([0, 0, 1, 1, -1, 2, -3, 7, 1000, -(2**20)]), min_size=n, max_size=n))
    X = np.array(data.draw(st.lists(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
                                    min_size=m, max_size=m)), dtype=np.int8).reshape(m, n)
    expected = w0 + X.astype(np.int64) @ np.array(w, dtype=np.int64)
    got = linear_form(X, w0, w)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)
