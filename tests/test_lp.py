import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from onesided.errors import InfeasibleError, InputError, SolverError
from onesided.lp import FEASIBILITY_TOL, LinearProgram, check_feasible, dual, solve


def test_minimize_with_lower_bound():
    sol = solve(LinearProgram(np.array([1.0]), [[-1.0]], [-3.0]))  # x >= 3
    assert sol.values[0] == pytest.approx(3.0)
    assert sol.objective_value == pytest.approx(3.0)


def test_infeasible_pair():
    with pytest.raises(InfeasibleError):
        solve(LinearProgram(np.array([1.0]), [[1.0], [-1.0]], [-1.0, -1.0]))  # x <= -1, x >= 1


def test_unbounded():
    with pytest.raises(SolverError):
        solve(LinearProgram(np.array([-1.0])))


def test_hand_reduced_hinge_instance():
    # minimize xi subject to xi >= 1 - c, xi >= 0, |c| <= 0 (zero weight cap):
    # variables (c, u, xi); u >= +-c, u <= 0 forces c = 0, so xi = 1.
    A_ub = sparse.csr_array(np.array([
        [-1.0, 0.0, -1.0],   # c + xi >= 1
        [1.0, -1.0, 0.0],    # c - u <= 0
        [-1.0, -1.0, 0.0],   # -c - u <= 0
        [0.0, 1.0, 0.0],     # u <= 0
    ]))
    b_ub = np.array([-1.0, 0.0, 0.0, 0.0])
    bounds = ((None, None), (0.0, None), (0.0, None))
    sol = solve(LinearProgram(np.array([0.0, 0.0, 1.0]), A_ub, b_ub, bounds=bounds))
    assert sol.objective_value == pytest.approx(1.0)


def test_equality_constraint():
    sol = solve(LinearProgram(np.array([1.0, 1.0]), A_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[2.0, 0.0]))
    assert sol.values == pytest.approx([1.0, 1.0])


def test_strong_duality_random_instances():
    # primal: min c.x st Ax >= b, x >= 0; dual: max b.y st A^T y <= c, y >= 0,
    # the dual built here by the test, both sides solved by the same entry point.
    rng = np.random.default_rng(42)
    for _ in range(8):
        nm, nn = rng.integers(2, 5), rng.integers(2, 5)
        A = rng.uniform(-1, 2, size=(nm, nn))
        x0 = rng.uniform(0, 2, size=nn)
        b = A @ x0 - rng.uniform(0, 1, size=nm)
        c = rng.uniform(0.1, 2, size=nn)
        primal = LinearProgram(c, -A, -b, bounds=tuple((0.0, None) for _ in range(nn)))
        psol = solve(primal)
        dual = LinearProgram(-b, A.T, c, bounds=tuple((0.0, None) for _ in range(nm)))
        dsol = solve(dual)
        assert psol.objective_value == pytest.approx(-dsol.objective_value, abs=1e-6)


def test_row_permutation_same_objective():
    rng = np.random.default_rng(7)
    A = rng.uniform(-1, 2, size=(6, 4))
    x0 = rng.uniform(0, 1, size=4)
    b = A @ x0 - rng.uniform(0, 1, size=6)
    c = rng.uniform(0.1, 1, size=4)
    bounds = tuple((0.0, None) for _ in range(4))
    base = solve(LinearProgram(c, -A, -b, bounds=bounds))
    perm = solve(LinearProgram(c, -A[::-1], -b[::-1], bounds=bounds))
    assert base.objective_value == pytest.approx(perm.objective_value, abs=1e-7)


def test_same_input_is_deterministic():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 2, size=(5, 3))
    b = A @ rng.uniform(0, 1, size=3) - 0.5
    program = LinearProgram(np.array([1.0, 2.0, 0.5]), -A, -b,
                            bounds=tuple((0.0, None) for _ in range(3)))
    s1, s2 = solve(program), solve(program)
    assert np.array_equal(s1.values, s2.values)
    assert s1.objective_value == s2.objective_value


def test_check_feasible_and_dump():
    program = LinearProgram(np.array([1.0, 0.0]), [[1.0, 1.0]], [1.0],
                            bounds=((0.0, None), (0.0, None)))
    assert sparse.issparse(program.A_ub)
    assert check_feasible(program, [0.5, 0.5]) <= 1e-12
    assert check_feasible(program, [2.0, 0.0]) == pytest.approx(1.0)
    assert check_feasible(program, [-0.5, 0.0]) == pytest.approx(0.5)  # a bound is violated
    eq = LinearProgram(np.array([1.0, 0.0]), A_eq=[[1.0, -1.0]], b_eq=[0.0])
    assert check_feasible(eq, [1.0, 3.0]) == pytest.approx(2.0)


def test_validation_errors():
    with pytest.raises(InputError):
        LinearProgram(np.array([]))
    with pytest.raises(InputError):
        LinearProgram(np.array([1.0]), [[1.0, 2.0]], [0.0])
    with pytest.raises(InputError):
        LinearProgram(np.array([1.0]), [[1.0]], [0.0, 1.0])
    with pytest.raises(InputError):
        LinearProgram(np.array([1.0]), [[1.0]])
    with pytest.raises(InputError):
        LinearProgram(np.array([1.0, 2.0]), bounds=((0.0, None),))


# ---------------------------------------------------------------------------
# The explicit dual: solve(dual(program)) is the program's optimum, read from the dual's marginals


def _random_program(seed: int, rows_ub: int, rows_eq: int, cols: int) -> LinearProgram:
    """A program over free and >= 0 columns built around a feasible x0 and a dual-feasible y0,
    so it has an optimum."""
    rng = np.random.default_rng(seed)
    free = rng.random(cols) < 0.5
    A = rng.uniform(-2, 2, (rows_ub + rows_eq, cols)) * (rng.random((rows_ub + rows_eq, cols)) < 0.7)
    x0 = np.where(free, rng.uniform(-2, 2, cols), rng.uniform(0, 2, cols))
    b = A @ x0 + np.concatenate([rng.uniform(0, 1, rows_ub), np.zeros(rows_eq)])
    y0 = np.concatenate([rng.uniform(-1, 0, rows_ub), rng.uniform(-1, 1, rows_eq)])
    c = A.T @ y0 + np.where(free, 0.0, rng.uniform(0, 1, cols))
    ub = (A[:rows_ub], b[:rows_ub]) if rows_ub else (None, None)
    eq = (A[rows_ub:], b[rows_ub:]) if rows_eq else (None, None)
    return LinearProgram(c, *ub, *eq, bounds=tuple((None, None) if f else (0.0, None) for f in free))


@pytest.mark.parametrize("seed, rows_ub, rows_eq, cols", [
    (seed, rows_ub, rows_eq, cols) for seed, (rows_ub, rows_eq, cols) in enumerate(
        [(3, 2, 5), (6, 1, 4), (2, 3, 6), (5, 0, 3), (0, 3, 5), (8, 4, 9), (4, 2, 2), (7, 3, 7)])])
def test_dual_gives_the_optimum_of_the_primal(seed, rows_ub, rows_eq, cols):
    program = _random_program(seed, rows_ub, rows_eq, cols)
    ref, sol = solve(program), solve(dual(program))
    assert sol.objective_value == pytest.approx(ref.objective_value, rel=1e-9, abs=1e-9)
    assert check_feasible(program, sol.values) <= FEASIBILITY_TOL
    assert program.c @ sol.values == pytest.approx(ref.objective_value, rel=1e-9, abs=1e-9)
    slack = np.zeros(0) if program.A_ub is None else program.b_ub - program.A_ub @ sol.values
    np.testing.assert_allclose(sol.slack, slack, rtol=0, atol=1e-12)


def test_dual_of_an_unbounded_program_raises_solver_error():
    # x >= 0 free to grow: the dual, y <= 0 with -y <= -1, has no point
    with pytest.raises(SolverError) as info:
        solve(dual(LinearProgram(np.array([-1.0]), [[-1.0]], [0.0])))
    assert not isinstance(info.value, InfeasibleError)


@pytest.mark.parametrize("bounds", [((None, None),), ((0.0, None),)])
def test_dual_of_an_infeasible_program_raises_infeasible_error(bounds):
    with pytest.raises(InfeasibleError):  # x <= -1 and x >= 1: the dual is unbounded
        solve(dual(LinearProgram(np.array([1.0]), [[1.0], [-1.0]], [-1.0, -1.0], bounds=bounds)))


def test_dual_reported_unbounded_or_infeasible(monkeypatch):
    # HiGHS can end with "unbounded or infeasible"; where y = 0 satisfies the dual's rows, as on
    # every fit, the dual is feasible, so it is unbounded and the primal infeasible
    from types import SimpleNamespace

    import onesided.lp as lpmod

    monkeypatch.setattr(lpmod, "linprog", lambda c, **kwargs: SimpleNamespace(
        status=4, message="The problem is unbounded or infeasible. (HiGHS Status 9)", nit=0))
    with pytest.raises(InfeasibleError):
        solve(dual(LinearProgram(np.array([0.0, 1.0]), [[1.0, 0.0]], [-1.0], bounds=((None, None), (0.0, None)))))
    with pytest.raises(SolverError) as info:  # c < 0 at a column >= 0: y = 0 breaks the dual's row
        solve(dual(LinearProgram(np.array([-1.0]), [[-1.0]], [0.0], bounds=((0.0, None),))))
    assert not isinstance(info.value, InfeasibleError)


@pytest.mark.parametrize("bound", [(0.0, 5.0), (-1.0, None), (None, 3.0), (1.0, None)])
def test_dual_takes_only_free_and_nonnegative_columns(bound):
    with pytest.raises(InputError, match="free or >= 0"):
        dual(LinearProgram(np.array([1.0, 1.0]), [[1.0, 1.0]], [1.0], bounds=((None, None), bound)))


# ---------------------------------------------------------------------------
# Row layout the fits and the oracle hand to the backend.  The rows are written
# out by hand, so a reordered, re-signed or dropped row fails here.


@pytest.fixture
def captured(monkeypatch):
    import onesided.lp as lpmod

    calls = []
    real = lpmod.linprog

    def spy(c, **kwargs):
        calls.append({"c": c, **kwargs})
        return real(c, **kwargs)

    monkeypatch.setattr(lpmod, "linprog", spy)
    return calls


@pytest.fixture
def built(monkeypatch):
    """The primal programs the fits build, in the form ``captured`` records what reaches linprog."""
    import onesided.learn as learn

    programs = []
    real = learn._fit_program

    def spy(*args):
        p = real(*args)
        programs.append({"c": p.c, "A_ub": p.A_ub, "b_ub": p.b_ub, "A_eq": p.A_eq, "b_eq": p.b_eq,
                         "bounds": list(p.bounds)})
        return p

    monkeypatch.setattr(learn, "_fit_program", spy)
    return programs


def _assert_rows(A, b, A_expected, b_expected):
    assert sparse.issparse(A)
    assert A.nnz == np.count_nonzero(A_expected)  # no stored zeros
    np.testing.assert_array_equal(A.toarray(), np.array(A_expected, dtype=float))
    np.testing.assert_array_equal(b, np.array(b_expected, dtype=float))


def _assert_layout(call, A_expected, b_expected, A_eq_expected=None, b_eq_expected=None):
    _assert_rows(call["A_ub"], call["b_ub"], A_expected, b_expected)
    if A_eq_expected is None:
        assert call["A_eq"] is None and call["b_eq"] is None
    else:
        _assert_rows(call["A_eq"], call["b_eq"], A_eq_expected, b_eq_expected)


def _tiny_sample():
    from onesided.cube import make_sample

    # distinct points in sorted order: (-1,-1) labeled -1, (-1,1) labeled -1, (1,1) labeled +1 twice
    return make_sample([(1, 1), (-1, 1), (1, 1), (-1, -1)], [1, -1, 1, -1], 2)


# weight-cap rows over [c_(), c_1, c_2 | c+_(), c+_1, c+_2 | c-_(), c-_1, c-_2]: the cap row
# sum (c+ + c-) <= W ends A_ub, and the split rows c_S - c+_S + c-_S = 0 end A_eq
_CAP = [[0, 0, 0, 1, 1, 1, 1, 1, 1]]
_SPLIT = [
    [1, 0, 0, -1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, -1, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, -1, 0, 0, 1],
]


def _with_slacks(rows, nslack):
    return [row + [0] * nslack for row in rows]


# the reliable positive fit of _tiny_sample() at d = 1, W = 2, eps = 0.25 over
# [c_(), c_1, c_2 | c+ | c- | xi at (1,1)]: the fit rows, then the cap row
_POSITIVE_A_UB = [
    [-1, -1, -1, 0, 0, 0, 0, 0, 0, -1],  # hinge at (1,1): -p - xi <= -1
    [1, -1, -1, 0, 0, 0, 0, 0, 0, 0],    # hard at (-1,-1): p <= -1 + eps
    [1, -1, 1, 0, 0, 0, 0, 0, 0, 0],     # hard at (-1,1)
] + _with_slacks(_CAP, 1)
_POSITIVE_B_UB = [-1, -0.75, -0.75, 2.0]


def test_reliable_fit_positive_layout(built):
    from onesided.learn import reliable_fit

    _, report = reliable_fit(_tiny_sample(), 1, 2.0, 0.25, "positive")
    _assert_layout(built[0], _POSITIVE_A_UB, _POSITIVE_B_UB, _with_slacks(_SPLIT, 1), [0, 0, 0])
    np.testing.assert_array_equal(built[0]["c"], [0] * 9 + [2])  # (1,1) appears twice
    assert built[0]["bounds"] == [(None, None)] * 3 + [(0.0, None)] * 7
    assert report.lp_status == "optimal"


def test_dense_fit_hands_linprog_the_dual(captured):
    from onesided.learn import reliable_fit

    reliable_fit(_tiny_sample(), 1, 2.0, 0.25, "positive")
    # y = [y_ub, one per A_ub row above | y_eq, one per split row]; A = [A_ub; A_eq]
    A = np.array(_POSITIVE_A_UB + _with_slacks(_SPLIT, 1), dtype=float)
    free = [0, 1, 2]  # the c columns: A^T y = 0 there; A^T y <= c at c+, c- and xi
    _assert_layout(captured[0], A.T[3:], [0] * 6 + [2], A.T[free], [0, 0, 0])
    np.testing.assert_array_equal(captured[0]["c"], np.negative(_POSITIVE_B_UB + [0, 0, 0]))  # minimize -b . y
    assert captured[0]["bounds"] == [(None, 0.0)] * 4 + [(None, None)] * 3
    assert captured[0]["method"] == "highs"


def test_reliable_fit_negative_layout(built):
    from onesided.learn import reliable_fit

    reliable_fit(_tiny_sample(), 1, 2.0, 0.25, "negative")
    A = [
        [1, -1, -1, 0, 0, 0, 0, 0, 0, -1, 0],   # hinge at (-1,-1): p - xi <= -1
        [1, -1, 1, 0, 0, 0, 0, 0, 0, 0, -1],    # hinge at (-1,1)
        [-1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0],   # hard at (1,1): -p <= -(1 - eps)
    ] + _with_slacks(_CAP, 2)
    _assert_layout(built[0], A, [-1, -1, -0.75, 2.0], _with_slacks(_SPLIT, 2), [0, 0, 0])


def test_agnostic_l1_fit_layout(built):
    from onesided.learn import agnostic_l1_fit

    _, report = agnostic_l1_fit(_tiny_sample(), 1, 2.0)
    # columns [c_(), c_1, c_2 | c+ | c- | e+ per point | e- per point]
    A_eq = [
        [1, -1, -1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 1, 0, 0],   # (-1,-1), y = -1: p - e+ + e- = y
        [1, -1, 1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 1, 0],    # (-1,1), y = -1
        [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 1],     # (1,1), y = +1
    ] + _with_slacks(_SPLIT, 6)
    _assert_layout(built[0], _with_slacks(_CAP, 6), [2.0], A_eq, [-1, -1, 1, 0, 0, 0])
    np.testing.assert_array_equal(built[0]["c"], [0] * 9 + [1, 1, 2, 1, 1, 2])
    assert built[0]["bounds"] == [(None, None)] * 3 + [(0.0, None)] * 12
    assert report.constraints_active >= 3  # every equality row of the fit counts as active


@pytest.mark.parametrize("mode, A, b", [
    # OR_2 on the cube (-1,-1), (-1,1), (1,-1), (1,1); columns [c_(), c_1, c_2 | eps]
    ("positive", [[1, -1, -1, -1],    # false point: p - eps <= -1
                  [-1, 1, 1, -1],     #              -p - eps <= 1
                  [-1, 1, -1, -1],    # true points: -p - eps <= -1
                  [-1, -1, 1, -1],
                  [-1, -1, -1, -1]], [-1, 1, -1, -1, -1]),
    ("negative", [[1, -1, -1, -1],
                  [-1, 1, -1, -1], [1, -1, 1, -1],
                  [-1, -1, 1, -1], [1, 1, -1, -1],
                  [-1, -1, -1, -1], [1, 1, 1, -1]], [-1, -1, 1, -1, 1, -1, 1]),
])
def test_min_eps_layout(captured, mode, A, b):
    from onesided.certify import min_eps
    from onesided.cube import Dnf

    min_eps(Dnf(2, ((1,), (2,))), 1, mode)  # OR_2 as a DNF of unit clauses takes the cube LP
    _assert_layout(captured[0], A, b)
    assert captured[0]["method"] == "highs"


@pytest.mark.parametrize("mode, A, b", [
    # OR_2 by level u = number of false literals, 0, 1, 2, where the degree-j monomials
    # sum to K_j(u; 2): (1, 2), (1, 0), (1, -2); columns [c_0, c_1 | eps]
    ("positive", [[-1, -2, -1],       # u = 0, true: -p - eps <= -1
                  [-1, 0, -1],        # u = 1, true
                  [1, -2, -1],        # u = 2, false: p - eps <= -1
                  [-1, 2, -1]], [-1, -1, -1, 1]),   # -p - eps <= 1
    ("negative", [[-1, -2, -1], [1, 2, -1],
                  [-1, 0, -1], [1, 0, -1],
                  [1, -2, -1]], [-1, 1, -1, 1, -1]),
])
def test_min_eps_level_layout(captured, mode, A, b):
    from onesided.certify import min_eps
    from onesided.cube import Disjunction

    min_eps(Disjunction(2, (1, 2)), 1, mode)
    _assert_layout(captured[0], A, b)
    assert captured[0]["method"] == "highs"


def test_model_error_is_not_infeasible():
    # HiGHS refuses a matrix entry of 1e21 with "Model error", which scipy reports as status 2
    with pytest.raises(SolverError, match="Model error") as info:
        solve(LinearProgram(np.array([1.0, 1.0]), [[1e21, 1.0]], [1.0]))
    assert not isinstance(info.value, InfeasibleError)


# ---------------------------------------------------------------------------
# Which way the fits write p at the sample points


def test_wide_sample_keeps_the_dense_layout(built):
    from onesided.cube import LabeledSample
    from onesided.learn import reliable_fit
    from onesided.poly import characters, monomials_upto

    rng = np.random.default_rng(16)
    X = (rng.integers(0, 2, (50, 16)) * 2 - 1).astype(np.int8)
    s = LabeledSample(X, (rng.integers(0, 2, 50) * 2 - 1).astype(np.int8), 16)
    reliable_fit(s, 2, 4.0, 0.25, "positive")
    distinct, pos, negc = s.deduped
    phi = characters(distinct, monomials_upto(16, 2)).astype(float)
    hinge, hard = phi[pos > 0], phi[negc > 0]
    M, nh = phi.shape[1], len(hinge)
    fit = np.block([[-hinge, np.zeros((nh, 2 * M)), -np.eye(nh)],
                    [hard, np.zeros((len(hard), 2 * M + nh))]])
    cap = np.concatenate([np.zeros(M), np.ones(2 * M), np.zeros(nh)])
    split = np.hstack([np.eye(M), -np.eye(M), np.eye(M), np.zeros((M, nh))])
    b = np.concatenate([np.full(nh, -1.0), np.full(len(hard), -0.75), [4.0]])
    _assert_layout(built[0], np.vstack([fit, cap]), b, split, np.zeros(M))
    np.testing.assert_array_equal(built[0]["c"], np.concatenate([np.zeros(3 * M), pos[pos > 0]]))
    assert built[0]["bounds"] == [(None, None)] * M + [(0.0, None)] * (2 * M + nh)


def test_dense_fit_with_zero_weight_cap_is_infeasible(captured):
    from onesided.cube import LabeledSample
    from onesided.learn import _takes_butterfly, reliable_fit

    rng = np.random.default_rng(22)
    X = (rng.integers(0, 2, (60, 16)) * 2 - 1).astype(np.int8)
    s = LabeledSample(X, (rng.integers(0, 2, 60) * 2 - 1).astype(np.int8), 16)
    assert not _takes_butterfly(16, len(s.deduped[0]), 137)  # M = 137 monomials at d = 2
    # p = 0 breaks every hard row p(x) <= -1 + eps, so the dual the solver sees is unbounded
    with pytest.raises(InfeasibleError, match=r"hinge LP infeasible \(weight cap W=0.0 too small for eps=0.25\)"):
        reliable_fit(s, 2, 0.0, 0.25, "positive")
    assert (None, 0.0) in captured[0]["bounds"]


def test_majority_9_sample_takes_the_butterfly(captured):
    from onesided.cube import LabeledSample, Majority, cube_matrix, eval_concept_batch
    from onesided.learn import reliable_fit

    X = cube_matrix(9)  # k = 512 distinct points and M = 512 monomials at d = 9
    s = LabeledSample(X, eval_concept_batch(Majority(9, tuple(range(1, 10))), X), 9)
    reliable_fit(s, 9, 10.375, 0.1, "positive")
    call = captured[0]
    A_eq, A_ub = call["A_eq"], call["A_ub"]
    nz = 5 * 512  # ceil(9/2) stages of the butterfly
    # the butterfly rows, then the 512 split rows, each of at most 5 nonzeros
    assert A_eq.shape == (nz + 512, len(call["c"])) and np.all(np.diff(A_eq.indptr) <= 5)
    assert len(call["c"]) == 3 * 512 + 256 + nz  # [c | c+ | c- | a hinge slack per positive point | z]
    eye = np.eye(512)
    np.testing.assert_array_equal(A_eq[nz:, :3 * 512].toarray(), np.hstack([eye, -eye, eye]))
    assert A_ub.shape[0] == 513  # the fit rows, then the cap row
    assert call["bounds"][-nz:] == [(None, None)] * nz
    # each fit row reads p(x_j) as one entry on z_n: hinge rows have 2 nonzeros, hard rows 1
    np.testing.assert_array_equal(np.diff(A_ub.indptr)[:512], [2] * 256 + [1] * 256)
    assert A_ub.nnz + A_eq.nnz < 512 * 512
    assert A_ub.indices.dtype == A_eq.indices.dtype == np.int32


def test_route_counts_fit_rows_not_distinct_points(captured):
    from onesided.cube import LabeledSample, cube_matrix
    from onesided.learn import reliable_fit

    # both labels at each of the 8 points: k = 16 fit rows (a hinge and a hard row per point)
    # read p, and M = 7 at d = 2, so 3n*2^n = 72 < k*M = 112 (against 8*M = 56 per distinct point)
    X = cube_matrix(3)
    s = LabeledSample(np.vstack([X, X]), np.repeat([1, -1], 8).astype(np.int8), 3)
    reliable_fit(s, 2, 4.0, 0.25, "positive")
    # z has ceil(3/2) = 2 stages of 8 columns: [c | c+ | c- | a hinge slack per point | z]
    assert len(captured[0]["c"]) == 3 * 7 + 8 + 2 * 8
    assert captured[0]["A_eq"].shape[0] == 2 * 8 + 7  # the butterfly rows, then the split rows


#: Runs in a fresh interpreter: every exact path, then one fit and one oracle solve.
_LP_STACK_ON_FIRST_USE = """
import sys

import onesided, onesided.cli
from onesided import certify, constructions, harness, learn, poly
from onesided.cube import Dnf, Halfspace, Majority

h = Halfspace(5, 0, (1,) * 5)
res = constructions.halfspace_onesided(h, "positive", 0.1)
assert res.certified and certify.verify_onesided(res.poly, h, 0.1, "positive").ok
assert constructions.and_twosided_tradeoff(6, 3, 0.1).certified
assert constructions.dnf_positive_onesided(Dnf(6, ((1, -2, 3), (4, 5))), 2, 0.25).certified
poly.exact_multilinear(Majority(3, (1, 2, 3)), 3)
learn.plan_samples(100, 3, 10.0, 0.1, 0.01)
s = harness.generate(Majority(3, (1, 2, 3)), harness.NoiseModel(), 40, 0)
learn.learn_disjunction_positive(s)
lp_stack = ("scipy.optimize", "scipy.sparse")
assert not any(name in sys.modules for name in lp_stack), "an exact path loaded scipy's LP stack"

learn.reliable_fit(s, 1, 4.0, 0.5, "positive")
eps, _ = certify.min_eps(Majority(3, (1, 2, 3)), 1, "positive")
assert eps >= 0.0
assert all(name in sys.modules for name in lp_stack)
"""


def test_exact_paths_load_no_lp_stack():
    # the constructions and certificates solve no LP, so scipy.sparse and scipy.optimize load
    # only with the first LP build or solve; a fresh interpreter keeps other tests' imports out
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LP_STACK_ON_FIRST_USE], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
