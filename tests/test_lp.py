import numpy as np
import pytest
from scipy import sparse

from onesided.errors import InputError
from onesided.lp import LinearProgram, check_feasible, solve


def test_minimize_with_lower_bound():
    sol = solve(LinearProgram(np.array([1.0]), [[-1.0]], [-3.0]))  # x >= 3
    assert sol.status == "optimal"
    assert sol.values[0] == pytest.approx(3.0)
    assert sol.objective_value == pytest.approx(3.0)


def test_infeasible_pair():
    sol = solve(LinearProgram(np.array([1.0]), [[1.0], [-1.0]], [-1.0, -1.0]))  # x <= -1, x >= 1
    assert sol.status == "infeasible"


def test_unbounded():
    sol = solve(LinearProgram(np.array([-1.0])))
    assert sol.status == "unbounded"


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
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0)


def test_equality_constraint():
    sol = solve(LinearProgram(np.array([1.0, 1.0]), A_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[2.0, 0.0]))
    assert sol.status == "optimal"
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
        assert psol.status == "optimal"
        dual = LinearProgram(-b, A.T, c, bounds=tuple((0.0, None) for _ in range(nm)))
        dsol = solve(dual)
        assert dsol.status == "optimal"
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
    assert base.status == perm.status == "optimal"
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


def _assert_layout(call, A_expected, b_expected):
    A = call["A_ub"]
    assert sparse.issparse(A)
    assert A.nnz == np.count_nonzero(A_expected)  # no stored zeros
    np.testing.assert_array_equal(A.toarray(), np.array(A_expected, dtype=float))
    np.testing.assert_array_equal(call["b_ub"], np.array(b_expected, dtype=float))
    assert call["A_eq"] is None


def _tiny_sample():
    from onesided.cube import make_sample

    # distinct points in sorted order: (-1,-1) labeled -1, (-1,1) labeled -1, (1,1) labeled +1 twice
    return make_sample([(1, 1), (-1, 1), (1, 1), (-1, -1)], [1, -1, 1, -1], 2)


# weight-cap rows over [c_(), c_1, c_2 | u_(), u_1, u_2]: +-c_S - u_S <= 0 per S, then sum u <= W
_WEIGHT = [
    [1, 0, 0, -1, 0, 0],
    [-1, 0, 0, -1, 0, 0],
    [0, 1, 0, 0, -1, 0],
    [0, -1, 0, 0, -1, 0],
    [0, 0, 1, 0, 0, -1],
    [0, 0, -1, 0, 0, -1],
    [0, 0, 0, 1, 1, 1],
]


def _with_slacks(rows, nslack):
    return [row + [0] * nslack for row in rows]


def test_reliable_fit_positive_layout(captured):
    from onesided.learn import reliable_fit

    _, report = reliable_fit(_tiny_sample(), 1, 2.0, 0.25, "positive")
    A = [
        [-1, -1, -1, 0, 0, 0, -1],  # hinge at (1,1): -p - xi <= -1
        [1, -1, -1, 0, 0, 0, 0],    # hard at (-1,-1): p <= -1 + eps
        [1, -1, 1, 0, 0, 0, 0],     # hard at (-1,1)
    ] + _with_slacks(_WEIGHT, 1)
    _assert_layout(captured[0], A, [-1, -0.75, -0.75, 0, 0, 0, 0, 0, 0, 2.0])
    np.testing.assert_array_equal(captured[0]["c"], [0, 0, 0, 0, 0, 0, 2])  # (1,1) appears twice
    assert captured[0]["bounds"] == [(None, None)] * 3 + [(0.0, None)] * 4
    assert report.lp_status == "optimal"


def test_reliable_fit_negative_layout(captured):
    from onesided.learn import reliable_fit

    reliable_fit(_tiny_sample(), 1, 2.0, 0.25, "negative")
    A = [
        [1, -1, -1, 0, 0, 0, -1, 0],   # hinge at (-1,-1): p - xi <= -1
        [1, -1, 1, 0, 0, 0, 0, -1],    # hinge at (-1,1)
        [-1, -1, -1, 0, 0, 0, 0, 0],   # hard at (1,1): -p <= -(1 - eps)
    ] + _with_slacks(_WEIGHT, 2)
    _assert_layout(captured[0], A, [-1, -1, -0.75, 0, 0, 0, 0, 0, 0, 2.0])


def test_agnostic_l1_fit_layout(captured):
    from onesided.learn import agnostic_l1_fit

    agnostic_l1_fit(_tiny_sample(), 1, 2.0)
    A = [
        [1, -1, -1, 0, 0, 0, -1, 0, 0],   # (-1,-1), y = -1: p - e <= y
        [-1, 1, 1, 0, 0, 0, -1, 0, 0],    #                 -p - e <= -y
        [1, -1, 1, 0, 0, 0, 0, -1, 0],    # (-1,1), y = -1
        [-1, 1, -1, 0, 0, 0, 0, -1, 0],
        [1, 1, 1, 0, 0, 0, 0, 0, -1],     # (1,1), y = +1
        [-1, -1, -1, 0, 0, 0, 0, 0, -1],
    ] + _with_slacks(_WEIGHT, 3)
    _assert_layout(captured[0], A, [-1, 1, -1, 1, 1, -1, 0, 0, 0, 0, 0, 0, 2.0])


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
    from onesided.cube import Disjunction

    min_eps(Disjunction(2, (1, 2)), 1, mode)
    _assert_layout(captured[0], A, b)
