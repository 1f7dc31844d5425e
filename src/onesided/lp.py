"""Linear programming layer used by the learners and certification oracles.

The module owns the LP surface for the whole package.  A program is given in
matrix form, :class:`LinearProgram` ``(c, A_ub, b_ub, A_eq, b_eq, bounds)``:
minimize ``c . x`` subject to ``A_ub x <= b_ub``, ``A_eq x = b_eq`` and
per-variable bounds, with both constraint matrices held as ``scipy.sparse``
CSR arrays.  Callers build their rows as sparse blocks and receive
:class:`LpSolution` values; a ``>=`` row is written negated as a ``<=`` row.
``scipy.sparse`` and ``scipy.optimize`` load on the first LP build or solve,
not with the package: its constructions and certificates solve no LP.
Solving passes the matrices unchanged to scipy's HiGHS backend, which is
deterministic for identical input and enforces a primal feasibility
tolerance of 1e-7 (its default, matching the contract here).  Every program
is solved by one method, ``"highs"``, which leaves the choice of algorithm
to HiGHS (its simplex on the package's programs), so an optimum is a vertex.
A solve returns an optimum or raises: :class:`InfeasibleError` when HiGHS
proves that no point is feasible, :class:`SolverError` with the backend's
message for any other outcome, including a "Model error" (say, a matrix
entry of 1e21), which scipy reports with the status of an infeasible
program.

A program whose columns are each free or >= 0 can instead be solved through
its explicit dual (``solve(dual(program))``): minimize -b . y over y <= 0 on
the ``<=`` rows and y free on the ``=`` rows, subject to A^T y = c at the
free columns and A^T y <= c at the others.  The primal optimum is
x = -(the dual's row marginals), and its value minus the dual's.  The
dense-route fits of :mod:`onesided.learn` are solved this way, 1.4-5.8 times
faster than as written; the butterfly-route fits and the ``min_eps`` oracle
are solved as written, where the dual was slower or no faster.  HiGHS ends
the dual at an optimal basis, and the row duals of a basis are the
complementary basic solution of the primal, so the recovered x is a vertex
of the primal's optimal face.  Its rows hold within HiGHS's dual feasibility
tolerance, 1e-7 = ``FEASIBILITY_TOL``.  An unbounded dual means that no
primal point is feasible (:class:`InfeasibleError`); an infeasible dual
leaves the primal unbounded or infeasible (:class:`SolverError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InfeasibleError, InputError, SolverError

if TYPE_CHECKING:
    from scipy import sparse

FEASIBILITY_TOL = 1e-7


def linprog(c, **kwargs):
    """scipy's ``linprog``, imported on its first call rather than with the package."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(c, **kwargs)


def _rows(A, b, nvars: int, name: str):
    """Validated (CSR matrix, float vector) for one constraint family, or (None, None)."""
    from scipy import sparse

    if A is None and b is None:
        return None, None
    if A is None or b is None:
        raise InputError(f"A_{name} and b_{name} must be given together")
    A = sparse.csr_array(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.shape[1] != nvars:
        raise InputError(f"A_{name} has {A.shape[1]} columns for {nvars} variables")
    if b.shape != (A.shape[0],):
        raise InputError(f"b_{name} length does not match the {A.shape[0]} rows of A_{name}")
    return A, b


@dataclass(frozen=True)
class LinearProgram:
    """Minimize c . x subject to A_ub x <= b_ub, A_eq x = b_eq and bounds.

    ``bounds[i]`` is a (lo, hi) pair with None meaning unbounded on that side;
    variables default to fully free.  Either constraint family may be omitted.
    """

    c: np.ndarray
    A_ub: sparse.csr_array | None = None
    b_ub: np.ndarray | None = None
    A_eq: sparse.csr_array | None = None
    b_eq: np.ndarray | None = None
    bounds: tuple[tuple[float | None, float | None], ...] | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        if c.ndim != 1 or c.size < 1:
            raise InputError("objective must be a nonempty vector")
        object.__setattr__(self, "c", c)
        A_ub, b_ub = _rows(self.A_ub, self.b_ub, c.size, "ub")
        A_eq, b_eq = _rows(self.A_eq, self.b_eq, c.size, "eq")
        object.__setattr__(self, "A_ub", A_ub)
        object.__setattr__(self, "b_ub", b_ub)
        object.__setattr__(self, "A_eq", A_eq)
        object.__setattr__(self, "b_eq", b_eq)
        if self.bounds is not None and len(self.bounds) != c.size:
            raise InputError("bounds length does not match the variable count")

    @property
    def nvars(self) -> int:
        return int(self.c.size)


@dataclass(frozen=True)
class LpSolution:
    """An optimal point of a linear program, its objective value, and the slack
    ``b_ub - A_ub x`` of each of its ``<=`` rows (empty without them)."""

    values: np.ndarray
    objective_value: float
    slack: np.ndarray


@dataclass(frozen=True)
class DualProgram:
    """The explicit dual of a program whose columns are each free or >= 0 (see :func:`dual`).

    ``program`` minimizes -b . y over y = [y_ub <= 0 | y_eq free], one per row of
    A = [A_ub; A_eq], subject to A^T y = c at the primal's ``free`` columns (its ``A_eq``)
    and A^T y <= c at the others (its ``A_ub``); the first ``rows_ub`` entries of y belong
    to the primal's ``<=`` rows.  :func:`solve` of it returns the primal's optimum.
    """

    program: LinearProgram
    free: np.ndarray
    rows_ub: int


def dual(lp: LinearProgram) -> DualProgram:
    """The explicit dual of a program whose columns are each free or >= 0; raises
    :class:`InputError` for any other bound.  It holds no reference to ``lp``."""
    bounds = lp.bounds if lp.bounds is not None else ((None, None),) * lp.nvars
    if any(tuple(bd) not in ((None, None), (0.0, None)) for bd in bounds):
        raise InputError("the dual is written only for columns that are free or >= 0")
    if lp.A_ub is None and lp.A_eq is None:
        raise InputError("a program without rows has no dual to write")
    from scipy import sparse

    free = np.array([bd[0] is None for bd in bounds])
    blocks = [(A, b) for A, b in ((lp.A_ub, lp.b_ub), (lp.A_eq, lp.b_eq)) if A is not None]
    # A stacked as CSC is A^T as CSR, whose rows are the primal's columns
    At = sparse.vstack([A for A, _ in blocks], format="csc").T
    b = np.concatenate([b for _, b in blocks])
    rows_ub = 0 if lp.A_ub is None else lp.A_ub.shape[0]

    def rows(mask):  # the dual's rows at the masked primal columns: (A^T, c) there, or (None, None)
        return (At[mask], lp.c[mask]) if mask.any() else (None, None)

    (A_ub, b_ub), (A_eq, b_eq) = rows(~free), rows(free)
    return DualProgram(LinearProgram(-b, A_ub, b_ub, A_eq, b_eq,
                                     bounds=((None, 0.0),) * rows_ub + ((None, None),) * (b.size - rows_ub)),
                       free, rows_ub)


def solve(lp: LinearProgram | DualProgram) -> LpSolution:
    """An optimum of the program by scipy's ``"highs"`` method, deterministic for identical
    input; raises :class:`InfeasibleError` or :class:`SolverError` instead of returning a status.

    Given a :class:`DualProgram`, it solves the dual and returns the primal's optimum."""
    program = lp.program if isinstance(lp, DualProgram) else lp
    bounds = list(program.bounds) if program.bounds is not None else [(None, None)] * program.nvars
    res = linprog(program.c, A_ub=program.A_ub, b_ub=program.b_ub, A_eq=program.A_eq, b_eq=program.b_eq,
                  bounds=bounds, method="highs")
    if isinstance(lp, DualProgram):
        return _primal_optimum(lp, res)
    if res.status == 0:
        x = np.asarray(res.x, dtype=np.float64)
        slack = np.zeros(0) if lp.A_ub is None else lp.b_ub - lp.A_ub @ x
        return LpSolution(x, float(res.fun), slack)
    if res.status == 2 and "infeasible" in res.message:  # scipy's status 2 also covers a HiGHS model error
        raise InfeasibleError(f"LP infeasible: {res.message}")
    raise _no_optimum(res)


def _no_optimum(res) -> SolverError:
    return SolverError(f"LP solve ended without an optimum (status {res.status}): {res.message}; "
                       f"iterations={getattr(res, 'nit', '?')}")


def _primal_optimum(lp: DualProgram, res) -> LpSolution:
    """The primal optimum read from the dual's result: x = -(the dual's row marginals)."""
    program = lp.program
    if res.status == 3 or (res.status == 4 and "unbounded or infeasible" in res.message and _zero_is_feasible(program)):
        # the dual is feasible and unbounded, so no primal point is feasible
        raise InfeasibleError(f"LP infeasible: its dual is unbounded: {res.message}")
    if res.status != 0:  # an infeasible dual leaves the primal unbounded or infeasible
        raise _no_optimum(res)
    x = np.empty(lp.free.size)
    x[lp.free] = -res.eqlin.marginals
    x[~lp.free] = -res.ineqlin.marginals
    # the primal's rows A x, read from the dual's blocks of A^T at the free and the other columns
    Ax = sum(A.T @ x[mask] for A, mask in ((program.A_eq, lp.free), (program.A_ub, ~lp.free)) if A is not None)
    return LpSolution(x, -float(res.fun), -program.c[:lp.rows_ub] - Ax[:lp.rows_ub])


def _zero_is_feasible(program: LinearProgram) -> bool:
    """Whether y = 0 satisfies the dual's rows: c = 0 at the free columns and c >= 0 elsewhere."""
    return ((program.b_eq is None or not program.b_eq.any())
            and (program.b_ub is None or bool((program.b_ub >= 0).all())))


def check_feasible(lp: LinearProgram, x: Sequence[float]) -> float:
    """Worst constraint violation of an assignment (<= ``FEASIBILITY_TOL`` means feasible)."""
    x = np.asarray(x, dtype=np.float64)
    worst = [0.0]
    if lp.A_ub is not None:
        worst.append(np.max(lp.A_ub @ x - lp.b_ub, initial=0.0))
    if lp.A_eq is not None:
        worst.append(np.max(np.abs(lp.A_eq @ x - lp.b_eq), initial=0.0))
    if lp.bounds is not None:
        lo = np.array([-np.inf if lo is None else lo for lo, _ in lp.bounds])
        hi = np.array([np.inf if hi is None else hi for _, hi in lp.bounds])
        worst.append(np.max(np.maximum(lo - x, x - hi)))
    return float(max(worst))

