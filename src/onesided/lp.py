"""Linear programming layer used by the learners and certification oracles.

The module owns the LP surface for the whole package.  A program is given in
matrix form, :class:`LinearProgram` ``(c, A_ub, b_ub, A_eq, b_eq, bounds)``:
minimize ``c . x`` subject to ``A_ub x <= b_ub``, ``A_eq x = b_eq`` and
per-variable bounds, with both constraint matrices held as ``scipy.sparse``
CSR arrays.  Callers build their rows as sparse blocks and receive
:class:`LpSolution` values; a ``>=`` row is written negated as a ``<=`` row.
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import InfeasibleError, InputError, SolverError

FEASIBILITY_TOL = 1e-7


def _rows(A, b, nvars: int, name: str):
    """Validated (CSR matrix, float vector) for one constraint family, or (None, None)."""
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
    """An optimal point of a linear program and its objective value."""

    values: np.ndarray
    objective_value: float


def solve(lp: LinearProgram) -> LpSolution:
    """An optimum of the program by scipy's ``"highs"`` method, deterministic for identical
    input; raises :class:`InfeasibleError` or :class:`SolverError` instead of returning a status."""
    bounds = list(lp.bounds) if lp.bounds is not None else [(None, None)] * lp.nvars
    res = linprog(lp.c, A_ub=lp.A_ub, b_ub=lp.b_ub, A_eq=lp.A_eq, b_eq=lp.b_eq,
                  bounds=bounds, method="highs")
    if res.status == 0:
        return LpSolution(np.asarray(res.x, dtype=np.float64), float(res.fun))
    if res.status == 2 and "infeasible" in res.message:  # scipy's status 2 also covers a HiGHS model error
        raise InfeasibleError(f"LP infeasible: {res.message}")
    raise SolverError(f"LP solve ended without an optimum (status {res.status}): {res.message}; "
                      f"iterations={getattr(res, 'nit', '?')}")


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

