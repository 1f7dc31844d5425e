"""Property tests; they need the optional ``hypothesis`` package (the ``test`` extra)."""

import numpy as np
import pytest
from scipy import sparse

from onesided.cube import Majority, constant_concept, dedup, eval_concept_batch, format_concept
from onesided.harness import (NoiseModel, brute_opt, generate, majority_bank,
                              monotone_disjunction_bank)
from onesided.lp import FEASIBILITY_TOL, LinearProgram, check_feasible, solve

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
