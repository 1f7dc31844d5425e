import math
import time
from fractions import Fraction

import pytest

from onesided import certify
from onesided.certify import CUBE_LP_ENTRY_CAP, min_eps, verify_onesided, verify_twosided
from onesided.constructions import halfspace_quarter
from onesided.cube import (Conjunction, Disjunction, Dnf, Halfspace, Majority, cube_matrix, eval_concept,
                           majority_as_halfspace)
from onesided.errors import InputError, ResourceLimitError
from onesided.poly import SparsePolynomial, exact_multilinear

# the LP-oracle test bank of small functions
BANK = {
    "OR_2": Disjunction(2, (1, 2)),
    "OR_3": Disjunction(3, (1, 2, 3)),
    "AND_2": Conjunction(2, (1, 2)),
    "AND_3": Conjunction(3, (1, 2, 3)),
    "MAJ_3": Majority(3, (1, 2, 3)),
}

# the negation -f of each bank function, written as a concept
NEGATED = {
    "OR_2": Conjunction(2, (-1, -2)),
    "OR_3": Conjunction(3, (-1, -2, -3)),
    "AND_2": Disjunction(2, (-1, -2)),
    "AND_3": Disjunction(3, (-1, -2, -3)),
    "MAJ_3": Halfspace(3, 0, (-1, -1, -1)),  # no ties at odd n
}


def const_poly(n, v):
    return SparsePolynomial(n, {(): Fraction(v)})


def test_verify_trivial_constants():
    rep = verify_onesided(const_poly(2, -1), Disjunction(2, ()), 0.1, "positive")
    assert rep.ok
    assert rep.worst_pos_violation == float("-inf")  # no true points to check
    assert rep.points_checked == 4
    assert rep.witness is None


def test_verify_zero_poly_fails_with_expected_slack():
    rep = verify_onesided(const_poly(2, 0), Disjunction(2, (1, 2)), 0.25, "positive")
    assert not rep.ok
    assert rep.worst_pos_violation == pytest.approx(0.75)  # (1 - eps) - 0
    assert rep.witness is not None


def test_verify_quarter_construction_maj5():
    maj5 = Majority(5, (1, 2, 3, 4, 5))
    rep = verify_onesided(halfspace_quarter(majority_as_halfspace(maj5)), maj5, 0.25, "positive")
    assert rep.ok and rep.points_checked == 32


def test_verify_witness_is_lexicographic_first_worst():
    # p = x1 fails on the true point (1,-1) of OR_2 twice as badly as elsewhere
    p = SparsePolynomial(2, {(2,): Fraction(1)})
    rep = verify_onesided(p, Disjunction(2, (1, 2)), 0.25, "positive")
    assert not rep.ok
    assert rep.witness == (1, -1)  # worst violation: p = -1 on a true point


def test_verify_twosided_examples():
    maj3 = Majority(3, (1, 2, 3))
    exact = exact_multilinear(maj3, 3)
    assert verify_twosided(exact, maj3, 0.0).ok
    rep = verify_twosided(const_poly(3, 0), maj3, 0.5)
    assert not rep.ok
    assert max(rep.worst_pos_violation, rep.worst_neg_violation) == pytest.approx(0.5)


def test_verify_accepts_callable_targets():
    target = lambda bits: 1 if bits[0] == 1 else -1  # noqa: E731
    p = SparsePolynomial(2, {(1,): Fraction(1)})
    assert verify_onesided(p, target, 0.0, "positive").ok


def test_verify_cap():
    p = const_poly(30, -1)
    with pytest.raises(ResourceLimitError):
        verify_onesided(p, Disjunction(30, ()), 0.1, "positive")


def test_verify_rejects_unknown_sign():
    with pytest.raises(InputError):
        verify_onesided(const_poly(2, -1), Disjunction(2, ()), 0.1, "both")


@pytest.mark.parametrize("eps", [float("inf"), float("-inf"), float("nan")])
def test_verify_rejects_non_finite_eps(eps):
    with pytest.raises(InputError, match="finite"):
        verify_onesided(const_poly(2, -1), Disjunction(2, ()), eps, "positive")
    with pytest.raises(InputError, match="finite"):
        verify_twosided(const_poly(2, -1), Disjunction(2, ()), eps)


def test_min_eps_dictator_degree_one():
    eps, p = min_eps(Majority(1, (1,)), 1, "positive")
    assert eps == pytest.approx(0.0, abs=1e-9)
    assert verify_onesided(p, Majority(1, (1,)), eps + 2e-7, "positive").ok


@pytest.mark.parametrize("n", [2, 3, 4])
def test_min_eps_or_degree_one_positive_is_zero(n):
    f = Disjunction(n, tuple(range(1, n + 1)))
    eps, _ = min_eps(f, 1, "positive")
    assert eps == pytest.approx(0.0, abs=1e-9)
    # the analytic witness p = sum x_i + (n - 1)
    witness = SparsePolynomial(n, {(): Fraction(n - 1), **{(j,): Fraction(1) for j in range(1, n + 1)}})
    assert verify_onesided(witness, f, 0.0, "positive").ok


def test_min_eps_or2_negative_frozen_regression_value():
    # frozen from this oracle: min_eps(OR_2, 1, negative)
    # (generating command: onesided mineps --concept "DISJ +1 +2" --mode negative --dmax 1)
    eps, p = min_eps(Disjunction(2, (1, 2)), 1, "negative")
    assert eps > 0.05
    assert eps == pytest.approx(0.5, abs=1e-6)
    assert verify_onesided(p, Disjunction(2, (1, 2)), eps + 2e-7, "negative").ok


@pytest.mark.parametrize("name", sorted(BANK))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_min_eps_relaxation_ordering(name, d):
    f = BANK[name]
    two = min_eps(f, d, "twosided")[0]
    assert min_eps(f, d, "positive")[0] <= two + 1e-7
    assert min_eps(f, d, "negative")[0] <= two + 1e-7


@pytest.mark.parametrize("name", sorted(BANK))
@pytest.mark.parametrize("mode", ["positive", "negative", "twosided"])
def test_min_eps_monotone_and_exact_at_full_degree(name, mode):
    f = BANK[name]
    values = [min_eps(f, d, mode)[0] for d in range(1, f.n + 1)]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-7
    assert values[-1] == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("name", sorted(BANK))
@pytest.mark.parametrize("d", [1, 2])
def test_min_eps_negation_duality(name, d):
    f, neg_f = BANK[name], NEGATED[name]
    for row in cube_matrix(f.n):
        assert eval_concept(neg_f, row) == -eval_concept(f, row)
    lhs = min_eps(f, d, "negative")[0]
    rhs = min_eps(neg_f, d, "positive")[0]
    assert lhs == pytest.approx(rhs, abs=1e-6)


@pytest.mark.parametrize("mode", ["positive", "negative", "twosided"])
def test_min_eps_witness_verifies(mode):
    for f in (BANK["OR_3"], BANK["MAJ_3"]):
        for d in (1, 2):
            eps, p = min_eps(f, d, mode)
            if mode == "twosided":
                rep = verify_twosided(p, f, eps + 2e-7)
            else:
                rep = verify_onesided(p, f, eps + 2e-7, mode)
            assert rep.ok


def test_min_eps_caps():
    maj14 = Majority(14, tuple(range(1, 15)))
    # the level LP of MAJ_14 at d = 7 has 9 columns; its witness spreads over 9,908 monomials
    eps, p = min_eps(maj14, 7, "positive")
    assert p.degree == 7 and verify_onesided(p, maj14, eps + 2e-7, "positive").ok
    # the n cap holds on both LP forms: the level LP of a majority and the cube LP of a halfspace
    for f in (Majority(15, tuple(range(1, 16))), majority_as_halfspace(Majority(15, tuple(range(1, 16))))):
        with pytest.raises(ResourceLimitError, match="caps at n=14"):
            min_eps(f, 1, "positive")
    with pytest.raises(ResourceLimitError, match=f"exceeds cap {CUBE_LP_ENTRY_CAP}"):
        min_eps(majority_as_halfspace(maj14), 7, "positive")


def test_min_eps_level_lp_witness_at_large_degree_certifies():
    maj13 = Majority(13, tuple(range(1, 14)))
    eps, p = min_eps(maj13, 7, "positive")
    assert eps == 0.0 and len(p.terms) == 5812  # every monomial of degree <= 7 in 13 variables
    assert verify_onesided(p, maj13, eps + 2e-7, "positive").ok
    maj14 = Majority(14, tuple(range(1, 15)))
    eps, p = min_eps(maj14, 14, "negative")
    assert verify_onesided(p, maj14, eps + 2e-7, "negative").ok


def test_min_eps_cube_lp_entry_cap_holds_before_the_cube_is_built():
    halfspace = Halfspace(14, 1, tuple(range(-7, 0)) + tuple(range(1, 8)))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"exceeds cap {CUBE_LP_ENTRY_CAP}"):
        min_eps(halfspace, 5, "positive")  # 3,473 monomials: about 85M entries if half the points are false
    assert time.perf_counter() - start < 1.0
    # the level LP of a majority at n = 14, d = 5 reads no cube and takes no entry cap
    assert min_eps(Majority(14, tuple(range(1, 15))), 5, "positive")[0] >= 0.0


def test_min_eps_cube_lp_entry_cap_admits_n_14_at_degree_3(monkeypatch):
    class Admitted(Exception):
        pass

    def admitted(n):
        raise Admitted

    monkeypatch.setattr(certify, "cube_matrix", admitted)  # stop where the cube LP would be built
    with pytest.raises(Admitted):
        min_eps(Halfspace(14, 1, tuple(range(-7, 0)) + tuple(range(1, 8))), 3, "twosided")


@pytest.mark.parametrize("f, d", [(Majority(3, (1, 2, 3)), 3), (Dnf(5, ((1, 2), (3, 4, 5))), 5),
                                  (majority_as_halfspace(Majority(3, (1, 2, 3))), 3)],
                         ids=["level-MAJ_3", "cube-DNF", "cube-MAJ_3"])
def test_min_eps_returns_positive_zero(f, d):
    eps, _ = min_eps(f, d, "twosided")
    assert eps == 0.0 and math.copysign(1.0, eps) == 1.0


@pytest.mark.parametrize("f", [Majority(3, (1, 2, 3)), majority_as_halfspace(Majority(3, (1, 2, 3)))],
                         ids=["level", "cube"])
@pytest.mark.parametrize("solver_eps", [-0.0, -1e-12])
def test_min_eps_clamps_a_solver_eps_below_zero(monkeypatch, f, solver_eps):
    import onesided.lp as lpmod

    real = lpmod.linprog

    def below_zero(c, **kwargs):  # the backend ends at eps = 0 up to sign or feasibility tolerance
        res = real(c, **kwargs)
        assert abs(res.x[-1]) <= 1e-9
        res.x[-1] = solver_eps
        return res

    monkeypatch.setattr(lpmod, "linprog", below_zero)
    eps, _ = min_eps(f, 3, "positive")
    assert eps == 0.0 and math.copysign(1.0, eps) == 1.0


def test_min_eps_rejects_a_negative_degree():
    with pytest.raises(InputError, match="degree must be nonnegative"):
        min_eps(Majority(3, (1, 2, 3)), -1, "positive")
