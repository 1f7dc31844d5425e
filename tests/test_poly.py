import json
from fractions import Fraction

import numpy as np
import pytest

from onesided.cube import Majority, cube_matrix, eval_concept
from onesided.errors import DimensionError, ResourceLimitError
from onesided.poly import (AffineForm, SparseForm, SparsePolynomial, SumForm, UniPoly,
                           characters, chebyshev, eval_exact, eval_on_cube, exact_multilinear, expand,
                           monomials_upto, negate_onesided, sparse_eval_batch,
                           sparse_from_json, sparse_to_json, structured_from_json,
                           structured_to_json, weight_and_degree)
from onesided.poly import eval as eval_float


def test_chebyshev_base_and_low_degrees():
    assert chebyshev(0).coeffs == (Fraction(1),)
    assert chebyshev(1).coeffs == (Fraction(0), Fraction(1))
    assert chebyshev(3).coeffs == (Fraction(0), Fraction(-3), Fraction(0), Fraction(4))


def test_chebyshev_coefficient_bound():
    # max |coefficient| of T_4 is 8, within the 3^d bound
    assert chebyshev(4).max_abs_coeff() == 8
    for d in range(31):
        assert chebyshev(d).max_abs_coeff() <= Fraction(3) ** d


def test_chebyshev_bounded_on_unit_interval():
    ts = np.linspace(-1.0, 1.0, 1000)
    for d in range(31):
        T = chebyshev(d)
        vals = [T(float(t)) for t in ts]
        assert max(abs(v) for v in vals) <= 1 + 1e-9


def test_chebyshev_growth_just_past_one():
    for a in range(1, 31):
        d = a  # ceil(a) for integer a
        assert chebyshev(d)(1 + Fraction(1, a * a)) >= 2


def test_chebyshev_monotone_beyond_one():
    grid = [1 + Fraction(k, 16) for k in range(33)]
    for d in range(31):
        T = chebyshev(d)
        vals = [T(t) for t in grid]
        assert all(v1 <= v2 for v1, v2 in zip(vals, vals[1:]))


def test_unipoly_compose_affine_and_pow():
    # (2t+1)^2 = 4t^2 + 4t + 1 via composing t^2 with 2t+1
    sq = UniPoly((0, 0, 1))
    comp = sq.compose_affine(2, 1)
    assert comp.coeffs == (Fraction(1), Fraction(4), Fraction(4))
    assert sq.pow(2).coeffs == (Fraction(0),) * 4 + (Fraction(1),)


def test_eval_examples():
    const = SparseForm(SparsePolynomial(2, {(): Fraction(-1)}))
    assert eval_exact(const, (1, -1)) == -1
    lin = AffineForm(chebyshev(1), 0, (1, 1, 1))
    assert eval_exact(lin, (1, 1, -1)) == 1
    cubic = AffineForm(chebyshev(3), 0, (1, 1, 1))  # 4t^3 - 3t at t=3
    assert eval_exact(cubic, (1, 1, 1)) == 99
    assert eval_float(cubic, (1, 1, 1)) == 99.0


def test_eval_dimension_mismatch():
    lin = AffineForm(chebyshev(1), 0, (1, 1))
    with pytest.raises(DimensionError):
        eval_exact(lin, (1, 1, 1))


def test_expand_examples():
    # (x1 + x2)^2 = 2 + 2 x1 x2 under x_i^2 = 1
    sq = AffineForm(UniPoly((0, 0, 1)), 0, (1, 1))
    assert expand(sq).terms == {(): Fraction(2), (1, 2): Fraction(2)}
    sparse = SparseForm(SparsePolynomial(2, {(1,): Fraction(3)}))
    assert expand(sparse) is sparse.poly


def test_expand_cap():
    big = AffineForm(chebyshev(2), 0, tuple([1] * 25))
    with pytest.raises(ResourceLimitError):
        expand(big)


def test_maj3_exact_form():
    maj = Majority(3, (1, 2, 3))
    p = exact_multilinear(maj, 3)
    # sign agreement at all 8 points is the defining property
    for bits in cube_matrix(3):
        t = tuple(int(b) for b in bits)
        v = p.eval(t)
        assert (1 if v > 0 else -1) == eval_concept(maj, t)
        assert v in (Fraction(1), Fraction(-1))
    assert p.weight == 2
    assert p.degree == 3


def test_weight_and_degree_examples():
    sp = SparseForm(SparsePolynomial(1, {(): Fraction(-1), (1,): Fraction(2)}))
    w, d, exact = weight_and_degree(sp)
    assert (w, d, exact) == (3, 1, True)

    maj3 = SparseForm(exact_multilinear(Majority(3, (1, 2, 3)), 3))
    w, d, exact = weight_and_degree(maj3)
    assert (w, d, exact) == (2, 3, True)

    big = AffineForm(chebyshev(4), 0, tuple([1] * 30))
    w, d, exact = weight_and_degree(big)
    assert not exact
    assert d == 4
    assert w >= chebyshev(4)(30)  # bound dominates the true top value


def test_expand_eval_agreement_full_cube():
    cases = [
        AffineForm((chebyshev(3).pow(2) * Fraction(1, 2)).shift(-1), 1, (2, -1, 1, 0, 1)),
        SumForm((AffineForm(chebyshev(2), 0, (1, 1, 0, 0, 0)),
                 SparseForm(SparsePolynomial(5, {(4, 5): Fraction(1, 3)}))), Fraction(2)),
    ]
    for p in cases:
        q = expand(p)
        vals_p = eval_on_cube(p)
        X = cube_matrix(p.n)
        for i, bits in enumerate(X):
            t = tuple(int(b) for b in bits)
            assert abs(q.eval(t) - vals_p[i]) < Fraction(1, 10**9)
            assert vals_p[i] == eval_exact(p, t)


def test_negate_onesided_involution_and_constants():
    p = SumForm((AffineForm(chebyshev(3), 1, (1, -2, 1)),
                 SparseForm(SparsePolynomial(3, {(1, 2): Fraction(5, 7)}))), Fraction(-3))
    twice = negate_onesided(negate_onesided(p))
    for bits in cube_matrix(3):
        t = tuple(int(b) for b in bits)
        assert eval_exact(twice, t) == eval_exact(p, t)
        assert eval_exact(negate_onesided(p), t) == -eval_exact(p, tuple(-b for b in t))

    const = SparseForm(SparsePolynomial(2, {(): Fraction(-1)}))
    flipped = negate_onesided(const)
    assert eval_exact(flipped, (1, 1)) == 1


def test_negate_onesided_preserves_exact_majority():
    p = SparseForm(exact_multilinear(Majority(3, (1, 2, 3)), 3))
    q = negate_onesided(p)
    for bits in cube_matrix(3):
        t = tuple(int(b) for b in bits)
        assert eval_exact(q, t) == eval_exact(p, t)  # odd symmetry of majority


def test_monomials_upto():
    monos = monomials_upto(3, 2)
    assert monos == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]


def test_sparse_eval_batch_matches_exact():
    p = SparsePolynomial(4, {(): 0.5, (1, 3): -2.0, (2,): 1.25})
    X = cube_matrix(4)
    batch = sparse_eval_batch(p, X)
    for i, bits in enumerate(X):
        assert batch[i] == pytest.approx(float(p.eval(tuple(int(b) for b in bits))))


def test_json_roundtrip():
    sp = SparsePolynomial(3, {(1, 3): Fraction(2, 3), (): Fraction(-1)})
    assert sparse_from_json(json.loads(json.dumps(sparse_to_json(sp)))) == sp
    structured = SumForm((AffineForm(chebyshev(2), 1, (1, 0, -1)), SparseForm(sp)), Fraction(1, 2))
    back = structured_from_json(json.loads(json.dumps(structured_to_json(structured))))
    for bits in cube_matrix(3):
        t = tuple(int(b) for b in bits)
        assert eval_exact(back, t) == eval_exact(structured, t)


def test_characters_are_monomial_values():
    X = cube_matrix(3)
    monos = monomials_upto(3, 3)
    chi = characters(X, monos)
    assert chi.dtype == np.int8 and chi.shape == (8, 8)
    for i, row in enumerate(X):
        for j, mono in enumerate(monos):
            assert chi[i, j] == np.prod([row[v - 1] for v in mono], dtype=np.int64)


def test_sparse_eval_batch_is_the_sequential_term_sum():
    # reference: terms summed in dict order, each monomial a product along the row
    rng = np.random.default_rng(11)
    monos = monomials_upto(6, 6)
    for X in (cube_matrix(6), rng.uniform(-2, 2, size=(50, 6))):
        picks = rng.choice(len(monos), size=20, replace=False)
        p = SparsePolynomial(6, {monos[i]: float(c) for i, c in zip(picks, rng.normal(size=20))})
        want = np.zeros(X.shape[0])
        for mono, coef in p.terms.items():
            want += float(coef) * (X[:, [v - 1 for v in mono]].prod(axis=1) if mono else 1.0)
        assert np.array_equal(sparse_eval_batch(p, X), want)
