import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pointwise import pointwise_report

import onesided.poly as poly
from onesided.certify import verify_onesided, verify_twosided
from onesided.cube import (CUBE_CAP, NEGATIVE, POSITIVE, Dnf, Halfspace, Majority, cube_matrix, eval_concept,
                           eval_concept_batch)
from onesided.errors import DimensionError, InputError, ResourceLimitError
from onesided.poly import (AffineForm, SparsePolynomial, SumForm, UniPoly, analytic_bounds,
                           characters, chebyshev, compose_counts, cube_numerators, eval_exact, eval_on_cube,
                           exact_multilinear, expand, interpolate, monomials_upto, negate_onesided,
                           sparse_eval_batch, sparse_from_json, sparse_to_json, structured_from_json,
                           structured_to_json)


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
    assert sq.pow(0) == UniPoly((1,))
    with pytest.raises(InputError, match="nonnegative integer powers"):
        sq.pow(-1)


def test_unipoly_is_canonical_integer_numerators_over_one_denominator():
    p = UniPoly((Fraction(2, 6), Fraction(-1, 4), 0, Fraction(0)))
    assert (p.nums, p.den) == ((4, -3), 12)
    assert p.coeffs == (Fraction(1, 3), Fraction(-1, 4))
    assert (UniPoly(()).nums, UniPoly(()).den, UniPoly(()).degree) == ((), 1, -1)
    assert (p * 12).den == 1 and (p * 12).nums == (4, -3)
    assert p * 0 == UniPoly((0,)) == UniPoly(())
    assert p == UniPoly((Fraction(1, 3), Fraction(-1, 4))) and hash(p) == hash(UniPoly((Fraction(1, 3), Fraction(-1, 4))))


def test_unipoly_evaluates_a_numpy_integer_exactly():
    outer = UniPoly((Fraction(1, 3), 2**70))
    exact = Fraction(10625324586456701730817, 3)
    assert outer(np.int64(3)) == outer(3) == exact
    assert isinstance(outer(np.int64(3)), Fraction)
    assert outer(3.0) == float(exact)  # a float argument keeps the float Horner


@pytest.mark.parametrize("op, kind", [
    (lambda p: p * 0.5, "float"), (lambda p: 0.5 * p, "float"), (lambda p: p * np.float64(2), "float64"),
    (lambda p: p + 1, "int"), (lambda p: p + Fraction(1, 2), "Fraction"), (lambda p: p + 0.5, "float"),
    (lambda p: p.shift(0.5), "float"), (lambda p: p.compose_affine(0.5, 0), "float"),
    (lambda p: UniPoly((1, 0.5)), "float"),
])
def test_unipoly_rejects_inexact_operands(op, kind):
    with pytest.raises(InputError, match=rf"\b{kind}\b"):
        op(UniPoly((1, 2)))


def test_eval_examples():
    const = SparsePolynomial(2, {(): Fraction(-1)})
    assert eval_exact(const, (1, -1)) == -1
    lin = AffineForm(chebyshev(1), 0, (1, 1, 1))
    assert eval_exact(lin, (1, 1, -1)) == 1
    cubic = AffineForm(chebyshev(3), 0, (1, 1, 1))  # 4t^3 - 3t at t=3
    assert eval_exact(cubic, (1, 1, 1)) == 99
    assert float(eval_exact(cubic, (1, 1, 1))) == 99.0


def test_eval_dimension_mismatch():
    lin = AffineForm(chebyshev(1), 0, (1, 1))
    with pytest.raises(DimensionError):
        eval_exact(lin, (1, 1, 1))


def test_expand_examples():
    # (x1 + x2)^2 = 2 + 2 x1 x2 under x_i^2 = 1
    sq = AffineForm(UniPoly((0, 0, 1)), 0, (1, 1))
    assert expand(sq).terms == {(): Fraction(2), (1, 2): Fraction(2)}
    sparse = SparsePolynomial(2, {(1,): Fraction(3)})
    assert expand(sparse) is sparse


def test_expand_cap():
    big = AffineForm(chebyshev(2), 0, tuple([1] * 25))
    with pytest.raises(ResourceLimitError):
        expand(big)


def test_expand_takes_outer_degree_beyond_the_variable_cap():
    # the outer polynomial is evaluated once per distinct value of the linear form,
    # so EXPANSION_CAP bounds the variable count and not the outer degree
    p = AffineForm((chebyshev(25) * Fraction(1, 3)).shift(Fraction(1, 7)), -1, (1, -2, 3, 1, 0, 2, -1, 1))
    assert p.outer.degree == 25
    q = expand(p)
    for bits in cube_matrix(8):
        t = tuple(int(b) for b in bits)
        assert q.eval(t) == eval_exact(p, t)


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


def test_exact_multilinear_reaches_its_cap():
    # a halfspace with distinct weights has a dense interpolant
    h = Halfspace(16, 1, tuple((-1) ** j * (j % 5 + 1) for j in range(16)))
    p = exact_multilinear(h, 16)
    assert len(p.terms) > 2**14
    assert sum((c * c for c in p.terms.values()), start=Fraction(0)) == 1  # Parseval
    rng = np.random.default_rng(16)
    for bits in rng.choice([-1, 1], size=(5, 16)):
        t = tuple(int(b) for b in bits)
        assert p.eval(t) == eval_concept(h, t)
    # EXPANSION_CAP = 20 is the declared cap: a dictator reaches it with one term, and n = 21 is refused
    assert exact_multilinear(Majority(20, (1,)), 20) == SparsePolynomial(20, {(1,): 1})
    with pytest.raises(ResourceLimitError, match="cap is 2\\^20"):
        exact_multilinear(Majority(21, (1,)), 21)


@pytest.mark.parametrize("f", [Majority(7, tuple(range(1, 8))), Halfspace(8, 1, (3, -1, 2, 2, -5, 1, 4, -2)),
                               Dnf(8, ((1, -2, 3), (-4, 5), (6, 7, -8)))],
                         ids=["maj", "halfspace", "dnf"])
def test_exact_multilinear_matches_interpolate(f):
    values = [int(v) for v in eval_concept_batch(f, cube_matrix(f.n))]
    assert exact_multilinear(f, f.n) == interpolate(f.n, values)


def test_compose_counts_rejects_a_wrong_count_length():
    with pytest.raises(DimensionError):
        compose_counts(2, UniPoly((0, 1)), np.array([0, 1, 2]))


def test_compose_counts_rejects_counts_that_are_not_integers():
    with pytest.raises(InputError, match="integer counts"):
        compose_counts(1, UniPoly((1, 2)), np.array([0.5, 1.0]))


def test_compose_counts_takes_values_beyond_int64():
    outer = UniPoly((Fraction(1, 3), 2**70))  # outer values reach 2^72: the object route
    counts = np.array([0, 3, -1, 3, 2, 0, -5, 1])
    assert compose_counts(3, outer, counts) == interpolate(3, [outer(c) for c in counts.tolist()])


@pytest.mark.parametrize("p", [AffineForm(UniPoly((0, 1)), 0, (1,) + (0,) * CUBE_CAP),
                               SparsePolynomial(CUBE_CAP + 1, {(CUBE_CAP + 1,): 1})], ids=["affine", "sparse"])
def test_full_cube_values_refuse_past_the_cube_cap(monkeypatch, p):
    def no_evaluation(q):
        raise AssertionError(f"evaluated a form over {q.n} variables")

    monkeypatch.setattr(poly, "_support_values", no_evaluation)  # a missing cap fails here, before 2^25 values
    with pytest.raises(ResourceLimitError, match="cap is 2"):
        cube_numerators(p)
    with pytest.raises(ResourceLimitError, match="cap is 2"):
        eval_on_cube(p)


def test_interpolate_rejects_wrong_length_and_inexact_values():
    with pytest.raises(DimensionError):
        interpolate(2, [1, -1, 1])
    with pytest.raises(InputError):
        interpolate(1, [1, 0.5])
    with pytest.raises(InputError):
        interpolate(1, list(np.array([1, -1], dtype=np.int8)))  # numpy ints could wrap


def test_eval_on_cube_takes_float_coefficients_exactly():
    floats = SparsePolynomial(3, {(): 0.1, (1, 2): -0.2, (3,): 1e-17})
    exact = SparsePolynomial(3, {mono: Fraction(c) for mono, c in floats.terms.items()})
    values = eval_on_cube(floats)
    assert all(isinstance(v, Fraction) for v in values)
    assert values == eval_on_cube(exact)
    assert values == [exact.eval(tuple(int(b) for b in row)) for row in cube_matrix(3)]


def test_affine_cube_numerators_take_weights_beyond_int8():
    p = AffineForm(UniPoly((Fraction(1, 3), Fraction(-2), Fraction(5, 7))), -129, (200, -300, 1000, 128))
    assert eval_on_cube(p) == [eval_exact(p, tuple(int(b) for b in row)) for row in cube_matrix(4)]


def test_affine_cube_numerators_transient_memory_stays_near_the_cube_matrix():
    n = 18
    p = AffineForm(UniPoly((Fraction(1, 3), Fraction(2), Fraction(-1, 7))), 5, tuple(range(1, n + 1)))
    matrix_bytes = n * 2**n  # the int8 cube matrix the form is evaluated on
    tracemalloc.start()
    try:
        cube_numerators(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * matrix_bytes


# Forms just below (int64 numerators) and just above (object) the 2^62 bound that decides their dtype


def _sparse_at(above: bool) -> SparsePolynomial:
    """Coefficient numerators by mask of absolute sum 2^62 - 1 or 2^62, on the support {2, 4}."""
    top = 2**62 if above else 2**62 - 1
    return SparsePolynomial(4, {(2,): top // 2, (2, 4): -(top - top // 2)})


def _affine_at(above: bool) -> AffineForm:
    """outer(t) = K + 3t + (t^2 - 1) / 2^70 on t = x_2: the integer Horner values K 2^70 +- 3 2^70
    pass 2^63, and the table after the gcd division is K +- 3, of largest magnitude 2^62 - 1 or 2^62."""
    top = 2**62 if above else 2**62 - 1
    return AffineForm(UniPoly((top - 3 - Fraction(1, 2**70), Fraction(3), Fraction(1, 2**70))), 0, (0, 1, 0))


def _sum_at(above: bool) -> SumForm:
    """a/2 x_1 + 1/3 x_3 over D = 6 with a odd: each part alone is int64, and the scaled bound
    3a + 2 is 2^62 - 5 or 2^62 + 1."""
    a = (2**62 - 1) // 3 if above else (2**62 - 7) // 3
    return SumForm((SparsePolynomial(3, {(1,): Fraction(a, 2)}), SparsePolynomial(3, {(3,): Fraction(1, 3)})), 0)


@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("form", [_sparse_at, _affine_at, _sum_at])
def test_cube_numerators_are_int64_below_the_bound_and_object_above(form, above):
    p = form(above)
    nums, _ = cube_numerators(p)
    assert nums.dtype == (object if above else np.int64)
    assert eval_on_cube(p) == [eval_exact(p, tuple(int(b) for b in row)) for row in cube_matrix(p.n)]
    f = lambda x: x[0]  # noqa: E731  the dictator x_1
    for eps in (0.1, 2.0**63):  # values near 2^62 fail at 0.1 and pass at 2^63
        for sign in (POSITIVE, NEGATIVE):
            assert verify_onesided(p, f, eps, sign).to_json() == pointwise_report(p, f, eps, sign)


@pytest.mark.parametrize("top", [2**62 - 1, 2**62, 2**64])
def test_interpolation_transform_is_int64_only_below_the_bound(top, monkeypatch):
    seen = []
    walsh = poly._walsh
    monkeypatch.setattr(poly, "_walsh", lambda a: seen.append(a.dtype) or walsh(a))
    values = [top // 4, -(top // 4), top // 4, top - 3 * (top // 4)]  # absolute sum top
    q = interpolate(2, values)
    assert seen == [np.int64 if top < 2**62 else object]
    assert [q.eval(tuple(int(b) for b in row)) for row in cube_matrix(2)] == values  # 2^64 would wrap in int64


def test_expand_and_analytic_bounds_examples():
    sp = SparsePolynomial(1, {(): Fraction(-1), (1,): Fraction(2)})
    assert (expand(sp).weight, expand(sp).degree) == (3, 1)

    maj3 = exact_multilinear(Majority(3, (1, 2, 3)), 3)
    assert (expand(maj3).weight, expand(maj3).degree) == (2, 3)

    big = AffineForm(chebyshev(4), 0, tuple([1] * 30))
    w, d = analytic_bounds(big)
    assert d == 4
    assert w >= chebyshev(4)(30)  # bound dominates the true top value

    small = AffineForm((chebyshev(3).pow(2) * Fraction(1, 2)).shift(-1), 1, (2, -1, 1, 0, 1))
    w, d = analytic_bounds(small)
    assert w >= expand(small).weight and d >= expand(small).degree


def test_expand_eval_agreement_full_cube():
    cases = [
        AffineForm((chebyshev(3).pow(2) * Fraction(1, 2)).shift(-1), 1, (2, -1, 1, 0, 1)),
        SumForm((AffineForm(chebyshev(2), 0, (1, 1, 0, 0, 0)),
                 SparsePolynomial(5, {(4, 5): Fraction(1, 3)})), Fraction(2)),
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
                 SparsePolynomial(3, {(1, 2): Fraction(5, 7)})), Fraction(-3))
    twice = negate_onesided(negate_onesided(p))
    for bits in cube_matrix(3):
        t = tuple(int(b) for b in bits)
        assert eval_exact(twice, t) == eval_exact(p, t)
        assert eval_exact(negate_onesided(p), t) == -eval_exact(p, tuple(-b for b in t))

    const = SparsePolynomial(2, {(): Fraction(-1)})
    flipped = negate_onesided(const)
    assert eval_exact(flipped, (1, 1)) == 1


def test_negate_onesided_preserves_exact_majority():
    p = exact_multilinear(Majority(3, (1, 2, 3)), 3)
    q = negate_onesided(p)
    for bits in cube_matrix(3):
        t = tuple(int(b) for b in bits)
        assert eval_exact(q, t) == eval_exact(p, t)  # odd symmetry of majority


def test_monomials_upto():
    monos = monomials_upto(3, 2)
    assert monos == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    assert monomials_upto(3, 0) == [()]
    with pytest.raises(InputError, match="degree must be nonnegative"):
        monomials_upto(3, -1)


def test_sparse_eval_batch_matches_exact():
    p = SparsePolynomial(4, {(): 0.5, (1, 3): -2.0, (2,): 1.25})
    X = cube_matrix(4)
    batch = sparse_eval_batch(p, X)
    for i, bits in enumerate(X):
        assert batch[i] == pytest.approx(float(p.eval(tuple(int(b) for b in bits))))


def test_json_roundtrip():
    sp = SparsePolynomial(3, {(1, 3): Fraction(2, 3), (): Fraction(-1)})
    assert sparse_from_json(json.loads(json.dumps(sparse_to_json(sp)))) == sp
    structured = SumForm((AffineForm(chebyshev(2), 1, (1, 0, -1)), sp), Fraction(1, 2))
    back = structured_from_json(json.loads(json.dumps(structured_to_json(structured))))
    for bits in cube_matrix(3):
        t = tuple(int(b) for b in bits)
        assert eval_exact(back, t) == eval_exact(structured, t)


def test_json_roundtrip_keeps_float_coefficients_and_certificates():
    # an LP-style polynomial: float coefficients that no short decimal equals, and one Fraction
    sp = SparsePolynomial(3, {(): -0.1, (1,): 1 / 3, (2, 3): 1e-17, (1, 2, 3): 2.5e-5, (3,): Fraction(1, 7)})
    back = sparse_from_json(json.loads(json.dumps(sparse_to_json(sp))))
    assert back == sp
    assert {type(c) for c in back.terms.values()} == {float, Fraction}
    structured = SumForm((sp, AffineForm(chebyshev(2), 1, (1, 0, -1))), Fraction(1, 2))
    back_structured = structured_from_json(json.loads(json.dumps(structured_to_json(structured))))
    assert back_structured == structured
    maj = Majority(3, (1, 2, 3))
    for p, q in ((sp, back), (structured, back_structured)):
        for sign in ("positive", "negative"):
            assert verify_onesided(q, maj, 0.1, sign) == verify_onesided(p, maj, 0.1, sign)
        assert verify_twosided(q, maj, 0.1) == verify_twosided(p, maj, 0.1)


@pytest.mark.parametrize("coef", [float("inf"), float("-inf"), float("nan")])
def test_sparse_polynomial_rejects_non_finite_coefficients(coef):
    with pytest.raises(InputError, match="must be finite"):
        SparsePolynomial(2, {(1,): Fraction(1), (2,): coef})
    with pytest.raises(InputError, match="must be finite"):
        structured_from_json({"n": 2, "terms": [{"vars": [2], "coef": repr(coef)}]})


def test_sparse_polynomial_rejects_a_sum_that_overflows():
    big = SparsePolynomial(1, {(1,): 1e308})
    with pytest.raises(InputError, match="must be finite, got inf"):
        big + big


def test_structured_from_json_reads_the_untagged_sparse_form():
    sp = SparsePolynomial(2, {(1,): Fraction(1, 3), (): 0.25})
    assert "form" not in sparse_to_json(sp)
    assert structured_from_json(sparse_to_json(sp)) == sp
    with pytest.raises(InputError, match="unknown structured polynomial form"):
        structured_from_json({"form": "dense", "n": 2, "terms": []})


def test_affine_forms_take_only_integer_weights():
    # a fractional w0 once read as int in one path and as a Fraction in another
    with pytest.raises(InputError, match="weights must be integers"):
        AffineForm(UniPoly((1, 2)), Fraction(1, 2), (1,))
    with pytest.raises(InputError, match="weights must be integers"):
        structured_from_json({"form": "affine", "outer": ["1", "2"], "w0": 1.5, "w": [1]})
    q = AffineForm(UniPoly((1, 2)), np.int64(1), [np.int64(1)])
    assert (q.w0, q.w) == (1, (1,)) and type(q.w0) is int and type(q.w[0]) is int
    assert structured_from_json(structured_to_json(q)) == q


@pytest.mark.parametrize("mono", [(1.0,), (2, 1.0), ("1",), 1])
def test_sparse_polynomial_takes_only_integer_monomial_indices(mono):
    # a float index once constructed, then failed in evaluation as a numpy IndexError
    with pytest.raises(InputError, match="integer variable indices"):
        SparsePolynomial(2, {mono: 1, (2,): 1})


def test_sparse_polynomial_stores_monomial_indices_as_python_ints():
    p = SparsePolynomial(2, {(np.int64(2), np.int8(1)): 1})
    assert list(p.terms) == [(1, 2)] and all(type(v) is int for v in next(iter(p.terms)))
    assert sparse_eval_batch(p, cube_matrix(2)).tolist() == [1.0, -1.0, -1.0, 1.0]


@pytest.mark.parametrize("payload, message", [
    ({"n": 2, "terms": [{"vars": [True], "coef": "1"}]}, "term field 'vars' must hold integers, got [True]"),
    ({"n": True, "terms": []}, "sparse polynomial field 'n' must be an integer, got True"),
    ({"form": "affine", "outer": ["1", "2"], "w0": True, "w": [1]},
     "affine form field 'w0' must be an integer or a number, got True"),
    ({"form": "affine", "outer": ["1", "2"], "w0": 0, "w": [1, False]},
     "affine form field 'w' must hold integers, got [1, False]"),
])
def test_polynomial_readers_refuse_true_and_false_as_integers(payload, message):
    with pytest.raises(InputError, match=re.escape(message)):
        structured_from_json(payload)


def test_sparse_polynomials_hash_by_their_terms():
    a = SparsePolynomial(2, {(1,): 1, (): Fraction(1, 2)})
    b = SparsePolynomial(2, {(): 0.5, (1,): Fraction(1)})
    assert a == b and hash(a) == hash(b)
    assert {a, b, SparsePolynomial(2, {(2,): 1})} == {a, SparsePolynomial(2, {(2,): 1})}
    assert a in {b}
    s = SumForm((AffineForm(chebyshev(2), 0, (1, 1)), a), Fraction(1))
    assert hash(s) == hash(SumForm((AffineForm(chebyshev(2), 0, (1, 1)), b), Fraction(1)))


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


def test_sum_forms_take_an_exact_offset():
    part = SparsePolynomial(1, {(1,): 1})
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(InputError, match="ints and Fractions"):
        SumForm((part,), 0.1)
    assert SumForm((part,), np.int64(2)).offset == 2
    assert SumForm((part,), Fraction(1, 10)).offset == Fraction(1, 10)


def test_affine_forms_take_a_unipoly_outer():
    with pytest.raises(InputError, match="outer must be a UniPoly"):
        AffineForm([1, 2], 0, (1,))
