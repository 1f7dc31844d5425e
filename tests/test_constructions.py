import hashlib
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pointwise import fraction_step_poly

from onesided.certify import verify_onesided, verify_twosided
from onesided.constructions import (ConstructionResult, StepPolyParams, and_compose,
                                    and_twosided_tradeoff, certified, cnf_negative_onesided,
                                    default_step_params, dnf_positive_onesided, halfspace_onesided,
                                    halfspace_quarter, or_compose, reflect_halfspace,
                                    step_poly)
from onesided.cube import (Cnf, Conjunction, Disjunction, Dnf, Halfspace, Majority,
                           cube_matrix, eval_concept, majority_as_halfspace)
from onesided.errors import InputError, ParameterError, ResourceLimitError
from onesided.poly import (AffineForm, SparsePolynomial, eval_exact, eval_on_cube, expand, negate_onesided,
                           structured_to_json)


def maj(n):
    return Majority(n, tuple(range(1, n + 1)))


# ---------------------------------------------------------------------------
# Quarter construction


def test_quarter_weight_one_values():
    q = halfspace_quarter(Halfspace(1, 0, (1,)))
    assert eval_exact(q, (-1,)) == Fraction(-3, 4)
    assert eval_exact(q, (1,)) == Fraction(77, 4)
    assert eval_exact(q, (1,)) >= 3


def test_quarter_degree_is_four_sqrt():
    for W in (1, 2, 5, 9, 13):
        h = Halfspace(W, 0, tuple([1] * W))
        q = halfspace_quarter(h)
        d = math.isqrt(W)
        if d * d < W:
            d += 1
        assert q.outer.degree == 4 * d


def test_quarter_images_and_certification():
    for n in (1, 3, 5, 7):
        target = maj(n)
        q = halfspace_quarter(majority_as_halfspace(target))
        rep = verify_onesided(q, target, 0.25, "positive")
        assert rep.ok
        vals = eval_on_cube(q)
        X = cube_matrix(n)
        for i, bits in enumerate(X):
            if eval_concept(target, tuple(int(b) for b in bits)) == -1:
                assert Fraction(-1) <= vals[i] <= Fraction(-3, 4)
            else:
                assert vals[i] >= 3


# ---------------------------------------------------------------------------
# Step polynomials


def test_default_step_params_examples():
    p = default_step_params(20, 12)
    # arithmetic from the stated rule with constant 1/4
    assert (p.a, p.b) == (math.ceil(12 / (4 * math.log2(20))), math.ceil(144 / (80 * math.log2(20))))
    assert (p.a, p.b, p.r) == (1, 1, 9)
    assert p.degree == 12

    assert default_step_params(2**6, 16).a == 1  # ceil(16/24)

    with pytest.raises(ParameterError):
        default_step_params(2, 3)  # k <= a + b + 1 at the clamping boundary


def test_step_params_validation():
    with pytest.raises(ParameterError):
        StepPolyParams(W=1, k=4, a=1, b=1, r=1)
    with pytest.raises(ParameterError):
        StepPolyParams(W=10, k=4, a=2, b=3, r=0)  # a + b > k
    with pytest.raises(ParameterError):
        StepPolyParams(W=4, k=8, a=2, b=2, r=3)  # W - b - a <= 0


def test_step_poly_identities():
    for k in (8, 12, 16):
        params = default_step_params(20, k)
        S = step_poly(params)
        assert S(20) == 1  # exact, rational arithmetic
        for root in list(range(params.a + 1)) + list(range(20 - params.b, 20)):
            assert S(root) == 0
        assert S.degree == params.degree <= k


def test_step_poly_decay_strictly_decreasing():
    maxima = []
    for k in (8, 12, 16):
        S = step_poly(default_step_params(20, k))
        maxima.append(max(abs(S(t)) for t in range(20)))
    assert maxima[0] > maxima[1] > maxima[2]


def test_step_poly_at_least_one_beyond_w():
    for W, k in ((20, 12), (7, 8), (41, 16)):
        S = step_poly(default_step_params(W, k))
        for t in range(W, 2 * W + 1):
            assert S(t) >= 1


def test_step_poly_coefficient_growth_logged():
    # coefficient magnitudes stay within W^(c*k); report the realized c
    for W, k in ((20, 8), (20, 16), (64, 16)):
        S = step_poly(default_step_params(W, k))
        top = float(S.max_abs_coeff())
        c = math.log(top, W) / k if top > 1 else 0.0
        print(f"step poly W={W} k={k}: max|coef|={top:.3e}, realized c={c:.3f}")
        assert c <= 3.0


def _reference_step_params():
    """Every valid default_step_params(W, k) for W <= 12, and for odd 13 <= W <= 201 (a halfspace's
    W' = 2W + 1 is odd) the first budget k0 = max(3, ceil(sqrt(W log2(W) ln(2/eps)))) of the
    doubling schedule at eps = 0.1."""
    pairs = [(W, k) for W in range(2, 13) for k in range(3, 4 * W + 1)]
    pairs += [(W, max(3, math.ceil(math.sqrt(W * math.log2(W) * math.log(20))))) for W in range(13, 202, 2)]
    for W, k in pairs:
        try:
            yield default_step_params(W, k)
        except ParameterError:
            continue


def test_step_poly_matches_the_per_coefficient_fraction_formula():
    checked = 0
    for params in _reference_step_params():
        S = step_poly(params)
        assert S.coeffs == fraction_step_poly(params).coeffs, params
        W = params.W
        assert S(W) == 1
        assert all(S(root) == 0 for root in [*range(params.a + 1), *range(W - params.b, W)])
        checked += 1
    assert checked == 269


def test_step_poly_rejects_degenerate_window():
    with pytest.raises(ParameterError):
        step_poly(StepPolyParams(W=6, k=12, a=3, b=3, r=5))


# ---------------------------------------------------------------------------
# Subconstant-error halfspace construction


def test_halfspace_onesided_maj3():
    res = halfspace_onesided(majority_as_halfspace(maj(3)), "positive", 0.1)
    assert res.certified
    assert res.certificate.points_checked == 8
    assert res.certificate.worst_pos_violation <= 0
    assert res.certificate.worst_neg_violation <= 0


def test_halfspace_onesided_dictator_two_point():
    res = halfspace_onesided(Halfspace(1, 0, (1,)), "positive", 0.1)
    hi = eval_exact(res.poly, (1,))
    lo = eval_exact(res.poly, (-1,))
    assert hi >= 1 - Fraction(1, 10)
    assert abs(lo + 1) <= Fraction(1, 10)


def test_halfspace_onesided_negative_is_reflection():
    for h in (majority_as_halfspace(maj(3)), Halfspace(3, 1, (0, 0, 0))):  # the second is constant +1
        g = reflect_halfspace(h)
        res_neg = halfspace_onesided(h, "negative", 0.1)
        assert res_neg.certified
        res_pos = halfspace_onesided(g, "positive", 0.1)
        mirrored = negate_onesided(res_pos.poly)
        for bits in cube_matrix(3):
            t = tuple(int(b) for b in bits)
            assert -eval_concept(g, tuple(-b for b in t)) == eval_concept(h, t)
            assert eval_exact(res_neg.poly, t) == eval_exact(mirrored, t)


@pytest.mark.parametrize("h,sign,eps,k", [
    (Halfspace(1, 0, (1,)), "positive", 0.01, 4),  # W' = 3, k0 = 6; only k in {3, 4} is valid
    (Halfspace(2, 0, (1, 1)), "positive", 0.001, 9),  # W' = 5, k0 = 10
    (Halfspace(1, 0, (1,)), "negative", 1e-4, 9),  # reflected weight 2, W' = 5, k0 = 12
    (Halfspace(2, 0, (1, -1)), "negative", 1e-7, 17),  # reflected weight 3, W' = 7, k0 = 19
])
def test_halfspace_onesided_small_weight_takes_largest_valid_budget(h, sign, eps, k):
    res = halfspace_onesided(h, sign, eps)
    assert res.certified
    assert res.step_degree == k


def test_halfspace_onesided_certifies_beyond_cube_cap_on_levels():
    h = Halfspace(30, 0, tuple([1] * 30))
    res = halfspace_onesided(h, "positive", 0.25)  # n = 30 exceeds CUBE_CAP
    assert res.certified
    assert res.certificate.points_checked == 2**30
    # k0 = ceil(sqrt(61 log2(61) ln 8)) = 28, the first budget tried, fails; the schedule stops at 2 k0
    assert res.step_degree == 56
    assert res.claim.degree_bound == 30


def test_halfspace_onesided_certifies_maj_101_in_seconds():
    maj = Majority(101, tuple(range(1, 102)))
    start = time.perf_counter()
    res = halfspace_onesided(majority_as_halfspace(maj), "positive", 0.1)
    assert time.perf_counter() - start < 5  # about 0.02 s on a 2-core x86-64 VM
    assert res.certified
    assert res.certificate.points_checked == 2**101
    assert res.certificate == verify_onesided(res.poly, maj, 0.1, "positive")


def test_halfspace_onesided_claims_inf_for_a_weight_past_the_float_range():
    res = halfspace_onesided(Halfspace(3, 0, (1000, 1000, 1000)), "positive", 0.01)
    assert res.claim.weight_bound == math.inf  # the analytic bound exceeds the largest float
    assert res.certified


def test_halfspace_onesided_rejects_bad_eps():
    with pytest.raises(InputError):
        halfspace_onesided(Halfspace(1, 0, (1,)), "positive", 0.75)


# ---------------------------------------------------------------------------
# Compositions


def block_maj_halfspaces():
    return (Halfspace(6, 0, (1, 1, 1, 0, 0, 0)), Halfspace(6, 0, (0, 0, 0, 1, 1, 1)))


def or_of_two_maj3(bits):
    return 1 if (sum(bits[:3]) > 0 or sum(bits[3:]) > 0) else -1


def and_of_two_maj3(bits):
    return 1 if (sum(bits[:3]) > 0 and sum(bits[3:]) > 0) else -1


def test_or_compose_single_part_is_identity():
    part = halfspace_onesided(majority_as_halfspace(maj(3)), "positive", 0.25).poly
    composed = or_compose([part])
    for bits in cube_matrix(3):
        t = tuple(int(b) for b in bits)
        assert eval_exact(composed, t) == eval_exact(part, t)


def test_or_compose_all_constant_minus_one():
    parts = [SparsePolynomial(2, {(): Fraction(-1)})] * 3
    composed = or_compose(parts)
    for bits in cube_matrix(2):
        assert eval_exact(composed, tuple(int(b) for b in bits)) == -1


def test_or_compose_two_majority_blocks_certifies():
    ha, hb = block_maj_halfspaces()
    parts = [halfspace_onesided(h, "positive", 0.125).poly for h in (ha, hb)]
    composed = or_compose(parts)
    rep = verify_onesided(composed, or_of_two_maj3, 0.25, "positive")
    assert rep.ok and rep.points_checked == 64
    # degree and weight bounds on the expanded forms
    ea, eb, ec = (expand(p) for p in (*parts, composed))
    assert ec.degree == max(ea.degree, eb.degree)
    assert float(ec.weight) <= float(ea.weight) + float(eb.weight) + 1 + 1e-9


def test_and_compose_two_majority_blocks_certifies():
    ha, hb = block_maj_halfspaces()
    parts = [halfspace_onesided(h, "negative", 0.125).poly for h in (ha, hb)]
    composed = and_compose(parts)
    rep = verify_onesided(composed, and_of_two_maj3, 0.25, "negative")
    assert rep.ok


def test_and_compose_is_de_morgan_of_or_compose():
    ha, hb = block_maj_halfspaces()
    parts = [halfspace_onesided(h, "negative", 0.125).poly for h in (ha, hb)]
    direct = and_compose(parts)
    mirrored = negate_onesided(or_compose([negate_onesided(p) for p in parts]))
    for bits in cube_matrix(6):
        t = tuple(int(b) for b in bits)
        assert eval_exact(direct, t) == eval_exact(mirrored, t)


def test_compose_rejects_empty():
    with pytest.raises(InputError):
        or_compose([])
    with pytest.raises(InputError):
        and_compose([])


# ---------------------------------------------------------------------------
# Conjunction tradeoff and DNF/CNF lifts


def test_tradeoff_t_one_is_the_product_form():
    # the budget admits no block count t > 1, so p = 2 AND_7 - 1 exactly
    res = and_twosided_tradeoff(7, 7, 0.3)
    assert res.step_degree is None
    q = res.poly
    assert q.degree == 7 and q.weight < 3
    for bits in cube_matrix(7):
        t = tuple(int(b) for b in bits)
        assert q.eval(t) == (1 if all(b == 1 for b in t) else -1)
    block = and_twosided_tradeoff(2, 7, 0.3).poly.substitute_literals(4, (2, 3))  # AND on x2, x3 inside n = 4
    assert float(block.weight) < 3
    for bits in cube_matrix(4):
        t = tuple(int(b) for b in bits)
        assert block.eval(t) == (1 if (t[1] == 1 and t[2] == 1) else -1)


def test_tradeoff_degenerate_blocking_t_equals_n():
    # a small degree budget forces t = n: blocks of size one, the step wrapper
    # acting on the count of true inputs
    res = and_twosided_tradeoff(4, 2, 0.25)
    assert res.certified
    assert res.step_degree is not None


def test_tradeoff_n8_d8_uses_four_blocks():
    res = and_twosided_tradeoff(8, 8, 0.25)
    assert res.certified
    assert res.certificate.points_checked == 256
    assert isinstance(res.poly, SparsePolynomial)


def test_tradeoff_t_one_is_exact():
    res = and_twosided_tradeoff(4, 100, 0.25)  # huge budget -> single block, exact form
    assert res.certified
    assert verify_twosided(res.poly, Conjunction(4, (1, 2, 3, 4)), 0.0).ok


def test_tradeoff_caps_variables():
    with pytest.raises(ResourceLimitError):
        and_twosided_tradeoff(24, 10, 0.25)


@pytest.mark.parametrize("d", [0, -1])
def test_tradeoff_rejects_degree_below_one(d):
    with pytest.raises(InputError):
        and_twosided_tradeoff(3, d, 0.1)
    with pytest.raises(InputError):
        dnf_positive_onesided(Dnf(3, ((1, 2, 3),)), d, 0.1)


def test_dnf_single_clause_matches_and_case():
    F = Dnf(3, ((1, 2, 3),))
    res = dnf_positive_onesided(F, 3, 0.25)
    assert res.certified
    rep = verify_onesided(res.poly, F, 0.25, "positive")
    assert rep.ok


def test_dnf_two_term_width_three():
    F = Dnf(6, ((1, -2, 3), (4, 5, -6)))
    res = dnf_positive_onesided(F, 3, 0.25)
    assert res.certified and res.certificate.points_checked == 64


def test_dnf_with_negated_literals_certifies():
    F = Dnf(4, ((-1, -2), (3, -4)))
    res = dnf_positive_onesided(F, 2, 0.25)
    assert res.certified


def test_dnf_tautological_only_constrains_lower_side():
    # clauses x1 and (not x1, x2) cover every x1 value pattern widely; the
    # one-sided check only demands >= 1 - eps on true points
    F = Dnf(2, ((1,), (-1, 2)))
    res = dnf_positive_onesided(F, 2, 0.25)
    assert res.certified
    vals = eval_on_cube(res.poly)
    X = cube_matrix(2)
    for i, bits in enumerate(X):
        t = tuple(int(b) for b in bits)
        if eval_concept(F, t) == 1:
            assert vals[i] >= Fraction(3, 4)  # may exceed 1 + eps freely


def test_dnf_certifies_at_n20_within_a_few_cube_matrices():
    # a seeded 3-clause, width-4 DNF: its clause parts are evaluated on their 4-variable supports
    # and summed on the union of the supports, so only the cube matrix, the target and the spread
    # numerators span all 2^20 points (the object-array route peaked at 12 matrices)
    n, rng = 20, np.random.default_rng(0)
    clauses = []
    for _ in range(3):
        variables, signs = rng.choice(n, size=4, replace=False) + 1, rng.choice((-1, 1), size=4)
        clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
    F = Dnf(n, tuple(clauses))
    tracemalloc.start()
    try:
        res = dnf_positive_onesided(F, 2, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.certified and res.certificate.points_checked == 2**n
    assert peak < 3 * n * 2**n  # the int8 cube matrix is n 2^n bytes


def test_dnf_empty_is_constant_false():
    res = dnf_positive_onesided(Dnf(2, ()), 1, 0.25)
    assert res.certified
    assert eval_exact(res.poly, (1, 1)) == -1


def test_dnf_and_cnf_reject_other_concepts():
    for concept in (maj(3), Cnf(3, ((1, 2),))):
        with pytest.raises(InputError):
            dnf_positive_onesided(concept, 2, 0.25)
    for concept in (maj(3), Dnf(3, ((1, 2),))):
        with pytest.raises(InputError):
            cnf_negative_onesided(concept, 2, 0.25)


def test_cnf_negative_by_reflection():
    F = Cnf(6, ((1, -2, 3), (4, 5, -6)))
    res = cnf_negative_onesided(F, 3, 0.25)
    assert res.certified
    assert verify_onesided(res.poly, F, 0.25, "negative").ok


def test_cnf_is_certified_once(monkeypatch):
    import onesided.constructions as cons

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return verify_onesided(*args, **kwargs)

    monkeypatch.setattr(cons, "verify_onesided", counting)
    F = Cnf(4, ((1, -2), (3, 4)))
    assert cnf_negative_onesided(F, 2, 0.25).certified
    assert calls == [F]


def test_dnf_builds_one_clause_approximation_per_width(monkeypatch):
    import onesided.constructions as cons

    widths = []

    def spy(n, d, eps):
        widths.append(n)
        return and_twosided_tradeoff(n, d, eps)

    monkeypatch.setattr(cons, "and_twosided_tradeoff", spy)
    F = Dnf(8, ((1, -2, 3, 4), (-5, 6), (5, 6, -7, 8)))
    res = dnf_positive_onesided(F, 2, 0.3)
    assert widths == [4, 2]
    parts = [and_twosided_tradeoff(len(cl), 2, 0.1).poly.substitute_literals(8, cl) for cl in F.clauses]
    assert res.poly == or_compose(parts)
    assert res.certified


def test_dnf_raises_at_the_first_clause_width_that_fails(monkeypatch):
    import dataclasses

    import onesided.constructions as cons

    def uncertified(n, d, eps):
        return dataclasses.replace(and_twosided_tradeoff(n, d, eps), certificate=None)

    monkeypatch.setattr(cons, "and_twosided_tradeoff", uncertified)
    with pytest.raises(ParameterError, match="^clause approximation failed to certify at width 3$"):
        dnf_positive_onesided(Dnf(6, ((), (1, 2, 3), (4, 5))), 2, 0.3)


# ---------------------------------------------------------------------------
# Recorded bytes


def _structured_sha256(p):
    return hashlib.sha256(json.dumps(structured_to_json(p), sort_keys=True, separators=(",", ":")).encode()).hexdigest()


#: Clauses of a fixed 3-clause width-4 DNF with negated literals at n = 12, the shape of the benchmark's DNF job.
RECORDED_CLAUSES = ((1, -5, 7, 12), (-2, 3, -9, 10), (4, -6, 8, -11))


@pytest.mark.parametrize("build, digest", [
    (lambda: halfspace_quarter(majority_as_halfspace(maj(401))),
     "3029949b3a839f4c58bb5d8e084d9972c47d93b85295b7186a9ce4d7d0e4c1a9"),
    (lambda: halfspace_onesided(majority_as_halfspace(maj(101)), "positive", 0.01).poly,
     "fe23dec024a66f588968e7a45444029ecae80272c019b85bb0b17b86d533b98e"),
    (lambda: halfspace_onesided(majority_as_halfspace(maj(101)), "negative", 0.01).poly,
     "1571dddcd5186ebab4b9ada37446c70202fdea78d5199e0205041e5373d9d136"),
    (lambda: and_twosided_tradeoff(9, 5, 0.1).poly,
     "c900f035cdfca4d0db2b807b6b2cbb01e616973c9c7c585e9146b975fba8771a"),
    (lambda: dnf_positive_onesided(Dnf(12, RECORDED_CLAUSES), 5, 0.1).poly,
     "6d046aba2dfa784653dd15f149c4a17a1a7ed5d9bc5afc71904c0648c17158b3"),
], ids=["quarter-MAJ_401", "onesided-MAJ_101-positive", "onesided-MAJ_101-negative", "and-tradeoff-9-5",
        "dnf-lift-12"])
def test_construction_json_matches_recorded_bytes(build, digest):
    # recorded from the per-coefficient Fraction arithmetic this library used before integer numerators
    assert _structured_sha256(build()) == digest


# ---------------------------------------------------------------------------
# Claims


def _composed(compose, sign):
    return compose([halfspace_onesided(g, sign, 0.125).poly for g in block_maj_halfspaces()])


_HALFSPACE6 = Halfspace(6, 1, (3, -1, 2, 2, -5, 1))
_CLAUSES8 = ((1, -2, 3), (-4, 5), (6, 7, -8))
CLAIM_CASES = {
    "quarter": lambda: certified(halfspace_quarter(majority_as_halfspace(maj(7))), maj(7), "positive", 0.25, None),
    "onesided-positive": lambda: halfspace_onesided(_HALFSPACE6, "positive", 0.1),
    "onesided-negative": lambda: halfspace_onesided(_HALFSPACE6, "negative", 0.1),
    "and-tradeoff": lambda: and_twosided_tradeoff(8, 4, 0.1),
    "dnf": lambda: dnf_positive_onesided(Dnf(8, _CLAUSES8), 2, 0.1),
    "cnf": lambda: cnf_negative_onesided(Cnf(8, _CLAUSES8), 2, 0.1),
    "or-compose": lambda: certified(_composed(or_compose, "positive"), or_of_two_maj3, "positive", 0.25, None),
    "and-compose": lambda: certified(_composed(and_compose, "negative"), and_of_two_maj3, "negative", 0.25, None),
}


@pytest.mark.parametrize("kind", list(CLAIM_CASES))
def test_claims_bound_their_polynomials(kind):
    res = CLAIM_CASES[kind]()
    assert res.certified
    full = expand(res.poly)
    if isinstance(res.poly, AffineForm):  # analytic bounds
        assert res.claim.weight_bound >= float(full.weight)
        assert res.claim.degree_bound >= full.degree
    else:  # the expansion's own weight and degree
        assert res.claim.weight_bound == float(full.weight)
        assert res.claim.degree_bound == full.degree
