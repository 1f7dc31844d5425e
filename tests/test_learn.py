import itertools
import math

import numpy as np
import pytest

from onesided.cube import (Disjunction, LabeledSample, Majority, cube_matrix,
                           empirical_metrics, eval_concept, eval_concept_batch,
                           make_sample)
from onesided.errors import InfeasibleError, InputError
from onesided.learn import (CALIBRATION_FACTOR, FitReport, ReliableHypothesis,
                            agnostic_l1_fit, agreement_hypothesis, chop,
                            choose_error_threshold, derandomize, learn_agnostic_l1,
                            learn_disjunction_positive, learn_fully_reliable,
                            learn_reliable, plan_samples, rademacher_bound,
                            randomized_round, reliable_fit)
from onesided.poly import SparsePolynomial, exact_multilinear, sparse_eval_batch


def rand_sample(rng, m, n):
    X = (rng.integers(0, 2, (m, n)) * 2 - 1).astype(np.int8)
    y = (rng.integers(0, 2, m) * 2 - 1).astype(np.int8)
    return LabeledSample(X, y, n)


# ---------------------------------------------------------------------------
# Disjunction eliminator


def test_eliminator_no_negatives_keeps_everything():
    s = make_sample([(1, -1), (-1, 1)], [1, 1], 2)
    h = learn_disjunction_positive(s)
    assert set(h.literals) == {1, -1, 2, -2}
    assert all(eval_concept(h, tuple(int(v) for v in row)) == 1 for row in cube_matrix(2))


def test_eliminator_single_all_ones_negative():
    n = 4
    s = make_sample([tuple([1] * n)], [-1], n)
    h = learn_disjunction_positive(s)
    assert set(h.literals) == {-j for j in range(1, n + 1)}


def test_eliminator_covering_negatives_empties_the_disjunction():
    s = make_sample([(1, 1), (-1, -1)], [-1, -1], 2)
    h = learn_disjunction_positive(s)
    assert h.literals == ()


def test_eliminator_correct_and_maximal_on_random_samples():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(3, 31))
        s = rand_sample(rng, 40, n)
        h = learn_disjunction_positive(s)
        preds = eval_concept_batch(h, s.points)
        neg_rows = s.labels == -1
        assert (preds[neg_rows] == -1).all()
        dropped = set(range(1, n + 1)) | {-j for j in range(1, n + 1)}
        dropped -= set(h.literals)
        for lit in dropped:
            col = s.points[neg_rows, abs(lit) - 1]
            assert ((col == (1 if lit > 0 else -1)).any())  # re-adding it misfires


# ---------------------------------------------------------------------------
# Reliable fit


def maj3_sample():
    X = cube_matrix(3)
    maj = Majority(3, (1, 2, 3))
    return LabeledSample(X, eval_concept_batch(maj, X), 3)


def test_reliable_fit_realizable_zero_objective():
    s = maj3_sample()
    p, rep = reliable_fit(s, 3, 2.0, 0.3, "positive")
    assert rep.objective_value <= 1e-7
    assert rep.lp_status == "optimal"


def test_reliable_fit_no_positive_examples():
    X = cube_matrix(3)
    s = LabeledSample(X, -np.ones(8, dtype=np.int8), 3)
    _, rep = reliable_fit(s, 1, 5.0, 0.3, "positive")
    assert rep.objective_value == 0.0


def test_reliable_fit_zero_weight_infeasible():
    s = maj3_sample()
    with pytest.raises(InfeasibleError):
        reliable_fit(s, 3, 0.0, 0.3, "positive")


@pytest.mark.parametrize("sign", ["positive", "negative"])
def test_reliable_fit_feasibility_invariants(sign):
    rng = np.random.default_rng(2)
    for _ in range(5):
        s = rand_sample(rng, 40, 4)
        eps, W = 0.2, 3.0
        p, _ = reliable_fit(s, 2, W, eps, sign)
        vals = sparse_eval_batch(p, s.points)
        if sign == "positive":
            hard = vals[s.labels == -1]
            assert (hard <= -1 + eps + 1e-7).all()
        else:
            hard = vals[s.labels == 1]
            assert (hard >= 1 - eps - 1e-7).all()
        assert float(p.weight) <= W + 1e-7


def test_reliable_fit_beats_grid_search_oracle():
    # degree-1 polynomials over n=2 with a coarse coefficient grid as the
    # independent optimality check: no feasible grid point does better
    rng = np.random.default_rng(3)
    s = rand_sample(rng, 12, 2)
    eps, W = 0.25, 2.0
    _, rep = reliable_fit(s, 1, W, eps, "positive")
    grid = [x / 4.0 for x in range(-8, 9)]
    best = math.inf
    pts = s.points.astype(np.float64)
    for c0, c1, c2 in itertools.product(grid, repeat=3):
        if abs(c0) + abs(c1) + abs(c2) > W:
            continue
        vals = c0 + pts[:, 0] * c1 + pts[:, 1] * c2
        if (vals[s.labels == -1] > -1 + eps + 1e-12).any():
            continue
        hinge = np.clip(1.0 - vals[s.labels == 1], 0.0, None).sum()
        best = min(best, hinge)
    assert rep.objective_value <= best + 1e-6


def test_reliable_fit_mirror_symmetry():
    rng = np.random.default_rng(5)
    s = rand_sample(rng, 60, 4)
    mirrored = LabeledSample(-s.points, -s.labels, 4)
    p_neg, rep_neg = reliable_fit(s, 2, 3.0, 0.2, "negative")
    p_pos, rep_pos = reliable_fit(mirrored, 2, 3.0, 0.2, "positive")
    assert rep_neg.objective_value == pytest.approx(rep_pos.objective_value, abs=1e-7)
    direct = sparse_eval_batch(p_neg, s.points)
    reflected = -sparse_eval_batch(p_pos, -s.points)
    assert np.abs(direct - reflected).max() <= 1e-9


# ---------------------------------------------------------------------------
# Rounding and derandomization


def test_randomized_round_examples():
    n1 = SparsePolynomial(1, {(): 5.0})
    assert all(randomized_round(n1, (1,), u) == 1 for u in (0.0, 0.3, 0.999))
    zero = SparsePolynomial(1, {(): 0.0})
    assert randomized_round(zero, (1,), 0.499) == 1
    assert randomized_round(zero, (1,), 0.501) == -1
    half = SparsePolynomial(1, {(): -0.5})
    assert randomized_round(half, (1,), 0.249) == 1
    assert randomized_round(half, (1,), 0.251) == -1


def test_randomized_round_expectation_matches_chop():
    p = SparsePolynomial(2, {(): 0.3, (1,): 0.9, (1, 2): -0.4})
    us = (np.arange(2000) + 0.5) / 2000  # quadrature grid over the draw
    for bits in cube_matrix(2):
        t = tuple(int(b) for b in bits)
        mean = np.mean([randomized_round(p, t, u) for u in us])
        assert mean == pytest.approx(chop(float(p.eval(t))), abs=1e-3)


def brute_threshold_scan(H, y, eps, sign):
    candidates = [-math.inf] + sorted(set(float(v) for v in H)) + [math.inf]
    m = len(H)
    if sign == "positive":
        feasible = [t for t in candidates
                    if sum(1 for v, lab in zip(H, y) if lab == -1 and v > t) / m <= eps]
        return min(feasible)
    feasible = [t for t in candidates
                if sum(1 for v, lab in zip(H, y) if lab == 1 and v < t) / m <= eps]
    return max(feasible)


def test_derandomize_all_positive_fresh():
    rng = np.random.default_rng(0)
    pts = (rng.integers(0, 2, (250, 1)) * 2 - 1).astype(np.int8)
    fresh = LabeledSample(pts, np.ones(250, dtype=np.int8), 1)
    h = derandomize(SparsePolynomial(1, {(1,): 1.0}), fresh, 0.1)
    assert h.threshold == -math.inf
    assert h.decide((1,)) == 1 and h.decide((-1,)) == 1


def test_derandomize_all_negative_constant_h():
    pts = np.ones((250, 1), dtype=np.int8)
    fresh = LabeledSample(pts, -np.ones(250, dtype=np.int8), 1)
    h = derandomize(SparsePolynomial(1, {(): -1.0}), fresh, 0.1)
    # H is identically -1; thresholding at -1 already answers -1 everywhere
    # under the strict sgn(0) = -1 rule, so -1 is the smallest workable value
    assert h.threshold == -1.0
    assert empirical_metrics(h, fresh).false_pos == 0.0


@pytest.mark.parametrize("sign", ["positive", "negative"])
def test_derandomize_matches_brute_scan(sign):
    rng = np.random.default_rng(9)
    p = SparsePolynomial(3, {(): 0.1, (1,): 0.7, (2, 3): -0.5, (2,): 0.2})
    for _ in range(6):
        s = rand_sample(rng, 220, 3)
        h = derandomize(p, s, 0.1, sign)
        H = np.clip(sparse_eval_batch(p, s.points), -1, 1)
        assert h.threshold == brute_threshold_scan(H, s.labels, 0.1, sign)


def test_derandomize_guarantee_exact_on_calibration():
    rng = np.random.default_rng(13)
    p = SparsePolynomial(3, {(1,): 0.8, (2,): 0.3})
    for sign in ("positive", "negative"):
        s = rand_sample(rng, 300, 3)
        h = derandomize(p, s, 0.1, sign)
        m = empirical_metrics(h, s)
        if sign == "positive":
            assert m.false_pos <= 0.1
        else:
            assert m.false_neg <= 0.1


def test_derandomize_needs_enough_calibration_data():
    fresh = make_sample([(1,)], [1], 1)
    with pytest.raises(InputError):
        derandomize(SparsePolynomial(1, {(1,): 1.0}), fresh, 0.01)
    assert math.ceil(CALIBRATION_FACTOR / 0.01**2) > 1


# ---------------------------------------------------------------------------
# End-to-end learners


def test_learn_reliable_pipeline_on_planted_majority():
    rng = np.random.default_rng(21)
    maj = Majority(5, (1, 2, 3, 4, 5))
    X = (rng.integers(0, 2, (600, 5)) * 2 - 1).astype(np.int8)
    s = LabeledSample(X, eval_concept_batch(maj, X), 5)
    Xf = (rng.integers(0, 2, (300, 5)) * 2 - 1).astype(np.int8)
    fresh = LabeledSample(Xf, eval_concept_batch(maj, Xf), 5)
    W = float(exact_multilinear(maj, 5).weight)
    hyp, rep = learn_reliable(s, 5, W, 0.1, "positive", fresh)
    assert rep.objective_value <= 1e-6
    held = cube_matrix(5)
    full = LabeledSample(held, eval_concept_batch(maj, held), 5)
    m = empirical_metrics(hyp, full)
    assert m.err == 0.0


def test_fully_reliable_noiseless_majority_full_cube():
    maj = Majority(5, (1, 2, 3, 4, 5))
    X = cube_matrix(5)
    s = LabeledSample(X, eval_concept_batch(maj, X), 5)
    reps = np.tile(np.arange(32), 20)  # calibration reuses the cube points
    fresh = LabeledSample(X[reps], s.labels[reps], 5)
    W = float(exact_multilinear(maj, 5).weight)
    hyp, _ = learn_fully_reliable(s, 5, W, 0.4, fresh)
    m = empirical_metrics(hyp, s)
    assert m.err == 0.0 and m.unknown_rate == 0.0


def test_agreement_hypothesis_rules():
    always_pos = ReliableHypothesis(SparsePolynomial(2, {(): 5.0}), "positive", 0.0)
    always_neg = ReliableHypothesis(SparsePolynomial(2, {(): -5.0}), "negative", 0.0)
    both = agreement_hypothesis(always_pos, always_pos, 2)
    assert both.decide((1, 1)) == 1
    conflicted = agreement_hypothesis(always_pos, always_neg, 2)
    assert conflicted.decide((1, 1)) == 0
    assert (conflicted.decide_batch(cube_matrix(2)) == 0).all()


# ---------------------------------------------------------------------------
# Agnostic L1


def test_agnostic_l1_realizable_zero_objective():
    s = maj3_sample()
    p, rep = agnostic_l1_fit(s, 3, 2.0)
    assert rep.objective_value <= 1e-7
    vals = sparse_eval_batch(p, s.points)
    assert np.abs(vals - s.labels).max() <= 1e-6


def test_agnostic_l1_constant_labels():
    X = cube_matrix(3)
    s = LabeledSample(X, np.ones(8, dtype=np.int8), 3)
    p, rep = agnostic_l1_fit(s, 1, 1.0)
    assert rep.objective_value <= 1e-7
    assert float(p.eval((1, 1, 1))) == pytest.approx(1.0)


def test_agnostic_l1_zero_weight_mixed_labels():
    rng = np.random.default_rng(1)
    s = rand_sample(rng, 30, 3)
    p, rep = agnostic_l1_fit(s, 2, 0.0)
    assert p.terms == {}
    assert rep.objective_value == pytest.approx(s.m)


def test_choose_error_threshold_hand_case():
    values = np.array([-1.0, -0.2, 0.3, 0.9])
    labels = np.array([-1, -1, 1, 1])
    t = choose_error_threshold(values, labels)
    assert t == -0.2  # first perfect split; ties resolve to the smaller t


def test_choose_error_threshold_tie_prefers_smaller():
    values = np.array([0.0, 0.0])
    labels = np.array([1, -1])
    t = choose_error_threshold(values, labels)
    assert t == -math.inf  # every candidate errs once; smallest wins


def test_learn_agnostic_l1_pipeline():
    rng = np.random.default_rng(8)
    maj = Majority(3, (1, 2, 3))
    X = (rng.integers(0, 2, (200, 3)) * 2 - 1).astype(np.int8)
    s = LabeledSample(X, eval_concept_batch(maj, X), 3)
    hyp, _ = learn_agnostic_l1(s, 3, 2.0, s)
    m = empirical_metrics(hyp, s)
    assert m.err == 0.0


# ---------------------------------------------------------------------------
# Sample-size formulas


def test_plan_samples_boundary_example():
    plan = plan_samples(1, 1, 1.0, 1.0, 0.5)
    assert plan.term_rademacher == pytest.approx(512 * math.log(2))


def test_plan_samples_doubling_w_scaling():
    base = plan_samples(50, 2, 8.0, 0.2, 0.05)
    doubled = plan_samples(50, 2, 16.0, 0.2, 0.05)
    assert doubled.term_rademacher == pytest.approx(4 * base.term_rademacher)
    assert doubled.term_confidence == pytest.approx(4 * base.term_confidence, rel=0.15)


def test_plan_samples_matches_hand_evaluation():
    n, d, W, eps, delta = 100, 3, 10.0, 0.1, 0.01
    plan = plan_samples(n, d, W, eps, delta)
    t1 = 512 / eps**4 * W**2 * d * math.log(2 * n)
    t2 = 64 / eps**2 * (W + 1) ** 2 * math.log(1 / delta)
    assert plan.term_rademacher == pytest.approx(t1, rel=1e-12)
    assert plan.term_confidence == pytest.approx(t2, rel=1e-12)
    assert plan.m == math.ceil(max(t1, t2))


def test_rademacher_bound_examples():
    assert rademacher_bound(1, 1, 1, 2 * math.log(2)) == pytest.approx(1.0)
    base = rademacher_bound(3, 2, 40, 1000)
    assert rademacher_bound(3, 2, 40, 4000) == pytest.approx(base / 2)


def test_planned_m_drives_alpha_below_half_eps():
    # the closing step of the generalization argument, checked numerically
    for (n, d, W, eps, delta) in [(10, 2, 3.0, 0.2, 0.05), (100, 3, 10.0, 0.1, 0.01)]:
        m = plan_samples(n, d, W, eps, delta).m
        alpha = (4 / eps) * rademacher_bound(W, d, n, m) + 2 * (W + 1) * math.sqrt(math.log(1 / delta) / (2 * m))
        assert alpha <= eps / 2 + 1e-12
