"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from fractions import Fraction

import numpy as np

from onesided.certify import min_eps, verify_onesided, verify_twosided
from onesided.constructions import (and_compose, and_twosided_tradeoff,
                                    default_step_params, dnf_positive_onesided,
                                    halfspace_onesided, halfspace_quarter, or_compose,
                                    step_poly)
from onesided.cube import (Conjunction, Disjunction, Dnf, Halfspace, Majority,
                           cube_matrix, empirical_metrics, eval_concept,
                           eval_concept_batch, majority_as_halfspace)
from onesided.harness import NoiseModel, brute_opt, generate, majority_bank
from onesided.learn import (chop, derandomize, learn_disjunction_positive,
                            learn_fully_reliable, learn_reliable, plan_samples,
                            rademacher_bound, randomized_round)
from onesided.poly import (SparsePolynomial, eval_on_cube, exact_multilinear,
                           expand, sparse_eval_batch)

SEEDS = (0, 1, 2, 3, 4)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def maj(n: int) -> Majority:
    return Majority(n, tuple(range(1, n + 1)))


def test_criterion_01_quarter_sweep():
    t0 = time.perf_counter()
    for n in (1, 3, 5, 7, 9, 11, 13):
        target = maj(n)
        poly = halfspace_quarter(majority_as_halfspace(target))
        rep = verify_onesided(poly, target, 0.25, "positive")
        assert rep.ok and rep.points_checked == 2**n, f"MAJ_{n} failed: {rep}"
        values = eval_on_cube(poly)
        truth = eval_concept_batch(target, cube_matrix(n))
        for v, f in zip(values, truth):
            if f == -1:
                assert Fraction(-1) <= v <= Fraction(-3, 4), f"negative image breach at n={n}"
            else:
                assert v >= Fraction(3, 4)
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 30.0, f"quarter sweep n=1..13 certified at eps=1/4 in {elapsed:.1f}s (< 30s)")


def test_criterion_02_step_polynomial_identities():
    maxima = []
    for k in (8, 12, 16):
        params = default_step_params(20, k)
        S = step_poly(params)
        assert S(20) == 1  # exact rational identity
        for root in list(range(params.a + 1)) + list(range(20 - params.b, 20)):
            assert abs(S(root)) <= Fraction(1, 10**9)
        maxima.append(max(abs(S(t)) for t in range(20)))
    ok = maxima[0] > maxima[1] > maxima[2]
    report(2, ok, "S(20)=1 exactly, prescribed roots vanish, max|S| on {0..19} "
                  f"decreases: {[float(v) for v in maxima]}")


def test_criterion_03_eps_construction_maj9():
    res = halfspace_onesided(majority_as_halfspace(maj(9)), "positive", 0.1)
    cert = res.certificate
    ok = (res.certified and cert.points_checked == 512
          and cert.worst_pos_violation <= 0 and cert.worst_neg_violation <= 0)
    report(3, ok, f"MAJ_9 at eps=0.1 certified with k={res.step_degree}, "
                  f"worst=({cert.worst_pos_violation:.3g}, {cert.worst_neg_violation:.3g})")


def test_criterion_04_composition():
    ha = Halfspace(6, 0, (1, 1, 1, 0, 0, 0))
    hb = Halfspace(6, 0, (0, 0, 0, 1, 1, 1))

    pos_parts = [halfspace_onesided(h, "positive", 0.125).poly for h in (ha, hb)]
    or_poly = or_compose(pos_parts)
    or_target = lambda bits: 1 if (sum(bits[:3]) > 0 or sum(bits[3:]) > 0) else -1  # noqa: E731
    rep_or = verify_onesided(or_poly, or_target, 0.25, "positive")
    assert rep_or.ok and rep_or.points_checked == 64

    neg_parts = [halfspace_onesided(h, "negative", 0.125).poly for h in (ha, hb)]
    and_poly = and_compose(neg_parts)
    and_target = lambda bits: 1 if (sum(bits[:3]) > 0 and sum(bits[3:]) > 0) else -1  # noqa: E731
    rep_and = verify_onesided(and_poly, and_target, 0.25, "negative")
    assert rep_and.ok

    ok = True
    for parts, whole in ((pos_parts, or_poly), (neg_parts, and_poly)):
        expanded = [expand(p) for p in parts]
        whole_exp = expand(whole)
        ok &= whole_exp.degree == max(e.degree for e in expanded)
        bound = sum(float(e.weight) for e in expanded) + (len(parts) - 1)
        ok &= float(whole_exp.weight) <= bound + 1e-9
    report(4, ok, "or/and compositions certified on 64 points; degree = max of parts "
                  "and additive weight bound hold on expanded forms")


def test_criterion_05_tradeoff_constructions():
    tr = and_twosided_tradeoff(8, 8, 0.25)
    assert tr.certified and tr.certificate.points_checked == 256, tr.certificate
    F = Dnf(6, ((1, -2, 3), (4, 5, -6)))
    dn = dnf_positive_onesided(F, 3, 0.25)
    assert dn.certified and dn.certificate.points_checked == 64, dn.certificate
    report(5, True, f"AND_8 tradeoff (k={tr.step_degree}) and 2-term width-3 DNF certify exhaustively")


def test_criterion_06_lp_oracle_invariants():
    bank = {
        "OR_2": Disjunction(2, (1, 2)),
        "OR_3": Disjunction(3, (1, 2, 3)),
        "OR_4": Disjunction(4, (1, 2, 3, 4)),
        "AND_2": Conjunction(2, (1, 2)),
        "AND_3": Conjunction(3, (1, 2, 3)),
        "AND_4": Conjunction(4, (1, 2, 3, 4)),
        "MAJ_3": maj(3),
        "MAJ_5": maj(5),
    }
    for name, f in bank.items():
        prev = {"positive": math.inf, "negative": math.inf, "twosided": math.inf}
        for d in (1, 2, 3):
            two = min_eps(f, d, "twosided")[0]
            pos = min_eps(f, d, "positive")[0]
            neg = min_eps(f, d, "negative")[0]
            assert pos <= two + 1e-7 and neg <= two + 1e-7, f"relaxation ordering broke on {name} d={d}"
            for mode, val in (("positive", pos), ("negative", neg), ("twosided", two)):
                assert val <= prev[mode] + 1e-7, f"monotonicity broke on {name} {mode}"
                prev[mode] = val
        for mode in ("positive", "negative", "twosided"):
            assert min_eps(f, f.n, mode)[0] <= 1e-7, f"exact representation missing for {name} {mode}"

    for n in (2, 3, 4):
        f = Disjunction(n, tuple(range(1, n + 1)))
        assert min_eps(f, 1, "positive")[0] <= 1e-9
        witness = SparsePolynomial(
            n, {(): Fraction(n - 1), **{(j,): Fraction(1) for j in range(1, n + 1)}})
        assert verify_onesided(witness, f, 0.0, "positive").ok

    or2_neg = min_eps(Disjunction(2, (1, 2)), 1, "negative")[0]
    assert or2_neg > 0.05
    assert abs(or2_neg - 0.5) < 1e-6  # frozen from this oracle
    report(6, True, "relaxation ordering, d-monotonicity, exactness at d=n, OR witness, "
                    f"min_eps(OR_2,1,neg)={or2_neg:.6f}")


def test_criterion_07_end_to_end_positive_reliable():
    t0 = time.perf_counter()
    target = maj(9)
    W = float(exact_multilinear(target, 9).weight)
    noise = NoiseModel("one_sided_positive", 0.1)
    bank = majority_bank(9)
    details = []
    for seed in SEEDS:
        train = generate(target, noise, 20000, seed, stream=1)
        calib = generate(target, noise, 5000, seed, stream=2)
        held = generate(target, noise, 20000, seed, stream=3)
        hyp, _ = learn_reliable(train, 9, W, 0.1, "positive", calib)
        metrics = empirical_metrics(hyp, held)
        opt_plus, _ = brute_opt(held, bank, "positive")
        assert metrics.false_pos <= 0.15, f"seed {seed}: false_pos {metrics.false_pos}"
        assert metrics.false_neg <= opt_plus + 0.15, f"seed {seed}: false_neg {metrics.false_neg}"
        details.append(f"s{seed}: fp={metrics.false_pos:.3f} fn={metrics.false_neg:.3f} opt+={opt_plus:.3f}")
    elapsed = time.perf_counter() - t0
    report(7, elapsed < 300.0, f"MAJ_9 positive reliable, 5 seeds in {elapsed:.0f}s (< 300s); " + "; ".join(details))


def test_criterion_08_disjunction_eliminator():
    target = Disjunction(30, (1, 2, 3, 4, 5))
    noise = NoiseModel("one_sided_positive", 0.05)
    details = []
    for seed in SEEDS:
        train = generate(target, noise, 5000, seed, stream=1)
        held = generate(target, noise, 5000, seed, stream=3)
        hyp = learn_disjunction_positive(train)
        metrics = empirical_metrics(hyp, held)
        planted_fn = empirical_metrics(target, held).false_neg
        assert metrics.false_pos <= 0.02, f"seed {seed}: false_pos {metrics.false_pos}"
        assert metrics.false_neg <= planted_fn + 0.05, f"seed {seed}: false_neg {metrics.false_neg}"
        details.append(f"s{seed}: fp={metrics.false_pos:.4f} fn={metrics.false_neg:.4f}")
    report(8, True, "planted 5-literal disjunction on n=30, 5 seeds; " + "; ".join(details))


def test_criterion_09_fully_reliable():
    target = maj(9)
    W = float(exact_multilinear(target, 9).weight)
    noise = NoiseModel("one_sided_positive", 0.1)
    bank = majority_bank(9)
    details = []
    for seed in SEEDS:
        train = generate(target, noise, 20000, seed, stream=1)
        calib = generate(target, noise, 5000, seed, stream=2)
        held = generate(target, noise, 20000, seed, stream=3)
        hyp, _ = learn_fully_reliable(train, 9, W, 0.1, calib)  # components run at eps/4
        metrics = empirical_metrics(hyp, held)
        opt_q, _ = brute_opt(held, bank, "fully")
        assert metrics.err <= 0.15, f"seed {seed}: err {metrics.err}"
        assert metrics.unknown_rate <= opt_q + 0.2, f"seed {seed}: unknown {metrics.unknown_rate}"
        details.append(f"s{seed}: err={metrics.err:.3f} ?={metrics.unknown_rate:.3f} opt?={opt_q:.3f}")
    report(9, True, "MAJ_9 fully reliable, 5 seeds; " + "; ".join(details))


def _brute_threshold_scan(H, y, eps, sign):
    """Independent oracle: try every candidate threshold by direct recount."""
    candidates = [-math.inf] + sorted(set(float(v) for v in H)) + [math.inf]
    m = len(H)
    if sign == "positive":
        feasible = [t for t in candidates
                    if sum(1 for v, lab in zip(H, y) if lab == -1 and v > t) / m <= eps]
        return min(feasible)
    feasible = [t for t in candidates
                if sum(1 for v, lab in zip(H, y) if lab == 1 and v < t) / m <= eps]
    return max(feasible)


def test_criterion_10_rounding_and_threshold_mechanics():
    rng = np.random.default_rng(2024)
    p = SparsePolynomial(7, {(): 0.2, (1,): 0.6, (2, 3): -0.5, (4, 5, 6): 0.4, (7,): 0.3})
    probe = cube_matrix(7)[rng.permutation(128)[:100]]
    draws = 10_000
    worst = 0.0
    for bits in probe:
        x = tuple(int(b) for b in bits)
        us = (np.arange(draws) + rng.random(draws)) / draws  # stratified uniforms
        mean = np.mean([randomized_round(p, x, float(u)) for u in us])
        worst = max(worst, abs(mean - chop(float(p.eval(x)))))
    assert worst <= 0.02, f"rounding mean deviated by {worst}"

    from onesided.cube import LabeledSample

    for seed in range(5):
        srng = np.random.default_rng(seed)
        pts = (srng.integers(0, 2, (400, 7)) * 2 - 1).astype(np.int8)
        labels = (srng.integers(0, 2, 400) * 2 - 1).astype(np.int8)
        fresh = LabeledSample(pts, labels, 7)
        for sign in ("positive", "negative"):
            hyp = derandomize(p, fresh, 0.1, sign)
            H = np.clip(sparse_eval_batch(p, pts), -1, 1)
            expected = _brute_threshold_scan(H, labels, 0.1, sign)
            assert hyp.threshold == expected, f"t* mismatch: {hyp.threshold} vs {expected}"
    report(10, True, f"rounding mean within {worst:.4f} <= 0.02 of chop on 100 probes; "
                     "t* equals the exhaustive scan on every sample and sign")


def test_criterion_11_formula_fidelity():
    grid = [
        (10, 2, 1.0, 0.5, 0.1), (10, 2, 3.0, 0.2, 0.05), (50, 3, 5.0, 0.1, 0.01),
        (100, 3, 10.0, 0.1, 0.01), (100, 5, 2.0, 0.25, 0.02), (200, 4, 8.0, 0.15, 0.05),
        (500, 2, 1.5, 0.3, 0.1), (1000, 6, 20.0, 0.05, 0.001), (7, 1, 1.0, 0.4, 0.2),
        (64, 4, 12.0, 0.2, 0.01),
    ]
    for (n, d, W, eps, delta) in grid:
        plan = plan_samples(n, d, W, eps, delta)
        t1 = 512.0 / eps**4 * W * W * d * math.log(2 * n)
        t2 = 64.0 / eps**2 * (W + 1.0) ** 2 * math.log(1.0 / delta)
        assert abs(plan.term_rademacher - t1) <= 1e-9 * abs(t1)
        assert abs(plan.term_confidence - t2) <= 1e-9 * abs(t2)
        assert plan.m == math.ceil(max(t1, t2))
        rb = rademacher_bound(W, d, n, plan.m)
        assert abs(rb - W * math.sqrt(2 * d * math.log(2 * n) / plan.m)) <= 1e-9 * rb
        alpha = (4.0 / eps) * rb + 2.0 * (W + 1.0) * math.sqrt(math.log(1.0 / delta) / (2.0 * plan.m))
        assert alpha <= eps / 2.0 + 1e-12, f"alpha {alpha} exceeds eps/2 at {(n, d, W, eps, delta)}"
    report(11, True, "plan/complexity formulas match hand evaluation to 1e-9 relative on a "
                     "10-point grid, and alpha <= eps/2 at every planned m")
