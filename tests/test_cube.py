import numpy as np
import pytest

from onesided.cube import (Cnf, Conjunction, CubePoint, Disjunction, Dnf, Halfspace,
                           LabeledSample, Majority, PartialHypothesis, constant_concept,
                           cube_matrix, dedup, empirical_metrics, eval_concept,
                           eval_concept_batch, format_concept, is_concept, load_sample_csv,
                           majority_as_halfspace, make_sample, parse_concept,
                           save_sample_csv, target_values)
from onesided.errors import DimensionError, InputError


def test_cube_point_validation():
    assert CubePoint((1, -1, 1)).n == 3
    with pytest.raises(InputError):
        CubePoint((1, 0))


def test_cube_matrix_order():
    X = cube_matrix(2)
    assert X.tolist() == [[-1, -1], [-1, 1], [1, -1], [1, 1]]


def test_eval_concept_examples():
    # tautological clause is identically true
    assert eval_concept(Disjunction(1, (1, -1)), (-1,)) == 1
    assert eval_concept(Disjunction(1, (1, -1)), (1,)) == 1
    # 2-of-3 majority
    assert eval_concept(Majority(3, (1, 2, 3)), (1, 1, -1)) == 1
    # a tied halfspace answers -1
    assert eval_concept(Halfspace(2, 0, (1, -1)), (1, 1)) == -1


def test_halfspace_tie_convention_crafted():
    h = Halfspace(3, -2, (1, 1, 2))
    for bits in cube_matrix(3):
        t = -2 + int(bits[0]) + int(bits[1]) + 2 * int(bits[2])
        assert eval_concept(h, tuple(int(b) for b in bits)) == (1 if t > 0 else -1)


def test_eval_concept_dimension_mismatch():
    with pytest.raises(DimensionError):
        eval_concept(Majority(3, (1, 2, 3)), (1, 1))


def test_empty_and_constant_semantics():
    assert eval_concept(Disjunction(2, ()), (1, 1)) == -1
    assert eval_concept(Conjunction(2, ()), (-1, -1)) == 1
    assert eval_concept(Majority(2, ()), (1, 1)) == -1
    assert eval_concept(constant_concept(2, 1), (-1, -1)) == 1
    assert eval_concept(Dnf(2, ()), (1, 1)) == -1
    assert eval_concept(Cnf(2, ()), (-1, -1)) == 1


def test_dnf_equals_or_of_clauses_full_cube():
    n = 10
    F = Dnf(n, ((1, -2, 3), (4, 5), (-6, 7, -8, 9), (10,)))
    X = cube_matrix(n)
    got = eval_concept_batch(F, X)
    clause_or = np.full(X.shape[0], -1, dtype=np.int8)
    for clause in F.clauses:
        clause_or = np.maximum(clause_or, eval_concept_batch(Conjunction(n, clause), X))
    assert np.array_equal(got, clause_or)


def test_cnf_equals_and_of_clauses():
    n = 6
    F = Cnf(n, ((1, -2), (3, 4, -5), (6,)))
    X = cube_matrix(n)
    got = eval_concept_batch(F, X)
    clause_and = np.full(X.shape[0], 1, dtype=np.int8)
    for clause in F.clauses:
        clause_and = np.minimum(clause_and, eval_concept_batch(Disjunction(n, clause), X))
    assert np.array_equal(got, clause_and)


def test_batch_matches_pointwise():
    rng = np.random.default_rng(0)
    X = (rng.integers(0, 2, (64, 5)) * 2 - 1).astype(np.int8)
    concepts = [
        Majority(5, (1, 3, 5)),
        Halfspace(5, -1, (2, -1, 0, 3, 1)),
        Disjunction(5, (1, -4)),
        Conjunction(5, (2, 5)),
        Dnf(5, ((1, 2), (-3,))),
        Cnf(5, ((1, -2), (4, 5))),
    ]
    for c in concepts:
        batch = eval_concept_batch(c, X)
        point = [eval_concept(c, tuple(int(v) for v in row)) for row in X]
        assert batch.tolist() == point


def test_concept_clause_variable_uniqueness():
    with pytest.raises(InputError):
        Dnf(2, ((1, -1),))
    # flat literal sets may carry both polarities (tautological clause)
    Disjunction(2, (1, -1))
    with pytest.raises(InputError):
        Disjunction(2, (1, 1))


def test_halfspace_weight_invariant():
    with pytest.raises(InputError):
        Halfspace(2, 0, (0, 0))
    assert Halfspace(2, -1, (2, 3)).weight == 6
    assert majority_as_halfspace(Majority(3, (1, 3))).w == (1, 0, 1)


def test_concept_text_roundtrip():
    texts = [
        "MAJ 1 3 5",
        "DISJ +1 -2 +7",
        "CONJ +2 -3",
        "HALFSPACE 0 1 -1 2",
        "DNF (+1 -2)(+3 +4)",
        "CNF (+1 -2)(+3 +4)",
        "MAJ",
    ]
    for text in texts:
        c = parse_concept(text)
        assert format_concept(c) == text.strip()
        again = parse_concept(format_concept(c), n=c.n)
        assert again == c


def test_parse_concept_errors():
    with pytest.raises(InputError):
        parse_concept("")
    with pytest.raises(InputError):
        parse_concept("WAT 1 2")
    with pytest.raises(DimensionError):
        parse_concept("HALFSPACE 0 1 1", n=5)


def test_empirical_metrics_examples():
    X = cube_matrix(3)
    all_neg = LabeledSample(X, -np.ones(8, dtype=np.int8), 3)
    always_pos = PartialHypothesis(3, lambda bits: 1)
    m = empirical_metrics(always_pos, all_neg)
    assert m.false_pos == 1.0 and m.false_neg == 0.0 and m.err == 1.0

    always_unknown = PartialHypothesis(3, lambda bits: 0)
    m = empirical_metrics(always_unknown, all_neg)
    assert m.unknown_rate == 1.0 and m.err == 0.0

    maj = Majority(3, (1, 2, 3))
    planted = LabeledSample(X, eval_concept_batch(maj, X), 3)
    m = empirical_metrics(maj, planted)
    assert m.false_pos == m.false_neg == m.err == m.unknown_rate == 0.0


def test_total_classifier_err_decomposes():
    rng = np.random.default_rng(1)
    for _ in range(10):
        X = (rng.integers(0, 2, (50, 4)) * 2 - 1).astype(np.int8)
        y = (rng.integers(0, 2, 50) * 2 - 1).astype(np.int8)
        s = LabeledSample(X, y, 4)
        h = Majority(4, (1, 2))
        m = empirical_metrics(h, s)
        assert m.err == pytest.approx(m.false_pos + m.false_neg)


def test_empirical_metrics_empty_sample():
    s = LabeledSample(np.zeros((0, 2), dtype=np.int8) + 1, np.zeros(0, dtype=np.int8) + 1, 2)
    with pytest.raises(InputError):
        empirical_metrics(Majority(2, (1,)), s)


def test_sample_csv_roundtrip(tmp_path):
    s = make_sample([(1, -1), (-1, -1), (1, 1)], [1, -1, 1], 2)
    path = tmp_path / "sample.csv"
    save_sample_csv(s, path)
    text = path.read_text().splitlines()
    assert text[0] == "x1,x2,y"
    loaded = load_sample_csv(path)
    assert np.array_equal(loaded.points, s.points)
    assert np.array_equal(loaded.labels, s.labels)


def test_sample_validation():
    with pytest.raises(InputError):
        make_sample([(1, 2)], [1], 2)
    with pytest.raises(InputError):
        LabeledSample(np.ones((2, 2), dtype=np.int8), np.array([1, 0], dtype=np.int8), 2)


def test_is_concept_and_target_values():
    maj = Majority(3, (1, 2, 3))
    X = cube_matrix(3)
    assert is_concept(maj) and is_concept(Dnf(2, ((1,),)))
    assert not is_concept(lambda bits: 1)
    from_concept = target_values(maj, X)
    from_callable = target_values(lambda bits: eval_concept(maj, bits), X)
    assert from_concept.dtype == from_callable.dtype == np.int8
    np.testing.assert_array_equal(from_concept, from_callable)


def test_dedup_counts_labels_per_distinct_point():
    points = np.array([[1, 1], [-1, 1], [1, 1], [1, 1]], dtype=np.int8)
    labels = np.array([1, -1, -1, 1], dtype=np.int8)
    distinct, pos, neg = dedup(points, labels)
    assert distinct.tolist() == [[-1, 1], [1, 1]]
    assert pos.tolist() == [0, 2]
    assert neg.tolist() == [1, 1]
