import csv
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from onesided.cube import (Cnf, Conjunction, Disjunction, Dnf, Halfspace,
                           LabeledSample, Majority, PartialHypothesis, as_bits, constant_concept,
                           cube_matrix, dedup, empirical_metrics, eval_concept,
                           eval_concept_batch, format_concept, is_concept, load_sample_csv,
                           majority_as_halfspace, make_sample, parse_concept,
                           save_sample_csv, target_values)
from onesided.errors import DimensionError, InputError
from onesided.harness import NoiseModel, generate


def test_cube_point_validation():
    assert as_bits(np.array([1, -1, 1], dtype=np.int8), 3) == (1, -1, 1)
    with pytest.raises(InputError):
        as_bits((1, 0), 2)
    with pytest.raises(DimensionError):
        as_bits((1, -1), 3)


def test_cube_point_validation_checks_before_casting():
    with pytest.raises(InputError):
        as_bits([1.5, -1], 2)  # int() would truncate 1.5 to 1


def test_cube_point_validation_takes_numpy_scalars_and_numbers_equal_to_bits():
    assert as_bits((np.int8(1), np.int64(-1), np.float64(1.0)), 3) == (1, -1, 1)
    bits = as_bits([1.0, True, -1.0], 3)
    assert bits == (1, 1, -1) and all(type(b) is int for b in bits)


def test_cube_point_validation_rejects_unhashable_entries():
    with pytest.raises(InputError):
        as_bits([[1], -1], 2)
    with pytest.raises(InputError):
        as_bits([np.array([1, 1]), 1], 2)


def test_cube_matrix_order():
    X = cube_matrix(2)
    assert X.tolist() == [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    X = cube_matrix(5)
    assert X.dtype == np.int8 and X.flags.c_contiguous
    assert X.tolist() == [list(x) for x in itertools.product((-1, 1), repeat=5)]
    assert cube_matrix(0).shape == (1, 0)


def test_cube_matrix_transient_memory_stays_near_its_result():
    tracemalloc.start()
    try:
        X = cube_matrix(18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * X.nbytes


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


def test_halfspace_takes_only_integer_weights():
    # a fractional w0 once answered [+1, +1] pointwise but [-1, +1] in batch, truncated into int64
    for w0, w in ((Fraction(3, 2), (1,)), (1.0, (1,)), (0, (Fraction(1, 2),))):
        with pytest.raises(InputError, match="weights must be integers"):
            Halfspace(1, w0, w)
    h = Halfspace(2, np.int64(-1), [np.int8(2), 3])
    assert (h.w0, h.w) == (-1, (2, 3)) and type(h.w0) is int and all(type(wi) is int for wi in h.w)
    X = cube_matrix(2)
    assert eval_concept_batch(h, X).tolist() == [eval_concept(h, tuple(int(v) for v in row)) for row in X]


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
    for text in ("DNF (+1 -2", "CNF (+1)(-2 +3"):
        with pytest.raises(InputError, match="unclosed clause"):
            parse_concept(text)


def test_empirical_metrics_examples():
    X = cube_matrix(3)
    all_neg = LabeledSample(X, -np.ones(8, dtype=np.int8), 3)
    always_pos = PartialHypothesis(3, lambda X: np.ones(len(X), dtype=np.int8))
    m = empirical_metrics(always_pos, all_neg)
    assert m.false_pos == 1.0 and m.false_neg == 0.0 and m.err == 1.0

    always_unknown = PartialHypothesis(3, lambda X: np.zeros(len(X), dtype=np.int8))
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


def _csv_by_writer(s, path):
    """Reference for save_sample_csv: the header and each example through csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(1, s.n + 1)] + ["y"])
        for row, y in zip(s.points, s.labels):
            writer.writerow([int(v) for v in row] + [int(y)])


@pytest.mark.parametrize("sample", [
    lambda: make_sample([(1,)], [-1], 1),
    lambda: make_sample([(-1,)], [1], 1),
    lambda: LabeledSample(np.zeros((0, 3), dtype=np.int8), np.zeros(0, dtype=np.int8), 3),
    lambda: generate(Majority(9, tuple(range(1, 10))), NoiseModel("one_sided_positive", 0.1), 2000, seed=3),
], ids=["n1-minus", "n1-plus", "empty", "maj9"])
def test_sample_csv_bytes_match_csv_writer(tmp_path, sample):
    s = sample()
    save_sample_csv(s, tmp_path / "fast.csv")
    _csv_by_writer(s, tmp_path / "writer.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "writer.csv").read_bytes()
    loaded = load_sample_csv(tmp_path / "fast.csv")
    assert loaded.n == s.n
    assert np.array_equal(loaded.points, s.points) and np.array_equal(loaded.labels, s.labels)


def test_sample_validation():
    with pytest.raises(InputError):
        make_sample([(1, 2)], [1], 2)
    with pytest.raises(InputError):
        LabeledSample(np.ones((2, 2), dtype=np.int8), np.array([1, 0], dtype=np.int8), 2)


def test_sample_of_dimension_zero_is_an_input_error(tmp_path):
    with pytest.raises(InputError, match="dimension must be >= 1, got n=0"):
        LabeledSample(np.zeros((3, 0), np.int8), [1, -1, 1], 0)
    with pytest.raises(InputError, match="dimension must be >= 1, got n=0"):
        make_sample([(), (), ()], [1, -1, 1], 0)
    path = tmp_path / "labels_only.csv"
    path.write_text("y\n1\n-1\n")
    with pytest.raises(InputError, match="dimension must be >= 1, got n=0"):
        load_sample_csv(path)


@pytest.mark.parametrize("points, labels", [
    (np.array([[255, 1]]), np.array([1])),  # 255 would wrap to -1 as int8
    (np.array([[1.5, -1]]), np.array([1])),  # 1.5 would truncate to 1
    (np.array([[1, -1]]), np.array([-1.9])),  # -1.9 would truncate to -1
])
def test_sample_validation_checks_before_casting(points, labels):
    with pytest.raises(InputError):
        LabeledSample(points, labels, 2)


def test_is_concept_and_target_values():
    maj = Majority(3, (1, 2, 3))
    X = cube_matrix(3)
    assert is_concept(maj) and is_concept(Dnf(2, ((1,),)))
    assert not is_concept(lambda bits: 1)
    from_concept = target_values(maj, X)
    from_callable = target_values(lambda bits: eval_concept(maj, bits), X)
    assert from_concept.dtype == from_callable.dtype == np.int8
    np.testing.assert_array_equal(from_concept, from_callable)


def test_target_values_rejects_a_callable_answering_outside_pm1():
    # rows in order (-1,-1), (-1,1), (1,-1), (1,1): the error names the first offending value
    answers = {(1, -1): 0, (1, 1): 2}
    with pytest.raises(InputError, match="target returned 0, expected -1 or \\+1"):
        target_values(lambda bits: answers.get(bits, 1), cube_matrix(2))


def test_dedup_counts_labels_per_distinct_point():
    points = np.array([[1, 1], [-1, 1], [1, 1], [1, 1]], dtype=np.int8)
    labels = np.array([1, -1, -1, 1], dtype=np.int8)
    distinct, pos, neg = dedup(points, labels)
    assert distinct.tolist() == [[-1, 1], [1, 1]]
    assert pos.tolist() == [0, 2]
    assert neg.tolist() == [1, 1]
