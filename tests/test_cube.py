import csv
import hashlib
import itertools
import random
import re
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


@pytest.mark.parametrize("make", [lambda: Majority(3, (1.5,)), lambda: Disjunction(3, (1.5,)),
                                  lambda: Conjunction(3, (1.0,)), lambda: Dnf(3, ((1, 2.5),)),
                                  lambda: Cnf(3, (("1",),))])
def test_concepts_take_only_integer_variables_and_literals(make):
    # an inexact index would otherwise surface only in evaluation, as a TypeError or an IndexError
    with pytest.raises(InputError, match="must be integers"):
        make()


def test_concepts_store_variables_and_literals_as_python_ints():
    maj, disj = Majority(3, [np.int64(1), np.int8(3)]), Disjunction(3, [np.int64(-2)])
    cnf = Cnf(3, [[np.int64(1), -3], []])
    for stored in (maj.vars, disj.literals, cnf.clauses, *cnf.clauses):
        assert type(stored) is tuple
    assert all(type(v) is int for v in (*maj.vars, *disj.literals, *cnf.clauses[0]))
    assert disj == Disjunction(3, (-2,))
    assert cnf == Cnf(3, ((1, -3), ())) and hash(cnf) == hash(Cnf(3, ((1, -3), ())))


def test_concept_shapes_keep_class_sensitive_equality():
    assert Disjunction(1, (1,)) != Conjunction(1, (1,))
    assert Dnf(1, ((1,),)) != Cnf(1, ((1,),))
    assert repr(Conjunction(2, (1, -2))) == "Conjunction(n=2, literals=(1, -2))"
    assert repr(Dnf(2, ((1,), (-2,)))) == "Dnf(n=2, clauses=((1,), (-2,)))"
    assert Disjunction(2, (1, -2)).clauses == ((1, -2),)


def test_halfspace_weight_invariant():
    with pytest.raises(InputError):
        Halfspace(2, 0, (0, 0))
    assert Halfspace(2, -1, (2, 3)).weight == 6
    assert majority_as_halfspace(Majority(3, (1, 3))).w == (1, 0, 1)


def test_majority_reads_as_a_unit_weight_threshold():
    c = Majority(4, (3, 1))
    assert (c.w0, c.w) == (0, (1, 0, 1, 0)) and Majority(2, ()).w == (0, 0)
    # a view, not a field: repr, equality and hashing see n and vars alone
    assert repr(c) == "Majority(n=4, vars=(3, 1))"
    assert c == Majority(4, (3, 1)) and hash(c) == hash(Majority(4, (3, 1)))
    with pytest.raises(AttributeError):
        c.w = (1, 1, 1, 1)


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


@pytest.mark.parametrize("sep", ["\t", "\n", " \t ", "\u00a0"])
def test_concept_keyword_is_followed_by_any_whitespace(sep):
    assert parse_concept(f"MAJ{sep}1 2") == Majority(2, (1, 2))
    assert parse_concept(f"dnf{sep}(+1)(-2)") == Dnf(2, ((1,), (-2,)))


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
    for text, token in (("MAJ 1 x", "x"), ("HALFSPACE 0 1.5", "1.5"), ("DNF (+1 +y)", "+y")):
        with pytest.raises(InputError, match=re.escape(f"'{token}' is not an integer")):
            parse_concept(text)


def _concept_text_corpus(count=1000, seed=1402):
    """Concept texts drawn from a seeded generator: the six keywords in mixed case and an unknown
    one, integer and malformed tokens, and clause lists with stray or missing parentheses."""
    rng = random.Random(seed)

    def tokens(signed=True):
        # distinct variables of [1, 3] or [1, 8]; now and then a repeat, a zero or a non-integer
        top = rng.choice([3, 8])
        vs = rng.sample(range(1, top + 1), rng.randint(0, min(top, 4)))
        out = [v * rng.choice([1, -1]) if signed else v for v in vs]
        if out and rng.random() < 0.1:
            out.append(rng.choice([out[0], -out[0], 0]))
        words = [f"{v:+d}" if rng.random() < 0.5 else str(v) for v in out]
        if rng.random() < 0.05:
            words.insert(rng.randint(0, len(words)), rng.choice(["x", "1.5", "+"]))
        return " ".join(words)

    texts = ["", "   "]
    for _ in range(count):
        kw = rng.choice(["MAJ", "DISJ", "CONJ", "HALFSPACE", "DNF", "CNF", "maj", "Disj", "cnf", "WAT"])
        if kw.upper() in ("DNF", "CNF"):
            body = "".join(rng.choice(["", " "]) + "(" + tokens() + rng.choice([")", ")", ")", ""])
                           for _ in range(rng.randint(0, 3)))
            body += " +1" if rng.random() < 0.05 else ""
        else:
            body = tokens(signed=kw.upper() != "MAJ" or rng.random() < 0.1)
        sep = rng.choice([" ", " ", " ", "  ", ""])
        texts.append(rng.choice(["", " "]) + kw + sep + body + rng.choice(["", " "]))
    return texts


def test_concept_text_corpus_reads_as_recorded():
    # sha256 recorded by an earlier version of the package: for every text of the corpus and
    # n in (None, 3, 8), the parsed concept's format_concept, repr and values on the cube, or the
    # type of the exception that refuses the text
    h = hashlib.sha256()
    for text in _concept_text_corpus():
        for n in (None, 3, 8):
            try:
                c = parse_concept(text, n)
            except Exception as exc:
                record = type(exc).__name__
            else:
                values = eval_concept_batch(c, cube_matrix(c.n)).tobytes().hex()
                record = f"{format_concept(c)}|{c!r}|{values}"
            h.update(f"{text!r} {n} {record}\n".encode())
    assert h.hexdigest() == "236889c0b4b06f13bafee8e9d612807c5b1f90358ebce4e40f465b494b5ce799"


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


def test_sample_csv_refuses_a_cell_that_is_not_an_integer(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("x1,x2,y\r\n1,-1,1\r\n-1,1.0,1\r\n")
    with pytest.raises(InputError, match="sample CSV line 3: '1.0' is not an integer"):
        load_sample_csv(path)


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
