import hashlib
import json

import numpy as np
import pytest
from pointwise import fully_opt_by_rows

from onesided.cube import (Conjunction, Disjunction, Majority, constant_concept, cube_matrix, empirical_metrics,
                           eval_concept_batch, format_concept)
from onesided.errors import InputError, ResourceLimitError
from onesided.harness import (BANKS, GENERATOR_ID, NoiseModel, RunManifest, _bank_eval, append_summary_csv,
                              brute_opt, generate, majority_bank, manifest_hash,
                              monotone_disjunction_bank, oracle_record, replay_run, run_experiment,
                              run_root, stage_rng)


def maj(n):
    return Majority(n, tuple(range(1, n + 1)))


# ---------------------------------------------------------------------------
# Generators


def test_generate_noiseless_labels_match_concept():
    c = maj(5)
    s = generate(c, NoiseModel("none"), 300, seed=4)
    assert np.array_equal(s.labels, eval_concept_batch(c, s.points))


def test_generate_rejects_a_concept_of_dimension_zero():
    with pytest.raises(InputError, match="dimension must be >= 1, got n=0"):
        generate(Disjunction(0, ()), NoiseModel("none"), 5, seed=0)


def test_generate_is_deterministic_per_seed_and_stream():
    c = maj(3)
    a = generate(c, NoiseModel("symmetric", 0.2), 100, seed=9, stream=1)
    b = generate(c, NoiseModel("symmetric", 0.2), 100, seed=9, stream=1)
    other = generate(c, NoiseModel("symmetric", 0.2), 100, seed=9, stream=2)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.points, other.points)


def test_one_sided_positive_keeps_planted_feasible():
    c = maj(7)
    for seed in range(5):
        s = generate(c, NoiseModel("one_sided_positive", 0.3), 500, seed=seed)
        assert empirical_metrics(c, s).false_pos == 0.0


def test_one_sided_negative_mirror():
    c = maj(7)
    s = generate(c, NoiseModel("one_sided_negative", 0.3), 500, seed=0)
    assert empirical_metrics(c, s).false_neg == 0.0


def test_one_sided_positive_concentration():
    # empirical false_-(planted) ~= eta * Pr[c = -1] = 0.05 at m = 1e5
    c = maj(9)
    s = generate(c, NoiseModel("one_sided_positive", 0.1), 100_000, seed=12)
    fn = empirical_metrics(c, s).false_neg
    assert abs(fn - 0.05) < 0.01


def test_adversarial_table_reproduces_hand_metrics():
    table = (
        ((1, 1), 1, 0.4),
        ((1, -1), -1, 0.3),
        ((-1, 1), 1, 0.2),
        ((-1, -1), -1, 0.1),
    )
    noise = NoiseModel("adversarial_table", table=table)
    dictator = Majority(2, (1,))
    s = generate(dictator, noise, 40_000, seed=3)
    m = empirical_metrics(dictator, s)
    # hand arithmetic over the four rows: fp = 0.3, fn = 0.2
    assert m.false_pos == pytest.approx(0.3, abs=0.02)
    assert m.false_neg == pytest.approx(0.2, abs=0.02)


@pytest.mark.parametrize("row", [((1.5, -1), 1), ((1, -1), -1.2)])
def test_adversarial_table_rows_are_validated_before_casting(tmp_path, row):
    table = [[list(row[0]), row[1], 0.5], [[1, 1], 1, 0.5]]
    with pytest.raises(InputError):
        generate(Majority(2, (1,)), NoiseModel.from_json({"kind": "adversarial_table", "table": table}), 10, seed=0)
    manifest = {"seed": 0, "concept": "MAJ 1 2", "noise": {"kind": "adversarial_table", "table": table},
                "learner": {"algo": "disjunction"}, "samples": {"train": 10}}
    with pytest.raises(InputError):
        run_experiment(manifest, root=str(tmp_path))
    stored = json.loads(next(tmp_path.glob("*/result.json")).read_text())
    assert stored["results"]["error"]["stage"] == "generate"


@pytest.mark.parametrize("points", [[[1, -1], [1, 1]], [[1, -1, 1], [1, 1]]])
def test_adversarial_table_points_have_the_concept_dimension(tmp_path, points):
    # 2-entry rows under a 3-variable concept, and ragged rows
    table = [[point, 1, 0.5] for point in points]
    with pytest.raises(InputError, match="n=3"):
        generate(Majority(3, (1, 2, 3)), NoiseModel.from_json({"kind": "adversarial_table", "table": table}),
                 10, seed=0)
    manifest = {"seed": 0, "concept": "MAJ 1 2 3", "noise": {"kind": "adversarial_table", "table": table},
                "learner": {"algo": "disjunction"}, "samples": {"train": 10}}
    with pytest.raises(InputError):
        run_experiment(manifest, root=str(tmp_path))
    stored = json.loads(next(tmp_path.glob("*/result.json")).read_text())
    assert stored["results"]["error"]["stage"] == "generate"


@pytest.mark.parametrize("probs", [[float("nan"), 1.0], [1.5, -0.5]])
def test_adversarial_table_rejects_nan_and_negative_probabilities(tmp_path, probs):
    # NaN fails every comparison, so the sum check alone lets it through; [1.5, -0.5] sums to 1
    table = [[[1, 1], 1, probs[0]], [[-1, 1], -1, probs[1]]]
    with pytest.raises(InputError, match="must be >= 0"):
        NoiseModel("adversarial_table", table=tuple((tuple(p), y, q) for p, y, q in table))
    manifest = {"seed": 0, "concept": "MAJ 1 2", "noise": {"kind": "adversarial_table", "table": table},
                "learner": {"algo": "disjunction"}, "samples": {"train": 10}}
    with pytest.raises(InputError, match="must be >= 0"):
        run_experiment(manifest, root=str(tmp_path))


def test_noise_model_validation():
    with pytest.raises(InputError):
        NoiseModel("wat")
    with pytest.raises(InputError):
        NoiseModel("symmetric", 1.5)
    with pytest.raises(InputError):
        NoiseModel("adversarial_table", table=(((1,), 1, 0.5),))


def test_stage_rng_documented_split():
    a = stage_rng(1234, 1).integers(0, 2**32)
    b = stage_rng(1234, 1).integers(0, 2**32)
    c = stage_rng(1234, 2).integers(0, 2**32)
    assert a == b != c


# ---------------------------------------------------------------------------
# Banks and brute-force optima


def test_majority_bank_contents():
    bank = majority_bank(3)
    assert len(bank) == 8
    assert Majority(3, ()) in bank  # the constant -1 member keeps opt+ feasible
    with pytest.raises(ResourceLimitError):
        majority_bank(15)


def test_monotone_disjunction_bank():
    bank = monotone_disjunction_bank(3)
    assert len(bank) == 8
    assert Disjunction(3, ()) in bank
    with pytest.raises(ResourceLimitError):
        monotone_disjunction_bank(21)


def test_brute_opt_noiseless_plant_attains_zero():
    c = maj(5)
    s = generate(c, NoiseModel("none"), 400, seed=1)
    value, arg = brute_opt(s, majority_bank(5), "positive")
    assert value == 0.0
    assert format_concept(arg) == format_concept(c)


def test_brute_opt_positive_bounded_by_planted():
    c = maj(7)
    s = generate(c, NoiseModel("one_sided_positive", 0.1), 2000, seed=5)
    value, _ = brute_opt(s, majority_bank(7), "positive")
    assert value <= empirical_metrics(c, s).false_neg + 1e-12


def test_brute_opt_negative_mode():
    c = maj(5)
    s = generate(c, NoiseModel("one_sided_negative", 0.1), 1000, seed=2)
    value, _ = brute_opt(s, majority_bank(5), "negative")
    assert value <= empirical_metrics(c, s).false_pos + 1e-12


def test_brute_opt_monotone_in_bank_growth():
    c = maj(5)
    s = generate(c, NoiseModel("one_sided_positive", 0.2), 800, seed=8)
    small = majority_bank(5)[:8]  # always contains MAJ() == constant -1
    big = majority_bank(5)
    v_small, _ = brute_opt(s, small, "positive")
    v_big, _ = brute_opt(s, big, "positive")
    assert v_big <= v_small + 1e-12


def test_brute_opt_regression_fixture_maj9():
    # frozen from the exhaustive scan over all 512 majority subsets
    # (generating command: onesided oracle --sample <seed7 sample> --bank majority
    #  --mode positive, sample = generate(MAJ_9, one_sided_positive(0.1), 5000, seed=7))
    s = generate(maj(9), NoiseModel("one_sided_positive", 0.1), 5000, seed=7)
    value, arg = brute_opt(s, majority_bank(9), "positive")
    assert value == pytest.approx(0.0492, abs=1e-12)
    assert format_concept(arg) == "MAJ 1 2 3 4 5 6 7 8 9"


def test_brute_opt_fully_mode_zero_error_and_sentinel():
    c = maj(5)
    s = generate(c, NoiseModel("one_sided_positive", 0.15), 1500, seed=4)
    value, (c_pos, c_neg) = brute_opt(s, majority_bank(5), "fully")
    assert 0.0 <= value <= 1.0
    # the winning pair really has zero empirical error
    from onesided.learn import agreement_hypothesis

    m = empirical_metrics(agreement_hypothesis(c_pos, c_neg), s)
    assert m.err == 0.0
    assert m.unknown_rate == pytest.approx(value)


def _fully_bank(kind, n):
    if kind == "majority":  # holds neither constant: the empty majority is encoded MAJ, not DISJ
        return majority_bank(n)
    if kind == "monotone-disjunction":  # holds the constant -1 (DISJ) but not the constant +1
        return monotone_disjunction_bank(n)
    return majority_bank(n) + monotone_disjunction_bank(n) + [constant_concept(n, 1)]  # both constants


@pytest.mark.parametrize("bank", ["majority", "monotone-disjunction", "both constants"])
@pytest.mark.parametrize("n, m, eta", [
    (2, 1, 0.0), (3, 3, 0.3), (4, 10, 0.2),  # few examples: many pairs tie
    (7, 500, 0.1),  # 130 or more bank rows: the search runs over several blocks
    (9, 40, 0.2), (9, 3000, 0.1),
])
def test_brute_opt_fully_matches_the_row_by_row_scan(bank, n, m, eta):
    for seed in range(3):
        s = generate(maj(n), NoiseModel("symmetric", eta), m, seed=seed)
        concepts = _fully_bank(bank, n)
        assert brute_opt(s, concepts, "fully") == fully_opt_by_rows(s, concepts)


def test_brute_opt_requires_feasible_bank():
    s = generate(maj(3), NoiseModel("symmetric", 0.4), 200, seed=0)
    # no constant -1 in this bank and MAJ 1 2 3 has false positives: the constant -1 answers
    value, arg = brute_opt(s, [maj(3)], "positive")
    assert format_concept(arg) == "DISJ" and value == float(np.count_nonzero(s.labels == 1)) / s.m
    value, arg = brute_opt(s, [maj(3)], "negative")
    assert format_concept(arg) == "DISJ +1 -1" and value == float(np.count_nonzero(s.labels == -1)) / s.m


# ---------------------------------------------------------------------------
# Manifests


def manifest_for_test():
    return RunManifest(
        seed=3,
        concept="MAJ 1 2 3",
        noise=NoiseModel("one_sided_positive", 0.1),
        learner={"algo": "reliable_positive", "d": 3, "W": 2.0, "eps": 0.2},
        samples={"train": 400, "calib": 100, "heldout": 400},
        oracle={"bank": "majority", "mode": "positive"},
    )


def test_run_experiment_and_replay_byte_identical(tmp_path):
    manifest = manifest_for_test()
    done = run_experiment(manifest, root=str(tmp_path))
    run_dir = tmp_path / done.hash
    assert (run_dir / "manifest.json").exists()
    assert (run_dir / "result.json").exists()
    assert (run_dir / "hypothesis.json").exists()
    assert (run_dir / "sample.csv").exists()
    identical, _ = replay_run(run_dir)
    assert identical
    held = done.results["heldout_metrics"]
    assert held["false_pos"] <= 0.25


def test_run_experiment_writes_the_recorded_bytes(tmp_path):
    # sha256 recorded by an earlier version of the package (numpy 2.4, scipy 1.17 HiGHS): a run
    # directory stored by one version must replay byte-identical under the next.  The fit takes the
    # butterfly route; the two fit files were re-recorded when its stages took two bits, which
    # reached the same objective (within 1e-9) at another optimal vertex
    manifest = RunManifest(
        seed=5,
        concept="MAJ 1 2 3 4 5",
        noise=NoiseModel("one_sided_positive", 0.1),
        learner={"algo": "reliable_positive", "d": 3, "W": 4.0, "eps": 0.2},
        samples={"train": 600, "calib": 300, "heldout": 600},
        oracle={"bank": "majority", "mode": "positive"},
    )
    run_dir = tmp_path / run_experiment(manifest, root=str(tmp_path)).hash
    digests = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
               for name in ("sample.csv", "hypothesis.json", "result.json")}
    assert digests == {
        "sample.csv": "56991a712a8952eacae7d2e17afeaf0e39f143ede396d872930a71708d962991",
        "hypothesis.json": "24c3c5222de996009cbd45d3edfbfe935b5cd55b27cfbc0f78b102e36a1a470d",
        "result.json": "665f7741834f7d6b747f9169fffcd410f5347d8ff550ac00701fc01d62655212",
    }


def test_run_experiment_disjunction_and_l1(tmp_path):
    for algo in ("disjunction", "agnostic_l1"):
        manifest = RunManifest(
            seed=1,
            concept="DISJ +1 +2",
            noise=NoiseModel("none"),
            learner={"algo": algo, "d": 2, "W": 3.0, "eps": 0.2},
            samples={"train": 200, "calib": 100, "heldout": 200},
        )
        done = run_experiment(manifest, root=str(tmp_path))
        assert done.results["heldout_metrics"]["err"] <= 0.05


def test_oracle_banks_are_the_registry():
    assert list(BANKS) == ["majority", "monotone-disjunction"]
    s = generate(maj(3), NoiseModel("none"), 50, seed=0)
    assert oracle_record(s, "majority", "positive")["argmin"].startswith("MAJ")
    assert oracle_record(s, "monotone-disjunction", "positive")["argmin"].startswith("DISJ")
    with pytest.raises(InputError, match="unknown oracle bank 'majorty'"):
        oracle_record(s, "majorty", "positive")


def test_run_experiment_with_an_unknown_bank_fails_at_the_oracle_stage(tmp_path):
    manifest = manifest_for_test()
    manifest.oracle = {"bank": "majorty", "mode": "positive"}
    with pytest.raises(InputError, match="unknown oracle bank"):
        run_experiment(manifest, root=str(tmp_path))
    stored = json.loads((tmp_path / manifest.hash / "result.json").read_text())
    assert stored["results"]["error"]["stage"] == "oracle"
    assert "unknown oracle bank 'majorty'" in stored["results"]["error"]["message"]


def test_run_experiment_records_stage_errors(tmp_path):
    manifest = manifest_for_test()
    manifest.learner = {"algo": "no_such_algo"}
    with pytest.raises(InputError):
        run_experiment(manifest, root=str(tmp_path))
    assert manifest.results["error"]["stage"] == "learn"


@pytest.mark.parametrize("algo", ["reliable_positive", "reliable_negative", "fully_reliable", "agnostic_l1"])
def test_run_experiment_without_calibration_is_an_input_error(tmp_path, algo):
    manifest = RunManifest(
        seed=0,
        concept="MAJ 1 2 3",
        noise=NoiseModel("none"),
        learner={"algo": algo, "d": 1, "W": 2.0, "eps": 0.2},
        samples={"train": 100, "heldout": 50},
    )
    with pytest.raises(InputError, match="calibration"):
        run_experiment(manifest, root=str(tmp_path))
    assert manifest.results["error"]["stage"] == "learn"
    stored = json.loads((tmp_path / manifest.hash / "result.json").read_text())
    assert stored["results"]["error"]["stage"] == "learn"


def test_manifest_hash_stability():
    a, b = manifest_for_test(), manifest_for_test()
    assert a.hash == b.hash == manifest_hash(a.inputs_json())
    b.seed = 4
    assert a.hash != b.hash


def test_manifest_names_its_one_generator_and_refuses_others():
    obj = manifest_for_test().inputs_json()
    assert obj["generator"] == GENERATOR_ID
    with pytest.raises(InputError, match="unknown generator 'sobol/not-implemented'"):
        RunManifest.from_json({**obj, "generator": "sobol/not-implemented"})
    del obj["generator"]  # a manifest without the field reads as the one generator
    assert RunManifest.from_json(obj).inputs_json() == manifest_for_test().inputs_json()


def test_manifest_json_roundtrip():
    manifest = manifest_for_test()
    again = RunManifest.from_json(json.loads(json.dumps(manifest.inputs_json())))
    assert again.inputs_json() == manifest.inputs_json()


def test_append_summary_csv(tmp_path):
    manifest = manifest_for_test()
    run_experiment(manifest, root=str(tmp_path))
    out = tmp_path / "summary.csv"
    append_summary_csv(out, manifest)
    append_summary_csv(out, manifest)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("hash,seed,concept")
    assert len(lines) == 3


def test_run_root_env(monkeypatch, tmp_path):
    monkeypatch.setenv("ONESIDED_RUN_ROOT", str(tmp_path / "custom"))
    assert str(run_root()) == str(tmp_path / "custom")
    assert str(run_root("explicit")) == "explicit"


@pytest.mark.parametrize("bank", sorted(BANKS))
@pytest.mark.parametrize("n", range(1, 10))
def test_bank_eval_matches_each_concept(bank, n):
    # the whole bank, the two constants that the fully search adds, and a concept of neither
    # batched kind, on every cube point (so majorities of even size meet their ties)
    concepts = BANKS[bank](n) + [constant_concept(n, -1), constant_concept(n, 1), Conjunction(n, (1,))]
    X = cube_matrix(n)
    E = _bank_eval(concepts, X)
    assert E.dtype == np.int8
    np.testing.assert_array_equal(E, np.stack([eval_concept_batch(c, X) for c in concepts]))
