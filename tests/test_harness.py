import json

import numpy as np
import pytest

from onesided.cube import (Disjunction, Majority, empirical_metrics, eval_concept_batch,
                           format_concept)
from onesided.errors import InputError, ResourceLimitError
from onesided.harness import (NoiseModel, RunManifest, append_summary_csv, brute_opt,
                              generate, majority_bank, manifest_hash,
                              monotone_disjunction_bank, replay_run, run_experiment,
                              run_root, stage_rng)


def maj(n):
    return Majority(n, tuple(range(1, n + 1)))


# ---------------------------------------------------------------------------
# Generators


def test_generate_noiseless_labels_match_concept():
    c = maj(5)
    s = generate(c, NoiseModel("none"), 300, seed=4)
    assert np.array_equal(s.labels, eval_concept_batch(c, s.points))


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

    class _Wrap:
        def __init__(self, concept):
            self.concept = concept

        def decide(self, x):
            from onesided.cube import eval_concept

            return eval_concept(self.concept, x)

        def decide_batch(self, X):
            return eval_concept_batch(self.concept, X)

    pair = agreement_hypothesis(_Wrap(c_pos), _Wrap(c_neg), 5)
    m = empirical_metrics(pair, s)
    assert m.err == 0.0
    assert m.unknown_rate == pytest.approx(value)


def test_brute_opt_requires_feasible_bank():
    s = generate(maj(3), NoiseModel("symmetric", 0.4), 200, seed=0)
    with pytest.raises(InputError):
        brute_opt(s, [maj(3)], "positive")  # no constant -1 in this bank


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
