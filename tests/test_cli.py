import json

import numpy as np
import pytest

from onesided import harness
from onesided.certify import verify_onesided
from onesided.cli import build_parser, main
from onesided.cube import cube_matrix, eval_concept_batch, Majority, save_sample_csv, LabeledSample
from onesided.harness import NoiseModel, RunManifest, generate
from onesided.learn import plan_samples


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_plan_matches_library(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "100", "--d", "3", "--W", "10",
                           "--eps", "0.1", "--delta", "0.01", "--json")
    assert code == 0
    payload = json.loads(out)
    plan = plan_samples(100, 3, 10.0, 0.1, 0.01)
    assert payload["m"] == plan.m
    assert payload["term_rademacher"] == pytest.approx(plan.term_rademacher)
    assert payload["term_confidence"] == pytest.approx(plan.term_confidence)


def test_plan_human_output_prints_both_terms(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "100", "--d", "3", "--W", "10",
                           "--eps", "0.1", "--delta", "0.01")
    assert code == 0
    assert "term_rademacher" in out and "term_confidence" in out and "m =" in out


@pytest.mark.parametrize("W", ["inf", "1e308", "nan"])
def test_plan_rejects_a_weight_out_of_range(capsys, W):
    code, out, err = run_cli(capsys, "plan", "--n", "10", "--d", "2", "--W", W, "--eps", "0.1", "--delta", "0.1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "W" in err


def test_mineps_reaches_zero_at_full_degree(capsys):
    code, out, _ = run_cli(capsys, "mineps", "--concept", "MAJ 1 2 3 4 5",
                           "--mode", "positive", "--dmax", "5", "--json")
    assert code == 0
    table = json.loads(out)["table"]
    assert table[-1]["d"] == 5
    assert table[-1]["eps"] == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("concept", ["MAJ 1 2 3", "HALFSPACE 0 1 1 1"])
def test_mineps_prints_no_negative_zero(capsys, concept):
    code, out, _ = run_cli(capsys, "mineps", "--concept", concept, "--mode", "twosided", "--dmax", "3")
    assert code == 0
    assert out.splitlines()[-1] == "d= 3  eps=0.000000000"
    assert "-0.0" not in out


@pytest.mark.parametrize("dmax", ["0", "-2"])
def test_mineps_needs_a_positive_dmax(capsys, dmax):
    code, out, err = run_cli(capsys, "mineps", "--concept", "MAJ 1 2 3", "--mode", "positive",
                             "--dmax", dmax, "--json")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --dmax must be at least 1")


def test_construct_then_certify_roundtrip(tmp_path, capsys):
    poly_path = tmp_path / "poly.json"
    code, out, _ = run_cli(capsys, "construct", "--concept", "MAJ 1 2 3",
                           "--kind", "onesided", "--sign", "positive", "--eps", "0.1",
                           "--out", str(poly_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["ok"] is True

    code, out, _ = run_cli(capsys, "certify", "--poly", str(poly_path),
                           "--concept", "MAJ 1 2 3", "--eps", "0.1",
                           "--mode", "positive", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_construct_quarter_and_tradeoff(capsys):
    code, out, _ = run_cli(capsys, "construct", "--concept", "MAJ 1 2 3",
                           "--kind", "quarter", "--json")
    assert code == 0
    assert json.loads(out)["certificate"]["ok"] is True

    code, out, _ = run_cli(capsys, "construct", "--concept", "CONJ +1 +2 +3 +4",
                           "--kind", "and-tradeoff", "--d", "4", "--eps", "0.25", "--json")
    assert code == 0
    assert json.loads(out)["certificate"]["ok"] is True


@pytest.mark.parametrize("kind,concept", [("and-tradeoff", "CONJ +1 +2 +3"), ("dnf", "DNF (+1 +2 +3)")])
def test_construct_degree_zero_is_a_domain_error(capsys, kind, concept):
    code, _, err = run_cli(capsys, "construct", "--concept", concept, "--kind", kind,
                           "--d", "0", "--eps", "0.1")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("kind,concept", [("dnf", "MAJ 1 2"), ("dnf", "CNF (+1 +2)(-3)"),
                                          ("cnf", "MAJ 1 2"), ("cnf", "DNF (+1 +2)(-3)")])
def test_construct_formula_kind_needs_its_formula(capsys, kind, concept):
    code, out, err = run_cli(capsys, "construct", "--concept", concept, "--kind", kind, "--eps", "0.1")
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in out + err


def test_construct_small_weight_onesided_at_small_eps(capsys):
    code, out, _ = run_cli(capsys, "construct", "--concept", "MAJ 1", "--kind", "onesided", "--eps", "0.01")
    assert code == 0
    assert "certified=True" in out


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_construct_prints_a_weight_bound_past_the_float_range(capsys, tmp_path):
    # the claim is inf, which JSON cannot spell: --json and --out write null, the human line inf
    argv = ("construct", "--concept", "HALFSPACE 0 1000 1000 1000", "--kind", "onesided", "--eps", "0.01")
    code, out, _ = run_cli(capsys, *argv, "--json", "--out", str(tmp_path / "c.json"))
    assert code == 0
    assert _strict_json(out)["weight_bound"] is None
    assert _strict_json((tmp_path / "c.json").read_text())["weight_bound"] is None
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "weight<=inf certified=True" in out


def test_construct_quarter_beyond_cube_cap_is_uncertified(capsys, monkeypatch):
    import onesided.certify as certify

    def no_enumeration(n):
        raise AssertionError(f"enumerated the {n}-cube")

    monkeypatch.setattr(certify, "cube_matrix", no_enumeration)  # what _scan enumerates with
    n = certify.CUBE_CAP + 1
    code, out, _ = run_cli(capsys, "construct", "--concept", "MAJ " + " ".join(map(str, range(1, n + 1))),
                           "--kind", "quarter", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"] is None
    assert payload["degree_bound"] == 20  # 4 * ceil(sqrt(25))


def test_learn_disjunction_from_csv(tmp_path, capsys):
    from onesided.cube import Disjunction

    planted = Disjunction(6, (1, 2))
    train = generate(planted, NoiseModel("none"), 300, seed=0, stream=1)
    held = generate(planted, NoiseModel("none"), 300, seed=0, stream=3)
    train_csv, held_csv = tmp_path / "train.csv", tmp_path / "held.csv"
    save_sample_csv(train, train_csv)
    save_sample_csv(held, held_csv)
    code, out, _ = run_cli(capsys, "learn", "--train", str(train_csv),
                           "--heldout", str(held_csv), "--algo", "disjunction", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["heldout_metrics"]["err"] == 0.0


def test_learn_disjunction_out_writes_the_hypothesis(tmp_path, capsys):
    from onesided.cube import Disjunction

    train = generate(Disjunction(4, (1, -3)), NoiseModel("none"), 200, seed=0, stream=1)
    train_csv, hyp_path = tmp_path / "train.csv", tmp_path / "hyp.json"
    save_sample_csv(train, train_csv)
    code, out, _ = run_cli(capsys, "learn", "--train", str(train_csv), "--algo", "disjunction",
                           "--out", str(hyp_path), "--json")
    assert code == 0
    assert json.loads(hyp_path.read_text()) == {"concept": json.loads(out)["concept"]}


def test_learn_reliable_from_csv(tmp_path, capsys):
    maj = Majority(3, (1, 2, 3))
    train = generate(maj, NoiseModel("none"), 300, seed=1, stream=1)
    calib = generate(maj, NoiseModel("none"), 200, seed=1, stream=2)
    train_csv, calib_csv = tmp_path / "train.csv", tmp_path / "calib.csv"
    save_sample_csv(train, train_csv)
    save_sample_csv(calib, calib_csv)
    hyp_path = tmp_path / "hyp.json"
    code, out, _ = run_cli(capsys, "learn", "--train", str(train_csv),
                           "--calib", str(calib_csv), "--algo", "reliable-positive",
                           "--d", "3", "--W", "2", "--eps", "0.2",
                           "--out", str(hyp_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["fit"]["lp_status"] == "optimal"
    # certify reads the stored hypothesis as the polynomial the learner fitted
    h, _, _ = harness.train_learner("reliable_positive", train, calib, 3, 2.0, 0.2)
    code, out, _ = run_cli(capsys, "certify", "--poly", str(hyp_path), "--concept", "MAJ 1 2 3",
                           "--eps", "0.1", "--mode", "positive", "--json")
    assert code == 0
    assert json.loads(out) == verify_onesided(h.p, maj, 0.1, "positive").to_json()


def test_oracle_command(tmp_path, capsys):
    maj = Majority(5, (1, 2, 3, 4, 5))
    s = generate(maj, NoiseModel("one_sided_positive", 0.1), 500, seed=2)
    path = tmp_path / "sample.csv"
    save_sample_csv(s, path)
    code, out, _ = run_cli(capsys, "oracle", "--sample", str(path),
                           "--bank", "majority", "--mode", "positive", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["opt"] <= 0.2
    assert payload["argmin"].startswith("MAJ")


def test_oracle_bank_choices_are_the_harness_registry():
    commands = next(action for action in build_parser()._actions if action.dest == "command")
    bank = next(action for action in commands.choices["oracle"]._actions if action.dest == "bank")
    assert bank.choices == list(harness.BANKS)


@pytest.mark.parametrize("bank", ["majority", "monotone-disjunction"])
def test_oracle_negative_mode_falls_back_to_constant(tmp_path, capsys, bank):
    # every concept of either bank answers -1 on some +1-labeled point of this sample
    held = generate(Majority(5, (1, 2, 3, 4, 5)), NoiseModel("one_sided_positive", 0.1), 900, seed=0, stream=3)
    path = tmp_path / "held.csv"
    save_sample_csv(held, path)
    code, out, _ = run_cli(capsys, "oracle", "--sample", str(path), "--bank", bank, "--mode", "negative", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["argmin"] == "DISJ +1 -1"
    assert payload["opt"] == np.count_nonzero(held.labels == -1) / 900 == pytest.approx(0.4378, abs=1e-4)


def test_bench_and_replay(tmp_path, capsys):
    manifest = RunManifest(
        seed=5,
        concept="MAJ 1 2 3",
        noise=NoiseModel("one_sided_positive", 0.1),
        learner={"algo": "reliable_positive", "d": 3, "W": 2.0, "eps": 0.2},
        samples={"train": 300, "calib": 100, "heldout": 300},
    )
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest.inputs_json()))
    root = tmp_path / "runs"
    summary = tmp_path / "summary.csv"
    code, out, _ = run_cli(capsys, "bench", str(mpath), "--root", str(root),
                           "--summary", str(summary))
    assert code == 0
    assert summary.exists()
    run_dir = root / manifest.hash
    code, out, _ = run_cli(capsys, "replay", str(run_dir))
    assert code == 0
    assert "byte-identical" in out


def test_bench_parallel_jobs(tmp_path, capsys):
    paths = []
    for seed in (1, 2):
        manifest = RunManifest(
            seed=seed,
            concept="MAJ 1 2 3",
            noise=NoiseModel("none"),
            learner={"algo": "disjunction"},
            samples={"train": 100, "heldout": 100},
        )
        p = tmp_path / f"m{seed}.json"
        p.write_text(json.dumps(manifest.inputs_json()))
        paths.append(str(p))
    code, out, _ = run_cli(capsys, "bench", *paths, "--jobs", "2", "--root", str(tmp_path / "runs"))
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_bench_without_calibration_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "seed": 0, "concept": "MAJ 1 2 3", "noise": {"kind": "none"},
        "learner": {"algo": "reliable_positive", "d": 1, "W": 2.0, "eps": 0.2},
        "samples": {"train": 100, "heldout": 50},
    }))
    code, out, err = run_cli(capsys, "bench", str(path), "--root", str(tmp_path / "runs"))
    assert code == 1
    assert err.startswith("error:") and "calibration" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_runs_every_manifest_past_a_failing_one(tmp_path, capsys, jobs):
    paths = []
    for seed, calib in enumerate((800, 150, 800)):  # fully_reliable at eps = 0.2 needs 800
        manifest = RunManifest(
            seed=seed,
            concept="MAJ 1 2 3",
            noise=NoiseModel("none"),
            learner={"algo": "fully_reliable", "d": 1, "W": 2.0, "eps": 0.2},
            samples={"train": 200, "calib": calib, "heldout": 100},
        )
        p = tmp_path / f"m{seed}.json"
        p.write_text(json.dumps(manifest.inputs_json()))
        paths.append(str(p))
    summary = tmp_path / "summary.csv"
    code, out, err = run_cli(capsys, "bench", *paths, "--jobs", jobs, "--root", str(tmp_path / "runs"),
                             "--summary", str(summary))
    assert code == 1
    assert [line.split()[1] for line in out.strip().splitlines()] == ["seed=0", "seed=2"]
    assert len(summary.read_text().strip().splitlines()) == 1 + 2  # header and two rows
    errors = err.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith(f"error: {paths[1]}: learn: calibration sample of 150 examples")
    assert "Traceback" not in out + err


def test_bench_reports_an_unreadable_manifest_and_runs_the_rest(tmp_path, capsys):
    manifest = RunManifest(seed=1, concept="MAJ 1 2 3", noise=NoiseModel("none"),
                           learner={"algo": "disjunction"}, samples={"train": 100, "heldout": 100})
    good = tmp_path / "good.json"
    good.write_text(json.dumps(manifest.inputs_json()))
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(capsys, "bench", str(missing), str(good), "--root", str(tmp_path / "runs"))
    assert code == 1
    assert len(out.strip().splitlines()) == 1
    assert err.startswith(f"error: {missing}: load: ")


def test_bench_refuses_a_manifest_naming_another_generator(tmp_path, capsys):
    manifest = RunManifest(seed=1, concept="MAJ 1 2 3", noise=NoiseModel("none"),
                           learner={"algo": "disjunction"}, samples={"train": 100, "heldout": 100})
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({**manifest.inputs_json(), "generator": "sobol/not-implemented"}))
    code, out, err = run_cli(capsys, "bench", str(foreign), "--root", str(tmp_path / "runs"))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {foreign}: load: unknown generator 'sobol/not-implemented'")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["bench", "replay"])
def test_bench_and_replay_take_no_json_flag(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path), "--json"])
    assert exc.value.code == 2


def test_learn_without_calib_is_a_domain_error(tmp_path, capsys):
    maj = Majority(3, (1, 2, 3))
    train_csv = tmp_path / "train.csv"
    save_sample_csv(generate(maj, NoiseModel("none"), 50, seed=1, stream=1), train_csv)
    code, _, err = run_cli(capsys, "learn", "--train", str(train_csv), "--algo", "fully-reliable")
    assert code == 1
    assert "calibration" in err


@pytest.mark.parametrize("algo", ["reliable-positive", "agnostic-l1"])
def test_learn_rejects_a_weight_cap_that_is_not_finite(tmp_path, capsys, algo):
    maj = Majority(3, (1, 2, 3))
    train_csv = tmp_path / "train.csv"
    save_sample_csv(generate(maj, NoiseModel("none"), 50, seed=1, stream=1), train_csv)
    code, _, err = run_cli(capsys, "learn", "--train", str(train_csv), "--calib", str(train_csv),
                           "--algo", algo, "--d", "2", "--W", "nan", "--eps", "0.2")
    assert code == 1
    assert err == "error: weight cap W must be finite and >= 0, got nan\n"


@pytest.mark.parametrize("algo", [name.replace("_", "-") for name in harness.LEARNERS])
def test_learn_on_a_sample_of_dimension_zero_is_a_domain_error(tmp_path, capsys, algo):
    csv_path = tmp_path / "labels_only.csv"
    csv_path.write_text("y\n1\n-1\n1\n")
    code, out, err = run_cli(capsys, "learn", "--train", str(csv_path), "--calib", str(csv_path),
                             "--algo", algo, "--d", "1", "--W", "2", "--eps", "0.2")
    assert code == 1 and out == ""
    assert err == "error: sample dimension must be >= 1, got n=0\n"


def test_domain_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "certify", "--poly", str(tmp_path / "missing.json"),
                           "--concept", "MAJ 1", "--eps", "0.1", "--mode", "positive")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_certify_non_finite_eps_is_a_domain_error(tmp_path, capsys, eps):
    poly_path = tmp_path / "poly.json"
    code, _, _ = run_cli(capsys, "construct", "--concept", "MAJ 1 2 3", "--kind", "quarter",
                         "--out", str(poly_path))
    assert code == 0
    code, _, err = run_cli(capsys, "certify", "--poly", str(poly_path), "--concept", "MAJ 1 2 3",
                           "--eps", eps, "--mode", "positive")
    assert code == 1
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("coef", ["inf", "-inf", "nan"])
def test_certify_non_finite_coefficient_is_a_domain_error(tmp_path, capsys, coef):
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(json.dumps({"form": "sparse", "n": 3, "terms": [{"vars": [1], "coef": coef}]}))
    code, out, err = run_cli(capsys, "certify", "--poly", str(poly_path), "--concept", "MAJ 1 2 3",
                             "--eps", "0.1", "--mode", "positive")
    assert code == 1 and out == ""
    assert err == f"error: coefficient of monomial (1,) must be finite, got {float(coef)}\n"


def test_unclosed_clause_is_a_domain_error(capsys):
    code, _, err = run_cli(capsys, "construct", "--concept", "DNF (+1 -2", "--kind", "dnf", "--d", "2")
    assert code == 1
    assert err.startswith("error:") and "unclosed clause" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["construct"])  # missing required flags
    assert exc.value.code == 2
