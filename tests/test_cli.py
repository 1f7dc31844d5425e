import json
import math

import numpy as np
import pytest

from onesided.cli import main
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


def test_mineps_reaches_zero_at_full_degree(capsys):
    code, out, _ = run_cli(capsys, "mineps", "--concept", "MAJ 1 2 3 4 5",
                           "--mode", "positive", "--dmax", "5", "--json")
    assert code == 0
    table = json.loads(out)["table"]
    assert table[-1]["d"] == 5
    assert table[-1]["eps"] == pytest.approx(0.0, abs=1e-7)


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
    assert hyp_path.exists()
    payload = json.loads(out)
    assert payload["fit"]["lp_status"] == "optimal"


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


def test_domain_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "certify", "--poly", str(tmp_path / "missing.json"),
                           "--concept", "MAJ 1", "--eps", "0.1", "--mode", "positive")
    assert code == 1
    assert "error:" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["construct"])  # missing required flags
    assert exc.value.code == 2
