import dataclasses
import json

import pytest

import ppmlearn.cli as cli
from ppmlearn.data import read_csv
from ppmlearn.experiments import CSV_COLUMNS
from ppmlearn.learner import BudgetExceededError, LearnDiagnostics
from ppmlearn.model import CURATOR_ONLY, PRIVACY, RELEASE_SAFE, curator_only_fields
from ppmlearn.privacy import DPAuditReport, NeighborTrial


def run_cli(argv):
    return cli.main(argv)


def test_gen_learn_erm_chain(tmp_path, capsys):
    out = str(tmp_path)
    assert run_cli(["gen", "--dim", "1", "--n", "50", "--seed", "4",
                    "--out", out]) == 0
    data = f"{out}/dataset.csv"
    assert run_cli(["learn", "--data", data, "--epsilon", "1.0",
                    "--seed", "1", "--out", out]) == 0
    captured = capsys.readouterr().out
    payload = json.loads("{" + captured.split("{", 1)[1])
    assert payload["n"] == 50
    assert (tmp_path / "learn.json").exists()
    curator_only = {"empirical_mistakes", "empirical_error", "min_mistakes_in_class"}
    assert not curator_only & payload.keys()
    assert run_cli(["learn", "--data", data, "--epsilon", "1.0",
                    "--seed", "1", "--curator-stats"]) == 0
    captured = capsys.readouterr().out
    stats = json.loads("{" + captured.split("{", 1)[1])
    assert curator_only <= stats.keys()
    assert stats["min_mistakes_in_class"] <= stats["empirical_mistakes"] <= 50
    assert stats["empirical_error"] == stats["empirical_mistakes"] / 50
    assert run_cli(["erm", "--data", data]) == 0
    erm_out = json.loads(capsys.readouterr().out)
    assert erm_out["n"] == 50
    assert 0.0 <= erm_out["empirical_error"] <= 1.0


def test_every_report_field_has_a_privacy_label():
    for cls in (LearnDiagnostics, DPAuditReport):
        for f in dataclasses.fields(cls):
            assert f.metadata.get(PRIVACY) in (RELEASE_SAFE, CURATOR_ONLY), f.name
    assert curator_only_fields(LearnDiagnostics) == {
        "selected_mistakes", "min_mistakes", "error", "mistake_histogram",
        "log_normalizer", "uniform_draw"}
    assert curator_only_fields(DPAuditReport) == {"trials"}


def test_default_learn_json_carries_no_curator_only_value(tmp_path, capsys):
    out = str(tmp_path)
    assert run_cli(["gen", "--dim", "2", "--n", "30", "--seed", "2", "--out", out]) == 0
    assert run_cli(["learn", "--data", f"{out}/dataset.csv", "--epsilon", "1.0"]) == 0
    captured = capsys.readouterr().out
    payload = json.loads("{" + captured.split("{", 1)[1])
    hidden = curator_only_fields(LearnDiagnostics)
    reported = {key for key, (name, _) in cli._DIAGNOSTIC_KEYS.items() if name not in hidden}
    assert payload.keys() == {"empty_region", "members", "member_halfspaces"} | reported
    assert {name for name, _ in cli._DIAGNOSTIC_KEYS.values()} & hidden


def test_verify_dp_pass_exit_zero(tmp_path, capsys):
    out = str(tmp_path)
    run_cli(["gen", "--dim", "1", "--n", "14", "--seed", "5", "--out", out])
    capsys.readouterr()
    code = run_cli(["verify-dp", "--data", f"{out}/dataset.csv",
                    "--epsilon", "0.1", "1.0", "--trials", "5"])
    text = capsys.readouterr().out
    assert code == 0
    assert "PASS" in text
    assert "max log-ratio" in text


def test_verify_dp_audits_the_class_learn_draws_from(tmp_path, capsys):
    # without --pool-cap both commands take the per-dimension default pool
    out = str(tmp_path)
    run_cli(["gen", "--dim", "2", "--n", "200", "--seed", "3", "--out", out])
    data = f"{out}/dataset.csv"
    assert read_csv(data).n_pub > 40  # more than the d=2 default pool
    capsys.readouterr()
    assert run_cli(["learn", "--data", data, "--epsilon", "1.0"]) == 0
    learned = json.loads(capsys.readouterr().out)
    assert run_cli(["verify-dp", "--data", data, "--trials", "2"]) == 0
    text = capsys.readouterr().out
    assert f"class size {learned['class_size']}," in text and "PASS" in text


def test_verify_dp_fail_exit_one(tmp_path, capsys, monkeypatch):
    out = str(tmp_path)
    run_cli(["gen", "--dim", "1", "--n", "12", "--seed", "6", "--out", out])
    capsys.readouterr()
    fake = DPAuditReport(
        epsilons=(1.0,),
        trials=(NeighborTrial(index=0, max_log_ratio=2.0, epsilon=1.0),),
        class_size=3, family_size=1, n=12, slack=1e-9)
    monkeypatch.setattr(cli, "verify_dp", lambda *a, **k: fake)
    code = run_cli(["verify-dp", "--data", f"{out}/dataset.csv"])
    text = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in text and "VIOLATION" in text


def test_usage_error_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["learn", "--data"])  # missing value
    assert exc.value.code == 2
    assert run_cli(["learn", "--data", str(tmp_path / "missing.csv"),
                    "--epsilon", "1.0"]) == 2
    capsys.readouterr()


def test_bad_csv_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y,p\n0.1,2,0\n")
    assert run_cli(["learn", "--data", str(bad), "--epsilon", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_budget_refusal_exit_two(tmp_path, capsys, monkeypatch):
    out = str(tmp_path)
    run_cli(["gen", "--dim", "2", "--n", "24", "--seed", "9", "--out", out])
    capsys.readouterr()

    def refuse(*a, **k):
        raise BudgetExceededError("class too large; reduce pool_cap (|G| = 9 > 5)")

    monkeypatch.setattr(cli, "learn_half", refuse)
    assert run_cli(["learn", "--data", f"{out}/dataset.csv", "--epsilon", "1.0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: class too large; reduce pool_cap (|G| = 9 > 5)\n"


def test_failed_sweep_trial_exit_two(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "generator": {"dim": 1, "target_normal": [1.0], "target_offset": 0.0},
        "n_grid": [40], "epsilon_grid": [1.0], "holdout": 1000}))

    def fail(config):
        raise RuntimeError("cell (n=40, epsilon=1.0) trial 0 failed: inner")

    monkeypatch.setattr(cli, "run_sweep", fail)
    code = run_cli(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: cell (n=40, epsilon=1.0) trial 0 failed: inner\n"


def test_bounds_table(capsys):
    assert run_cli(["bounds", "--d", "2", "--alpha", "0.1", "--epsilon", "0.5",
                    "--n", "1000", "--class-size", "11"]) == 0
    text = capsys.readouterr().out
    assert "realizable_sample_bound" in text
    assert "agnostic_sample_bound" in text
    assert "compression_deviation" in text
    assert "mechanism_utility_bound" in text
    assert "constant" in text


def test_sweep_and_summarize(tmp_path, capsys):
    config = {
        "generator": {"dim": 1, "target_normal": [1.0], "target_offset": 0.0,
                      "marginal": "gaussian", "label_noise": 0.0,
                      "privacy_flip": 0.0, "seed": 3},
        "n_grid": [40], "epsilon_grid": [1.0], "trials": 2,
        "holdout": 1000, "seed": 11,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out = str(tmp_path / "run")
    assert run_cli(["sweep", "--config", str(cfg_path), "--out", out]) == 0
    assert run_cli(["summarize", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "med_hold" in text
    assert (tmp_path / "run" / "summary.json").exists()
    assert run_cli(["summarize"]) == 2  # neither --records nor --out


@pytest.mark.parametrize("command, name, text", [
    ("sweep", "sweep.json", json.dumps({"n_grid": [40], "epsilon_grid": [1.0]})),
    ("sweep", "sweep.json", json.dumps([{"n_grid": [40]}])),
    ("summarize", "records.csv",
     ",".join(CSV_COLUMNS) + "\n" + ",".join(["1"] * 10) + "\n"),
], ids=["config-without-generator", "config-is-a-list", "records-row-of-10-fields"])
def test_malformed_input_exit_two(tmp_path, capsys, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    flag = "--config" if command == "sweep" else "--records"
    assert run_cli([command, flag, str(path), "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bounds", "--d", "2", "--alpha", "0.1", "--budget", "5"],
    ["bounds", "--d", "2", "--alpha", "0.1", "--pool-cap", "3"],
    ["erm", "--data", "dataset.csv", "--out", "run"],
    ["erm", "--data", "dataset.csv", "--seed", "9"],
    ["verify-dp", "--data", "dataset.csv", "--budget", "1"],
    ["gen", "--dim", "1", "--n", "5", "--pool-cap", "3"],
    ["sweep", "--config", "sweep.json", "--seed", "1"],
    ["summarize", "--out", "run", "--budget", "5"],
], ids=["bounds-budget", "bounds-pool-cap", "erm-out", "erm-seed", "verify-dp-budget",
        "gen-pool-cap", "sweep-seed", "summarize-budget"])
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_pool_cap_zero_means_uncapped(tmp_path, capsys):
    out = str(tmp_path)
    run_cli(["gen", "--dim", "2", "--n", "24", "--seed", "9", "--out", out])
    capsys.readouterr()
    data = f"{out}/dataset.csv"
    assert run_cli(["learn", "--data", data, "--epsilon", "1.0",
                    "--pool-cap", "0"]) == 0
    uncapped = json.loads(capsys.readouterr().out)
    assert run_cli(["learn", "--data", data, "--epsilon", "1.0",
                    "--pool-cap", "4"]) == 0
    capped = json.loads(capsys.readouterr().out)
    assert uncapped["family_size"] > capped["family_size"]


def test_negative_pool_cap_exit_two(tmp_path, capsys):
    out = str(tmp_path)
    run_cli(["gen", "--dim", "1", "--n", "14", "--seed", "5", "--out", out])
    data = f"{out}/dataset.csv"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "generator": {"dim": 1, "target_normal": [1.0], "target_offset": 0.0},
        "n_grid": [40], "epsilon_grid": [1.0], "holdout": 1000}))
    capsys.readouterr()
    for argv in (["learn", "--data", data, "--epsilon", "1.0"],
                 ["verify-dp", "--data", data, "--trials", "2"],
                 ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "run")]):
        assert run_cli(argv + ["--pool-cap", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: pool_cap must be >= 0\n"
    assert not (tmp_path / "run").exists()  # refused before the first trial


def test_verify_dp_zero_trials_exit_two(tmp_path, capsys):
    out = str(tmp_path)
    run_cli(["gen", "--dim", "1", "--n", "14", "--seed", "5", "--out", out])
    capsys.readouterr()
    assert run_cli(["verify-dp", "--data", f"{out}/dataset.csv", "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: trials must be >= 1\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["learn", "verify-dp"])
@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_non_finite_epsilon_exit_two(tmp_path, capsys, command, eps):
    out = str(tmp_path)
    run_cli(["gen", "--dim", "1", "--n", "14", "--seed", "5", "--out", out])
    capsys.readouterr()
    assert run_cli([command, "--data", f"{out}/dataset.csv", "--epsilon", eps]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: epsilon must be positive and finite, got {eps}\n"
    assert captured.out == ""


def test_gen_with_explicit_target(tmp_path, capsys):
    out = str(tmp_path)
    assert run_cli(["gen", "--dim", "2", "--n", "30", "--target", "1,0:0.5",
                    "--out", out]) == 0
    assert run_cli(["gen", "--dim", "2", "--n", "30", "--target", "1:0.5",
                    "--out", out]) == 2  # wrong arity
    capsys.readouterr()
