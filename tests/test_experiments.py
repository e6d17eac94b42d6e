import json
import math

import numpy as np
import pytest

import ppmlearn.experiments as exp
from ppmlearn.data import GeneratorSpec, generate
from ppmlearn.experiments import (
    SweepConfig,
    format_summary,
    read_records_csv,
    run_sweep,
    run_trial,
    summarize,
    write_records_csv,
    write_records_json,
)
from ppmlearn.geometry import Halfspace
from ppmlearn.learner import learn_half


def small_config(out_dir=None, n_grid=(40,), trials=1, seed=9):
    gen = GeneratorSpec(dim=1, target=Halfspace([1.0], 0.0), seed=3)
    return SweepConfig(generator=gen, n_grid=n_grid, epsilon_grid=(1.0,),
                       trials=trials, holdout=1000, seed=seed,
                       out_dir=None if out_dir is None else str(out_dir))


def test_config_validation():
    gen = GeneratorSpec(dim=1, target=Halfspace([1.0], 0.0))
    with pytest.raises(ValueError):
        SweepConfig(generator=gen, n_grid=(), epsilon_grid=(1.0,), holdout=1000)
    with pytest.raises(ValueError):
        SweepConfig(generator=gen, n_grid=(10,), epsilon_grid=(1.0,), trials=0,
                    holdout=1000)
    with pytest.raises(ValueError):
        SweepConfig(generator=gen, n_grid=(10,), epsilon_grid=(1.0,), holdout=10)
    with pytest.raises(ValueError, match="pool_cap must be >= 0"):
        SweepConfig(generator=gen, n_grid=(10,), epsilon_grid=(1.0,), holdout=1000,
                    pool_cap=-3)
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            SweepConfig(generator=gen, n_grid=(10,), epsilon_grid=(1.0, eps), holdout=1000)


def test_config_dict_round_trip():
    # every field that as_dict writes, off its default, comes back from it
    gen = GeneratorSpec(dim=3, target=Halfspace([0.3, -1.2, 0.7], 0.4), marginal="affine",
                        affine_dim=2, label_noise=0.1, privacy_flip=0.05, seed=7)
    for pool_cap in (None, 0, 5):
        c = SweepConfig(generator=gen, n_grid=(40, 80), epsilon_grid=(0.5, 1.0), trials=3,
                        holdout=2000, pool_cap=pool_cap, seed=5)
        back = SweepConfig.from_dict(c.as_dict())
        assert back.config_hash() == c.config_hash()
        assert back.as_dict() == c.as_dict()


def test_pool_cap_resolution():
    cfg = small_config()
    assert cfg.resolved_pool_cap is None  # d=1 default: uncapped
    gen2 = GeneratorSpec(dim=2, target=Halfspace([1.0, 0.0], 0.0))
    cfg2 = SweepConfig(generator=gen2, n_grid=(10,), epsilon_grid=(1.0,),
                       holdout=1000)
    assert cfg2.resolved_pool_cap == 40
    cfg3 = SweepConfig(generator=gen2, n_grid=(10,), epsilon_grid=(1.0,),
                       holdout=1000, pool_cap=0)
    assert cfg3.resolved_pool_cap is None  # 0 forces uncapped


def test_single_cell_byte_identical_reruns(tmp_path):
    cfg_a = small_config(tmp_path / "a")
    records_a = run_sweep(cfg_a)
    assert len(records_a) == 1
    cfg_b = small_config(tmp_path / "b")
    run_sweep(cfg_b)
    csv_a = (tmp_path / "a" / "records.csv").read_bytes()
    csv_b = (tmp_path / "b" / "records.csv").read_bytes()
    assert csv_a == csv_b


def test_records_reproducible_from_persisted_seeds(tmp_path):
    cfg = small_config(tmp_path, n_grid=(30, 50), trials=2)
    records = run_sweep(cfg)
    for r in records:
        spec = cfg.generator.with_seed(r.data_seed)
        ds = generate(spec, r.n)
        res = learn_half(ds, r.epsilon, pool_cap=r.pool_cap, seed=r.mech_seed)
        assert res.diagnostics.selected_mistakes == r.g_mistakes
        assert res.diagnostics.class_size == r.class_size


def test_sweep_resume_reproduces_straight_run(tmp_path, monkeypatch):
    cfg_a = small_config(tmp_path / "a", n_grid=(30, 50))
    run_sweep(cfg_a)

    cfg_b = small_config(tmp_path / "b", n_grid=(30, 50))
    real = exp.run_trial
    state = {"failed": False}

    def flaky(config, cell_idx, n, eps, trial):
        if cell_idx == 1 and not state["failed"]:
            state["failed"] = True
            raise RuntimeError("interrupted")
        return real(config, cell_idx, n, eps, trial)

    monkeypatch.setattr(exp, "run_trial", flaky)
    with pytest.raises(RuntimeError):
        run_sweep(cfg_b)
    journal = (tmp_path / "b" / "journal.jsonl").read_text()
    assert '"cell": 0' in journal and '"cell": 1' not in journal
    records = run_sweep(cfg_b)  # resumes from the journal
    assert len(records) == 2
    assert (tmp_path / "a" / "records.csv").read_bytes() == \
        (tmp_path / "b" / "records.csv").read_bytes()


def test_resume_keeps_integer_rates(tmp_path, monkeypatch):
    # rates given as Python ints print as 0 in a straight run; the journal
    # must hand them back unchanged, not as 0.0
    gen = GeneratorSpec(dim=1, target=Halfspace([1.0], 0.0), label_noise=0,
                        privacy_flip=0, seed=3)
    configs = [SweepConfig(generator=gen, n_grid=(30, 40), epsilon_grid=(1.0,),
                           holdout=1000, seed=9, out_dir=str(tmp_path / d))
               for d in ("a", "b")]
    run_sweep(configs[0])
    real = exp.run_trial

    def interrupted(config, cell_idx, n, eps, trial):
        if cell_idx == 1:
            raise RuntimeError("interrupted")
        return real(config, cell_idx, n, eps, trial)

    monkeypatch.setattr(exp, "run_trial", interrupted)
    with pytest.raises(RuntimeError):
        run_sweep(configs[1])
    monkeypatch.setattr(exp, "run_trial", real)
    run_sweep(configs[1])
    straight = (tmp_path / "a" / "records.csv").read_bytes()
    assert b",0,0," in straight
    assert (tmp_path / "b" / "records.csv").read_bytes() == straight


def test_sweep_resumes_past_a_torn_final_journal_line(tmp_path):
    cfg_a = small_config(tmp_path / "a", n_grid=(30, 50))
    run_sweep(cfg_a)
    cfg_b = small_config(tmp_path / "b", n_grid=(30, 50))
    run_sweep(cfg_b)
    journal = tmp_path / "b" / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    # a crash halfway through writing the last cell's record
    journal.write_text("".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2])
    (tmp_path / "b" / "records.csv").unlink()
    assert len(run_sweep(cfg_b)) == 2
    assert (tmp_path / "a" / "records.csv").read_bytes() == \
        (tmp_path / "b" / "records.csv").read_bytes()
    resumed = journal.read_text().splitlines(keepends=True)
    assert [json.loads(ln).get("cell") for ln in resumed] == [None, 0, 1]
    assert resumed[:-1] == lines[:-1] and resumed[-1].endswith("\n")
    # a malformed line that is not the last one is still an error
    journal.write_text(lines[0] + lines[1][:10] + "\n" + lines[2])
    with pytest.raises(ValueError):
        run_sweep(cfg_b)


def test_journal_config_mismatch_rejected(tmp_path):
    cfg = small_config(tmp_path)
    (tmp_path / "journal.jsonl").write_text('{"config_hash": "deadbeef"}\n')
    with pytest.raises(ValueError, match="different config"):
        run_sweep(cfg)


def test_failed_cell_names_parameters(tmp_path, monkeypatch):
    cfg = small_config(tmp_path)

    def boom(config, cell_idx, n, eps, trial):
        raise ValueError("inner")

    monkeypatch.setattr(exp, "run_trial", boom)
    with pytest.raises(RuntimeError, match=r"n=40, epsilon=1.0"):
        run_sweep(cfg)


def test_records_csv_round_trip(tmp_path):
    cfg = small_config(tmp_path / "x", n_grid=(30,), trials=2)
    records = run_sweep(cfg)
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    back = read_records_csv(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert (a.n, a.epsilon, a.trial, a.g_mistakes, a.class_size) == \
            (b.n, b.epsilon, b.trial, b.g_mistakes, b.class_size)
        assert a.holdout_error == b.holdout_error


def test_records_json_carries_config_and_wall_time(tmp_path):
    cfg = small_config(tmp_path)
    run_sweep(cfg)
    payload = json.loads((tmp_path / "records.json").read_text())
    assert payload["config_hash"] == cfg.config_hash()
    assert payload["config"]["n_grid"] == [40]
    assert payload["records"][0]["wall_time"] > 0


def test_writers_keep_the_previous_file_when_a_write_fails(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, n_grid=(30,), trials=2)
    records = run_sweep(cfg)
    files = {name: (tmp_path / name).read_bytes()
             for name in ("records.csv", "records.json")}
    real_row = exp._record_row
    rows = []

    def row_then_fail(r):
        if rows:
            raise OSError("disk full")
        rows.append(r)
        return real_row(r)

    def partial_dump(obj, fh, **kwargs):
        fh.write('{"config": ')
        raise OSError("disk full")

    monkeypatch.setattr(exp.json, "dump", partial_dump)
    with pytest.raises(OSError, match="disk full"):
        write_records_json(records, cfg, tmp_path / "records.json")
    monkeypatch.undo()
    monkeypatch.setattr(exp, "_record_row", row_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write_records_csv(records, tmp_path / "records.csv")
    assert rows  # the CSV writer failed after its first row
    for name, data in files.items():
        assert (tmp_path / name).read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "journal.jsonl", "records.csv", "records.json"]


def test_summarize_empty_and_single_cell(tmp_path):
    empty = summarize([])
    assert empty.cells == ()
    assert format_summary(empty) == "no records\n"

    cfg = small_config(tmp_path, trials=3)
    records = run_sweep(cfg)
    summary = summarize(records)
    assert len(summary.cells) == 1
    cell = summary.cells[0]
    assert cell.trials == 3
    assert cell.median_holdout == pytest.approx(
        float(np.median([r.holdout_error for r in records])))
    assert cell.optimum == 0.0
    table = format_summary(summary)
    assert "med_hold" in table and str(cell.n) in table


def test_summarize_bound_overlay_fields(tmp_path):
    cfg = small_config(tmp_path, trials=2)
    records = run_sweep(cfg)
    cell = summarize(records).cells[0]
    assert cell.utility_bound > 0
    assert cell.compression_dev > 0
    assert cell.excess_bound == pytest.approx(cell.utility_bound + cell.compression_dev)
    assert cell.realizable_n > 0 and cell.agnostic_n > 0
