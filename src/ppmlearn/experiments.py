"""Seeded sweep harness: grids of (n, epsilon) trials of the learner, with
holdout error estimates, ERM baselines, machine-readable reports, and
per-cell summaries overlaid with the closed-form bounds.

Per-trial seeds derive from (config seed, cell index, trial index) alone,
so records are reproducible whether a sweep ran straight through or was
resumed from the journal. Wall-clock time is reported only in the JSON
report; the CSV is byte-identical across reruns of the same config+seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import (
    agnostic_sample_bound,
    compression_bound,
    mechanism_utility_bound,
    realizable_sample_bound,
)
from .data import GeneratorSpec, generate, generate_holdout
from .erm import erm_halfspace
from .geometry import Halfspace
from .learner import hypothesis_error, learn_half, resolve_pool_cap
from .mechanism import check_epsilon
from .model import partition


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """Grid of (n, epsilon) cells, trials per cell, holdout size, pool cap.
    ``pool_cap`` is spelled as ``learner.resolve_pool_cap`` reads it."""

    generator: GeneratorSpec
    n_grid: tuple[int, ...]
    epsilon_grid: tuple[float, ...]
    trials: int = 1
    holdout: int = 10_000
    pool_cap: int | None = None
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "epsilon_grid",
                           tuple(check_epsilon(e) for e in self.epsilon_grid))
        if not self.n_grid or not self.epsilon_grid:
            raise ValueError("grid must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.holdout < 1000:
            raise ValueError("holdout must be >= 1000 for +-0.01 error quotes")
        resolve_pool_cap(self.pool_cap, self.generator.dim)  # refuses a negative cap

    @property
    def resolved_pool_cap(self) -> int | None:
        return resolve_pool_cap(self.pool_cap, self.generator.dim)

    def cells(self) -> list[tuple[int, float]]:
        return [(n, e) for n in self.n_grid for e in self.epsilon_grid]

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        """The config that ``as_dict`` writes, plus an optional ``out_dir``;
        keys other than the grids and the generator's dim, target_normal and
        target_offset take their defaults. A missing key raises KeyError and
        a value of the wrong kind TypeError or ValueError."""
        g = d["generator"]
        spec = GeneratorSpec(
            dim=int(g["dim"]),
            target=Halfspace(g["target_normal"], float(g["target_offset"])),
            marginal=g.get("marginal", "gaussian"),
            affine_dim=g.get("affine_dim"),
            label_noise=float(g.get("label_noise", 0.0)),
            privacy_flip=float(g.get("privacy_flip", 0.0)),
            seed=int(g.get("seed", 0)))
        return cls(
            generator=spec, n_grid=tuple(d["n_grid"]),
            epsilon_grid=tuple(d["epsilon_grid"]), trials=int(d.get("trials", 1)),
            holdout=int(d.get("holdout", 10_000)), pool_cap=d.get("pool_cap"),
            seed=int(d.get("seed", 0)), out_dir=d.get("out_dir"))

    def as_dict(self) -> dict:
        g = self.generator
        return {
            "generator": {
                "dim": g.dim,
                "target_normal": [float(v) for v in g.target.normal],
                "target_offset": float(g.target.offset),
                "marginal": g.marginal,
                "affine_dim": g.affine_dim,
                "label_noise": g.label_noise,
                "privacy_flip": g.privacy_flip,
                "seed": g.seed,
            },
            "n_grid": list(self.n_grid),
            "epsilon_grid": list(self.epsilon_grid),
            "trials": self.trials,
            "holdout": self.holdout,
            "pool_cap": self.pool_cap,
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class TrialRecord:
    n: int
    epsilon: float
    trial: int
    dim: int
    label_noise: float
    privacy_flip: float
    data_seed: int
    mech_seed: int
    pool_cap: int | None
    family_size: int
    class_size: int
    g_mistakes: int
    g_total: int
    holdout_error: float
    erm_mistakes: int
    config_hash: str
    wall_time: float | None = None

    @property
    def g_emp_err(self) -> float:
        return self.g_mistakes / self.g_total

    @property
    def erm_emp_err(self) -> float:
        return self.erm_mistakes / self.g_total


CSV_COLUMNS = ["n", "epsilon", "trial", "dim", "label_noise", "privacy_flip",
               "data_seed", "mech_seed", "pool_cap", "family_size",
               "class_size", "g_mistakes", "g_total", "g_emp_err",
               "holdout_error", "erm_mistakes", "erm_emp_err", "config_hash"]


def _record_row(r: TrialRecord) -> list[str]:
    return [str(r.n), repr(r.epsilon), str(r.trial), str(r.dim),
            repr(r.label_noise), repr(r.privacy_flip), str(r.data_seed),
            str(r.mech_seed), "" if r.pool_cap is None else str(r.pool_cap),
            str(r.family_size), str(r.class_size), str(r.g_mistakes),
            str(r.g_total), repr(r.g_emp_err), repr(r.holdout_error),
            str(r.erm_mistakes), repr(r.erm_emp_err), r.config_hash]


def _write_atomic(path, write, newline=None) -> None:
    """Write a text file through a temp file in the same directory, then
    rename it over ``path``: a failed write leaves the previous file."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_records_csv(records, path) -> None:
    def write(fh):
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in records:
            fh.write(",".join(_record_row(r)) + "\n")

    _write_atomic(path, write, newline="")


def read_records_csv(path) -> list[TrialRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0].split(",") != CSV_COLUMNS:
        raise ValueError(f"unrecognized records file {path}")
    out = []
    for k, ln in enumerate(lines[1:], start=2):
        v = ln.split(",")
        if len(v) != len(CSV_COLUMNS):
            raise ValueError(f"{path}: row {k} has {len(v)} fields, "
                             f"expected {len(CSV_COLUMNS)}")
        out.append(TrialRecord(
            n=int(v[0]), epsilon=float(v[1]), trial=int(v[2]), dim=int(v[3]),
            label_noise=float(v[4]), privacy_flip=float(v[5]),
            data_seed=int(v[6]), mech_seed=int(v[7]),
            pool_cap=None if v[8] == "" else int(v[8]),
            family_size=int(v[9]), class_size=int(v[10]),
            g_mistakes=int(v[11]), g_total=int(v[12]),
            holdout_error=float(v[14]), erm_mistakes=int(v[15]),
            config_hash=v[17]))
    return out


def write_records_json(records, config: SweepConfig, path) -> None:
    payload = {
        "config": config.as_dict(),
        "config_hash": config.config_hash(),
        "excess_error_reference": ("generator optimum: label_noise for noisy "
                                   "labels, 0 when realizable"),
        "records": [dict(zip(CSV_COLUMNS, _record_row(r))) | {"wall_time": r.wall_time}
                    for r in records],
    }
    _write_atomic(path, lambda fh: json.dump(payload, fh, indent=2))


def _trial_seeds(config_seed: int, cell_idx: int, trial: int) -> tuple[int, int]:
    ss = np.random.SeedSequence(entropy=[config_seed, cell_idx, trial])
    a, b = ss.generate_state(2, dtype=np.uint64)
    return int(a), int(b)


def run_trial(config: SweepConfig, cell_idx: int, n: int, epsilon: float,
              trial: int) -> TrialRecord:
    data_seed, mech_seed = _trial_seeds(config.seed, cell_idx, trial)
    spec = config.generator.with_seed(data_seed)
    dataset = generate(spec, n)
    start = time.perf_counter()
    result = learn_half(dataset, epsilon, pool_cap=config.resolved_pool_cap,
                        seed=mech_seed)
    wall = time.perf_counter() - start
    holdout = generate_holdout(spec, config.holdout)
    hold_err = hypothesis_error(result.hypothesis, result.family, holdout)
    _, _, s_prime = partition(dataset)
    _, erm_err = erm_halfspace(s_prime, dataset.dim)
    return TrialRecord(
        n=n, epsilon=epsilon, trial=trial, dim=dataset.dim,
        label_noise=config.generator.label_noise,
        privacy_flip=config.generator.privacy_flip,
        data_seed=data_seed, mech_seed=mech_seed,
        pool_cap=config.resolved_pool_cap,
        family_size=result.diagnostics.family_size,
        class_size=result.diagnostics.class_size,
        g_mistakes=result.diagnostics.selected_mistakes, g_total=dataset.n,
        holdout_error=hold_err.as_float(), erm_mistakes=erm_err.mistakes,
        config_hash=config.config_hash(), wall_time=wall)


def _journal_path(out_dir: str) -> str:
    return os.path.join(out_dir, "journal.jsonl")


def _load_journal(path: str, config_hash: str) -> dict[int, list[dict]]:
    done: dict[int, list[dict]] = {}
    if not os.path.exists(path):
        return done
    with open(path, "rb+") as fh:
        lines = fh.readlines()
        if lines and not lines[-1].endswith(b"\n"):
            # a crash tore the final record: drop it so appends start clean
            fh.truncate(sum(len(ln) for ln in lines[:-1]))
            lines.pop()
    for ln in lines:
        if ln.strip():
            entry = json.loads(ln)
            if "config_hash" in entry and entry["config_hash"] != config_hash:
                raise ValueError(
                    "journal belongs to a different config; remove it or "
                    "change out_dir")
            if "cell" in entry:
                done[int(entry["cell"])] = entry["records"]
    return done


def run_sweep(config: SweepConfig) -> list[TrialRecord]:
    """All trials of all cells, deterministic per config+seed.

    With an out_dir, completed cells are journaled as they finish and a
    re-run resumes after the last completed cell, then (re)writes
    records.csv and records.json.
    """
    cells = config.cells()
    chash = config.config_hash()
    journal = None
    done: dict[int, list[dict]] = {}
    if config.out_dir is not None:
        os.makedirs(config.out_dir, exist_ok=True)
        journal = _journal_path(config.out_dir)
        done = _load_journal(journal, chash)
        if not os.path.exists(journal) or os.path.getsize(journal) == 0:
            with open(journal, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"config_hash": chash}) + "\n")
    records: list[TrialRecord] = []
    for cell_idx, (n, eps) in enumerate(cells):
        if cell_idx in done:
            records.extend(TrialRecord(**d) for d in done[cell_idx])
            continue
        cell_records = []
        for trial in range(config.trials):
            try:
                cell_records.append(run_trial(config, cell_idx, n, eps, trial))
            except Exception as exc:
                raise RuntimeError(
                    f"cell (n={n}, epsilon={eps}) trial {trial} failed: {exc}"
                ) from exc
        records.extend(cell_records)
        if journal is not None:
            with open(journal, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({
                    "cell": cell_idx,
                    "records": [asdict(r) for r in cell_records],
                }) + "\n")
    if config.out_dir is not None:
        write_records_csv(records, os.path.join(config.out_dir, "records.csv"))
        write_records_json(records, config, os.path.join(config.out_dir, "records.json"))
    return records


# ---------------------------------------------------------------------------
# Summaries with bound overlay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSummary:
    n: int
    epsilon: float
    trials: int
    dim: int
    median_holdout: float
    p10_holdout: float
    p90_holdout: float
    median_emp_err: float
    median_class_size: float
    optimum: float
    excess: float
    utility_bound: float
    compression_dev: float
    excess_bound: float
    realizable_n: float
    agnostic_n: float
    exceeds_bound: bool

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class SweepSummary:
    cells: tuple[CellSummary, ...]
    beta: float
    constant: float

    @property
    def flagged(self) -> tuple[CellSummary, ...]:
        return tuple(c for c in self.cells if c.exceeds_bound)

    def as_dict(self) -> dict:
        return {"beta": self.beta, "constant": self.constant,
                "excess_error_reference": "generator optimum",
                "cells": [c.as_dict() for c in self.cells]}


def summarize(records, beta: float = 0.05, constant: float = 1.0) -> SweepSummary:
    """Per-cell percentiles plus the utility/compression bound overlay.

    Excess error is measured against the generator optimum (label_noise, or
    0 when realizable), not the unobservable class minimum; cells whose
    median excess tops constant * (utility + compression) are flagged.
    """
    groups: dict[tuple[int, float], list[TrialRecord]] = {}
    order: list[tuple[int, float]] = []
    for r in records:
        key = (r.n, r.epsilon)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r)
    cells = []
    for key in order:
        rs = groups[key]
        n, eps = key
        dim = rs[0].dim
        hold = np.array([r.holdout_error for r in rs])
        emp = np.array([r.g_emp_err for r in rs])
        cls = np.array([r.class_size for r in rs])
        optimum = rs[0].label_noise
        med_hold = float(np.median(hold))
        med_emp = float(np.median(emp))
        med_cls = float(np.median(cls))
        excess = med_hold - optimum
        util = mechanism_utility_bound(max(1, int(med_cls)), eps, n, beta)
        comp = compression_bound(dim * dim, n, beta, med_emp)
        excess_bound = constant * (util + comp)
        alpha = max(excess, 1e-3)
        cells.append(CellSummary(
            n=n, epsilon=eps, trials=len(rs), dim=dim,
            median_holdout=med_hold,
            p10_holdout=float(np.percentile(hold, 10)),
            p90_holdout=float(np.percentile(hold, 90)),
            median_emp_err=med_emp, median_class_size=med_cls,
            optimum=optimum, excess=excess,
            utility_bound=util, compression_dev=comp,
            excess_bound=excess_bound,
            realizable_n=realizable_sample_bound(dim, min(eps, 1.0), min(alpha, 1.0),
                                                 beta, constant).value,
            agnostic_n=agnostic_sample_bound(dim, min(eps, 1.0), min(alpha, 1.0),
                                             beta, constant).value,
            exceeds_bound=excess > excess_bound))
    return SweepSummary(cells=tuple(cells), beta=beta, constant=constant)


def format_summary(summary: SweepSummary) -> str:
    if not summary.cells:
        return "no records\n"
    header = (f"{'n':>6} {'eps':>6} {'trials':>6} {'med_hold':>9} {'p10':>7} "
              f"{'p90':>7} {'med_emp':>8} {'excess':>8} {'bound':>8} {'flag':>5}")
    lines = [header]
    for c in summary.cells:
        lines.append(
            f"{c.n:>6} {c.epsilon:>6.3g} {c.trials:>6} {c.median_holdout:>9.4f} "
            f"{c.p10_holdout:>7.4f} {c.p90_holdout:>7.4f} {c.median_emp_err:>8.4f} "
            f"{c.excess:>8.4f} {c.excess_bound:>8.4f} "
            f"{'YES' if c.exceeds_bound else '':>5}")
    lines.append(f"(excess vs generator optimum; bound = constant * (utility + "
                 f"compression), beta={summary.beta}, c={summary.constant})")
    return "\n".join(lines) + "\n"
