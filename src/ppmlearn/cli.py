"""Command-line front end.

Subcommands: gen, learn, erm, verify-dp, bounds, sweep, summarize.
Exit codes: 0 ok, 1 verification failure, 2 usage or input error
(including a class over the budget and a failed sweep trial).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bounds import (
    agnostic_sample_bound,
    compression_bound,
    mechanism_utility_bound,
    realizable_sample_bound,
)
from .data import GeneratorSpec, generate, read_csv, write_csv
from .erm import erm_halfspace
from .geometry import Halfspace
from .learner import DEFAULT_HYPOTHESIS_BUDGET, learn_half, resolve_pool_cap
from .model import ErrorCount, curator_only_fields, partition
from .privacy import verify_dp
from .experiments import (
    SweepConfig,
    format_summary,
    read_records_csv,
    run_sweep,
    summarize,
)


class UsageError(ValueError):
    pass


def _parse_target(text: str, dim: int) -> Halfspace:
    """Target spec 'w1,...,wd:w0'."""
    try:
        w_part, w0_part = text.split(":")
        w = [float(v) for v in w_part.split(",")]
        w0 = float(w0_part)
    except ValueError:
        raise UsageError(f"bad target spec {text!r}; expected w1,...,wd:w0") from None
    if len(w) != dim:
        raise UsageError(f"target has {len(w)} coordinates, expected {dim}")
    return Halfspace(w, w0)


def _random_target(dim: int, seed: int) -> Halfspace:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(99,)))
    w = rng.standard_normal(dim)
    return Halfspace(w, 0.0)


def _generator_from_args(args) -> GeneratorSpec:
    target = (_parse_target(args.target, args.dim) if args.target
              else _random_target(args.dim, args.seed))
    return GeneratorSpec(dim=args.dim, target=target, marginal=args.marginal,
                         affine_dim=args.affine_dim, label_noise=args.eta,
                         privacy_flip=args.rho, seed=args.seed)


# JSON key of each reported diagnostic -> (LearnDiagnostics field, conversion)
_DIAGNOSTIC_KEYS = {
    "aff_dim": ("aff_dim", int),
    "family_size": ("family_size", int),
    "class_size": ("class_size", int),
    "n": ("n", int),
    "epsilon": ("epsilon", float),
    "notes": ("notes", list),
    "empirical_mistakes": ("selected_mistakes", int),
    "empirical_error": ("error", ErrorCount.as_float),
    "min_mistakes_in_class": ("min_mistakes", int),
}


def _hypothesis_json(result, curator_stats: bool = False) -> dict:
    """The selected hypothesis and release-safe facts about its class.
    ``curator_stats`` adds the diagnostics labelled curator-only, such as
    the mistake counts, which come from the private data without noise and
    so are not covered by the epsilon-DP guarantee."""
    g, family, diag = result
    members = None if g.is_empty_region else list(g.members)
    halfspaces = [{"normal": [float(v) for v in family.W[i]],
                   "offset": float(family.w0[i]),
                   "source": [int(j) for j in family.sources[i] if j >= 0] or None}
                  for i in members or ()]
    payload = {
        "empty_region": g.is_empty_region,
        "members": members,
        "member_halfspaces": halfspaces,
    }
    hidden = set() if curator_stats else curator_only_fields(type(diag))
    payload.update((key, convert(getattr(diag, name)))
                   for key, (name, convert) in _DIAGNOSTIC_KEYS.items()
                   if name not in hidden)
    return payload


def cmd_gen(args) -> int:
    spec = _generator_from_args(args)
    dataset = generate(spec, args.n)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, args.name)
    write_csv(dataset, path)
    print(f"wrote {dataset.n} examples ({dataset.n_priv} private, "
          f"{dataset.n_pub} public) to {path}")
    return 0


def cmd_learn(args) -> int:
    dataset = read_csv(args.data)
    result = learn_half(dataset, args.epsilon,
                        pool_cap=resolve_pool_cap(args.pool_cap, dataset.dim),
                        seed=args.seed, budget=args.budget)
    payload = _hypothesis_json(result, args.curator_stats)
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "learn.json"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def cmd_erm(args) -> int:
    dataset = read_csv(args.data)
    _, _, s_prime = partition(dataset)
    h, err = erm_halfspace(s_prime, dataset.dim)
    print(json.dumps({"normal": [float(v) for v in h.normal],
                      "offset": h.offset,
                      "mistakes": err.mistakes, "n": err.total,
                      "empirical_error": err.as_float()}, indent=2))
    return 0


def cmd_verify_dp(args) -> int:
    dataset = read_csv(args.data)
    report = verify_dp(dataset, args.epsilon,
                       pool_cap=resolve_pool_cap(args.pool_cap, dataset.dim),
                       trials=args.trials, seed=args.seed)
    for t in report.trials:
        verdict = "ok" if t.max_log_ratio <= t.epsilon + report.slack else "VIOLATION"
        print(f"entry {t.index}: eps={t.epsilon:g} max log-ratio "
              f"{t.max_log_ratio:.6g} [{verdict}]")
    print(f"class size {report.class_size}, overall max log-ratio "
          f"{report.max_log_ratio:.6g}")
    if report.passed:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def cmd_bounds(args) -> int:
    reports = [realizable_sample_bound(args.d, args.epsilon, args.alpha,
                                       args.beta, args.constant).as_dict(),
               agnostic_sample_bound(args.d, args.epsilon, args.alpha,
                                     args.beta, args.constant).as_dict()]
    if args.n is not None:
        k = args.k if args.k is not None else args.d * args.d
        reports.append({"name": "compression_deviation",
                        "inputs": {"k": k, "n": args.n, "beta": args.beta,
                                   "emp_err": args.emp_err},
                        "value": compression_bound(k, args.n, args.beta,
                                                   args.emp_err),
                        "constant": 1.0, "flags": []})
    if args.class_size is not None and args.n is not None:
        reports.append({"name": "mechanism_utility_bound",
                        "inputs": {"class_size": args.class_size,
                                   "epsilon": args.epsilon, "n": args.n,
                                   "beta": args.beta},
                        "value": mechanism_utility_bound(
                            args.class_size, args.epsilon, args.n, args.beta),
                        "constant": 2.0, "flags": []})
    width = max(len(r["name"]) for r in reports)
    for r in reports:
        flag = f"  ({', '.join(r['flags'])})" if r["flags"] else ""
        print(f"{r['name']:<{width}}  {r['value']:.6g}{flag}")
    print(json.dumps(reports, indent=2))
    print("note: leading constants are unspecified upstream; reported c is "
          "the evaluation constant")
    return 0


def cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise UsageError("sweep config must be a JSON object")
    flags = {"out_dir": args.out, "pool_cap": args.pool_cap}
    try:
        config = SweepConfig.from_dict(raw | {k: v for k, v in flags.items() if v is not None})
    except KeyError as exc:
        raise UsageError(f"sweep config lacks key {exc}") from None
    except TypeError as exc:
        raise UsageError(f"malformed sweep config: {exc}") from None
    if config.out_dir is None:
        raise UsageError("sweep needs --out or out_dir in the config")
    records = run_sweep(config)
    print(f"{len(records)} records -> {config.out_dir}/records.csv")
    return 0


def cmd_summarize(args) -> int:
    path = args.records
    if path is None and args.out:
        path = os.path.join(args.out, "records.csv")
    if path is None:
        raise UsageError("summarize needs --records or --out")
    records = read_records_csv(path)
    summary = summarize(records, beta=args.beta, constant=args.constant)
    sys.stdout.write(format_summary(summary))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary.as_dict(), fh, indent=2)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the flags its command reads
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=None, help="output directory")
    pool_cap = argparse.ArgumentParser(add_help=False)
    pool_cap.add_argument("--pool-cap", dest="pool_cap", type=int, default=None,
                          help="construction pool cap; 0 forces uncapped, absent "
                               "uses the per-dimension default")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=DEFAULT_HYPOTHESIS_BUDGET,
                        help="hypothesis-count guard")

    parser = argparse.ArgumentParser(
        prog="ppmlearn",
        description="Private learning of halfspaces from mixed "
                    "private/public samples")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[seed, out], help="generate a synthetic dataset CSV")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--marginal", choices=("gaussian", "cube", "affine"),
                   default="gaussian")
    p.add_argument("--affine-dim", dest="affine_dim", type=int, default=None)
    p.add_argument("--eta", type=float, default=0.0, help="label flip rate")
    p.add_argument("--rho", type=float, default=0.0, help="privacy bit flip rate")
    p.add_argument("--target", type=str, default=None, help="w1,...,wd:w0")
    p.add_argument("--name", type=str, default="dataset.csv")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("learn", parents=[seed, out, pool_cap, budget],
                       help="run the private learner")
    p.add_argument("--data", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--curator-stats", dest="curator_stats", action="store_true",
                   help="also print the mistake counts, which are computed "
                        "from private data without noise")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("erm", help="exact ERM halfspace")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_erm)

    p = sub.add_parser("verify-dp", parents=[seed, pool_cap],
                       help="exact neighbor audit of the learner")
    p.add_argument("--data", required=True)
    p.add_argument("--epsilon", type=float, nargs="+", default=[1.0])
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_verify_dp)

    p = sub.add_parser("bounds", help="evaluate the closed-form bounds")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.05)
    p.add_argument("--constant", type=float, default=1.0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--emp-err", dest="emp_err", type=float, default=0.0)
    p.add_argument("--class-size", dest="class_size", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", parents=[out, pool_cap], help="run a seeded experiment sweep")
    p.add_argument("--config", required=True, help="JSON config mirroring SweepConfig")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("summarize", parents=[out],
                       help="per-cell summary of sweep records")
    p.add_argument("--records", type=str, default=None, help="records.csv path")
    p.add_argument("--beta", type=float, default=0.05)
    p.add_argument("--constant", type=float, default=1.0)
    p.set_defaults(func=cmd_summarize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        # usage and input errors (UsageError, CsvFormatError and
        # JSONDecodeError are ValueErrors), budget refusals
        # (BudgetExceededError) and failed sweep trials
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
