"""Seeded, closed-loop benchmark of the public ppmlearn API.

Run from the repository root:

    python3 bench/run.py --workload learn_d1 --seed 1 --seconds 20 --trace 0

One client drives one process in a closed loop: the next operation starts
only after the previous one has finished. Every input is generated from
``--seed``; the library only ever sees the generated arrays. BLAS runs on
one thread so that timings on a small shared machine stay steady.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` is a separate
run that alternates untraced and traced cycles of operations. In traced
cycles the public functions are wrapped as their calling module sees them
(for example ``ppmlearn.privacy.all_mistake_counts``); every call records a
span (name, start, end, parent) in memory, and the per-layer metrics are
derived from those spans. The spans are written out when the run ends. The
traced run also reports its own overhead, and after the timed loop makes
one standalone scoring call and one operation under ``tracemalloc``.

Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report, and
the full record (environment, sizes, samples, spans) goes to
``.bench_out/``.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

START = time.perf_counter()

# Pinned before numpy loads OpenBLAS; the value is recorded with every run.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
EPSILON = 1.0
TAIL_BEYOND = 10

# Public names wrapped in traced cycles, as each calling module sees them.
# Names starting with "_" are never wrapped; a name a later version no
# longer has is skipped and its metrics read 0.
TRACED = {
    "learner": ("learn_half", "all_mistake_counts", "partition",
                "construct_halfspace_family", "supporting_halfspace_pair",
                "dedup_halfspaces", "affine_span"),
    "privacy": ("verify_dp", "partition", "construct_halfspace_family",
                "all_mistake_counts", "mechanism_distribution"),
    "experiments": ("run_sweep", "run_trial", "generate", "generate_holdout",
                    "partition", "learn_half", "erm_halfspace",
                    "hypothesis_error", "write_records_csv",
                    "write_records_json"),
}
# Calls whose tracemalloc peak is reported, keyed by the defining function.
PEAK_ALLOC = {
    ("learner", "learn_half"): "learner.learn_half",
    ("experiments", "learn_half"): "learner.learn_half",
    ("experiments", "erm_halfspace"): "learner.erm_halfspace",
    ("privacy", "verify_dp"): "privacy.verify_dp",
}


IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, ppmlearn; "
                "print(time.perf_counter() - t)")


def fresh_import_seconds(count):
    """Import time of numpy and ppmlearn in ``count`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                                 env=env, capture_output=True, text=True,
                                 check=True, timeout=120).stdout)
            for _ in range(count)]


def load_library():
    """Import numpy and ppmlearn from this checkout's ``src``; exit non-zero when
    the checkout has no library to measure."""
    src = ROOT / "src"
    if not (src / "ppmlearn" / "__init__.py").is_file():
        sys.exit(f"error: no ppmlearn sources under {src}")
    sys.path.insert(0, str(src))
    global np, ppm, learner, privacy, experiments
    import numpy as np
    import ppmlearn as ppm
    from ppmlearn import experiments, learner, privacy
    if Path(ppm.__file__).resolve().parent != (src / "ppmlearn").resolve():
        sys.exit(f"error: imported ppmlearn from {ppm.__file__}, not {src}")


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set module attributes: (module, name, new value)."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in replacements]
    for mod, name, new in replacements:
        setattr(mod, name, new)
    try:
        yield
    finally:
        for mod, name, old in reversed(saved):
            setattr(mod, name, old)


def wrap_targets():
    """(module, name, function, span name, defining name) for every traced
    public name present in this version of the library."""
    mods = {"learner": learner, "privacy": privacy, "experiments": experiments}
    out = []
    for mod_name, names in TRACED.items():
        for name in names:
            assert not name.startswith("_")
            fn = getattr(mods[mod_name], name, None)
            if fn is None:
                continue
            defining = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
            out.append((mods[mod_name], name, fn, f"{mod_name}.{name}", defining))
    return out


class Tracer:
    """In-memory spans [name, defining name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, defining, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, defining, time.perf_counter(), None,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
        return traced

    def replacements(self, targets):
        return [(mod, name, self.wrap(span, defining, fn))
                for mod, name, fn, span, defining in targets]

    def stats(self, first=0):
        """Per-key totals of inclusive time, self time and calls over spans
        from index ``first`` on. A span counts under its caller's view
        (``privacy.all_mistake_counts``) and under its defining function
        (``learner.all_mistake_counts``); self time is the span minus the
        time its direct child spans cover."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, defining, t0, t1, parent in spans:
            if parent >= first:
                child[parent - first] += t1 - t0
        out = {}
        for (name, defining, t0, t1, _), c in zip(spans, child):
            for key in {name, defining}:
                s = out.setdefault(key, {"s": 0.0, "self_s": 0.0, "calls": 0})
                s["s"] += t1 - t0
                s["self_s"] += t1 - t0 - c
                s["calls"] += 1
        return out


def peak_alloc_replacements(peaks):
    """Wrappers that record each call's tracemalloc peak above its start."""
    mods = {"learner": learner, "privacy": privacy, "experiments": experiments}

    def measured(key, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                peaks[key] = max(peaks.get(key, 0), peak)
        return call

    return [(mods[m], name, measured(key, getattr(mods[m], name)))
            for (m, name), key in PEAK_ALLOC.items()
            if hasattr(mods[m], name)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def seed_stream(seed, stream):
    """Deterministic per-operation seeds from the workload seed."""
    rng = np.random.default_rng([seed, stream])
    while True:
        yield int(rng.integers(0, 2 ** 63))


def target(dim):
    """Labelling halfspace, fixed per dimension rather than drawn from the
    seed. Privacy bits follow the labels, so its position sets the public
    share, and with it the family size and the shapes of the membership
    matrices. It puts about 45% of the points on the public side: at an
    even split, peak memory jumps by 13% between seeds depending on which
    label is the majority."""
    return ppm.Halfspace([1.0, 0.5][:dim], -0.15)


class LearnWorkload:
    """One ``learn_half`` call per operation on a dataset fixed by the seed;
    mechanism seeds for successive operations come from the seed too."""

    cycle = 1

    def __init__(self, dim, n, label_noise, pool_cap):
        self.dim, self.n, self.label_noise, self.pool_cap = dim, n, label_noise, pool_cap

    def sizes(self):
        return {"op": "learn_half", "dim": self.dim, "n": self.n,
                "label_noise": self.label_noise, "pool_cap": self.pool_cap,
                "epsilon": EPSILON}

    def setup(self, seed):
        rng = np.random.default_rng([seed, 0])
        spec = ppm.GeneratorSpec(dim=self.dim, target=target(self.dim),
                                 label_noise=self.label_noise,
                                 seed=int(rng.integers(0, 2 ** 48)))
        self.dataset = ppm.generate(spec, self.n)
        self.s_prime = ppm.partition(self.dataset)[2]
        self.mech_seeds = seed_stream(seed, 1)
        warm = self.op(-1)
        return self.check(warm)

    def op(self, i):
        return learner.learn_half(self.dataset, EPSILON, pool_cap=self.pool_cap,
                                  seed=next(self.mech_seeds))

    def check(self, result):
        d = result.diagnostics
        hist = d.mistake_histogram
        nonzero = np.flatnonzero(hist)
        recount = ppm.hypothesis_error(result.hypothesis, result.family, self.s_prime)
        return (int(hist.sum()) == d.class_size
                and nonzero.size > 0 and int(nonzero[0]) == d.min_mistakes
                and recount.mistakes == d.selected_mistakes)

    def counts(self, result):
        d = result.diagnostics
        return {"learner.family.size": d.family_size,
                "learner.class.size": d.class_size,
                "learner.membership.bytes": d.family_size * d.n}

    def probe(self, result):
        """Standalone scoring of the whole class on the same sample."""
        return learner.all_mistake_counts(result.family, self.s_prime, self.dim)


class AuditWorkload:
    """One ``verify_dp`` call per operation, cycling through a batch of
    small datasets whose shapes are fixed and whose points come from the
    seed. Each dataset has exactly n/2 public entries, so the class sizes
    (and the work) do not drift with the seed."""

    def __init__(self, shapes, trials):
        self.shapes, self.trials = shapes, trials
        self.cycle = len(shapes)

    def sizes(self):
        return {"op": "verify_dp", "datasets": [list(s) for s in self.shapes],
                "dataset_shape": "(dim, n, n_pub)", "trials": self.trials,
                "epsilons": [0.1, 1.0]}

    @staticmethod
    def dataset(seed, dim, n, n_pub):
        rng = np.random.default_rng([seed, dim, n])
        spec = ppm.GeneratorSpec(dim=dim, target=target(dim),
                                 seed=int(rng.integers(0, 2 ** 48)))
        pool = ppm.generate(spec, 16 * n)
        pub = np.flatnonzero(~pool.p)[:n_pub]
        priv = np.flatnonzero(pool.p)[:n - n_pub]
        if pub.size != n_pub or priv.size != n - n_pub:
            raise RuntimeError(f"seed {seed} gave too few entries for {dim, n, n_pub}")
        keep = np.sort(np.concatenate([pub, priv]))
        return ppm.PPMDataset(dim=dim, X=pool.X[keep], y=pool.y[keep], p=pool.p[keep])

    def setup(self, seed):
        self.batch = [self.dataset(seed, *shape) for shape in self.shapes]
        self.audit_seeds = seed_stream(seed, 1)
        return self.check(self.op(0))

    def op(self, i):
        return privacy.verify_dp(self.batch[i % self.cycle], [0.1, 1.0],
                                 trials=self.trials, seed=next(self.audit_seeds))

    def check(self, report):
        return report.passed and all(t.max_log_ratio <= t.epsilon + report.slack
                                     for t in report.trials)

    def counts(self, report):
        return {"learner.family.size": report.family_size,
                "learner.class.size": report.class_size,
                "learner.membership.bytes": report.family_size * report.n}

    def probe(self, report):
        return None


class SweepWorkload:
    """One single-cell, single-trial ``run_sweep`` per operation into a
    fresh temporary directory; config seeds come from the workload seed."""

    cycle = 1

    def __init__(self, n, pool_cap, holdout):
        self.n, self.pool_cap, self.holdout = n, pool_cap, holdout

    def sizes(self):
        return {"op": "run_sweep", "dim": 2, "n": self.n, "pool_cap": self.pool_cap,
                "holdout": self.holdout, "epsilon": EPSILON, "trials": 1,
                "erm_candidates": self.erm_candidates()}

    def erm_candidates(self):
        """Computed ERM candidate count at d=2: 2 + 4 (n + C(n, 2))."""
        return 2 + 4 * (self.n + math.comb(self.n, 2))

    def config(self, seed, out_dir):
        return experiments.SweepConfig(
            generator=self.generator, n_grid=(self.n,), epsilon_grid=(EPSILON,),
            trials=1, holdout=self.holdout, pool_cap=self.pool_cap, seed=seed,
            out_dir=out_dir)

    def setup(self, seed):
        rng = np.random.default_rng([seed, 0])
        self.generator = ppm.GeneratorSpec(dim=2, target=target(2),
                                           label_noise=0.05)
        self.config_seeds = seed_stream(seed, 1)
        # Every set-up repetition reruns the same config; its records.csv
        # must come out byte-identical each time.
        warm = self.run(int(rng.integers(0, 2 ** 63)))
        self.warm_csv = getattr(self, "warm_csv", warm[2])
        return warm[2] == self.warm_csv and self.check(warm)

    def run(self, seed):
        """(records, captured ERM calls, records.csv bytes) of one sweep.
        The ERM call is captured on its way out so that its halfspace can
        be rechecked without running ERM again."""
        erm_calls = []
        real = experiments.erm_halfspace

        def capture(sample, dim):
            result = real(sample, dim)
            erm_calls.append((sample, result))
            return result

        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="sweep-", dir=OUT) as out_dir, \
                patched([(experiments, "erm_halfspace", capture)]):
            records = experiments.run_sweep(self.config(seed, out_dir))
            csv = Path(out_dir, "records.csv").read_bytes()
        return records, erm_calls, csv

    def op(self, i):
        return self.run(next(self.config_seeds))

    def check(self, output):
        records, erm_calls, _ = output
        if len(records) != 1 or len(erm_calls) != 1:
            return False
        sample, (h, err) = erm_calls[0]
        recount = int(np.count_nonzero(h.contains_many(sample.X) != sample.y.astype(bool)))
        return records[0].erm_mistakes == err.mistakes == recount

    def counts(self, output):
        r = output[0][0]
        return {"learner.family.size": r.family_size,
                "learner.class.size": r.class_size,
                "learner.membership.bytes": r.family_size * r.n,
                "learner.erm.candidates": self.erm_candidates()}

    def probe(self, output):
        return None


def make_workload(name, tiny):
    if name == "learn_d1":
        return LearnWorkload(1, 300 if tiny else 8000, 0.1, None)
    if name == "learn_d2":
        return LearnWorkload(2, 300 if tiny else 8000, 0.05, 8 if tiny else 40)
    if name == "audit_small":
        ns = (8, 12) if tiny else (8, 12, 16, 20, 24)
        return AuditWorkload([(d, n, n // 2) for d in (1, 2) for n in ns],
                             trials=5 if tiny else 50)
    if name == "sweep_d2":
        return SweepWorkload(60 if tiny else 600, 8 if tiny else 40,
                             1000 if tiny else 10_000)
    raise SystemExit(f"error: unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def tail(samples):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it,
    that percentile, and how many samples lie beyond it.

    A run with fewer than 2 * TAIL_BEYOND + 2 samples has no such
    percentile above the median, and then the median is reported. A low
    order statistic in its place, such as the fastest operation, is no
    tail, and it spreads about twice as much from run to run as the
    median on this benchmark's slowest workloads."""
    s = sorted(samples)
    i = len(s) - 1 - TAIL_BEYOND
    if i <= (len(s) - 1) / 2:
        return statistics.median(s), 50.0, len(s) // 2
    return s[i], 100.0 * i / (len(s) - 1), TAIL_BEYOND


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "blas": blas_version,
            "python": platform.python_version(), "numpy": np.__version__,
            "ppmlearn": ppm.__version__}


def measure(workload, seconds, trace):
    """Closed loop of whole cycles for ``seconds``. In a traced run, cycles
    alternate untraced and traced. Returns per-op times of each kind,
    attempt/failure counts, per-op counts and the tracer."""
    tracer = Tracer() if trace else None
    targets = wrap_targets() if trace else []
    times = {False: [], True: []}
    attempted = failed = 0
    counts = {}
    traced_ops = 0
    last_ok = None
    start = time.perf_counter()
    cycle = 0
    while time.perf_counter() - start < seconds or (trace and cycle < 2):
        traced = trace and cycle % 2 == 1
        with patched(tracer.replacements(targets) if traced else []):
            for _ in range(workload.cycle):
                i = attempted
                attempted += 1
                t0 = time.perf_counter()
                try:
                    out = workload.op(i)
                    op_s = time.perf_counter() - t0
                    ok = workload.check(out)
                except Exception as exc:  # a failed operation is counted, not raised
                    print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                    failed += 1
                    continue
                times[traced].append(op_s)
                if not ok:
                    print(f"op {i} failed its output check", file=sys.stderr)
                    failed += 1
                    continue
                last_ok = out
                if traced:
                    traced_ops += 1
                    for k, v in workload.counts(out).items():
                        counts[k] = counts.get(k, 0) + v
        cycle += 1
    elapsed = time.perf_counter() - start
    return {"times": times, "attempted": attempted, "failed": failed,
            "elapsed": elapsed, "counts": counts, "traced_ops": traced_ops,
            "tracer": tracer, "targets": targets, "last_ok": last_ok}


def per_op(total, ops):
    v = total / ops
    return int(v) if isinstance(total, int) and total % ops == 0 else v


def layer_metrics(workload, run):
    """Per-layer metrics: span totals and counts per traced operation, the
    standalone scoring probe, tracemalloc peaks and the tracing overhead;
    and whether the probes ran and the operation run under tracemalloc
    passed its check."""
    ops = max(run["traced_ops"], 1)
    tracer, targets = run["tracer"], run["targets"]
    stats = tracer.stats()
    probe_first = len(tracer.spans)
    peaks = {}
    try:
        if run["last_ok"] is not None:
            with patched(tracer.replacements(targets)):
                workload.probe(run["last_ok"])
        tracemalloc.start()
        with patched(peak_alloc_replacements(peaks)):
            probes_ok = workload.check(workload.op(-1))
    except Exception as exc:  # a failed probe is counted, not raised
        print(f"probe raised {type(exc).__name__}: {exc}", file=sys.stderr)
        probes_ok = False
    finally:
        tracemalloc.stop()
    probe = tracer.stats(probe_first)

    m = {}
    for key, st in stats.items():
        for stat in ("s", "self_s", "calls"):
            m[f"{key}.{stat}"] = per_op(st[stat], ops)
    amc = probe.get("learner.all_mistake_counts")
    if amc is not None and "learner.all_mistake_counts.s" not in m:
        m["learner.all_mistake_counts.s"] = amc["s"] / amc["calls"]
        m["learner.all_mistake_counts.calls"] = 1
    for key, total in run["counts"].items():
        m[key] = per_op(total, ops)
    pair_calls = m.get("geometry.supporting_halfspace_pair.calls", 0)
    m["learner.family.kept_ratio"] = (
        m.get("learner.family.size", 0) / (2 * pair_calls) if pair_calls else 0.0)
    amc_s = m.get("learner.all_mistake_counts.s", 0.0)
    m["learner.hyp_per_s"] = (
        m.get("learner.class.size", 0) * m.get("learner.all_mistake_counts.calls", 0) / amc_s
        if amc_s else 0.0)
    for key, peak in peaks.items():
        m[f"{key}.peak_alloc_mb"] = peak / 2 ** 20
    if run["times"][True]:
        m["trace.overhead_ratio"] = (statistics.median(run["times"][True])
                                     / statistics.median(run["times"][False]))
    return m, probes_ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_library()
    import_times = [time.perf_counter() - START] + fresh_import_seconds(SETUP_REPS - 1)
    workload = make_workload(args.workload, args.tiny)
    trace = bool(args.trace)

    setup_times, setup_ok = [], True
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        setup_ok &= workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    run = measure(workload, args.seconds, trace)
    untraced = run["times"][False]
    if not untraced:
        sys.exit("error: no operation succeeded")
    t_val, t_pct, t_beyond = tail(untraced)
    e2e = {
        "op_s_p50": statistics.median(untraced),
        "op_s_tail": t_val,
        "ops_per_s": len(untraced) / run["elapsed"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_rate": run["failed"] / run["attempted"],
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
    }
    layers, layers_ok = layer_metrics(workload, run) if trace else ({}, True)

    wanted = spec["per_layer" if trace else "end_to_end"]
    values = layers if trace else e2e
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    result = {"correct": setup_ok and layers_ok and run["failed"] == 0,
              "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics}

    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"sizes {json.dumps(workload.sizes())}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"closed loop, 1 client: {run['attempted']} ops attempted, "
          f"{run['failed']} failed (fail_rate {e2e['fail_rate']:.4g}) in "
          f"{run['elapsed']:.2f} s; untraced samples {len(untraced)}, traced "
          f"samples {len(run['times'][True])}")
    print(f"op_s_tail is p{t_pct:.1f} of {len(untraced)} untraced samples, "
          f"{t_beyond} beyond it; setup_s is the median of imports "
          f"{[round(t, 3) for t in import_times]} + the median of set-ups "
          f"{[round(t, 3) for t in setup_times]}")
    for name, entry in metrics.items():
        print(f"  {name:48s} {entry['value']:>14.6g} {entry['unit']}")

    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args), "sizes": workload.sizes(), "environment": env,
              "samples": {"untraced": untraced, "traced": run["times"][True]},
              "setup_times": setup_times, "import_times": import_times,
              "end_to_end": e2e, "op_s_tail_percentile": t_pct,
              "op_s_tail_beyond": t_beyond, "per_layer": layers, "result": result}
    if trace:
        record["spans"] = run["tracer"].spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
