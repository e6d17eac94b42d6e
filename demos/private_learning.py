"""End-to-end private learning run.

Generates a label-determined sample (1-labeled points are private,
0-labeled public), builds the halfspace family from the public points,
selects an intersection hypothesis with the exponential mechanism, and
compares it against the exact ERM halfspace and the best hypothesis in the
class. Also round-trips the dataset through the CSV format.
"""

import os
import tempfile


from ppmlearn import (
    GeneratorSpec,
    Halfspace,
    best_in_class,
    erm_halfspace,
    generate,
    generate_holdout,
    hypothesis_error,
    learn_half,
    partition,
    read_csv,
    write_csv,
)

spec = GeneratorSpec(dim=2, target=Halfspace([1.0, -0.5], 0.2), seed=11)
dataset = generate(spec, 400)
print(f"sample: n={dataset.n}, private={dataset.n_priv}, public={dataset.n_pub}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "sample.csv")
    write_csv(dataset, path)
    dataset = read_csv(path)
    print(f"csv round trip ok: n={dataset.n}, d={dataset.dim}")

result = learn_half(dataset, epsilon=1.0, pool_cap=40, seed=5)
diag = result.diagnostics
print(f"family |C|={diag.family_size}, class |G|={diag.class_size}, "
      f"aff dim={diag.aff_dim}")
print(f"selected hypothesis: members={result.hypothesis.members}, "
      f"empirical error {diag.error.mistakes}/{diag.n}")

s_prime = partition(dataset)[2]
h_erm, erm_err = erm_halfspace(s_prime, dataset.dim)
print(f"ERM halfspace error: {erm_err.mistakes}/{erm_err.total}")

holdout = generate_holdout(spec, 20_000)
hold = hypothesis_error(result.hypothesis, result.family, holdout)
print(f"holdout error of the private hypothesis: {hold.as_float():.4f}")

# The class provably contains a hypothesis at least as good as the ERM
# halfspace -- but only for the uncapped construction (the pool cap above
# trades that guarantee for a manageable class size). Check it on a
# smaller sample where the full pool is affordable.
print()
print("== best-in-class dominance (uncapped pool, smaller sample) ==")
small = generate(GeneratorSpec(dim=2, target=spec.target, seed=12), 60)
res_small = learn_half(small, epsilon=1.0, seed=5)
s_small = partition(small)[2]
_, erm_small = erm_halfspace(s_small, small.dim)
_, best_small = best_in_class(res_small.family, s_small, small.dim)
print(f"n={small.n}: |G|={res_small.diagnostics.class_size}, "
      f"best in class {best_small.mistakes} <= ERM {erm_small.mistakes}: "
      f"{best_small.mistakes <= erm_small.mistakes}")
