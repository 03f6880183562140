"""Regenerate the frozen desk-scale inputs from fmpsat's own generators.

The desk-scale workload replays the nine two-step queries of the
repository's criterion-9 acceptance test. Its classifiers and
instances are committed as text under ``perfbench/data/desk`` so that a
later change to ``generate_random_obdd`` or ``obdd_to_shannon_sdd``
cannot change the workload. Run from the repository root:

    python3 perfbench/freeze_desk.py

It rewrites the files in place; a diff against the committed copies
shows whether the generators still produce the same inputs.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "data" / "desk"

# (name, kind, m, node budget): criterion 9's cases, classifier seed 50_000 + m
CASES = [
    ("obdd-m100", "obdd", 100, 1900),
    ("obdd-m60", "obdd", 60, 1000),
    ("sdd-m100", "shannon-sdd", 100, 900),
]
INSTANCE_RNG_SEED = 99
QUERIES_PER_CASE = 3


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import fmpsat as F
    from fmpsat.explain import serialize_instance

    OUT.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(INSTANCE_RNG_SEED)
    lines = ["c name classifier target instance-file"]
    for name, kind, m, budget in CASES:
        obdd = F.generate_random_obdd(m, budget, seed=50_000 + m)
        (OUT / f"{name}.obdd").write_text(F.serialize_obdd(obdd))
        if kind == "obdd":
            clf = F.ObddClassifier(obdd)
        else:
            sdd = F.obdd_to_shannon_sdd(obdd)
            (OUT / f"{name}.vtree").write_text(F.serialize_vtree(sdd.vtree))
            (OUT / f"{name}.sdd").write_text(F.serialize_sdd(sdd))
            clf = F.SddClassifier(sdd)
        for q in range(QUERIES_PER_CASE):
            inst = F.random_instance(clf, rng)
            target = int(rng.integers(1, m + 1))
            inst_name = f"{name}-q{q}.inst"
            (OUT / inst_name).write_text(serialize_instance(inst))
            lines.append(f"{name}-q{q} {name} {target} {inst_name}")
    (OUT / "queries.txt").write_text("\n".join(lines) + "\n")
    print(f"wrote desk-scale inputs to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
