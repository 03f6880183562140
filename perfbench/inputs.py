"""Seeded inputs for the benchmark, made without fmpsat's generators.

Classifiers are random OBDDs with a fixed width per level, so the node
count depends only on the feature count and the width, never on the
seed. They are written as text in fmpsat's formats (``obdd``, and
``sdd`` plus ``vtree`` for the Shannon SDD of the same function), and
fmpsat reads that text like any user file. The desk-scale inputs are
the exception: they are committed under ``data/desk`` and remade by
``freeze_desk.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import SourceObdd, read_obdd

DESK_DIR = Path(__file__).resolve().parent / "data" / "desk"

# share of edges that skip past the next level
FAR_EDGE_SHARE = 0.15


def random_obdd_text(m: int, width: int, rng: np.random.Generator) -> str:
    """An ordered BDD over a shuffled order; level L holds min(2^L, width)
    nodes, every node is reachable and both classes occur."""
    order = [int(v) for v in rng.permutation(m) + 1]
    lines = ["T 0 0", "T 1 1"]
    next_id = 2
    levels: list[list[int]] = [[] for _ in range(m)]
    deeper: list[int] = []          # terminals and levels below L + 1
    children = [0, 1]
    for level in range(m - 1, -1, -1):
        count = min(2**level, width)
        # every child of the next level gets a parent, so nothing is pruned
        slots = list(children)
        while len(slots) < 2 * count:
            pool = deeper if deeper and rng.random() < FAR_EDGE_SHARE else children
            slots.append(pool[int(rng.integers(len(pool)))])
        rng.shuffle(slots)
        for k in range(count):
            lo, hi = slots[2 * k], slots[2 * k + 1]
            while hi == lo:         # lo appears twice, so coverage survives
                hi = children[int(rng.integers(len(children)))]
            lines.append(f"N {next_id} {order[level]} {lo} {hi}")
            levels[level].append(next_id)
            next_id += 1
        if level < m - 1:
            deeper.extend(children)
        else:
            deeper = [0, 1]
        children = levels[level]
    return f"obdd {m} {next_id}\n" + "\n".join(lines) + "\n"


def shannon_sdd_text(obdd: SourceObdd) -> tuple[str, str]:
    """(sdd text, vtree text) for the same function over a right-linear
    vtree that follows the OBDD's variable order."""
    m = obdd.num_features
    order = _variable_order(obdd)
    position = {v: p for p, v in enumerate(order)}
    vlines = [f"L {p} {v}" for p, v in enumerate(order)]
    internal_over: dict[int, int] = {}
    right = m - 1
    for p in range(m - 2, -1, -1):
        nid = m + (m - 2 - p)
        vlines.append(f"I {nid} {p} {right}")
        internal_over[p] = right = nid
    vtree = f"vtree {len(vlines)}\n" + "\n".join(vlines) + "\n"

    slines = ["F 0", "T 1"]
    literal: dict[tuple[int, bool], int] = {}

    def lit(var: int, positive: bool) -> int:
        if (var, positive) not in literal:
            literal[(var, positive)] = len(slines)
            slines.append(f"L {len(slines)} {position[var]} {var if positive else -var}")
        return literal[(var, positive)]

    converted: dict[int, int] = {}
    for j in range(len(obdd.var)):  # children are declared before parents
        v = obdd.var[j]
        if not v:
            converted[j] = 1 if obdd.lo[j] else 0
            continue
        lo, hi = converted[obdd.lo[j]], converted[obdd.hi[j]]
        if position[v] == m - 1:
            if {lo, hi} != {0, 1}:
                raise ValueError("last-level node must separate the two terminals")
            converted[j] = lit(v, hi == 1)
            continue
        pos, neg = lit(v, True), lit(v, False)
        converted[j] = len(slines)
        slines.append(f"D {len(slines)} {internal_over[position[v]]} 2 {pos} {hi} {neg} {lo}")
    root = converted[obdd.root]
    if root != len(slines) - 1:
        raise ValueError("the root must be the last declared SDD node")
    return f"sdd {len(slines)}\n" + "\n".join(slines) + "\n", vtree


def _variable_order(obdd: SourceObdd) -> list[int]:
    """Variables by longest-path depth from the root, which is a node's
    level in a random OBDD from this module (every node has a parent on
    the level above, and ids list children before parents)."""
    depth = [0] * len(obdd.var)
    for j in range(len(obdd.var) - 1, -1, -1):
        if obdd.var[j]:
            for c in (obdd.lo[j], obdd.hi[j]):
                depth[c] = max(depth[c], depth[j] + 1)
    level = {obdd.var[j]: depth[j] for j in range(len(obdd.var)) if obdd.var[j]}
    order = sorted(level, key=level.get)
    return order + [v for v in range(1, obdd.num_features + 1) if v not in level]


def draw_instance(obdd: SourceObdd, label: int, rng: np.random.Generator) -> tuple[int, ...]:
    """A uniform point of the given class, by rejection."""
    for _ in range(100_000):
        values = tuple(int(x) for x in rng.integers(0, 2, obdd.num_features))
        if obdd.predict(values) == label:
            return values
    raise ValueError(f"no point of class {label} found")


def instance_text(values, label: int) -> str:
    return "v: " + ",".join(str(v) for v in values) + f"\nc: {label}\n"


@dataclass(frozen=True)
class DeskQuery:
    name: str
    classifier: str
    target: int
    instance_file: str


def desk_queries(directory: Path) -> list[DeskQuery]:
    queries = []
    for raw in (directory / "queries.txt").read_text().splitlines():
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        queries.append(DeskQuery(parts[0], parts[1], int(parts[2]), parts[3]))
    return queries


def desk_source(directory: Path, classifier: str) -> SourceObdd:
    """The OBDD a desk classifier was made from; for an SDD, its source."""
    return read_obdd((directory / f"{classifier}.obdd").read_text())
