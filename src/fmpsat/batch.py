"""Random classifiers for tests and benchmarks, and the batch harness
behind ``fmpsat bench``.

The generators draw from ``numpy.random.default_rng``, so a seed fixes
the corpus; numpy is imported only where numbers are drawn, which keeps
it off the query path. The harness runs membership queries and writes
one CSV row per (classifier, method).
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from typing import Sequence

from . import sdd as sdd_mod
from . import xpg as xpg_mod
from ._nodelist import postorder
from .errors import ClassifierError, SolverTimeout
from .explain import DtClassifier, Instance, ObddClassifier, SddClassifier
from .fmp import FmpQuery, decide_membership

__all__ = [
    "BatchQuery",
    "batch_run",
    "REPORT_HEADER",
    "generate_random_classifier",
    "generate_random_obdd",
    "obdd_to_shannon_sdd",
    "random_instance",
]


# --------------------------------------------------------------------------
# random classifier generation
# --------------------------------------------------------------------------

def generate_random_obdd(
    num_features: int, node_budget: int, seed: int
) -> xpg_mod.Obdd:
    """Random reduced OBDD over a shuffled variable order.

    Deterministic in the seed. The result is non-constant, every node
    is reachable, and the node count approaches the budget from below.
    """
    if num_features < 2:
        raise ClassifierError("need at least 2 features")
    if node_budget < 3:
        raise ClassifierError("node budget too small to be non-constant")
    import numpy as np

    rng = np.random.default_rng(seed)
    order = rng.permutation(num_features) + 1  # level -> feature
    scale = 1.0
    best: xpg_mod.Obdd | None = None
    target = min(node_budget, int(0.8 * node_budget) + 2)
    for _ in range(10):
        obdd = _layered_obdd(num_features, node_budget, order, rng, scale)
        if obdd is None:
            scale *= 1.4
            continue
        size = len(obdd.nodes)
        if target <= size <= node_budget:
            return obdd
        if size <= node_budget and (best is None or size > len(best.nodes)):
            best = obdd
        # pruning losses call for a wider draw, overshoot for a narrower one
        scale *= 1.4 if size < target else 0.8
    if best is None:
        raise ClassifierError("node budget too small to be non-constant")
    return best


def _layered_obdd(num_features, node_budget, order, rng, scale):
    internal_budget = max(1, node_budget - 2)
    base = max(1, round(scale * internal_budget / num_features))
    # a single root fans out by at most 2 per level, so early levels can
    # never use the full width
    widths = [min(base, 2**lvl) for lvl in range(num_features)]
    nodes: list[xpg_mod.ObddNode | xpg_mod.ObddTerminal] = [
        xpg_mod.ObddTerminal(0),
        xpg_mod.ObddTerminal(1),
    ]
    level_ids: list[list[int]] = [[] for _ in range(num_features)]
    unique: dict[tuple[int, int, int], int] = {}
    for lvl in range(num_features - 1, -1, -1):
        near: list[int] = level_ids[lvl + 1] if lvl + 1 < num_features else []
        if not near:
            near = [0, 1]
        far: list[int] = [0, 1]
        for deeper in range(lvl + 1, num_features):
            far.extend(level_ids[deeper])
        for _ in range(widths[lvl]):
            for _attempt in range(8):
                # mostly branch to the next level so the diagram stays
                # connected after pruning; occasionally jump deeper
                pool = near if rng.random() < 0.85 and len(near) >= 2 else far
                if len(pool) < 2:
                    pool = far
                lo, hi = rng.choice(len(pool), size=2, replace=False)
                lo, hi = pool[int(lo)], pool[int(hi)]
                key = (int(order[lvl]), lo, hi)
                if key not in unique:
                    unique[key] = len(nodes)
                    nodes.append(xpg_mod.ObddNode(int(order[lvl]), lo, hi))
                    level_ids[lvl].append(unique[key])
                    break
        if not level_ids[lvl]:
            return None
    root = level_ids[0][0]
    # keep only what the root reaches, in creation order (children first)
    kept = sorted(postorder(root, [
        (n.lo, n.hi) if isinstance(n, xpg_mod.ObddNode) else () for n in nodes
    ]))
    if kept[:2] != [0, 1]:
        return None  # a terminal (id 0 or 1) is unreachable: constant classifier
    renum = {old: new for new, old in enumerate(kept)}
    out: list[xpg_mod.ObddNode | xpg_mod.ObddTerminal] = []
    for old in kept:
        node = nodes[old]
        if isinstance(node, xpg_mod.ObddTerminal):
            out.append(node)
        else:
            out.append(xpg_mod.ObddNode(node.var, renum[node.lo], renum[node.hi]))
    return xpg_mod.Obdd(out, renum[root], num_features)


def obdd_to_shannon_sdd(obdd: xpg_mod.Obdd) -> sdd_mod.Sdd:
    """Convert an OBDD into an SDD along a right-linear vtree.

    Every internal node becomes a decision node whose primes are the
    two literals of its variable; nodes on the last variable of the
    order collapse to plain literals. The element-partition property
    holds by construction.
    """
    m = obdd.num_features
    order = _obdd_level_order(obdd)
    position = {var: idx for idx, var in enumerate(order)}
    # right-linear vtree: leaf(order[0]) against the rest, recursively
    vnodes: dict[int, sdd_mod.VtreeLeaf | sdd_mod.VtreeInternal] = {}
    leaf_id: dict[int, int] = {}
    next_id = 0
    for var in order:
        vnodes[next_id] = sdd_mod.VtreeLeaf(var)
        leaf_id[var] = next_id
        next_id += 1
    internal_over: dict[int, int] = {}  # order position -> vtree id
    prev = leaf_id[order[-1]]
    for pos in range(m - 2, -1, -1):
        vnodes[next_id] = sdd_mod.VtreeInternal(leaf_id[order[pos]], prev)
        internal_over[pos] = next_id
        prev = next_id
        next_id += 1
    vtree = sdd_mod.Vtree(vnodes, prev)

    nodes: list[sdd_mod.SddNode] = [sdd_mod.SddFalse(), sdd_mod.SddTrue()]
    lit_ids: dict[tuple[int, bool], int] = {}

    def literal(var: int, positive: bool) -> int:
        key = (var, positive)
        if key not in lit_ids:
            lit_ids[key] = len(nodes)
            nodes.append(sdd_mod.SddLiteral(var, positive))
        return lit_ids[key]

    converted: dict[int, int] = {}
    for j, node in enumerate(obdd.nodes):  # obdd arenas are ordered children-first
        if isinstance(node, xpg_mod.ObddTerminal):
            converted[j] = 1 if node.label else 0
            continue
        lo, hi = converted[node.lo], converted[node.hi]
        if position[node.var] == m - 1:
            # last variable: Shannon expansion degenerates to a literal
            if (lo, hi) == (0, 1):
                converted[j] = literal(node.var, True)
            elif (lo, hi) == (1, 0):
                converted[j] = literal(node.var, False)
            elif lo == hi:
                converted[j] = lo
            else:
                raise ClassifierError("last-level OBDD node with non-terminal child")
        else:
            elements = (
                (literal(node.var, True), hi),
                (literal(node.var, False), lo),
            )
            nodes.append(sdd_mod.SddDecision(internal_over[position[node.var]], elements))
            converted[j] = len(nodes) - 1
    return sdd_mod.Sdd(nodes, converted[obdd.root], vtree)


def _obdd_level_order(obdd: xpg_mod.Obdd) -> list[int]:
    """Variable order consistent with every path; absent features last."""
    after: dict[int, set[int]] = {}
    for node in obdd.nodes:
        if isinstance(node, xpg_mod.ObddNode):
            after.setdefault(node.var, set())
            for child in (node.lo, node.hi):
                cn = obdd.nodes[child]
                if isinstance(cn, xpg_mod.ObddNode):
                    after[node.var].add(cn.var)
    order: list[int] = []
    remaining = set(after)
    while remaining:
        # pick any variable that never appears below another remaining one
        ready = sorted(
            v
            for v in remaining
            if not any(v in after[w] for w in remaining if w != v)
        )
        if not ready:
            raise ClassifierError("OBDD variable order is cyclic")
        v = ready[0]
        order.append(v)
        remaining.remove(v)
    order.extend(v for v in range(1, obdd.num_features + 1) if v not in after)
    return order


def generate_random_classifier(kind: str, num_features: int, node_budget: int, seed: int):
    """A random classifier adapter: "obdd" or "shannon-sdd"."""
    obdd = generate_random_obdd(num_features, node_budget, seed)
    if kind == "obdd":
        return ObddClassifier(obdd)
    if kind == "shannon-sdd":
        return SddClassifier(obdd_to_shannon_sdd(obdd))
    raise ClassifierError(f"unknown classifier kind {kind!r}")


def random_instance(clf, rng) -> Instance:
    """Uniform point over the feature space, drawn with the numpy
    ``Generator`` ``rng`` and labeled by the classifier."""
    if isinstance(clf, DtClassifier):
        values = tuple(
            int(rng.choice(clf.dt.domains[i]))
            for i in range(1, clf.num_features + 1)
        )
    else:
        values = tuple(int(v) for v in rng.integers(0, 2, clf.num_features))
    return Instance(values, clf.predict(values))


# --------------------------------------------------------------------------
# batch harness
# --------------------------------------------------------------------------

REPORT_HEADER = [
    "name",
    "m",
    "nodes",
    "method",
    "yes_pct",
    "avg_vars",
    "avg_cls",
    "max_s",
    "avg_s",
    "timeouts",
]


@dataclass(frozen=True)
class BatchQuery:
    name: str
    query: FmpQuery


@dataclass
class _Aggregate:
    name: str
    m: int
    nodes: int
    method: str
    yes: int = 0
    answered: int = 0
    timeouts: int = 0
    vars_sum: int = 0
    cls_sum: int = 0
    time_sum: float = 0.0
    time_max: float = 0.0

    def row(self) -> list[str]:
        n = self.answered
        return [
            self.name,
            str(self.m),
            str(self.nodes),
            self.method,
            f"{100.0 * self.yes / n:.1f}" if n else "",
            f"{self.vars_sum / n:.1f}" if n else "",
            f"{self.cls_sum / n:.1f}" if n else "",
            f"{self.time_max:.4f}" if n else "",
            f"{self.time_sum / n:.4f}" if n else "",
            str(self.timeouts),
        ]


def batch_run(queries: Sequence[BatchQuery], sink) -> list[list[str]]:
    """Run every query, aggregate per (name, method), write CSV rows.

    Timed-out queries are counted and skipped; the batch continues.
    Rows appear in first-encounter order. After the last query on a
    (classifier, instance) the adapter releases what it kept for that
    instance, so a run that asks each instance's queries back to back
    holds one instance's graph, circuit and replica 0 at a time.
    """
    if not queries:
        raise ClassifierError("batch run needs at least one query")
    last = {(item.query.classifier, item.query.instance): i for i, item in enumerate(queries)}
    groups: dict[tuple[str, str], _Aggregate] = {}
    negated = 0
    for i, item in enumerate(queries):
        query = item.query
        key = (item.name, query.method)
        agg = groups.get(key)
        if agg is None:
            clf = query.classifier
            agg = groups[key] = _Aggregate(item.name, clf.num_features, clf.num_nodes, query.method)
        try:
            outcome = decide_membership(query)
        except SolverTimeout:
            agg.timeouts += 1
            continue
        finally:
            if last[query.classifier, query.instance] == i:
                query.classifier.release(query.instance)
        agg.answered += 1
        agg.yes += outcome.membership
        agg.vars_sum += outcome.num_vars
        agg.cls_sum += outcome.num_clauses
        agg.time_sum += outcome.total_s
        agg.time_max = max(agg.time_max, outcome.total_s)
        negated += outcome.pre_negated

    rows = [agg.row() for agg in groups.values()]
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    writer.writerows(rows)
    if negated:
        print(
            f"note: {negated} queries ran against the negated diagram "
            f"(instances predicted 1)",
            file=sys.stderr,
        )
    return rows
