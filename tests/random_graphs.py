"""Random decision trees and explanation graphs for test corpora."""

from fmpsat import xpg
from fmpsat.errors import ClassifierError


def random_dt(rng, m):
    """A random tree over features 1..m; feature 1 has domain {0, 1, 2}."""
    domains = {i: (0, 1, 2) if i == 1 else (0, 1) for i in range(1, m + 1)}
    nodes, edges = [], []

    def grow(free, depth):
        j = len(nodes)
        if not free or depth == 0 or rng.random() < 0.2:
            nodes.append(xpg.DtLeaf(int(rng.integers(2))))
            return j
        var = int(rng.choice(free))
        nodes.append(xpg.DtInternal(var))
        rest = [f for f in free if f != var]
        for value in domains[var]:
            edges.append((j, grow(rest, depth - 1), frozenset({value})))
        return j

    while True:
        nodes.clear()
        edges.clear()
        grow(list(range(1, m + 1)), 4)
        dt = xpg.DecisionTree(list(nodes), list(edges), 0, domains)
        if dt.leaf_labels() == {0, 1}:
            return dt


def random_xpg(rng, m, n):
    """A random explanation graph with n inner nodes over features 1..m.

    Its paths may test a feature more than once, as no OBDD's or tree's
    graph does; it stands for itself, with no classifier behind it.
    """
    while True:
        # inner nodes 0..n-1, then the 1-terminal and two 0-terminals;
        # edges point to later nodes, the first one out of a node labelled 1
        nodes = [xpg.XpgNonTerminal(int(rng.integers(1, m + 1))) for _ in range(n)]
        nodes += [xpg.XpgTerminal(1), xpg.XpgTerminal(0), xpg.XpgTerminal(0)]
        edges, has_parent = [], {0}
        for j in range(n):
            later = range(j + 1, n + 3)
            children = rng.choice(later, size=min(len(later), int(rng.integers(1, 4))), replace=False)
            for i, child in enumerate(children):
                edges.append((j, int(child), int(i == 0)))
                has_parent.add(int(child))
        for j in range(1, n + 3):
            if j not in has_parent:
                edges.append((int(rng.integers(min(j, n))), j, 0))
        try:
            return xpg.XpGraph(nodes, edges, 0, m)
        except ClassifierError:
            continue  # the all-1 path ends at a 0-terminal


def chain_xpg(m, droppable=()):
    """A bare explanation graph that tests features 1..m in turn along its
    1-edges, the last one ending at the 1-terminal. Feature k's 0-edge ends
    at the 0-terminal, or at the 1-terminal when k is in ``droppable``; so
    the one AXp is every feature outside ``droppable``."""
    nodes = [xpg.XpgNonTerminal(k) for k in range(1, m + 1)]
    nodes += [xpg.XpgTerminal(1), xpg.XpgTerminal(0)]
    edges = []
    for k in range(1, m + 1):
        edges.append((k - 1, k, 1))
        edges.append((k - 1, m if k in droppable else m + 1, 0))
    return xpg.XpGraph(nodes, edges, 0, m)
