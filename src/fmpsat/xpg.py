"""Explanation graphs and the classifiers they are built from.

An explanation graph specializes a decision DAG (OBDD or decision
tree) to one instance: terminals carry 1 when they agree with the
predicted class, edges carry 1 when their branch condition agrees
with the instance values. Evaluating the graph over a set of fixed
features tells whether fixing them pins the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import ClassifierError, ParseError

__all__ = [
    "XpgNonTerminal",
    "XpgTerminal",
    "XpGraph",
    "Obdd",
    "ObddNode",
    "ObddTerminal",
    "DecisionTree",
    "build_xpg_from_obdd",
    "build_xpg_from_dt",
    "evaluate_sigma",
    "parse_xpg",
    "serialize_xpg",
    "parse_obdd",
    "serialize_obdd",
    "parse_dt",
]


@dataclass(frozen=True)
class XpgNonTerminal:
    var: int  # feature index, 1-based


@dataclass(frozen=True)
class XpgTerminal:
    label: int  # 1 = agrees with the predicted class, 0 = disagrees


@dataclass
class XpGraph:
    """Instance-specialized explanation DAG with 0/1 edge and leaf labels."""

    nodes: list[XpgNonTerminal | XpgTerminal]
    edges: list[tuple[int, int, int]]  # (from, to, label), order preserved
    root: int
    num_features: int
    _topo: list[int] = field(default_factory=list, repr=False)
    _in_edges: list[list[tuple[int, int]]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        n = len(self.nodes)
        indegree = [0] * n
        out_edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self._in_edges = [[] for _ in range(n)]
        for src, dst, label in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ClassifierError(f"edge ({src},{dst}) references a missing node")
            if label not in (0, 1):
                raise ClassifierError(f"edge ({src},{dst}) has label {label}, expected 0 or 1")
            indegree[dst] += 1
            out_edges[src].append((dst, label))
            self._in_edges[dst].append((src, label))
        roots = [j for j in range(n) if indegree[j] == 0]
        if len(roots) != 1:
            raise ClassifierError(f"multiple roots: nodes {roots} all have indegree 0")
        if roots[0] != self.root:
            raise ClassifierError(f"root is node {roots[0]}, not {self.root}")
        for j, node in enumerate(self.nodes):
            if isinstance(node, XpgTerminal):
                if out_edges[j]:
                    raise ClassifierError(f"terminal node {j} has outgoing edges")
                if node.label not in (0, 1):
                    raise ClassifierError(f"terminal node {j} has label {node.label}")
            else:
                if not 1 <= node.var <= self.num_features:
                    raise ClassifierError(
                        f"node {j} selects feature {node.var} outside 1..{self.num_features}"
                    )
                if not out_edges[j]:
                    raise ClassifierError(f"non-terminal node {j} has no outgoing edge")
                ones = sum(1 for _, label in out_edges[j] if label == 1)
                if ones > 1:
                    raise ClassifierError(f"two 1-labeled out-edges at node {j}")
        self._topo = self._topological_order(out_edges)
        if len(self._topo) != n:
            raise ClassifierError("graph has a cycle or unreachable nodes")
        # the all-ones path must end in the unique agreeing terminal
        j = self.root
        seen = 0
        while isinstance(self.nodes[j], XpgNonTerminal):
            nxt = [dst for dst, label in out_edges[j] if label == 1]
            if not nxt:
                raise ClassifierError("no reachable 1-terminal: the all-1 path stalls")
            j = nxt[0]
            seen += 1
            if seen > n:
                raise ClassifierError("all-1 path does not terminate")
        if self.nodes[j].label != 1:
            raise ClassifierError("no reachable 1-terminal: the all-1 path ends at a 0-terminal")

    def _topological_order(self, out_edges: list[list[tuple[int, int]]]) -> list[int]:
        n = len(self.nodes)
        state = [0] * n  # 0 new, 1 on stack, 2 done
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            j, expanded = stack.pop()
            if expanded:
                state[j] = 2
                order.append(j)
                continue
            if state[j] == 2:
                continue
            if state[j] == 1:
                return []
            state[j] = 1
            stack.append((j, True))
            for dst, _ in out_edges[j]:
                if state[dst] != 2:
                    stack.append((dst, False))
        order.reverse()  # root first
        return order if all(s == 2 for s in state) else []

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def zero_terminals(self) -> list[int]:
        return [
            j
            for j, node in enumerate(self.nodes)
            if isinstance(node, XpgTerminal) and node.label == 0
        ]

    def in_edges(self, j: int) -> list[tuple[int, int]]:
        return self._in_edges[j]

    def topological_order(self) -> list[int]:
        return list(self._topo)


def evaluate_sigma(xpg: XpGraph, selectors: Sequence[int]) -> bool:
    """Whether fixing the selected features keeps the prediction.

    Forward activation: the root is active; a node is active iff some
    parent is active and the connecting edge either carries label 1 or
    leaves the parent's feature unselected. The result is 1 iff no
    0-labeled terminal ends up active.
    """
    if len(selectors) != xpg.num_features:
        raise ClassifierError(
            f"selector vector has {len(selectors)} entries, expected {xpg.num_features}"
        )
    nodes, in_edges = xpg.nodes, xpg._in_edges
    active = [False] * len(nodes)
    active[xpg.root] = True
    for j in xpg._topo:
        for parent, label in in_edges[j]:
            if active[parent] and (label == 1 or not selectors[nodes[parent].var - 1]):
                active[j] = True
                break
    return not any(active[j] for j in xpg.zero_terminals())


# --------------------------------------------------------------------------
# OBDD
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ObddNode:
    var: int
    lo: int  # child for value 0
    hi: int  # child for value 1


@dataclass(frozen=True)
class ObddTerminal:
    label: int


@dataclass
class Obdd:
    nodes: list[ObddNode | ObddTerminal]
    root: int
    num_features: int

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if not 0 <= self.root < n:
            raise ClassifierError(f"OBDD root {self.root} out of range")
        for j, node in enumerate(self.nodes):
            if isinstance(node, ObddNode):
                if not 1 <= node.var <= self.num_features:
                    raise ClassifierError(
                        f"OBDD node {j} tests feature {node.var} outside 1..{self.num_features}"
                    )
                for child in (node.lo, node.hi):
                    if not 0 <= child < n:
                        raise ClassifierError(f"OBDD node {j} references missing node {child}")
        self._check_ordered()

    def _check_ordered(self) -> None:
        # walk in reverse topological order collecting the variable set
        # below each node; no node's variable may reappear beneath it
        order: list[int] = []
        state = [0] * len(self.nodes)
        stack = [(self.root, False)]
        while stack:
            j, expanded = stack.pop()
            if expanded:
                state[j] = 2
                order.append(j)
                continue
            if state[j] == 2:
                continue
            if state[j] == 1:
                raise ClassifierError("OBDD contains a cycle")
            state[j] = 1
            stack.append((j, True))
            node = self.nodes[j]
            if isinstance(node, ObddNode):
                for child in (node.lo, node.hi):
                    if state[child] != 2:
                        stack.append((child, False))
        below: dict[int, frozenset[int]] = {}
        for j in order:
            node = self.nodes[j]
            if isinstance(node, ObddTerminal):
                below[j] = frozenset()
            else:
                under = below[node.lo] | below[node.hi]
                if node.var in under:
                    raise ClassifierError(
                        f"feature {node.var} repeats on a path through OBDD node {j}"
                    )
                below[j] = under | {node.var}

    def predict(self, point: Sequence[int]) -> int:
        if len(point) != self.num_features:
            raise ClassifierError(
                f"point has {len(point)} values, classifier has {self.num_features} features"
            )
        j = self.root
        while isinstance(self.nodes[j], ObddNode):
            node = self.nodes[j]
            j = node.hi if point[node.var - 1] else node.lo
        return self.nodes[j].label

    def reachable_labels(self) -> set[int]:
        labels: set[int] = set()
        stack = [self.root]
        visited = [False] * len(self.nodes)
        while stack:
            j = stack.pop()
            if visited[j]:
                continue
            visited[j] = True
            node = self.nodes[j]
            if isinstance(node, ObddTerminal):
                labels.add(node.label)
            else:
                stack.append(node.lo)
                stack.append(node.hi)
        return labels


def parse_obdd(text: str) -> Obdd:
    nodes: dict[int, ObddNode | ObddTerminal] = {}
    num_features = None
    expected = None
    last_id = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "obdd":
                if len(parts) != 3:
                    raise ValueError
                num_features, expected = int(parts[1]), int(parts[2])
            elif parts[0] == "N":
                if len(parts) != 5:
                    raise ValueError
                nid = int(parts[1])
                if nid in nodes:
                    raise ParseError(f"duplicate OBDD node id {nid}", lineno)
                nodes[nid] = ObddNode(int(parts[2]), int(parts[3]), int(parts[4]))
                last_id = nid
            elif parts[0] == "T":
                if len(parts) != 3:
                    raise ValueError
                nid = int(parts[1])
                if nid in nodes:
                    raise ParseError(f"duplicate OBDD node id {nid}", lineno)
                nodes[nid] = ObddTerminal(int(parts[2]))
                last_id = nid
            else:
                raise ParseError(f"unknown OBDD line kind {parts[0]!r}", lineno)
        except ParseError:
            raise
        except ValueError:
            raise ParseError(f"malformed OBDD line {line!r}", lineno) from None
    if num_features is None:
        raise ParseError("OBDD file is missing the obdd header")
    if expected is not None and expected != len(nodes):
        raise ParseError(f"OBDD header announces {expected} nodes, file declares {len(nodes)}")
    if sorted(nodes) != list(range(len(nodes))):
        raise ParseError("OBDD node ids must be dense 0..n-1")
    return Obdd([nodes[j] for j in range(len(nodes))], last_id, num_features)


def serialize_obdd(obdd: Obdd) -> str:
    order = [j for j in range(len(obdd.nodes)) if j != obdd.root]
    order.append(obdd.root)
    renum = {nid: k for k, nid in enumerate(order)}
    lines = [f"obdd {obdd.num_features} {len(obdd.nodes)}"]
    for nid in order:
        node = obdd.nodes[nid]
        if isinstance(node, ObddTerminal):
            lines.append(f"T {renum[nid]} {node.label}")
        else:
            lines.append(f"N {renum[nid]} {node.var} {renum[node.lo]} {renum[node.hi]}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# decision trees (finite, possibly multi-valued domains)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DtInternal:
    var: int


@dataclass(frozen=True)
class DtLeaf:
    label: int


@dataclass
class DecisionTree:
    nodes: list[DtInternal | DtLeaf]
    edges: list[tuple[int, int, frozenset[int]]]  # (from, to, admitted values)
    root: int
    domains: dict[int, tuple[int, ...]]  # feature -> finite domain

    def __post_init__(self) -> None:
        n = len(self.nodes)
        self.num_features = len(self.domains)
        if sorted(self.domains) != list(range(1, self.num_features + 1)):
            raise ClassifierError("decision tree domains must cover features 1..m")
        indegree = [0] * n
        self._out_edges: list[list[tuple[int, frozenset[int]]]] = [[] for _ in range(n)]
        for src, dst, values in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ClassifierError(f"edge ({src},{dst}) references a missing node")
            indegree[dst] += 1
            if indegree[dst] > 1:
                raise ClassifierError(f"node {dst} has two parents, not a tree")
            self._out_edges[src].append((dst, values))
        roots = [j for j in range(n) if indegree[j] == 0]
        if roots != [self.root]:
            raise ClassifierError(f"tree root should be the unique indegree-0 node, got {roots}")
        for j, node in enumerate(self.nodes):
            if isinstance(node, DtLeaf):
                if self._out_edges[j]:
                    raise ClassifierError(f"leaf {j} has outgoing edges")
                continue
            domain = set(self.domains[node.var])
            covered: set[int] = set()
            for _, values in self._out_edges[j]:
                if values & covered:
                    raise ClassifierError(f"node {j}: edge value sets overlap")
                if not values <= domain:
                    raise ClassifierError(
                        f"node {j}: edge admits values outside the domain of feature {node.var}"
                    )
                covered |= values
            if covered != domain:
                raise ClassifierError(
                    f"node {j}: edges cover {sorted(covered)}, domain is {sorted(domain)}"
                )

    def predict(self, point: Sequence[int]) -> int:
        if len(point) != self.num_features:
            raise ClassifierError(
                f"point has {len(point)} values, classifier has {self.num_features} features"
            )
        j = self.root
        while isinstance(self.nodes[j], DtInternal):
            node = self.nodes[j]
            value = point[node.var - 1]
            nxt = None
            for dst, values in self._out_edges[j]:
                if value in values:
                    nxt = dst
                    break
            if nxt is None:
                raise ClassifierError(
                    f"value {value} of feature {node.var} outside its domain"
                )
            j = nxt
        return self.nodes[j].label

    def out_edges(self, j: int) -> list[tuple[int, frozenset[int]]]:
        return self._out_edges[j]

    def leaf_labels(self) -> set[int]:
        return {node.label for node in self.nodes if isinstance(node, DtLeaf)}


def parse_dt(text: str) -> DecisionTree:
    nodes: dict[int, DtInternal | DtLeaf] = {}
    edges: list[tuple[int, int, frozenset[int]]] = []
    domains: dict[int, tuple[int, ...]] = {}
    num_features = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "dt":
                if len(parts) != 2:
                    raise ValueError
                num_features = int(parts[1])
            elif parts[0] == "DOM":
                if len(parts) < 4:
                    raise ValueError
                feat, count = int(parts[1]), int(parts[2])
                values = tuple(int(p) for p in parts[3:])
                if len(values) != count:
                    raise ParseError(
                        f"DOM announces {count} values, line has {len(values)}", lineno
                    )
                domains[feat] = values
            elif parts[0] == "N":
                if len(parts) != 3:
                    raise ValueError
                nid = int(parts[1])
                if nid in nodes:
                    raise ParseError(f"duplicate node id {nid}", lineno)
                nodes[nid] = DtInternal(int(parts[2]))
            elif parts[0] == "T":
                if len(parts) != 3:
                    raise ValueError
                nid = int(parts[1])
                if nid in nodes:
                    raise ParseError(f"duplicate node id {nid}", lineno)
                nodes[nid] = DtLeaf(int(parts[2]))
            elif parts[0] == "E":
                if len(parts) < 4:
                    raise ValueError
                edges.append(
                    (int(parts[1]), int(parts[2]), frozenset(int(p) for p in parts[3:]))
                )
            else:
                raise ParseError(f"unknown DT line kind {parts[0]!r}", lineno)
        except ParseError:
            raise
        except ValueError:
            raise ParseError(f"malformed DT line {line!r}", lineno) from None
    if num_features is None:
        raise ParseError("DT file is missing the dt header")
    if sorted(nodes) != list(range(len(nodes))):
        raise ParseError("DT node ids must be dense 0..n-1")
    targets = {dst for _, dst, _ in edges}
    roots = sorted(set(range(len(nodes))) - targets)
    if len(roots) != 1:
        raise ParseError(f"DT has {len(roots)} root candidates, expected exactly 1")
    return DecisionTree([nodes[j] for j in range(len(nodes))], edges, roots[0], domains)


# --------------------------------------------------------------------------
# building explanation graphs
# --------------------------------------------------------------------------

def _reachable_subgraph(
    num_nodes: int, root: int, out_edges: list[list[tuple[int, int]]]
) -> tuple[list[int], dict[int, int]]:
    """Nodes reachable from the root, in discovery order, with a renumbering."""
    keep: list[int] = []
    visited = [False] * num_nodes
    stack = [root]
    while stack:
        j = stack.pop()
        if visited[j]:
            continue
        visited[j] = True
        keep.append(j)
        for dst, _ in reversed(out_edges[j]):
            stack.append(dst)
    keep.sort()
    return keep, {old: new for new, old in enumerate(keep)}


def build_xpg_from_obdd(obdd: Obdd, instance) -> XpGraph:
    """Relabel an OBDD for one instance, keeping the same DAG."""
    predicted = obdd.predict(instance.values)
    if predicted != instance.label:
        raise ClassifierError(
            f"instance declares class {instance.label} but the OBDD predicts {predicted}"
        )
    labels = obdd.reachable_labels()
    if len(labels) < 2:
        raise ClassifierError("classifier is constant: only one terminal class is reachable")
    out_edges: list[list[tuple[int, int]]] = [[] for _ in obdd.nodes]
    for j, node in enumerate(obdd.nodes):
        if isinstance(node, ObddNode):
            v = instance.values[node.var - 1]
            out_edges[j].append((node.lo, 1 if v == 0 else 0))
            out_edges[j].append((node.hi, 1 if v == 1 else 0))
    keep, renum = _reachable_subgraph(len(obdd.nodes), obdd.root, out_edges)
    nodes: list[XpgNonTerminal | XpgTerminal] = []
    for j in keep:
        node = obdd.nodes[j]
        if isinstance(node, ObddTerminal):
            nodes.append(XpgTerminal(1 if node.label == instance.label else 0))
        else:
            nodes.append(XpgNonTerminal(node.var))
    edges = [
        (renum[j], renum[dst], label)
        for j in keep
        for dst, label in out_edges[j]
    ]
    return XpGraph(nodes, edges, renum[obdd.root], obdd.num_features)


def build_xpg_from_dt(dt: DecisionTree, instance) -> XpGraph:
    """Relabel a decision tree for one instance; multi-valued domains allowed."""
    predicted = dt.predict(instance.values)
    if predicted != instance.label:
        raise ClassifierError(
            f"instance declares class {instance.label} but the tree predicts {predicted}"
        )
    if len(dt.leaf_labels()) < 2:
        raise ClassifierError("classifier is constant: all leaves carry the same class")
    nodes: list[XpgNonTerminal | XpgTerminal] = []
    for node in dt.nodes:
        if isinstance(node, DtLeaf):
            nodes.append(XpgTerminal(1 if node.label == instance.label else 0))
        else:
            nodes.append(XpgNonTerminal(node.var))
    edges = []
    for j, node in enumerate(dt.nodes):
        if isinstance(node, DtInternal):
            v = instance.values[node.var - 1]
            for dst, values in dt.out_edges(j):
                edges.append((j, dst, 1 if v in values else 0))
    return XpGraph(nodes, edges, dt.root, dt.num_features)


# --------------------------------------------------------------------------
# XpG text format
# --------------------------------------------------------------------------

def parse_xpg(text: str) -> XpGraph:
    nodes: dict[int, XpgNonTerminal | XpgTerminal] = {}
    edges: list[tuple[int, int, int]] = []
    num_features = None
    expected = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "xpg":
                if len(parts) != 3:
                    raise ValueError
                num_features, expected = int(parts[1]), int(parts[2])
            elif parts[0] == "N":
                if len(parts) != 3:
                    raise ValueError
                nid = int(parts[1])
                if nid in nodes:
                    raise ParseError(f"duplicate node id {nid}", lineno)
                nodes[nid] = XpgNonTerminal(int(parts[2]))
            elif parts[0] == "T":
                if len(parts) != 3:
                    raise ValueError
                nid = int(parts[1])
                if nid in nodes:
                    raise ParseError(f"duplicate node id {nid}", lineno)
                nodes[nid] = XpgTerminal(int(parts[2]))
            elif parts[0] == "E":
                if len(parts) != 4:
                    raise ValueError
                edges.append((int(parts[1]), int(parts[2]), int(parts[3])))
            else:
                raise ParseError(f"unknown XpG line kind {parts[0]!r}", lineno)
        except ParseError:
            raise
        except ValueError:
            raise ParseError(f"malformed XpG line {line!r}", lineno) from None
    if num_features is None:
        raise ParseError("XpG file is missing the xpg header")
    if expected is not None and expected != len(nodes):
        raise ParseError(f"XpG header announces {expected} nodes, file declares {len(nodes)}")
    if sorted(nodes) != list(range(len(nodes))):
        raise ParseError("XpG node ids must be dense 0..n-1")
    targets = {dst for _, dst, _ in edges}
    roots = sorted(set(range(len(nodes))) - targets)
    if len(roots) != 1:
        raise ParseError(f"multiple roots: nodes {roots} all have indegree 0")
    return XpGraph([nodes[j] for j in range(len(nodes))], edges, roots[0], num_features)


def serialize_xpg(xpg: XpGraph) -> str:
    lines = [f"xpg {xpg.num_features} {len(xpg.nodes)}"]
    for j, node in enumerate(xpg.nodes):
        if isinstance(node, XpgNonTerminal):
            lines.append(f"N {j} {node.var}")
        else:
            lines.append(f"T {j} {node.label}")
    for src, dst, label in xpg.edges:
        lines.append(f"E {src} {dst} {label}")
    return "\n".join(lines) + "\n"
