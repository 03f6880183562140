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

from ._nodelist import (
    LineFormat,
    add_node,
    check_node_count,
    dense_nodes,
    postorder,
    read_records,
    single_root,
)
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
        order = postorder(self.root, [[dst for dst, _ in out] for out in out_edges])
        if order is None or len(order) != n:
            raise ClassifierError("graph has a cycle or unreachable nodes")
        self._topo = order[::-1]  # root first
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
        children = [(node.lo, node.hi) if isinstance(node, ObddNode) else () for node in self.nodes]
        order = postorder(self.root, children)
        if order is None:
            raise ClassifierError("OBDD contains a cycle")
        self._reachable = order  # the nodes reachable from the root, children first
        self._check_ordered()

    def _check_ordered(self) -> None:
        # collect the variable set below each node, children first; no
        # node's variable may reappear beneath it
        below: dict[int, frozenset[int]] = {}
        for j in self._reachable:
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
        nodes = self.nodes
        return {nodes[j].label for j in self._reachable if isinstance(nodes[j], ObddTerminal)}


_OBDD = LineFormat("OBDD", "obdd", True, {"obdd": 2, "N": 4, "T": 2})


def parse_obdd(text: str) -> Obdd:
    nodes: dict[int, ObddNode | ObddTerminal] = {}
    for lineno, kind, ints in read_records(text, _OBDD):
        if kind == "obdd":
            num_features, expected = ints
        elif kind == "N":
            add_node(nodes, ints[0], ObddNode(*ints[1:]), _OBDD, lineno)
        else:
            add_node(nodes, ints[0], ObddTerminal(ints[1]), _OBDD, lineno)
    # read_records has checked that the header is present
    check_node_count(nodes, expected, _OBDD)
    root = next(reversed(nodes))  # the last declared node
    return Obdd(dense_nodes(nodes, _OBDD), root, num_features)


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


_DT = LineFormat(
    "DT", "dt", True, {"dt": 1, "DOM": 3, "N": 2, "T": 2, "E": 3}, frozenset({"DOM", "E"})
)


def parse_dt(text: str) -> DecisionTree:
    nodes: dict[int, DtInternal | DtLeaf] = {}
    tests: list[tuple[int, int]] = []  # (line, feature) of each internal node
    edges: list[tuple[int, int, frozenset[int]]] = []
    domains: dict[int, tuple[int, ...]] = {}
    for lineno, kind, ints in read_records(text, _DT):
        if kind == "dt":
            num_features = ints[0]
        elif kind == "DOM":
            feat, count, *values = ints
            if len(values) != count:
                raise ParseError(f"DOM announces {count} values, line has {len(values)}", lineno)
            if feat in domains:
                raise ParseError(f"second DOM line for feature {feat}", lineno)
            domains[feat] = tuple(values)
        elif kind == "N":
            add_node(nodes, ints[0], DtInternal(ints[1]), _DT, lineno)
            tests.append((lineno, ints[1]))
        elif kind == "T":
            add_node(nodes, ints[0], DtLeaf(ints[1]), _DT, lineno)
        else:
            src, dst, *values = ints
            edges.append((src, dst, frozenset(values)))
    # read_records has checked that the header is present
    if sorted(domains) != list(range(1, num_features + 1)):
        raise ParseError(
            f"dt header announces {num_features} features, DOM lines cover {sorted(domains)}"
        )
    for lineno, feat in tests:
        if feat not in domains:
            raise ParseError(f"DT node tests feature {feat}, which has no DOM line", lineno)
    check_node_count(nodes, None, _DT)
    node_list = dense_nodes(nodes, _DT)
    return DecisionTree(node_list, edges, single_root(len(node_list), edges, _DT), domains)


# --------------------------------------------------------------------------
# building explanation graphs
# --------------------------------------------------------------------------

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
    keep = sorted(obdd._reachable)
    renum = {old: new for new, old in enumerate(keep)}
    nodes: list[XpgNonTerminal | XpgTerminal] = []
    edges: list[tuple[int, int, int]] = []
    for j in keep:
        node = obdd.nodes[j]
        if isinstance(node, ObddTerminal):
            nodes.append(XpgTerminal(1 if node.label == instance.label else 0))
        else:
            nodes.append(XpgNonTerminal(node.var))
            v = instance.values[node.var - 1]
            edges.append((renum[j], renum[node.lo], 1 if v == 0 else 0))
            edges.append((renum[j], renum[node.hi], 1 if v == 1 else 0))
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

_XPG = LineFormat("XpG", "xpg", True, {"xpg": 2, "N": 2, "T": 2, "E": 3})


def parse_xpg(text: str) -> XpGraph:
    nodes: dict[int, XpgNonTerminal | XpgTerminal] = {}
    edges: list[tuple[int, int, int]] = []
    for lineno, kind, ints in read_records(text, _XPG):
        if kind == "xpg":
            num_features, expected = ints
        elif kind == "N":
            add_node(nodes, ints[0], XpgNonTerminal(ints[1]), _XPG, lineno)
        elif kind == "T":
            add_node(nodes, ints[0], XpgTerminal(ints[1]), _XPG, lineno)
        else:
            edges.append(tuple(ints))
    # read_records has checked that the header is present
    check_node_count(nodes, expected, _XPG)
    node_list = dense_nodes(nodes, _XPG)
    return XpGraph(node_list, edges, single_root(len(node_list), edges, _XPG), num_features)


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
