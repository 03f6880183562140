"""Structured decision diagrams and their variable trees.

An SDD is stored as an arena of immutable nodes in topological order
(children before parents), so every query runs as a single bottom-up
array pass with no recursion. Diagrams are never mutated after
construction; negation returns a fresh diagram and does not
re-canonicalize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ._nodelist import LineFormat, add_node, check_node_count, postorder, read_records
from .errors import ClassifierError, ParseError

__all__ = [
    "Vtree",
    "Sdd",
    "SddFalse",
    "SddTrue",
    "SddLiteral",
    "SddDecision",
    "parse_vtree",
    "serialize_vtree",
    "parse_sdd",
    "serialize_sdd",
    "evaluate",
    "negate",
    "is_consistent",
    "consistency_under",
]


# --------------------------------------------------------------------------
# vtree
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VtreeLeaf:
    var: int


@dataclass(frozen=True)
class VtreeInternal:
    left: int
    right: int


class Vtree:
    """Full binary tree over the features 1..m, keyed by file node ids."""

    def __init__(self, nodes: Mapping[int, VtreeLeaf | VtreeInternal], root: int):
        self.nodes = dict(nodes)
        self.root = root
        self._vars_below: dict[int, frozenset[int]] = {}
        self._validate()

    def _validate(self) -> None:
        indegree: dict[int, int] = {nid: 0 for nid in self.nodes}
        for nid, node in self.nodes.items():
            if isinstance(node, VtreeInternal):
                for child in (node.left, node.right):
                    if child not in self.nodes:
                        raise ParseError(f"vtree node {nid} references missing node {child}")
                    indegree[child] += 1
                    if indegree[child] > 1:
                        raise ParseError(f"vtree node {child} has two parents")
        roots = [nid for nid, deg in indegree.items() if deg == 0]
        if roots != [self.root]:
            # a stray root means part of the tree is unreachable
            if len(roots) != 1:
                raise ParseError(f"vtree has {len(roots)} root nodes, expected exactly 1")
            raise ParseError(f"vtree root mismatch: {roots[0]} is unreachable from {self.root}")
        # bottom-up var sets double as the cycle/ordering check
        children = {
            nid: (node.left, node.right) if isinstance(node, VtreeInternal) else ()
            for nid, node in self.nodes.items()
        }
        order = postorder(self.root, children)
        if order is None or len(order) != len(self.nodes):
            raise ParseError("vtree contains a cycle")
        seen_vars: set[int] = set()
        for nid in order:
            node = self.nodes[nid]
            if isinstance(node, VtreeLeaf):
                if node.var in seen_vars:
                    raise ParseError(f"duplicate vtree leaf variable {node.var}")
                seen_vars.add(node.var)
                self._vars_below[nid] = frozenset((node.var,))
            else:
                self._vars_below[nid] = self._vars_below[node.left] | self._vars_below[node.right]
        if sorted(seen_vars) != list(range(1, len(seen_vars) + 1)):
            raise ParseError(
                f"vtree leaf variables must be exactly 1..m, got {sorted(seen_vars)}"
            )

    @property
    def num_features(self) -> int:
        return len(self._vars_below[self.root])

    def vars_below(self, nid: int) -> frozenset[int]:
        return self._vars_below[nid]

    def is_leaf(self, nid: int) -> bool:
        return isinstance(self.nodes[nid], VtreeLeaf)


_VTREE = LineFormat("vtree", "vtree", False, {"vtree": 1, "L": 2, "I": 3})


def parse_vtree(text: str) -> Vtree:
    """Parse the vtree text format (see README for the grammar)."""
    nodes: dict[int, VtreeLeaf | VtreeInternal] = {}
    expected = None
    for lineno, kind, ints in read_records(text, _VTREE):
        if kind == "vtree":
            expected = ints[0]
        elif kind == "L":
            nid, var = ints
            add_node(nodes, nid, VtreeLeaf(var), _VTREE, lineno)
            if var < 1:
                raise ParseError(f"vtree variable must be positive, got {var}", lineno)
        else:
            add_node(nodes, ints[0], VtreeInternal(ints[1], ints[2]), _VTREE, lineno)
    check_node_count(nodes, expected, _VTREE)
    # the root is the node that no node names as a child; Vtree rejects
    # dangling children and any count of roots other than one
    children = {
        c for node in nodes.values() if isinstance(node, VtreeInternal)
        for c in (node.left, node.right)
    }
    return Vtree(nodes, min(set(nodes) - children, default=None))


def serialize_vtree(vtree: Vtree) -> str:
    lines = [f"vtree {len(vtree.nodes)}"]
    for nid in sorted(vtree.nodes):
        node = vtree.nodes[nid]
        if isinstance(node, VtreeLeaf):
            lines.append(f"L {nid} {node.var}")
        else:
            lines.append(f"I {nid} {node.left} {node.right}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# SDD nodes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SddFalse:
    pass


@dataclass(frozen=True)
class SddTrue:
    pass


@dataclass(frozen=True)
class SddLiteral:
    var: int
    positive: bool


@dataclass(frozen=True)
class SddDecision:
    vtree_id: int
    elements: tuple[tuple[int, int], ...]  # (prime node id, sub node id)


SddNode = SddFalse | SddTrue | SddLiteral | SddDecision


class Sdd:
    """Arena-backed SDD; node ids are dense and topologically ordered."""

    def __init__(self, nodes: Sequence[SddNode], root: int, vtree: Vtree):
        self.nodes = list(nodes)
        self.root = root
        self.vtree = vtree
        if not (0 <= root < len(self.nodes)):
            raise ClassifierError(f"SDD root {root} out of range")

    @property
    def num_features(self) -> int:
        return self.vtree.num_features

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


_SDD = LineFormat(
    "SDD", "sdd", False, {"sdd": 1, "F": 1, "T": 1, "L": 3, "D": 3}, frozenset({"D"})
)


def parse_sdd(text: str, vtree: Vtree) -> Sdd:
    """Parse the SDD text format; the last declared node is the root."""
    nodes: list[SddNode] = []
    by_file_id: dict[int, int] = {}
    node_vars: list[frozenset[int]] = []
    expected = None
    leaf_vars = {
        nid: node.var for nid, node in vtree.nodes.items() if isinstance(node, VtreeLeaf)
    }

    def resolve(file_id: int, lineno: int) -> int:
        if file_id not in by_file_id:
            raise ParseError(f"forward or dangling reference to SDD node {file_id}", lineno)
        return by_file_id[file_id]

    for lineno, kind, ints in read_records(text, _SDD):
        if kind == "sdd":
            expected = ints[0]
            continue
        if kind == "F":
            node, mentioned = SddFalse(), frozenset()
        elif kind == "T":
            node, mentioned = SddTrue(), frozenset()
        elif kind == "L":
            _, vtree_id, lit = ints
            if lit == 0:
                raise ParseError("literal 0 is not a variable", lineno)
            var = abs(lit)
            if vtree_id not in vtree.nodes:
                raise ParseError(f"unknown vtree id {vtree_id}", lineno)
            if leaf_vars.get(vtree_id) != var:
                raise ParseError(
                    f"literal on variable {var} placed at vtree node {vtree_id}, "
                    f"which is not its leaf",
                    lineno,
                )
            node, mentioned = SddLiteral(var, lit > 0), frozenset((var,))
        else:
            _, vtree_id, count, *ids = ints
            if count < 1:
                raise ParseError("decision node with empty element list", lineno)
            if len(ids) != 2 * count:
                raise ParseError(
                    f"decision node announces {count} elements but line has {len(ids) // 2}",
                    lineno,
                )
            if vtree_id not in vtree.nodes or vtree.is_leaf(vtree_id):
                raise ParseError(f"vtree id {vtree_id} is not an internal node", lineno)
            vnode = vtree.nodes[vtree_id]
            left_vars = vtree.vars_below(vnode.left)
            right_vars = vtree.vars_below(vnode.right)
            elements = []
            below: set[int] = set()
            for e in range(count):
                prime = resolve(ids[2 * e], lineno)
                sub = resolve(ids[2 * e + 1], lineno)
                if not node_vars[prime] <= left_vars:
                    raise ParseError(
                        f"prime of element {e} mentions {sorted(node_vars[prime] - left_vars)} "
                        f"outside the left subtree of vtree node {vtree_id}",
                        lineno,
                    )
                if not node_vars[sub] <= right_vars:
                    raise ParseError(
                        f"sub of element {e} mentions {sorted(node_vars[sub] - right_vars)} "
                        f"outside the right subtree of vtree node {vtree_id}",
                        lineno,
                    )
                elements.append((prime, sub))
                below |= node_vars[prime] | node_vars[sub]
            node, mentioned = SddDecision(vtree_id, tuple(elements)), frozenset(below)
        add_node(by_file_id, ints[0], len(nodes), _SDD, lineno)
        nodes.append(node)
        node_vars.append(mentioned)
    check_node_count(nodes, expected, _SDD)
    return Sdd(nodes, len(nodes) - 1, vtree)


def serialize_sdd(sdd: Sdd) -> str:
    """Write the reachable subgraph in topological order, root last."""
    reachable = [False] * len(sdd.nodes)
    reachable[sdd.root] = True
    for j in range(len(sdd.nodes) - 1, -1, -1):
        node = sdd.nodes[j]
        if reachable[j] and isinstance(node, SddDecision):
            for prime, sub in node.elements:
                reachable[prime] = True
                reachable[sub] = True
    order = [j for j in range(len(sdd.nodes)) if reachable[j] and j != sdd.root]
    order.append(sdd.root)
    renum = {nid: k for k, nid in enumerate(order)}
    leaf_of_var = {
        vnode.var: vid
        for vid, vnode in sdd.vtree.nodes.items()
        if isinstance(vnode, VtreeLeaf)
    }
    lines = [f"sdd {len(order)}"]
    for nid in order:
        node = sdd.nodes[nid]
        if isinstance(node, SddFalse):
            lines.append(f"F {renum[nid]}")
        elif isinstance(node, SddTrue):
            lines.append(f"T {renum[nid]}")
        elif isinstance(node, SddLiteral):
            lit = node.var if node.positive else -node.var
            lines.append(f"L {renum[nid]} {leaf_of_var[node.var]} {lit}")
        else:
            parts = [f"D {renum[nid]} {node.vtree_id} {len(node.elements)}"]
            for prime, sub in node.elements:
                parts.append(f"{renum[prime]} {renum[sub]}")
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# queries and transformations
# --------------------------------------------------------------------------

def _check_point(sdd: Sdd, point: Sequence[int]) -> None:
    if len(point) != sdd.num_features:
        raise ClassifierError(
            f"point has {len(point)} values, classifier has {sdd.num_features} features"
        )


def evaluate(sdd: Sdd, point: Sequence[int]) -> bool:
    """Semantic value at a full point: decisions are ORs over prime AND sub."""
    _check_point(sdd, point)
    vals = [False] * len(sdd.nodes)
    for j, node in enumerate(sdd.nodes):
        if isinstance(node, SddTrue):
            vals[j] = True
        elif isinstance(node, SddLiteral):
            vals[j] = bool(point[node.var - 1]) == node.positive
        elif isinstance(node, SddDecision):
            vals[j] = any(vals[p] and vals[s] for p, s in node.elements)
    return vals[sdd.root]


def _check_term(sdd: Sdd, term: Mapping[int, int]) -> None:
    for var in term:
        if not 1 <= var <= sdd.num_features:
            raise ClassifierError(f"term assigns variable {var} outside 1..{sdd.num_features}")


def negate(sdd: Sdd) -> Sdd:
    """Structural negation: flip terminals and recurse into subs.

    Primes are kept as-is, which is valid because the primes of each
    decision node partition their variable space. Shared nodes are
    translated once per required polarity, so the result is at most
    twice the size of the input. The tests hold `explain._lower_sdd`,
    which lowers the negation without building it, to this diagram.
    """
    n = len(sdd.nodes)
    need_pos = [False] * n
    need_neg = [False] * n
    need_neg[sdd.root] = True
    for j in range(n - 1, -1, -1):
        node = sdd.nodes[j]
        if not isinstance(node, SddDecision):
            continue
        for prime, sub in node.elements:
            if need_pos[j] or need_neg[j]:
                need_pos[prime] = True
            if need_pos[j]:
                need_pos[sub] = True
            if need_neg[j]:
                need_neg[sub] = True
    nodes: list[SddNode] = []
    pos_id = [-1] * n
    neg_id = [-1] * n
    for j in range(n):
        node = sdd.nodes[j]
        if need_pos[j]:
            pos_id[j] = len(nodes)
            if isinstance(node, SddDecision):
                nodes.append(
                    SddDecision(
                        node.vtree_id,
                        tuple((pos_id[p], pos_id[s]) for p, s in node.elements),
                    )
                )
            else:
                nodes.append(node)
        if need_neg[j]:
            neg_id[j] = len(nodes)
            if isinstance(node, SddFalse):
                nodes.append(SddTrue())
            elif isinstance(node, SddTrue):
                nodes.append(SddFalse())
            elif isinstance(node, SddLiteral):
                nodes.append(SddLiteral(node.var, not node.positive))
            else:
                nodes.append(
                    SddDecision(
                        node.vtree_id,
                        tuple((pos_id[p], neg_id[s]) for p, s in node.elements),
                    )
                )
    return Sdd(nodes, neg_id[sdd.root], sdd.vtree)


def is_consistent(sdd: Sdd) -> bool:
    """Satisfiability in one bottom-up pass.

    A decision node is consistent iff some element has a consistent
    prime and a consistent sub; sound because primes and subs range
    over disjoint variable sets.
    """
    return consistency_under(sdd, {})


def consistency_under(sdd: Sdd, fixed: Mapping[int, int]) -> bool:
    """Consistency of the diagram with `fixed` variables pinned: does
    some completion of `fixed` evaluate to 1?

    One bottom-up pass, with no conditioned diagram built. This is the
    reference evaluator: `SddClassifier` answers weak-AXp checks on a
    circuit lowered from the diagram, and the tests hold it to this
    function and this function to the completions, by `evaluate`.
    """
    _check_term(sdd, fixed)
    con = [False] * len(sdd.nodes)
    for j, node in enumerate(sdd.nodes):
        if isinstance(node, SddTrue):
            con[j] = True
        elif isinstance(node, SddLiteral):
            if node.var in fixed:
                con[j] = bool(fixed[node.var]) == node.positive
            else:
                con[j] = True
        elif isinstance(node, SddDecision):
            con[j] = any(con[p] and con[s] for p, s in node.elements)
    return con[sdd.root]
