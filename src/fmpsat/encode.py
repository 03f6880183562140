"""CNF encodings of the feature membership query.

Both encodings replicate the classifier's indicator variables: replica
0 states that the selected features form a weak abductive explanation,
and replica k states that feature k, when selected, cannot be dropped.
The one-step form carries replicas 0..m and its models decode directly
to minimal explanations containing the target; the two-step form keeps
only replicas 0 and t, and its models are weak explanations from which
a witness is extracted afterwards by deletion.

Replica k ≥ 1 differs from replica 0 only where feature k is freed:
below a 0-labelled edge out of a feature-k node of an explanation
graph, or above a literal on k that the instance falsifies in an SDD.
Every other node, and every SDD element whose prime and sub are both
shared, keeps replica 0's indicator, and replica k emits no clauses
for it.

Variable numbering is fixed for byte-stable output: the selector block
comes first (variables 1..m), then one block per replica in ascending
order, then auxiliary variables in emission order. Replica 0's block
holds every node; replica k's holds only the nodes it re-defines. In
each block come node indicators in node order, then per-element
indicators for SDDs, or the evaluation indicator for explanation
graphs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import EncodingError
from .explain import Instance
from .sdd import Sdd, SddDecision, SddFalse, SddLiteral, SddTrue, evaluate
from .xpg import XpGraph, XpgTerminal

__all__ = [
    "CnfFormula",
    "VarMap",
    "clausify_eq_or",
    "clausify_eq_and",
    "encode_sdd_onestep",
    "encode_sdd_twostep",
    "encode_xpg_onestep",
    "encode_xpg_twostep",
    "iter_dimacs",
    "write_dimacs",
]

_TRUE = "T"
_FALSE = "F"


@dataclass
class CnfFormula:
    """Clause set over integer variables 1..num_vars."""

    num_vars: int = 0
    clauses: list[list[int]] = field(default_factory=list)

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add(self, clause: list[int]) -> None:
        """Append the clause itself; its literals are checked when it reaches a solver."""
        if not clause:
            raise EncodingError("refusing to add an empty clause; encode the conflict explicitly")
        self.clauses.append(clause)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


class VarMap:
    """The role of each CNF variable of one encoding."""

    def __init__(self, num_features: int):
        self.num_features = num_features
        self._sel: list[int] = []
        self._node: dict[tuple[int, int], int] = {}
        self._elem: dict[tuple[int, int, int], int] = {}
        self._sigma: dict[int, int] = {}
        self._aux: list[int] = []

    def allocate_selectors(self, cnf: CnfFormula) -> None:
        for i in range(1, self.num_features + 1):
            var = cnf.new_var()
            self._sel.append(var)

    def sel(self, i: int) -> int:
        return self._sel[i - 1]

    def add_node(self, cnf: CnfFormula, replica: int, node: int) -> int:
        var = cnf.new_var()
        self._node[(replica, node)] = var
        return var

    def node(self, replica: int, node: int) -> int:
        """The node's indicator in the replica, replica 0's unless the replica re-defines it."""
        return self._node.get((replica, node)) or self._node[(0, node)]

    def add_element(self, cnf: CnfFormula, replica: int, node: int, index: int) -> int:
        var = cnf.new_var()
        self._elem[(replica, node, index)] = var
        return var

    def element(self, replica: int, node: int, index: int) -> int:
        """The element's indicator in the replica, replica 0's unless the replica re-defines it."""
        return self._elem.get((replica, node, index)) or self._elem[(0, node, index)]

    def add_sigma(self, cnf: CnfFormula, replica: int) -> int:
        var = cnf.new_var()
        self._sigma[replica] = var
        return var

    def sigma(self, replica: int) -> int:
        return self._sigma[replica]

    def add_aux(self, cnf: CnfFormula) -> int:
        var = cnf.new_var()
        self._aux.append(var)
        return var

    def legend(self, num_vars: int) -> Iterator[str]:
        """One ``c map <var> <name>`` line per variable 1..num_vars, in order.

        Each role map holds its variables in allocation order, so a merge
        of the maps yields the lines one at a time. A variable made by
        ``cnf.new_var()`` outside this map is named ``v<var>``.
        """
        named = heapq.merge(
            ((var, f"c map {var} s_{i}\n") for i, var in enumerate(self._sel, start=1)),
            ((var, f"c map {var} n_{k}_{j}\n") for (k, j), var in self._node.items()),
            ((var, f"c map {var} e_{k}_{j}_{i}\n") for (k, j, i), var in self._elem.items()),
            ((var, f"c map {var} sigma_{k}\n") for k, var in self._sigma.items()),
            ((var, f"c map {var} aux_{i}\n") for i, var in enumerate(self._aux, start=1)),
        )
        unnamed = 1  # the first variable not yet listed
        for var, line in named:
            while unnamed < var:
                yield f"c map {unnamed} v{unnamed}\n"
                unnamed += 1
            yield line
            unnamed = var + 1
        yield from (f"c map {var} v{var}\n" for var in range(unnamed, num_vars + 1))

    def selected_features(self, model) -> frozenset[int]:
        """Decode the selector block of a satisfying assignment."""
        return frozenset(
            i for i in range(1, self.num_features + 1) if model.value(self.sel(i))
        )


# --------------------------------------------------------------------------
# clausification helpers
# --------------------------------------------------------------------------

def clausify_eq_or(cnf: CnfFormula, var: int, literals: Sequence[int]) -> None:
    """var <-> (l1 or ... or ln), both directions."""
    lits = list(literals)
    if not lits:
        raise EncodingError("equivalence with an empty disjunction")
    cnf.add([-var] + lits)
    for lit in lits:
        cnf.add([var, -lit])


def clausify_eq_and(cnf: CnfFormula, var: int, literals: Sequence[int]) -> None:
    """var <-> (l1 and ... and ln), both directions."""
    lits = list(literals)
    if not lits:
        raise EncodingError("equivalence with an empty conjunction")
    for lit in lits:
        cnf.add([-var, lit])
    cnf.add([var] + [-lit for lit in lits])


# --------------------------------------------------------------------------
# SDD encoding
# --------------------------------------------------------------------------

def _check_target(num_features: int, target: int) -> None:
    if not 1 <= target <= num_features:
        raise EncodingError(f"target feature {target} outside 1..{num_features}")


def _sdd_box_value(sdd: Sdd, vm: VarMap, values, replica: int, node_id: int):
    """What a prime or sub box contributes to its element's conjunction.

    Constant boxes simplify away; a literal box resolves against the
    instance (a literal on the replica's own feature always passes);
    a decision box contributes its indicator variable.
    """
    node = sdd.nodes[node_id]
    if isinstance(node, SddFalse):
        return _FALSE
    if isinstance(node, SddTrue):
        return _TRUE
    if isinstance(node, SddLiteral):
        satisfied = bool(values[node.var - 1]) == node.positive
        if satisfied or node.var == replica:
            return _TRUE
        return -vm.sel(node.var)
    return vm.node(replica, node_id)


def _sdd_redefined(sdd: Sdd, values: Sequence[int], replica: int) -> list[bool]:
    """Which nodes the replica defines differently from replica 0.

    A literal on the replica's feature that the instance falsifies
    passes in the replica only; a decision node changes with any of its
    primes or subs. Node ids list children before their parents.
    """
    if replica == 0:
        return [True] * len(sdd.nodes)
    falsified = SddLiteral(replica, not values[replica - 1])
    changed: list[bool] = []
    for node in sdd.nodes:
        if isinstance(node, SddDecision):
            changed.append(any(changed[p] or changed[s] for p, s in node.elements))
        else:
            changed.append(node == falsified)
    return changed


def _emit_sdd_replica(
    cnf: CnfFormula, vm: VarMap, sdd: Sdd, values: Sequence[int], replica: int,
    own: list[bool],
) -> None:
    """Clauses for the nodes the replica re-defines (``own``); an element
    whose prime and sub are both shared is shared too."""
    for j, node in enumerate(sdd.nodes):
        if not own[j] or isinstance(node, (SddFalse, SddTrue)):
            continue  # shared, or allocated but constant and folded into parents
        if isinstance(node, SddLiteral):
            n = vm.node(replica, j)
            box = _sdd_box_value(sdd, vm, values, replica, j)
            if box == _TRUE:
                cnf.add([n])
            else:
                clausify_eq_or(cnf, n, [box])
            continue
        # decision node: one indicator per element, then the disjunction
        surviving: list[int] = []
        for idx, (prime, sub) in enumerate(node.elements):
            e = vm.element(replica, j, idx)
            ops = [
                _sdd_box_value(sdd, vm, values, replica, prime),
                _sdd_box_value(sdd, vm, values, replica, sub),
            ]
            if not (own[prime] or own[sub]):
                if _FALSE not in ops:
                    surviving.append(e)  # replica 0's element, defined there
                continue
            if _FALSE in ops:
                cnf.add([-e])  # dead element, dropped from the disjunction
                continue
            lits = [op for op in ops if op != _TRUE]
            if not lits:
                cnf.add([e])
            else:
                clausify_eq_and(cnf, e, lits)
            surviving.append(e)
        n = vm.node(replica, j)
        if surviving:
            clausify_eq_or(cnf, n, surviving)
        else:
            cnf.add([-n])


def _encode_sdd(sdd: Sdd, instance: Instance, target: int, replicas: Sequence[int]):
    m = sdd.num_features
    _check_target(m, target)
    if len(instance.values) != m:
        raise EncodingError(
            f"instance has {len(instance.values)} values, classifier has {m} features"
        )
    if any(v not in (0, 1) for v in instance.values):
        raise EncodingError("SDD encodings need boolean instance values")
    if instance.label != 0:
        raise EncodingError(
            "SDD encodings require class 0; negate the diagram and flip the class first"
        )
    if evaluate(sdd, instance.values):
        raise EncodingError("instance declares class 0 but the diagram evaluates to 1")

    cnf = CnfFormula()
    vm = VarMap(m)
    vm.allocate_selectors(cnf)
    own = {k: _sdd_redefined(sdd, instance.values, k) for k in replicas}
    for k in replicas:
        changed = own[k]
        for j in range(len(sdd.nodes)):
            if changed[j]:
                vm.add_node(cnf, k, j)
        for j, node in enumerate(sdd.nodes):
            if changed[j] and isinstance(node, SddDecision):
                for idx, (prime, sub) in enumerate(node.elements):
                    if changed[prime] or changed[sub]:
                        vm.add_element(cnf, k, j, idx)
    for k in replicas:
        _emit_sdd_replica(cnf, vm, sdd, instance.values, k, own[k])
        if k == 0:
            cnf.add([-vm.node(0, sdd.root)])  # fixing the selection keeps class 0
            cnf.add([vm.sel(target)])
        else:
            # a selected feature must be necessary: freeing it flips the class
            s, n = vm.sel(k), vm.node(k, sdd.root)
            cnf.add([-s, n])
            cnf.add([s, -n])
    return cnf, vm


def encode_sdd_onestep(sdd: Sdd, instance: Instance, target: int):
    """Replicas 0..m; every model decodes to an AXp containing the target."""
    return _encode_sdd(sdd, instance, target, range(sdd.num_features + 1))


def encode_sdd_twostep(sdd: Sdd, instance: Instance, target: int):
    """Replicas 0 and t; models are weak AXps whose every contained AXp
    includes the target."""
    return _encode_sdd(sdd, instance, target, (0, target))


# --------------------------------------------------------------------------
# explanation graph encoding
# --------------------------------------------------------------------------

def _xpg_redefined(xpg: XpGraph, replica: int) -> list[int]:
    """The nodes the replica defines differently from replica 0, in node order.

    A 0-labelled edge out of a node on the replica's feature passes in
    the replica only: the nodes below such an edge change, and so do
    the nodes below a changed node. Agreeing terminals are never encoded.
    """
    nodes, in_edges = xpg.nodes, xpg._in_edges
    if replica == 0:
        changed = [True] * len(nodes)
    else:
        changed = [False] * len(nodes)
        for j in xpg._topo:
            for p, label in in_edges[j]:
                if changed[p] or (label == 0 and nodes[p].var == replica):
                    changed[j] = True
                    break
    return [
        j for j, node in enumerate(nodes)
        if changed[j] and not (isinstance(node, XpgTerminal) and node.label == 1)
    ]


def _emit_xpg_replica(
    cnf: CnfFormula, vm: VarMap, xpg: XpGraph, replica: int, own: list[int]
) -> None:
    """Clauses for the nodes the replica re-defines (``own``) and its evaluation."""
    for j in own:
        n = vm.node(replica, j)
        if j == xpg.root:
            cnf.add([n])
            continue
        operands: list[tuple[int, int | None]] = []
        for parent, label in xpg.in_edges(j):
            p = vm.node(replica, parent)
            feat = xpg.nodes[parent].var
            if label == 1 or feat == replica:
                operands.append((p, None))  # edge passes unconditionally
            else:
                operands.append((p, -vm.sel(feat)))
        if len(operands) == 1:
            p, guard = operands[0]
            if guard is None:
                clausify_eq_or(cnf, n, [p])
            else:
                clausify_eq_and(cnf, n, [p, guard])
        else:
            lits: list[int] = []
            for p, guard in operands:
                if guard is None:
                    lits.append(p)
                else:
                    a = vm.add_aux(cnf)
                    clausify_eq_and(cnf, a, [p, guard])
                    lits.append(a)
            clausify_eq_or(cnf, n, lits)
    zeros = xpg.zero_terminals()
    clausify_eq_and(cnf, vm.sigma(replica), [-vm.node(replica, z) for z in zeros])


def _encode_xpg(xpg: XpGraph, target: int, replicas: Sequence[int]):
    m = xpg.num_features
    _check_target(m, target)
    if not xpg.zero_terminals():
        raise EncodingError("graph has no 0-labeled terminal: the classifier is constant")

    cnf = CnfFormula()
    vm = VarMap(m)
    vm.allocate_selectors(cnf)
    own = {k: _xpg_redefined(xpg, k) for k in replicas}
    for k in replicas:
        for j in own[k]:
            vm.add_node(cnf, k, j)
        vm.add_sigma(cnf, k)
    for k in replicas:
        _emit_xpg_replica(cnf, vm, xpg, k, own[k])
        if k == 0:
            cnf.add([vm.sigma(0)])  # the selection is a weak explanation
            cnf.add([vm.sel(target)])
        else:
            # selected <-> freeing the feature breaks the explanation
            s, sig = vm.sel(k), vm.sigma(k)
            cnf.add([-s, -sig])
            cnf.add([s, sig])
    return cnf, vm


def encode_xpg_onestep(xpg: XpGraph, target: int):
    """Replicas 0..m over the graph's activation semantics."""
    return _encode_xpg(xpg, target, range(xpg.num_features + 1))


def encode_xpg_twostep(xpg: XpGraph, target: int):
    """Replicas 0 and t only."""
    return _encode_xpg(xpg, target, (0, target))


# --------------------------------------------------------------------------
# DIMACS output
# --------------------------------------------------------------------------

DIMACS_BLOCK_LINES = 4096  # lines joined into each block iter_dimacs yields


def _blocks(lines: Iterable[str]) -> Iterator[str]:
    """Newline-terminated lines, joined DIMACS_BLOCK_LINES at a time."""
    lines = iter(lines)
    while block := "".join(islice(lines, DIMACS_BLOCK_LINES)):
        yield block


def iter_dimacs(cnf: CnfFormula, varmap: VarMap | None = None) -> Iterator[str]:
    """Standard DIMACS text as a sequence of blocks of whole lines.

    With a varmap the text opens with one ``c map <var> <name>`` line
    per variable; then comes the ``p cnf`` line and one line per clause.
    Only one block of text is held at a time, so ``sink.writelines``
    writes a formula of any size in bounded extra memory.
    """
    if varmap is not None:
        yield from _blocks(varmap.legend(cnf.num_vars))
    yield f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n"
    yield from _blocks(" ".join(map(str, clause)) + " 0\n" for clause in cnf.clauses)


def write_dimacs(cnf: CnfFormula, varmap: VarMap | None = None) -> str:
    """The whole text of `iter_dimacs` as one string."""
    return "".join(iter_dimacs(cnf, varmap))
