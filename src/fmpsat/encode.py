"""CNF encodings of the feature membership query.

Both encodings replicate the classifier's indicator variables: replica
0 states that the selected features form a weak abductive explanation,
and replica k states that feature k, when selected, cannot be dropped.
The one-step form carries replicas 0..m and its models decode directly
to minimal explanations containing the target; the two-step form keeps
only replicas 0 and t, and its models are weak explanations from which
a witness is extracted afterwards by deletion.

Variable numbering is fixed for byte-stable output: the selector block
comes first (variables 1..m), then one block per replica in ascending
order (node indicators in node order, per-element indicators for SDDs,
the evaluation indicator for explanation graphs), then auxiliary
variables in emission order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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
        return self._node[(replica, node)]

    def add_element(self, cnf: CnfFormula, replica: int, node: int, index: int) -> int:
        var = cnf.new_var()
        self._elem[(replica, node, index)] = var
        return var

    def element(self, replica: int, node: int, index: int) -> int:
        return self._elem[(replica, node, index)]

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

    def legend(self, num_vars: int) -> list[str]:
        """One ``c map <var> <name>`` line per variable 1..num_vars, named by role."""
        lines: list[str | None] = [None] * num_vars
        for i, var in enumerate(self._sel, start=1):
            lines[var - 1] = f"c map {var} s_{i}"
        for (k, j), var in self._node.items():
            lines[var - 1] = f"c map {var} n_{k}_{j}"
        for (k, j, idx), var in self._elem.items():
            lines[var - 1] = f"c map {var} e_{k}_{j}_{idx}"
        for k, var in self._sigma.items():
            lines[var - 1] = f"c map {var} sigma_{k}"
        for i, var in enumerate(self._aux, start=1):
            lines[var - 1] = f"c map {var} aux_{i}"
        return [line or f"c map {var} v{var}" for var, line in enumerate(lines, start=1)]

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


def _emit_sdd_replica(
    cnf: CnfFormula, vm: VarMap, sdd: Sdd, values: Sequence[int], replica: int
) -> None:
    for j, node in enumerate(sdd.nodes):
        if isinstance(node, (SddFalse, SddTrue)):
            continue  # indicator allocated but constant; folded into parents
        if isinstance(node, SddLiteral):
            n = vm.node(replica, j)
            satisfied = bool(values[node.var - 1]) == node.positive
            if satisfied or node.var == replica:
                cnf.add([n])
            else:
                s = vm.sel(node.var)
                cnf.add([-n, -s])
                cnf.add([n, s])
            continue
        # decision node: one indicator per element, then the disjunction
        surviving: list[int] = []
        for idx, (prime, sub) in enumerate(node.elements):
            e = vm.element(replica, j, idx)
            ops = [
                _sdd_box_value(sdd, vm, values, replica, prime),
                _sdd_box_value(sdd, vm, values, replica, sub),
            ]
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
    for k in replicas:
        for j in range(len(sdd.nodes)):
            vm.add_node(cnf, k, j)
        for j, node in enumerate(sdd.nodes):
            if isinstance(node, SddDecision):
                for idx in range(len(node.elements)):
                    vm.add_element(cnf, k, j, idx)
    for k in replicas:
        _emit_sdd_replica(cnf, vm, sdd, instance.values, k)
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

def _emit_xpg_replica(cnf: CnfFormula, vm: VarMap, xpg: XpGraph, replica: int) -> None:
    for j, node in enumerate(xpg.nodes):
        if isinstance(node, XpgTerminal) and node.label == 1:
            continue  # evaluation never looks at agreeing terminals
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
    for k in replicas:
        for j, node in enumerate(xpg.nodes):
            if isinstance(node, XpgTerminal) and node.label == 1:
                continue
            vm.add_node(cnf, k, j)
        vm.add_sigma(cnf, k)
    for k in replicas:
        _emit_xpg_replica(cnf, vm, xpg, k)
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

def write_dimacs(cnf: CnfFormula, varmap: VarMap | None = None) -> str:
    """Standard DIMACS text; the optional legend maps variables to names."""
    lines = [] if varmap is None else varmap.legend(cnf.num_vars)
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in cnf.clauses)
    return "\n".join(lines) + "\n"
