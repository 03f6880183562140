"""CNF encodings of the feature membership query.

Both encodings replicate the classifier's indicator variables: replica
0 states that the selected features form a weak abductive explanation,
and replica k states that feature k, when selected, cannot be dropped.
The one-step form carries replicas 0..m and its models decode directly
to minimal explanations containing the target; the two-step form keeps
only replicas 0 and t, and its models are weak explanations from which
a witness is extracted afterwards by deletion.

Each query reads explain's `_Circuit`: OR gates over AND terms of at
most two operands, other gates and guards -s_i ("feature i is not
selected"); an explanation graph's nodes and the OR of its 0-terminals,
or an SDD's nodes with its root as the output, negated, with the nodes
it reaches in either polarity, for an instance of class 1. It is made
by the one lowering of each language and shaped once by
`explain._fold`: a gate becomes TRUE or FALSE, or gets its live terms,
with constant operands left out; a gate whose only live term is one
operand is that operand; and only the gates the output reads through
live terms are kept. Freeing a feature only turns guards TRUE, so a
constant gate is the same constant in every replica and no live
operand is ever FALSE. The circuit numbers its values in slots: TRUE
at 0, the guard -s_i at i, FALSE at m + 1, then the gates. An XpG
encoder refuses a graph without a 0-terminal (``EncodingError``).

Replica k sets slot k, the guard -s_k, TRUE; replica 0 keeps the output
FALSE, and replica k ties it to s_k. One emitter, `_emit_replica`,
makes every replica, 0 and k alike, by folding only live terms. A gate
that reduces to one literal in a replica is that literal, with no
variable. A gate's clauses include the product of its terms, which
each two-literal term doubles; a variable of its own costs such a term
three clauses. So of a gate's k two-literal terms the first k - 2, in
term order, get one: the rule "a term gets a variable where that takes
fewer clauses" in closed form. Replica k ≥ 1 re-evaluates only the
gates with an operand it changed, and inside them keeps replica 0's
variable for each term whose operands are unchanged. The emitter reads
the gates the weak-AXp checks read, so replica 0 defines no gate that
only constant gates or dropped terms read; a replica k ≥ 1 may still
define a gate whose every reader freeing feature k makes TRUE. Equal
literals inside a gate are not merged: that changes the bytes of every
file that has them.

Variable numbering is fixed for byte-stable output: the selector block
comes first (variables 1..m), then one block per replica in ascending
order. A block follows the circuit's evaluation order, operands before
the gates that read them, and gives each gate's term variables
(``e_k_j_i``, in term order) before the gate's own (``n_k_j``).

Every clause an encoder makes is a tuple of ints: immutable, smaller
than a list, and untracked by the cyclic garbage collector once it has
seen it. The DIMACS writer formats each block of clause lines with one
``%``: the format joins one string per clause length,
``"%d " * k + "0\n"``, made on first use, and the arguments are the
block's literals in order. A clause given as a list, a user's of any
length included, is written alike.

Nothing in replica 0 depends on the target, so it is built once per
(classifier, instance): each encoder takes an optional ``circuit``, the
adapter's for one (diagram, instance), whose instance the adapter has
checked and which its weak-AXp checks read too. The encoder keeps
replica 0 in the circuit's ``store`` once it is complete: its values,
term variables, clauses and roles. Each query then copies only what it
appends to, replica 0's clause list and roles, adds its ``[s_t]`` unit
and emits replica t (two-step) or 1..m (one-step), each on a copy of
replica 0's values. The copied formula keeps replica 0's as its base,
so the solver checks and packs replica 0's clauses once as well (see
`CnfFormula`). `build_encoding` passes the adapter's circuit for the
instance, which both methods share and which lives until the adapter
releases the instance. Without a circuit, an encoder checks an SDD's
instance, lowers the diagram or graph itself and keeps nothing.

Each encoder takes an optional ``deadline``, a ``time.time()`` value
(``math.inf`` for none), and raises ``SolverTimeout`` if it passes in
a negated SDD lowering or before a replica; a circuit's store is never
left half filled.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, islice, product as product_of
from math import inf
from typing import Iterable, Iterator, Sequence

from .errors import EncodingError, check_deadline
from .explain import Instance, _Circuit, _lower_sdd, _lower_xpg
from .sdd import Sdd, evaluate
from .xpg import XpGraph

__all__ = [
    "CnfFormula",
    "VarMap",
    "encode_sdd_onestep",
    "encode_sdd_twostep",
    "encode_xpg_onestep",
    "encode_xpg_twostep",
    "iter_dimacs",
    "write_dimacs",
]

# a constant gate's value in a replica; every other value is a literal
_TRUE = "T"
_FALSE = "F"


@dataclass
class CnfFormula:
    """Clause set over integer variables 1..num_vars.

    A clause is a sequence of nonzero ints: the encoders make tuples,
    and a list is accepted, solved and written alike.

    A copy knows the formula it was copied from, its ``base``. The
    solver keeps a base's checked and packed clauses in ``packed``, with
    a private copy of the clauses they came from, and gives the search
    of each copy that still starts with those clauses fresh copies of
    the packing, so a store's replica 0 is packed once for every query
    that extends it.
    """

    num_vars: int = 0
    clauses: list[Sequence[int]] = field(default_factory=list)
    base: CnfFormula | None = field(default=None, init=False, repr=False, compare=False)
    # (clauses, num_vars, units, body): what was checked and packed, and the
    # packing in kernel codes; set by the solver once both are complete
    packed: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add(self, clause: Sequence[int]) -> None:
        """Append the clause itself; its literals are checked when it reaches a solver."""
        if not clause:
            raise EncodingError("refusing to add an empty clause; encode the conflict explicitly")
        self.clauses.append(clause)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def copy(self) -> CnfFormula:
        """A formula with the same clauses, which appending to leaves this one as it is."""
        copy = CnfFormula(self.num_vars, self.clauses.copy())
        copy.base = self
        return copy


class VarMap:
    """The role of each CNF variable of one encoding, and each replica's output.

    Variables are numbered by position: the selectors s_1..s_m are
    variables 1..m, and the replica emitter numbers each later one in
    order and appends its role.
    """

    def __init__(self, num_features: int):
        self.num_features = num_features
        # replica, gate and term index (-1 for the gate itself) of each
        # gate or term variable, m + 1 onwards; one flat array holds a
        # one-step encoding's 100k+ roles in a few MB
        self._roles = array("i")
        # replica -> its output's value: a literal, or "T"/"F" when constant
        self.outputs: dict[int, int | str] = {}

    def copy(self) -> VarMap:
        """A map with the same roles and outputs, which allocating in
        leaves this one as it is."""
        vm = VarMap(self.num_features)
        vm._roles = self._roles[:]
        vm.outputs = self.outputs.copy()
        return vm

    def sel(self, i: int) -> int:
        """The selector s_i, variable i."""
        return i

    def legend(self, num_vars: int) -> Iterator[str]:
        """One ``c map <var> <name>`` line per variable 1..num_vars, in
        order; a variable past the roles is named ``v<var>``."""
        m = self.num_features
        roles = iter(self._roles)  # read three entries at a time
        named = m + len(self._roles) // 3
        yield from (f"c map {i} s_{i}\n" for i in range(1, m + 1))
        yield from (f"c map {var} n_{k}_{j}\n" if i < 0 else f"c map {var} e_{k}_{j}_{i}\n"
                    for var, k, j, i in zip(range(m + 1, named + 1), roles, roles, roles))
        yield from (f"c map {var} v{var}\n" for var in range(named + 1, num_vars + 1))

    def selected_features(self, model) -> frozenset[int]:
        """Decode the selector block of a satisfying assignment."""
        return frozenset(
            i for i in range(1, self.num_features + 1) if model.value(self.sel(i))
        )


# --------------------------------------------------------------------------
# encoding: replicas of the circuit
# --------------------------------------------------------------------------

def _check_target(num_features: int, target: int) -> None:
    if not 1 <= target <= num_features:
        raise EncodingError(f"target feature {target} outside 1..{num_features}")


def _sdd_circuit(sdd: Sdd, instance: Instance, circuit: _Circuit | None, deadline) -> _Circuit:
    """The given circuit, or the diagram's own, in the polarity of the
    class the instance declares and the diagram gives it."""
    if circuit is not None:
        return circuit
    m = sdd.num_features
    if len(instance.values) != m:
        raise EncodingError(
            f"instance has {len(instance.values)} values, classifier has {m} features"
        )
    if any(v not in (0, 1) for v in instance.values):
        raise EncodingError("SDD encodings need boolean instance values")
    predicted = int(evaluate(sdd, instance.values))
    if instance.label != predicted:
        raise EncodingError(f"instance declares class {instance.label} but the diagram "
                            f"evaluates to {predicted}")
    return _Circuit(*_lower_sdd(sdd, instance.values, predicted == 1, deadline), m, sdd)


def _xpg_circuit(xpg: XpGraph, circuit: _Circuit | None) -> _Circuit:
    """The given circuit or the graph's own, if the graph has a 0-terminal."""
    if not xpg.zero_terminals():
        raise EncodingError("graph has no 0-labeled terminal: the classifier is constant")
    return _Circuit(*_lower_xpg(xpg), xpg.num_features, xpg) if circuit is None else circuit


def _emit_replica(cnf, vm, circuit: _Circuit, replica: int, val: list, term_vars: dict) -> None:
    """Evaluate the replica's gates into ``val``, indexed by the
    circuit's slots, and append their variables, roles and clauses.

    Replica 0 evaluates every gate and records in ``term_vars``
    (lowered gate -> {position among its live terms: variable}) the
    terms that got a variable of their own. Replica k starts from
    replica 0's values with the guard -s_k, slot k, made TRUE, and
    re-evaluates only the readers of the slots it changes; in them, a
    term whose operands are both unchanged keeps replica 0's variable,
    if it has one.

    A gate folds its live terms: a term whose operands are both TRUE
    makes it TRUE, other TRUE operands vanish, and a gate left with one
    literal is that literal. Any other gate gets a variable n and the
    clauses of n <-> OR of its terms: for n -> OR the product of the
    terms, one clause per choice of a literal from each, then one clause
    (term -> n) per term. Before those, the first k - 2 of its k
    two-literal terms each get a variable e and the clauses of e <-> AND.
    """
    clauses = cnf.clauses
    roles = vm._roles
    nv = cnf.num_vars
    ids, terms_of = circuit.ids, circuit.terms
    first = circuit.num_features + 2  # the first gate's slot
    changed = bytearray(len(val))
    todo = bytearray(len(val))  # the slots to evaluate
    if replica:
        readers = circuit.readers
        val[replica] = _TRUE
        changed[replica] = 1
        for q, _ in readers[replica]:
            todo[q] = 1
    else:
        todo[first:] = b"\1" * len(ids)
    p = todo.find(1)
    while p >= 0:
        g = p - first
        j = ids[g]
        kept = term_vars.get(j) if replica else None
        lits = []  # one entry per live term, its literals, until the gate is TRUE
        pairs = []  # the positions in lits of the two-literal terms
        value = _TRUE  # unless the loop runs to its end
        for a, b in terms_of[g]:
            x = val[a]
            y = val[b]
            if x is _TRUE:
                if y is _TRUE:
                    break
                lits.append((y,))
            elif y is _TRUE:
                lits.append((x,))
            elif kept and len(lits) in kept and not (changed[a] or changed[b]):
                lits.append((kept[len(lits)],))
            else:
                pairs.append(len(lits))
                lits.append((x, y))
        else:
            if len(lits) == 1 and len(lits[0]) == 1:
                value = lits[0][0]
            else:
                for q in pairs[:-2]:
                    x, y = lits[q]
                    nv += 1
                    roles.extend((replica, j, circuit.term_ids[g][q]))
                    clauses += ((-nv, x), (-nv, y), (nv, -x, -y))
                    lits[q] = (nv,)
                    if not replica:
                        term_vars.setdefault(j, {})[q] = nv
                nv += 1
                roles.extend((replica, j, -1))
                clauses += product_of((-nv,), *lits)
                for ops in lits:
                    if len(ops) == 1:
                        clauses.append((nv, -ops[0]))
                    else:
                        clauses.append((nv, -ops[0], -ops[1]))
                value = nv
        if value != val[p]:
            val[p] = value
            changed[p] = 1
            if replica:  # replica 0 evaluates every gate anyway
                for q, _ in readers[p]:
                    todo[q] = 1
        p = todo.find(1, p + 1)
    cnf.num_vars = nv


def _replica0(circuit: _Circuit, deadline) -> dict:
    """Replica 0 on the circuit: its values, term variables, clauses and
    roles, then the unit keeping its output FALSE (fixing the selection
    keeps the class; the input checks rule out a TRUE output, the
    instance's own class). None of it depends on the target."""
    m = circuit.num_features
    cnf = CnfFormula(m)  # the selectors
    vm = VarMap(m)
    check_deadline(deadline, "encoding exceeded its time limit before replica 0")
    # TRUE, the guards -s_1 .. -s_m, FALSE, and the gates
    val = [_TRUE, *range(-1, -m - 1, -1), _FALSE] + [None] * len(circuit.ids)
    term_vars: dict[int, dict[int, int]] = {}
    _emit_replica(cnf, vm, circuit, 0, val, term_vars)
    output = vm.outputs[0] = val[circuit.output]
    if output != _FALSE:
        cnf.add((-output,))
    return {"val": val, "term_vars": term_vars, "cnf": cnf, "vm": vm}


def _encode(circuit, checked, m: int, target: int, replicas: Iterable[int], deadline):
    """Replica 0 keeps the output FALSE and selects the target; replica k
    ties the output to s_k.

    The circuit keeps replica 0 of its (diagram, instance) in its
    ``store``. While that is empty, ``checked(circuit)`` checks the
    input and, given None, makes the circuit, and the store is filled
    once replica 0 is complete; a filled one skips both. Every query
    appends to copies of its clause list and roles, and evaluates each
    replica k on a copy of its values.
    """
    _check_target(m, target)
    if circuit is None or not circuit.store:
        circuit = checked(circuit)
        circuit.store.update(_replica0(circuit, deadline))
    store = circuit.store
    cnf, vm = store["cnf"].copy(), store["vm"].copy()
    cnf.add((vm.sel(target),))
    for k in replicas:
        check_deadline(deadline, f"encoding exceeded its time limit before replica {k}")
        val = store["val"].copy()
        _emit_replica(cnf, vm, circuit, k, val, store["term_vars"])
        output = vm.outputs[k] = val[circuit.output]
        s = vm.sel(k)
        if output in (_TRUE, _FALSE):
            cnf.add((s if output == _TRUE else -s,))
        else:
            # a selected feature must be necessary: freeing it flips the class
            cnf.clauses += ((-s, output), (s, -output))
    return cnf, vm


def encode_sdd_onestep(sdd: Sdd, instance: Instance, target: int, *, deadline=inf, circuit=None):
    """Replicas 0..m; every model decodes to an AXp containing the target."""
    m = sdd.num_features
    return _encode(circuit, lambda c: _sdd_circuit(sdd, instance, c, deadline), m, target,
                   range(1, m + 1), deadline)


def encode_sdd_twostep(sdd: Sdd, instance: Instance, target: int, *, deadline=inf, circuit=None):
    """Replicas 0 and t; models are weak AXps whose every contained AXp
    includes the target."""
    return _encode(circuit, lambda c: _sdd_circuit(sdd, instance, c, deadline),
                   sdd.num_features, target, (target,), deadline)


def encode_xpg_onestep(xpg: XpGraph, target: int, *, deadline=inf, circuit=None):
    """Replicas 0..m over the graph's activation semantics."""
    m = xpg.num_features
    return _encode(circuit, lambda c: _xpg_circuit(xpg, c), m, target, range(1, m + 1), deadline)


def encode_xpg_twostep(xpg: XpGraph, target: int, *, deadline=inf, circuit=None):
    """Replicas 0 and t only."""
    return _encode(circuit, lambda c: _xpg_circuit(xpg, c), xpg.num_features, target, (target,),
                   deadline)


# --------------------------------------------------------------------------
# DIMACS output
# --------------------------------------------------------------------------

DIMACS_BLOCK_LINES = 4096  # lines joined into each block iter_dimacs yields


def _blocks(lines: Iterable[str]) -> Iterator[str]:
    """Newline-terminated lines, joined DIMACS_BLOCK_LINES at a time."""
    lines = iter(lines)
    while block := "".join(islice(lines, DIMACS_BLOCK_LINES)):
        yield block


class _LineFormats(dict):
    """Clause length k -> the line format ``"%d " * k + "0\\n"``, made on first use."""

    def __missing__(self, k: int) -> str:
        line = self[k] = "%d " * k + "0\n"
        return line


def iter_dimacs(cnf: CnfFormula, varmap: VarMap | None = None) -> Iterator[str]:
    """Standard DIMACS text as a sequence of blocks of whole lines.

    With a varmap the text opens with one ``c map <var> <name>`` line
    per variable; then comes the ``p cnf`` line and one line per clause.
    Only one block of text is held at a time, so ``sink.writelines``
    writes a formula of any size in bounded extra memory. Each block of
    clause lines is one ``%``: its lines' formats joined, applied to its
    literals in order.
    """
    if varmap is not None:
        yield from _blocks(varmap.legend(cnf.num_vars))
    yield f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n"
    line_format = _LineFormats().__getitem__
    clauses = iter(cnf.clauses)
    while block := list(islice(clauses, DIMACS_BLOCK_LINES)):
        yield "".join(map(line_format, map(len, block))) % tuple(chain.from_iterable(block))


def write_dimacs(cnf: CnfFormula, varmap: VarMap | None = None) -> str:
    """The whole text of `iter_dimacs` as one string."""
    return "".join(iter_dimacs(cnf, varmap))
