"""CNF encodings of the feature membership query.

Both encodings replicate the classifier's indicator variables: replica
0 states that the selected features form a weak abductive explanation,
and replica k states that feature k, when selected, cannot be dropped.
The one-step form carries replicas 0..m and its models decode directly
to minimal explanations containing the target; the two-step form keeps
only replicas 0 and t, and its models are weak explanations from which
a witness is extracted afterwards by deletion.

Each query is first lowered to one circuit of OR gates over AND terms
whose operands are other gates and guards -s_i ("feature i is not
selected"): an explanation graph's nodes and the OR of its 0-terminals,
or an SDD's nodes with its root as the output. Replica k reads the
guard -s_k as TRUE; replica 0 keeps the output FALSE, and replica k
ties it to s_k. Both lowerings make terms of at most two operands, and
a circuit with a longer term is refused (``EncodingError``) once, before
replica 0.

One pass, `_live_terms`, folds the circuit's constants once, before
replica 0: each gate of the output's cone becomes TRUE or FALSE, or
gets its live terms, with constant operands left out. Freeing a
feature only turns guards TRUE, so a constant gate is the same
constant in every replica and no live operand is ever FALSE. One
emitter, `_emit_replica`, then makes every replica, 0 and k alike, by
folding only live terms. A gate that reduces to one literal is that
literal, with no variable. A gate's clauses include the product of its
terms, which each two-literal term doubles; a variable of its own costs
such a term three clauses. So of a gate's k two-literal terms the
first k - 2, in term order, get one: the rule "a term gets a variable
where that takes fewer clauses" in closed form. Replica k ≥ 1
re-evaluates only the gates with an operand it changed, and inside them
keeps replica 0's variable for each term whose operands are unchanged.
The cone stays structural, so a gate that only constant-TRUE gates or
dropped terms read still gets its variable and clauses, and equal
literals inside a gate are not merged: removing either changes the
bytes of every file that has them.

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
(classifier, instance): each encoder takes an optional ``store``, a
dict for one (diagram, instance) that the encoder fills once replica 0
is complete: the cone, its readers and live terms (not the lowered
gates), and replica 0's values, term variables, clauses and roles.
With a filled one it skips the lowering, the folding pass and replica
0. Each query then copies only what it appends to, replica 0's clause
list and roles, adds its ``[s_t]`` unit and emits replica t (two-step)
or 1..m (one-step), each on a copy of replica 0's values. The copied
formula keeps replica 0's as its base, so the solver checks and packs
replica 0's clauses once as well (see `CnfFormula`). `build_encoding`
passes the adapter's store for the instance, which both methods share
and which lives until the adapter releases the instance.

Each encoder takes an optional ``deadline``, a ``time.time()`` value
(``math.inf`` for none), and raises ``SolverTimeout`` if it has passed
before a replica; a store is never left half filled.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, islice, product as product_of
from math import inf
from typing import Iterable, Iterator, Sequence

from .errors import EncodingError, check_deadline
from .explain import Instance
from .sdd import Sdd, SddDecision, SddLiteral, SddTrue, evaluate
from .xpg import XpGraph

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
# clausification helpers
# --------------------------------------------------------------------------

def clausify_eq_or(cnf: CnfFormula, var: int, literals: Sequence[int]) -> None:
    """var <-> (l1 or ... or ln), both directions."""
    lits = list(literals)
    if not lits:
        raise EncodingError("equivalence with an empty disjunction")
    add = cnf.clauses.append
    add((-var, *lits))
    for lit in lits:
        add((var, -lit))


def clausify_eq_and(cnf: CnfFormula, var: int, literals: Sequence[int]) -> None:
    """var <-> (l1 and ... and ln), both directions."""
    if not literals:
        raise EncodingError("equivalence with an empty conjunction")
    add = cnf.clauses.append
    for lit in literals:
        add((-var, lit))
    add((var, *[-lit for lit in literals]))


# --------------------------------------------------------------------------
# lowering: one circuit per query
# --------------------------------------------------------------------------
#
# A circuit is a list of gates. A gate is the OR of its terms, and a term
# is the AND of its operands: operand o >= 0 is gate o, and o = -i is the
# guard "feature i is not selected", -s_i. An empty term is TRUE and a
# gate without terms is FALSE. The order lists gates with their operands
# first and ends with the output.

def _check_target(num_features: int, target: int) -> None:
    if not 1 <= target <= num_features:
        raise EncodingError(f"target feature {target} outside 1..{num_features}")


def _lower_sdd(sdd: Sdd, instance: Instance):
    """Gate j: node j stays consistent with the selected features fixed.

    A decision node is the OR of its (prime AND sub) elements, a literal
    the instance satisfies is TRUE and one it falsifies is -s_var. The
    output is the root.
    """
    m = sdd.num_features
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
    gates: list[Sequence[tuple[int, ...]]] = []
    for node in sdd.nodes:
        if isinstance(node, SddDecision):
            gates.append(node.elements)
        elif isinstance(node, SddLiteral):
            satisfied = bool(instance.values[node.var - 1]) == node.positive
            gates.append([()] if satisfied else [(-node.var,)])
        else:
            gates.append([()] if isinstance(node, SddTrue) else [])
    return gates, list(range(sdd.root + 1))


def _lower_xpg(xpg: XpGraph):
    """Gate j: node j is reached from the root with the selected features fixed.

    Gate j is the OR over its in-edges (p, label) of gate p, ANDed with
    -s_var(p) when the label is 0; the root is TRUE. The output, one
    gate past the nodes, is the OR of the 0-terminals.
    """
    zeros = xpg.zero_terminals()
    if not zeros:
        raise EncodingError("graph has no 0-labeled terminal: the classifier is constant")
    nodes = xpg.nodes
    gates = [
        [()] if j == xpg.root
        else [(p,) if label else (p, -nodes[p].var) for p, label in xpg.in_edges(j)]
        for j in range(len(nodes))
    ]
    gates.append([(z,) for z in zeros])
    return gates, xpg._topo + [len(nodes)]


# --------------------------------------------------------------------------
# encoding: replicas of the circuit
# --------------------------------------------------------------------------

def _cone(gates, order: list[int], num_features: int):
    """The gates of ``order`` that its last gate, the output, depends on,
    and for each operand the positions in that list of the gates reading it."""
    # indexed like a replica's values, so a guard -i marks an entry past the gates
    needed = bytearray(len(gates) + num_features)
    needed[order[-1]] = 1
    for j in reversed(order):
        if needed[j]:
            for term in gates[j]:
                for o in term:
                    needed[o] = 1
    cone = [j for j in order if needed[j]]
    readers: list[list[int]] = [[] for _ in needed]
    for p, j in enumerate(cone):
        for term in gates[j]:
            for o in term:
                readers[o].append(p)
    # kept with replica 0: tuples hold it in less memory, and () is shared
    return cone, [tuple(r) for r in readers]


def _live_terms(gates, cone: list[int], val: list) -> list:
    """Fold the circuit's constants once: each cone gate's live terms, in
    cone order.

    ``val`` holds replica 0's guards, and the pass writes TRUE or FALSE
    into it for each gate that is constant: one with a term whose
    operands are all TRUE, or with no term left once the terms with a
    FALSE operand are dropped. A constant gate gets None; any other gets
    its live terms, (term index, operand, operand or None), with TRUE
    operands left out. Freeing a feature only turns guards TRUE, so a
    constant gate is the same constant in every replica, and no live
    operand is ever FALSE.
    """
    live = []
    for j in cone:
        terms = []
        for i, term in enumerate(gates[j]):
            a, b = term + (None,) * (2 - len(term))  # a missing operand is TRUE
            x = _TRUE if a is None else val[a]
            y = _TRUE if b is None else val[b]
            if x is _FALSE or y is _FALSE:
                continue
            if x is _TRUE:
                if y is _TRUE:
                    val[j] = _TRUE
                    break
                a, b = b, None
            elif y is _TRUE:
                b = None
            terms.append((i, a, b))
        else:
            if not terms:
                val[j] = _FALSE
        live.append(tuple(terms) if val[j] is None else None)
    return live


def _emit_replica(cnf, vm, live, cone, readers, replica, val, term_vars) -> None:
    """Evaluate the replica's live gates into ``val``, and append their
    variables, roles and clauses.

    Replica 0 evaluates every live gate and records in ``term_vars``
    (gate -> {term index: variable}) the terms that got a variable of
    their own. Replica k starts from replica 0's values with the guard
    -s_k made TRUE, and re-evaluates only the gates with an operand it
    changed; in them, a term whose operands are both unchanged keeps
    replica 0's variable, if it has one.

    A gate folds its live terms: a term whose operands are all TRUE
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
    changed = bytearray(len(val))
    todo = bytearray(len(cone))  # the positions in the cone to evaluate
    if replica:
        val[-replica] = _TRUE
        changed[-replica] = 1
        for p in readers[-replica]:
            todo[p] = 1
    else:
        todo[:] = b"\1" * len(cone)
    p = todo.find(1)
    while p >= 0:
        terms = live[p]
        if terms is not None:
            j = cone[p]
            kept = term_vars.get(j) if replica else None
            lits = []  # each term's literals
            pairs = []  # (position in lits, term index) of the two-literal terms
            value = _TRUE  # unless the loop runs to its end
            for i, a, b in terms:
                x = val[a]
                if b is None:
                    if x is _TRUE:
                        break
                    lits.append((x,))
                    continue
                y = val[b]
                if x is _TRUE:
                    if y is _TRUE:
                        break
                    lits.append((y,))
                elif y is _TRUE:
                    lits.append((x,))
                elif kept and i in kept and not (changed[a] or changed[b]):
                    lits.append((kept[i],))
                else:
                    pairs.append((len(lits), i))
                    lits.append((x, y))
            else:
                if len(lits) == 1 and len(lits[0]) == 1:
                    value = lits[0][0]
                else:
                    for q, i in pairs[:-2]:
                        x, y = lits[q]
                        nv += 1
                        roles.extend((replica, j, i))
                        clauses += ((-nv, x), (-nv, y), (nv, -x, -y))
                        lits[q] = (nv,)
                        if not replica:
                            term_vars.setdefault(j, {})[i] = nv
                    nv += 1
                    roles.extend((replica, j, -1))
                    clauses += product_of((-nv,), *lits)
                    for ops in lits:
                        if len(ops) == 1:
                            clauses.append((nv, -ops[0]))
                        else:
                            clauses.append((nv, -ops[0], -ops[1]))
                    value = nv
            if value != val[j]:
                val[j] = value
                changed[j] = 1
                for q in readers[j]:
                    todo[q] = 1
        p = todo.find(1, p + 1)
    cnf.num_vars = nv


def _replica0(gates, order, m: int, deadline) -> dict:
    """The circuit's cone, readers and live terms, and replica 0 on them:
    its clauses and roles, then the unit keeping its output FALSE (fixing
    the selection keeps the class; the input checks rule out a TRUE
    output, the instance's own class). None of it depends on the target."""
    if any(len(term) > 2 for terms in gates for term in terms):
        raise EncodingError("a lowered term has more than two operands")
    cone, readers = _cone(gates, order, m)
    cnf = CnfFormula(m)  # the selectors
    vm = VarMap(m)
    check_deadline(deadline, "encoding exceeded its time limit before replica 0")
    # a value per gate, then the guards -s_m .. -s_1, so operand -i reads guard i
    val = [None] * len(gates) + [-vm.sel(i) for i in range(m, 0, -1)]
    live = _live_terms(gates, cone, val)
    term_vars: dict[int, dict[int, int]] = {}
    _emit_replica(cnf, vm, live, cone, readers, 0, val, term_vars)
    output = vm.outputs[0] = val[cone[-1]]
    if output != _FALSE:
        cnf.add((-output,))
    return {"live": live, "cone": cone, "readers": readers, "val": val,
            "term_vars": term_vars, "cnf": cnf, "vm": vm}


def _encode(lower, m: int, target: int, replicas: Iterable[int], deadline, store):
    """Replica 0 keeps the output FALSE and selects the target; replica k
    ties the output to s_k.

    ``store`` holds replica 0 of one (diagram, instance): an empty one
    is filled from ``lower()`` once replica 0 is complete, and a filled
    one skips the lowering, its input checks and replica 0. Every query
    appends to copies of its clause list and roles, and evaluates each
    replica k on a copy of its values.
    """
    _check_target(m, target)
    if store is None:
        store = {}
    if not store:
        store.update(_replica0(*lower(), m, deadline))
    live, cone, readers = store["live"], store["cone"], store["readers"]
    cnf, vm = store["cnf"].copy(), store["vm"].copy()
    cnf.add((vm.sel(target),))
    for k in replicas:
        check_deadline(deadline, f"encoding exceeded its time limit before replica {k}")
        val = store["val"].copy()
        _emit_replica(cnf, vm, live, cone, readers, k, val, store["term_vars"])
        output = vm.outputs[k] = val[cone[-1]]
        if output in (_TRUE, _FALSE):
            s = vm.sel(k)
            cnf.add((s if output == _TRUE else -s,))
        else:
            # a selected feature must be necessary: freeing it flips the class
            clausify_eq_or(cnf, vm.sel(k), [output])
    return cnf, vm


def encode_sdd_onestep(sdd: Sdd, instance: Instance, target: int, *, deadline=inf, store=None):
    """Replicas 0..m; every model decodes to an AXp containing the target."""
    m = sdd.num_features
    return _encode(lambda: _lower_sdd(sdd, instance), m, target, range(1, m + 1), deadline, store)


def encode_sdd_twostep(sdd: Sdd, instance: Instance, target: int, *, deadline=inf, store=None):
    """Replicas 0 and t; models are weak AXps whose every contained AXp
    includes the target."""
    return _encode(lambda: _lower_sdd(sdd, instance), sdd.num_features, target, (target,),
                   deadline, store)


def encode_xpg_onestep(xpg: XpGraph, target: int, *, deadline=inf, store=None):
    """Replicas 0..m over the graph's activation semantics."""
    m = xpg.num_features
    return _encode(lambda: _lower_xpg(xpg), m, target, range(1, m + 1), deadline, store)


def encode_xpg_twostep(xpg: XpGraph, target: int, *, deadline=inf, store=None):
    """Replicas 0 and t only."""
    return _encode(lambda: _lower_xpg(xpg), xpg.num_features, target, (target,), deadline, store)


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
