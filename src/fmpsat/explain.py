"""Abductive and contrastive explanations over a uniform classifier surface.

All predicates work on feature index sets (1-based). A set X is a weak
abductive explanation when fixing the features in X to their instance
values pins the prediction; an AXp is a subset-minimal such set.
Contrastive explanations are the complements: freeing Y admits a point
with a different prediction.

Each adapter keeps one record per instance, its circuit, made in one
step once the instance is checked: the adapter lowers its diagram, or
the instance's graph, into a monotone circuit over the guards "feature
i is free" whose output is FALSE exactly on the weak AXps: an SDD's
decision nodes become ORs of (prime AND sub), a literal the instance
satisfies TRUE and one it falsifies the guard of its feature, and for
an instance of class 1 the same rules lower the diagram's negation,
which keeps each prime and negates each sub; an explanation graph's
nodes become their activation and the output the OR of its
0-terminals. One pass folds its constants, takes a gate whose only
live term is one operand as that operand, and numbers the gates the
output reads; the CNF encoder and the checks here read those same
gates. A weak-AXp test is one full bottom-up pass, and so is the check
of a witness W: its pass runs on int bitmasks, one bit per selection,
so it decides W and every W - {i} at once. The deletion scans of
`find_axp` and `find_cxp` keep one value array live instead: freeing
(AXp) or pinning (CXp) a feature moves every gate it changes the same
way, so a step re-evaluates only the readers of changed operands,
stops once the output flips, and undoes what it changed.

The witness check reads the circuit, not the CNF, so it catches a fault
in the replica emitter, the solver or the decoding of a model, but not
one in the lowering or the fold, which the encoder shares. The tests
hold those to the reference evaluators (`sdd.consistency_under`,
`xpg.evaluate_sigma`), the negated SDD lowering to the lowering of
`sdd.negate`'s diagram, and all of them to the brute-force oracle
below, which never reads the circuit; perfbench's oracle re-checks
every witness it gets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Collection, Iterable, Sequence

from . import sdd as sdd_mod
from . import xpg as xpg_mod
from .errors import ClassifierError, EncodingError, ParseError, check_deadline

__all__ = [
    "Instance",
    "parse_instance",
    "serialize_instance",
    "SddClassifier",
    "ObddClassifier",
    "DtClassifier",
    "XpgClassifier",
    "is_weak_axp",
    "is_weak_cxp",
    "find_axp",
    "find_cxp",
    "enumerate_axps_bruteforce",
    "enumerate_cxps_bruteforce",
]

BRUTEFORCE_MAX_FEATURES = 16


@dataclass(frozen=True)
class Instance:
    """A point in feature space together with its predicted class."""

    values: tuple[int, ...]
    label: int

    @property
    def num_features(self) -> int:
        return len(self.values)


def parse_instance(text: str) -> Instance:
    values = None
    label = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("v:"):
            if values is not None:
                raise ParseError("instance file has a second v: line", lineno)
            try:
                values = tuple(int(p) for p in line[2:].replace(",", " ").split())
            except ValueError:
                raise ParseError(f"malformed value vector {line!r}", lineno) from None
        elif line.startswith("c:"):
            if label is not None:
                raise ParseError("instance file has a second c: line", lineno)
            try:
                label = int(line[2:].strip())
            except ValueError:
                raise ParseError(f"malformed class {line!r}", lineno) from None
        else:
            raise ParseError(f"unknown instance line {line!r}", lineno)
    if values is None:
        raise ParseError("instance file is missing the v: line")
    if label is None:
        raise ParseError("instance file is missing the c: line")
    return Instance(values, label)


def serialize_instance(instance: Instance) -> str:
    return "v: " + ",".join(str(v) for v in instance.values) + f"\nc: {instance.label}\n"


def _check_features(m: int, features: Iterable[int]) -> frozenset[int]:
    """The features as a set; the first, in the order given, outside
    1..m raises ``ClassifierError``."""
    features = tuple(features)
    for i in features:
        if not 1 <= i <= m:
            raise ClassifierError(f"feature {i} outside 1..{m}")
    return frozenset(features)


# --------------------------------------------------------------------------
# one circuit per (classifier, instance)
# --------------------------------------------------------------------------
#
# A lowered circuit is a list of gates. A gate is the OR of its terms, and
# a term the AND of at most two operands: operand o >= 0 is gate o, and
# o = -i is the guard "feature i is free" (the encoder's -s_i). An empty
# term is TRUE and a gate without terms is FALSE. The order lists gates
# with their operands first and ends with the output.


_POLL_NODES = 1 << 10  # nodes between two reads of a negated SDD lowering's deadline
_POLARITIES = ((), (0,), (1,), (0, 1))  # flips of each need: bit 1 as it is, bit 2 negated


def _lower_sdd(sdd: sdd_mod.Sdd, values: Sequence[int], negated: bool, deadline=inf):
    """Gate j: node j, in one polarity, stays consistent with the selected
    features pinned; the output is the root, negated for class 1.

    A decision node is the OR of its (prime AND sub) elements, a literal
    the instance satisfies is TRUE and one it falsifies the guard of its
    feature. As a decision node's primes partition its left variables'
    space, its negation keeps its primes and negates its subs; a negated
    leaf flips. A negated lowering lowers each node in the polarities the root
    reaches it in, as it is first, so its gates are numbered as
    `sdd.negate` numbers its nodes, and reads the deadline every
    ``_POLL_NODES`` nodes of both its passes; otherwise every node up to
    the root is lowered as it is. `_Adapter.circuit_for` has checked the
    values.
    """
    nodes = sdd.nodes
    n = sdd.root + 1
    need = b"\1" * n
    if negated:
        need = bytearray(n - 1) + b"\2"
        for j in range(n - 1, -1, -1):
            if j % _POLL_NODES == 0:
                check_deadline(deadline, "SDD lowering exceeded its time limit")
            if need[j] and isinstance(nodes[j], sdd_mod.SddDecision):
                for prime, sub in nodes[j].elements:
                    need[prime] |= 1
                    need[sub] |= need[j]
    gates: list[Sequence[tuple[int, ...]]] = []
    ids = ([0] * n, [0] * n)  # each node's gate, as it is and negated
    primes = ids[0]
    for j in range(n):
        if negated and j % _POLL_NODES == 0:
            check_deadline(deadline, "SDD lowering exceeded its time limit")
        node = nodes[j]
        for flip in _POLARITIES[need[j]]:
            ids[flip][j] = len(gates)
            if isinstance(node, sdd_mod.SddDecision):
                subs = ids[flip]
                gates.append([(primes[p], subs[s]) for p, s in node.elements])
            elif isinstance(node, sdd_mod.SddLiteral):
                satisfied = (bool(values[node.var - 1]) == node.positive) != flip
                gates.append([()] if satisfied else [(-node.var,)])
            else:
                gates.append([()] if isinstance(node, sdd_mod.SddTrue) != flip else [])
    return gates, list(range(len(gates)))


def _lower_xpg(graph: xpg_mod.XpGraph):
    """Gate j: node j is reached from the root with the selected features pinned.

    Gate j is the OR over its in-edges (p, label) of gate p, ANDed with
    the guard of p's feature when the label is 0; the root is TRUE. The
    output, one gate past the nodes, is the OR of the 0-terminals, so a
    graph without one is always weak.
    """
    nodes = graph.nodes
    gates = [
        [()] if j == graph.root
        else [(p,) if label else (p, -nodes[p].var) for p, label in graph.in_edges(j)]
        for j in range(len(nodes))
    ]
    gates.append([(z,) for z in graph.zero_terminals()])
    return gates, graph._topo + [len(nodes)]


def _fold(gates, order: list[int], m: int):
    """Shape the lowered circuit once: fold its constants, take a gate
    whose only live term is one operand as that operand, and number the
    gates the output reads in the slots of `_Circuit`.

    A term with a FALSE operand is dropped and its TRUE operands are
    left out, so a gate with a term whose operands are all TRUE is TRUE
    and one with no term left is FALSE. Freeing a feature only turns
    guards TRUE, so a constant gate is the same constant under every
    selection and in every replica, and no live operand is ever FALSE. A
    gate whose only live term is one operand is that operand; so is the
    output, which may also be a constant. Every other gate takes the
    next slot as it is folded. A needed-pass from the output then drops
    the gates it does not read through live terms, and closes up the
    slots after the first one dropped.

    Returns each kept gate's lowered id, its live terms as slot pairs,
    with a one-operand term paired with TRUE, their lowered term
    indices, and the output's slot.
    """
    first = m + 2
    false = m + 1
    # each lowered operand's slot, a gate's set once it is folded: TRUE 0,
    # FALSE m + 1, guard -i at i
    slot = [0] * len(gates) + list(range(m, 0, -1))
    ids = []
    terms = []
    term_ids = []
    for j in order:
        pairs = []
        indices = []
        for i, term in enumerate(gates[j]):
            if len(term) == 2:
                x = slot[term[0]]
                y = slot[term[1]]
            else:  # a missing operand is TRUE
                x = slot[term[0]] if term else 0
                y = 0
            if x == false or y == false:
                continue
            if not x:  # TRUE
                if not y:
                    slot[j] = 0
                    break
                x, y = y, x
            pairs.append((x, y))
            indices.append(i)
        else:
            if not pairs:
                slot[j] = false
            elif len(pairs) == 1 and not pairs[0][1]:
                slot[j] = pairs[0][0]
            else:
                slot[j] = first + len(terms)
                ids.append(j)
                terms.append(tuple(pairs))
                term_ids.append(tuple(indices))
    output = slot[order[-1]]
    needed = bytearray(first + len(terms))
    needed[output] = 1
    for s in range(len(needed) - 1, first - 1, -1):
        if needed[s]:
            for a, b in terms[s - first]:
                needed[a] = needed[b] = 1
    dead = needed.find(0, first)
    if dead >= 0:
        moved = list(range(len(needed)))  # each slot's new slot
        g = dead - first  # the next position to fill
        for p in range(g, len(terms)):
            if needed[first + p]:
                moved[first + p] = first + g
                ids[g] = ids[p]
                terms[g] = tuple([(moved[a], moved[b]) for a, b in terms[p]])
                term_ids[g] = term_ids[p]
                g += 1
        del ids[g:], terms[g:], term_ids[g:]
        output = moved[output]
    return ids, terms, term_ids, output


class _Circuit:
    """The weak-AXp circuit of one classifier and instance: its lowering,
    shaped once by `_fold`, whose output is FALSE exactly on the weak AXps.
    An adapter's circuit is its record for the instance, and ``source``
    keeps the diagram or graph it was lowered from.

    Its values live in slots: TRUE at 0, the guard of feature i at i,
    FALSE at m + 1, and the kept gates from m + 2 on, in evaluation
    order. The CNF encoder and the checks here read the same arrays,
    one entry per kept gate: its lowered id (``ids``), its live terms as
    slot pairs (``terms``) and their lowered term indices
    (``term_ids``); the output is at slot ``output``. Each slot's
    ``readers``, made on the first deletion scan or encoding, so that a
    weak-AXp test or a witness check never makes them, list (reader
    slot, other operand) per term that reads it. The encoder keeps
    replica 0 in ``store``.
    """

    def __init__(self, gates, order: list[int], num_features: int, source=None):
        if max(map(len, itertools.chain.from_iterable(gates)), default=0) > 2:
            raise EncodingError("a lowered term has more than two operands")
        self.source = source
        self.num_features = num_features
        self.ids, self.terms, self.term_ids, self.output = _fold(gates, order, num_features)
        self.store: dict = {}

    @cached_property
    def readers(self) -> list[list[tuple[int, int]]]:
        readers: list[list[tuple[int, int]]] = [
            [] for _ in range(self.num_features + 2 + len(self.terms))]
        for gate, terms in enumerate(self.terms, self.num_features + 2):
            for a, b in terms:
                readers[a].append((gate, b))
                if b:  # nothing reads TRUE's readers: it never changes
                    readers[b].append((gate, a))
        return readers

    def evaluate(self, free: list[bool]) -> list[bool]:
        """One full bottom-up pass with guard i set to ``free[i - 1]``."""
        val = [True] + free + [False] * (1 + len(self.terms))
        for gate, terms in enumerate(self.terms, self.num_features + 2):
            for a, b in terms:
                if val[a] and val[b]:
                    val[gate] = True
                    break
        return val

    def is_weak(self, features: Iterable[int]) -> bool:
        free = [True] * self.num_features
        for i in _check_features(self.num_features, features):
            free[i - 1] = False
        return not self.evaluate(free)[self.output]

    def outputs_without_each(self, features: Collection[int]) -> int:
        """The output under 1 + |features| selections in one pass on int
        bitmasks: bit 0 pins ``features`` and bit j also frees the j-th
        smallest of them. A guard holds the selections that free it, TRUE
        all of them, and a gate ORs ``val[a] & val[b]`` over its terms.
        """
        m = self.num_features
        features = _check_features(m, features)
        ones = (2 << len(features)) - 1
        val = [ones] * (m + 1) + [0] * (1 + len(self.terms))
        for j, i in enumerate(sorted(features), start=1):
            val[i] = 1 << j
        for gate, terms in enumerate(self.terms, m + 2):
            bits = 0
            for a, b in terms:
                bits |= val[a] & val[b]
            val[gate] = bits
        return val[self.output]

    def flips(self, val: list[bool], i: int, value: bool) -> bool:
        """Set guard i of the live array ``val`` to ``value``: does the
        output take ``value`` too? If it does, ``val`` is restored.

        Freeing a guard can only raise gates and pinning it only lower
        them, so only the readers of a changed operand are re-evaluated,
        a gate that already has ``value`` needs no look, and each gate
        changes at most once. A raised operand raises a gate when the
        other operand of its term is TRUE; a lowered one lowers it when
        no term is left TRUE. The pass stops once the output changes.
        """
        out = self.output
        readers = self.readers
        terms = self.terms
        first = self.num_features + 2
        val[i] = value
        changed = [i]
        for o in changed:  # grows as gates change
            for gate, other in readers[o]:
                if val[gate] == value:
                    continue
                if (val[other] if value
                        else not any(val[a] and val[b] for a, b in terms[gate - first])):
                    val[gate] = value
                    changed.append(gate)
            if val[out] == value:
                break
        else:
            return False
        for o in changed:
            val[o] = not value
        return True


# --------------------------------------------------------------------------
# classifier adapters
# --------------------------------------------------------------------------

class _Adapter:
    """One record per key, the instance itself unless `_key` says
    otherwise: the key's circuit, with the diagram or graph it is
    lowered from as its ``source``. `circuit_for` makes it in one step
    once the key passes `check_instance`, so a rejected instance, or a
    deadline passing while the source is lowered, keeps nothing."""

    def __init__(self):
        self._records: dict[Instance | None, _Circuit] = {}

    def _key(self, instance: Instance | None) -> Instance | None:
        return instance

    def check_instance(self, instance: Instance | None) -> None:
        """Raise ``ClassifierError`` unless the instance is a point of the
        classifier's domain and the classifier predicts its declared class."""
        if instance is None:
            raise ClassifierError(f"{type(self).__name__} queries need an instance")
        m = self.num_features
        if instance.num_features != m:
            raise ClassifierError(
                f"instance has {instance.num_features} values, classifier has {m} features"
            )
        for i, (value, domain) in enumerate(zip(instance.values, _domains(self)), start=1):
            if value not in domain:
                raise ClassifierError(f"instance value {value} of feature {i} outside {domain}")
        predicted = self.predict(instance.values)
        if predicted != instance.label:
            raise ClassifierError(
                f"instance declares class {instance.label} but the classifier predicts {predicted}"
            )

    def circuit_for(self, instance: Instance | None, deadline=inf) -> _Circuit:
        """The instance's record: its source built, lowered and folded on
        first use. Only an SDD's lowering reads the deadline."""
        key = self._key(instance)
        circuit = self._records.get(key)
        if circuit is None:
            self.check_instance(key)
            source = self._source(key)
            lowered = (_lower_sdd(source, key.values, key.label == 1, deadline)
                       if isinstance(source, sdd_mod.Sdd) else _lower_xpg(source))
            circuit = self._records[key] = _Circuit(*lowered, self.num_features, source)
        return circuit

    def release(self, instance: Instance | None) -> None:
        """Drop the instance's record."""
        self._records.pop(self._key(instance), None)


class SddClassifier(_Adapter):
    """SDD-backed binary classifier (classes 0 and 1): every circuit is
    lowered from the diagram itself, in negated polarity for an instance
    of class 1 (see `_lower_sdd`)."""

    def __init__(self, sdd: sdd_mod.Sdd):
        super().__init__()
        self.sdd = sdd

    @property
    def num_features(self) -> int:
        return self.sdd.num_features

    @property
    def num_nodes(self) -> int:
        return self.sdd.num_nodes

    def predict(self, point: Sequence[int]) -> int:
        return int(sdd_mod.evaluate(self.sdd, point))

    def _source(self, instance: Instance) -> sdd_mod.Sdd:
        return self.sdd

    def is_weak_axp(self, instance: Instance, features: Iterable[int]) -> bool:
        return self.circuit_for(instance).is_weak(features)


class _XpgBackedClassifier(_Adapter):
    """Shared behaviour for classifiers explained through a built XpG."""

    def xpg_for(self, instance: Instance | None) -> xpg_mod.XpGraph:
        return self.circuit_for(instance).source

    def is_weak_axp(self, instance: Instance | None, features: Iterable[int]) -> bool:
        return self.circuit_for(instance).is_weak(features)


class ObddClassifier(_XpgBackedClassifier):
    def __init__(self, obdd: xpg_mod.Obdd):
        super().__init__()
        self.obdd = obdd

    @property
    def num_features(self) -> int:
        return self.obdd.num_features

    @property
    def num_nodes(self) -> int:
        return len(self.obdd.nodes)

    def predict(self, point: Sequence[int]) -> int:
        return self.obdd.predict(point)

    def _source(self, instance: Instance) -> xpg_mod.XpGraph:
        return xpg_mod.build_xpg_from_obdd(self.obdd, instance)


class DtClassifier(_XpgBackedClassifier):
    def __init__(self, dt: xpg_mod.DecisionTree):
        super().__init__()
        self.dt = dt

    @property
    def num_features(self) -> int:
        return self.dt.num_features

    @property
    def num_nodes(self) -> int:
        return len(self.dt.nodes)

    def predict(self, point: Sequence[int]) -> int:
        return self.dt.predict(point)

    def _source(self, instance: Instance) -> xpg_mod.XpGraph:
        return xpg_mod.build_xpg_from_dt(self.dt, instance)


class XpgClassifier(_XpgBackedClassifier):
    """A bare explanation graph, e.g. loaded from a file.

    The instance is baked into the graph's labels, so explanation
    queries need no point values, `predict` is unavailable, and every
    instance a caller passes names the one circuit, keyed None; only the
    command line, which reads an instance file beside the graph, checks
    that instance's arity.
    """

    def __init__(self, graph: xpg_mod.XpGraph):
        super().__init__()
        self.graph = graph

    @property
    def num_features(self) -> int:
        return self.graph.num_features

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def predict(self, point: Sequence[int]) -> int:
        raise ClassifierError(
            "an explanation graph fixes its instance at build time and cannot classify points"
        )

    def check_instance(self, instance: Instance | None) -> None:
        """None, or an instance of the graph's arity."""
        if instance is not None and instance.num_features != self.num_features:
            raise ClassifierError(
                f"instance has {instance.num_features} features, graph has {self.num_features}"
            )

    def _key(self, instance: Instance | None) -> None:
        return None

    def _source(self, instance: Instance | None) -> xpg_mod.XpGraph:
        return self.graph


# --------------------------------------------------------------------------
# predicates and extraction
# --------------------------------------------------------------------------

def _all_features(clf) -> frozenset[int]:
    return frozenset(range(1, clf.num_features + 1))


def is_weak_axp(clf, instance: Instance | None, features: Iterable[int]) -> bool:
    """Does fixing `features` to the instance values pin the prediction?

    The circuit's pass range-checks the features."""
    return clf.is_weak_axp(instance, features)


def is_weak_cxp(clf, instance: Instance | None, features: Iterable[int]) -> bool:
    """Can freeing `features` flip the prediction?

    Computed as the exact complement of the weak-AXp test on the
    remaining features; the equivalence is enforced by property tests.
    """
    fs = _check_features(clf.num_features, features)
    return not clf.is_weak_axp(instance, _all_features(clf) - fs)


def _shrink(clf, instance, seed: Iterable[int], frees: bool, kind: str, deadline) -> frozenset[int]:
    """Drop features from the seed while it stays a weak explanation.

    Features are examined in ascending index order and dropped
    greedily, so the result is deterministic. The seed's features start
    pinned and the rest free for an AXp, the other way round for a CXp;
    dropping a feature frees it (``frees``) or pins it, and it stays
    in the result exactly when that flips the circuit's output. The
    deadline, a ``time.time()`` value (``math.inf`` for none), is read
    before each feature.
    """
    current = sorted(_check_features(clf.num_features, seed))
    circuit = clf.circuit_for(instance)
    guards = [frees] * clf.num_features
    for i in current:
        guards[i - 1] = not frees
    val = circuit.evaluate(guards)
    if val[circuit.output] == frees:
        raise ClassifierError(f"seed is not a weak {kind} explanation")
    kept = []
    for i in current:
        check_deadline(deadline, f"{kind} deletion scan exceeded its time limit before feature {i}")
        if circuit.flips(val, i, frees):
            kept.append(i)
    return frozenset(kept)


def find_axp(clf, instance: Instance | None, seed: Iterable[int], *, deadline=inf) -> frozenset[int]:
    """Shrink a weak AXp to a subset-minimal one by deletion."""
    return _shrink(clf, instance, seed, True, "abductive", deadline)


def find_cxp(clf, instance: Instance | None, seed: Iterable[int], *, deadline=inf) -> frozenset[int]:
    """Shrink a weak CXp to a subset-minimal one by the same deletion scan."""
    return _shrink(clf, instance, seed, False, "contrastive", deadline)


# --------------------------------------------------------------------------
# brute-force enumeration (test oracle; small feature counts only)
# --------------------------------------------------------------------------

def _domains(clf) -> list[tuple[int, ...]]:
    if isinstance(clf, DtClassifier):
        return [clf.dt.domains[i] for i in range(1, clf.num_features + 1)]
    return [(0, 1)] * clf.num_features


def _weak_axp_oracle(clf, instance: Instance | None):
    """X -> whether X is a weak AXp, by the definition alone.

    A classifier that predicts is tabled once over its whole domain, and
    X is weak when every completion of the fixed features keeps the
    class. A bare explanation graph cannot predict, so its oracle is
    `xpg.evaluate_sigma`. Neither reads the adapter's circuit.
    """
    m = clf.num_features
    if isinstance(clf, XpgClassifier):
        graph = clf.graph
        return lambda X: xpg_mod.evaluate_sigma(graph, [int(i in X) for i in range(1, m + 1)])
    domains = _domains(clf)
    table = {point: clf.predict(point) for point in itertools.product(*domains)}

    def weak(features) -> bool:
        free = [i for i in range(1, m + 1) if i not in features]
        point = list(instance.values)
        for combo in itertools.product(*(domains[i - 1] for i in free)):
            for i, v in zip(free, combo):
                point[i - 1] = v
            if table[tuple(point)] != instance.label:
                return False
        return True

    return weak


def _enumerate_minimal(m: int, predicate) -> frozenset[frozenset[int]]:
    found: list[frozenset[int]] = []
    for size in range(m + 1):
        for combo in itertools.combinations(range(1, m + 1), size):
            candidate = frozenset(combo)
            if any(axp <= candidate for axp in found):
                continue
            if predicate(candidate):
                found.append(candidate)
    return frozenset(found)


def _guard_bruteforce(clf) -> None:
    if clf.num_features > BRUTEFORCE_MAX_FEATURES:
        raise ClassifierError(
            f"brute-force enumeration is limited to {BRUTEFORCE_MAX_FEATURES} features, "
            f"classifier has {clf.num_features}"
        )


def enumerate_axps_bruteforce(clf, instance: Instance | None) -> frozenset[frozenset[int]]:
    """All AXps by scanning subsets in increasing cardinality.

    Each candidate is tested against the definition by the oracle above,
    never by the adapter's circuit whose answers it judges; supersets of
    found explanations are pruned.
    """
    _guard_bruteforce(clf)
    return _enumerate_minimal(clf.num_features, _weak_axp_oracle(clf, instance))


def enumerate_cxps_bruteforce(clf, instance: Instance | None) -> frozenset[frozenset[int]]:
    """All CXps by the dual subset scan: Y is a weak CXp exactly when the
    other features are not a weak AXp."""
    _guard_bruteforce(clf)
    weak = _weak_axp_oracle(clf, instance)
    every = _all_features(clf)
    return _enumerate_minimal(clf.num_features, lambda Y: not weak(every - Y))
