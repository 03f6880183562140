"""Abductive and contrastive explanations over a uniform classifier surface.

All predicates work on feature index sets (1-based). A set X is a weak
abductive explanation when fixing the features in X to their instance
values pins the prediction; an AXp is a subset-minimal such set.
Contrastive explanations are the complements: freeing Y admits a point
with a different prediction.

Each adapter compiles, once per instance, a monotone circuit over the
guards "feature i is free" whose output is FALSE exactly on the weak
AXps: an SDD's decision nodes become ORs of (prime AND sub), a literal
the instance satisfies TRUE and one it falsifies the guard of its
feature; an explanation graph's nodes become their activation and the
output the OR of its 0-terminals. Constants fold away and only the
output's cone is kept. A weak-AXp test is one full bottom-up pass, and
so is the check of a witness W: its pass runs on int bitmasks, one bit
per selection, so it decides W and every W - {i} at once. The
deletion scans of `find_axp` and `find_cxp` keep one value array live
instead: freeing (AXp) or pinning (CXp) a feature moves every gate it
changes the same way, so a step re-evaluates only the readers of
changed operands, stops once the output flips, and undoes what it
changed. The circuits are built here from the diagrams and graphs
themselves, not from the CNF encoder's lowering, so one lowering fault
cannot pass both an encoding and the check of its answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import inf
from typing import Collection, Iterable, Sequence

from . import sdd as sdd_mod
from . import xpg as xpg_mod
from .errors import ClassifierError, ParseError, check_deadline

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


# --------------------------------------------------------------------------
# compiled weak-AXp circuits
# --------------------------------------------------------------------------
#
# A value array holds TRUE at index 0, the guard "feature i is free" at
# index i for i in 1..m, FALSE at m+1, and then the gates, each after
# its operands. A gate is the OR of its terms and a term the AND of two
# operands; a term of one operand names it twice.

_TRUE = 0


class _Circuit:
    """The weak-AXp test of one classifier and instance, as plain lists."""

    def __init__(self, num_features: int):
        self.num_features = num_features
        self.false = num_features + 1
        self.gates: list[tuple[int, tuple[tuple[int, int], ...]]] = []  # (gate, terms)

    def fold(self, terms) -> int:
        """The operand that is the OR of these AND terms.

        A term with a FALSE operand is dropped and TRUE operands vanish;
        an empty term makes the OR TRUE, no term left makes it FALSE, and
        a single operand is itself. Anything else becomes a new gate.
        """
        live = []
        for term in terms:
            if self.false in term:
                continue
            ops = [o for o in term if o != _TRUE]
            if not ops:
                return _TRUE
            live.append((ops[0], ops[-1]))
        if not live:
            return self.false
        if len(live) == 1 and live[0][0] == live[0][1]:
            return live[0][0]
        gate = self.false + 1 + len(self.gates)
        self.gates.append((gate, tuple(live)))
        return gate

    def close(self, output: int) -> None:
        """Keep only the gates the output depends on, and list each
        operand's readers among them."""
        self.output = output
        size = self.false + 1 + len(self.gates)
        needed = bytearray(size)
        needed[output] = 1
        for gate, terms in reversed(self.gates):
            if needed[gate]:
                for a, b in terms:
                    needed[a] = needed[b] = 1
        self.gates = [(gate, terms) for gate, terms in self.gates if needed[gate]]
        # per operand o: (gate, other, terms) for each term of a gate that
        # ANDs o with other
        self.readers: list[list[tuple[int, int, tuple]]] = [[] for _ in range(size)]
        for gate, terms in self.gates:
            for a, b in terms:
                self.readers[a].append((gate, b, terms))
                if b != a:
                    self.readers[b].append((gate, a, terms))
        self.base = [False] * size
        self.base[_TRUE] = True

    def evaluate(self, free: list[bool]) -> list[bool]:
        """One full bottom-up pass with guard i set to ``free[i - 1]``."""
        val = self.base.copy()
        val[1:self.false] = free
        for gate, terms in self.gates:
            for a, b in terms:
                if val[a] and val[b]:
                    val[gate] = True
                    break
        return val

    def is_weak(self, features: Iterable[int]) -> bool:
        m = self.num_features
        free = [True] * m
        for i in features:
            if not 1 <= i <= m:
                raise ClassifierError(f"feature {i} outside 1..{m}")
            free[i - 1] = False
        return not self.evaluate(free)[self.output]

    def outputs_without_each(self, features: Collection[int]) -> int:
        """The output under 1 + |features| selections in one pass on int
        bitmasks: bit 0 pins ``features`` and bit j also frees the j-th
        smallest of them. A guard holds the selections that free it, TRUE
        all of them, and a gate ORs ``val[a] & val[b]`` over its terms.
        The features are range-checked in their own order, as in `is_weak`.
        """
        m = self.num_features
        for i in features:
            if not 1 <= i <= m:
                raise ClassifierError(f"feature {i} outside 1..{m}")
        ones = (2 << len(features)) - 1
        val = [0] * len(self.base)
        val[:self.false] = [ones] * self.false
        for j, i in enumerate(sorted(features), start=1):
            val[i] = 1 << j
        for gate, terms in self.gates:
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
        val[i] = value
        changed = [i]
        for o in changed:  # grows as gates change
            for gate, other, terms in self.readers[o]:
                if val[gate] == value:
                    continue
                if val[other] if value else not any(val[a] and val[b] for a, b in terms):
                    val[gate] = value
                    changed.append(gate)
            if val[out] == value:
                break
        else:
            return False
        for o in changed:
            val[o] = not value
        return True


def _compile_sdd(sdd: sdd_mod.Sdd, values: Sequence[int]) -> _Circuit:
    """Node j stays consistent with the selected features pinned: a
    decision node ORs its (prime AND sub) elements, a literal the
    instance satisfies is TRUE and one it falsifies holds only while its
    feature is free. The output is the root."""
    circuit = _Circuit(sdd.num_features)
    ref: list[int] = []
    for node in sdd.nodes:
        if isinstance(node, sdd_mod.SddDecision):
            ref.append(circuit.fold([(ref[p], ref[s]) for p, s in node.elements]))
        elif isinstance(node, sdd_mod.SddLiteral):
            ref.append(_TRUE if bool(values[node.var - 1]) == node.positive else node.var)
        else:
            ref.append(_TRUE if isinstance(node, sdd_mod.SddTrue) else circuit.false)
    circuit.close(ref[sdd.root])
    return circuit


def _compile_xpg(graph: xpg_mod.XpGraph) -> _Circuit:
    """Node j is reached from the root with the selected features pinned:
    the OR over its in-edges (p, label) of p, ANDed with p's guard when
    the label is 0. The output is the OR of the 0-terminals."""
    circuit = _Circuit(graph.num_features)
    nodes = graph.nodes
    ref = [circuit.false] * len(nodes)
    for j in graph._topo:
        ref[j] = _TRUE if j == graph.root else circuit.fold(
            [(ref[p], _TRUE if label else nodes[p].var) for p, label in graph.in_edges(j)]
        )
    circuit.close(circuit.fold([(ref[z], _TRUE) for z in graph.zero_terminals()]))
    return circuit


# --------------------------------------------------------------------------
# classifier adapters
# --------------------------------------------------------------------------

@dataclass(slots=True)
class _Record:
    """What an adapter keeps for one instance: the diagram or graph its
    queries read, the weak-AXp circuit compiled from it on first use,
    and the store in which the CNF encoders keep replica 0."""

    source: object
    circuit: _Circuit | None = None
    store: dict = field(default_factory=dict)


class _Adapter:
    """One record per key, the instance itself unless `_key` says
    otherwise, made once the key passes `check_instance` and its source
    is built, so a rejected instance, or a deadline passing while the
    source is built, keeps nothing."""

    def __init__(self):
        self._records: dict[Instance | None, _Record] = {}

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

    def _record(self, instance: Instance | None, deadline=inf) -> _Record:
        key = self._key(instance)
        record = self._records.get(key)
        if record is None:
            self.check_instance(key)
            record = self._records[key] = _Record(self._source(key, deadline))
        return record

    def circuit_for(self, instance: Instance | None) -> _Circuit:
        record = self._record(instance)
        if record.circuit is None:
            record.circuit = self._compile(record.source, instance)
        return record.circuit

    def encoding_store(self, instance: Instance | None) -> dict:
        """The store in which the encoders keep replica 0 for this instance."""
        return self._record(instance).store

    def release(self, instance: Instance | None) -> None:
        """Drop the instance's record; an SDD's negated diagram stays."""
        self._records.pop(self._key(instance), None)


class SddClassifier(_Adapter):
    """SDD-backed binary classifier (classes 0 and 1).

    An instance's record reads the diagram under which it has class 0:
    the diagram itself, or for instances predicted 1 a lazily built
    negation, cached for every such instance. Either way the pinned
    diagram must be inconsistent.
    """

    def __init__(self, sdd: sdd_mod.Sdd):
        super().__init__()
        self.sdd = sdd
        self._negated: sdd_mod.Sdd | None = None

    @property
    def num_features(self) -> int:
        return self.sdd.num_features

    @property
    def num_nodes(self) -> int:
        return self.sdd.num_nodes

    def predict(self, point: Sequence[int]) -> int:
        return int(sdd_mod.evaluate(self.sdd, point))

    def negated_sdd(self, *, deadline=inf) -> sdd_mod.Sdd:
        """The negated diagram, built on first use; only a finished
        negation is kept."""
        if self._negated is None:
            self._negated = sdd_mod.negate(self.sdd, deadline=deadline)
        return self._negated

    def _source(self, instance: Instance, deadline) -> sdd_mod.Sdd:
        return self.negated_sdd(deadline=deadline) if instance.label else self.sdd

    def _compile(self, diagram: sdd_mod.Sdd, instance: Instance) -> _Circuit:
        return _compile_sdd(diagram, instance.values)

    def diagram_for(self, instance: Instance, *, deadline=inf) -> sdd_mod.Sdd:
        """The diagram under which the instance has class 0."""
        return self._record(instance, deadline).source

    def is_weak_axp(self, instance: Instance, features: Iterable[int]) -> bool:
        return self.circuit_for(instance).is_weak(features)


class _XpgBackedClassifier(_Adapter):
    """Shared behaviour for classifiers explained through a built XpG."""

    def _compile(self, graph: xpg_mod.XpGraph, instance: Instance | None) -> _Circuit:
        return _compile_xpg(graph)

    def xpg_for(self, instance: Instance | None) -> xpg_mod.XpGraph:
        return self._record(instance).source

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

    def _source(self, instance: Instance, deadline) -> xpg_mod.XpGraph:
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

    def _source(self, instance: Instance, deadline) -> xpg_mod.XpGraph:
        return xpg_mod.build_xpg_from_dt(self.dt, instance)


class XpgClassifier(_XpgBackedClassifier):
    """A bare explanation graph, e.g. loaded from a file.

    The instance is baked into the graph's labels, so explanation
    queries need no point values, `predict` is unavailable, and every
    instance a caller passes names the one record, keyed None; only the
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

    def _source(self, instance: Instance | None, deadline) -> xpg_mod.XpGraph:
        return self.graph


# --------------------------------------------------------------------------
# predicates and extraction
# --------------------------------------------------------------------------

def _all_features(clf) -> frozenset[int]:
    return frozenset(range(1, clf.num_features + 1))


def _check_features(clf, features: Iterable[int]) -> frozenset[int]:
    fs = frozenset(features)
    for i in fs:
        if not 1 <= i <= clf.num_features:
            raise ClassifierError(f"feature {i} outside 1..{clf.num_features}")
    return fs


def is_weak_axp(clf, instance: Instance | None, features: Iterable[int]) -> bool:
    """Does fixing `features` to the instance values pin the prediction?

    The compiled circuit range-checks the features."""
    return clf.is_weak_axp(instance, features)


def is_weak_cxp(clf, instance: Instance | None, features: Iterable[int]) -> bool:
    """Can freeing `features` flip the prediction?

    Computed as the exact complement of the weak-AXp test on the
    remaining features; the equivalence is enforced by property tests.
    """
    fs = _check_features(clf, features)
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
    current = sorted(_check_features(clf, seed))
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
    `xpg.evaluate_sigma`. Neither reads the compiled circuit.
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
    never by the compiled circuit whose answers it judges; supersets of
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
