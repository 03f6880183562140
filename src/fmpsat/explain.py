"""Abductive and contrastive explanations over a uniform classifier surface.

All predicates work on feature index sets (1-based). A set X is a weak
abductive explanation when fixing the features in X to their instance
values pins the prediction; an AXp is a subset-minimal such set.
Contrastive explanations are the complements: freeing Y admits a point
with a different prediction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import sdd as sdd_mod
from . import xpg as xpg_mod
from .errors import ClassifierError, ParseError

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
# classifier adapters
# --------------------------------------------------------------------------

class SddClassifier:
    """SDD-backed binary classifier (classes 0 and 1).

    Weak-explanation tests run as one consistency pass over the
    diagram with the chosen features pinned; instances predicted 1 go
    through a lazily built, cached negation so the pinned diagram must
    be inconsistent in both cases.
    """

    def __init__(self, sdd: sdd_mod.Sdd):
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

    def negated_sdd(self) -> sdd_mod.Sdd:
        if self._negated is None:
            self._negated = sdd_mod.negate(self.sdd)
        return self._negated

    def diagram_for(self, instance: Instance) -> sdd_mod.Sdd:
        """The diagram under which the instance has class 0."""
        if instance.label not in (0, 1):
            raise ClassifierError(f"SDD classifiers are binary, got class {instance.label}")
        return self.negated_sdd() if instance.label == 1 else self.sdd

    def is_weak_axp(self, instance: Instance, features: Iterable[int]) -> bool:
        diagram = self.diagram_for(instance)
        fixed = {i: instance.values[i - 1] for i in features}
        return not sdd_mod.consistency_under(diagram, fixed)


class _XpgBackedClassifier:
    """Shared behaviour for classifiers explained through a built XpG."""

    def __init__(self):
        self._xpg_cache: dict[tuple[tuple[int, ...], int], xpg_mod.XpGraph] = {}

    def _build_xpg(self, instance: Instance) -> xpg_mod.XpGraph:
        raise NotImplementedError

    def xpg_for(self, instance: Instance) -> xpg_mod.XpGraph:
        key = (instance.values, instance.label)
        graph = self._xpg_cache.get(key)
        if graph is None:
            graph = self._build_xpg(instance)
            self._xpg_cache[key] = graph
        return graph

    def is_weak_axp(self, instance: Instance, features: Iterable[int]) -> bool:
        graph = self.xpg_for(instance)
        selectors = [0] * graph.num_features
        for i in features:
            if not 1 <= i <= graph.num_features:
                raise ClassifierError(f"feature {i} outside 1..{graph.num_features}")
            selectors[i - 1] = 1
        return xpg_mod.evaluate_sigma(graph, selectors)


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

    def _build_xpg(self, instance: Instance) -> xpg_mod.XpGraph:
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

    def _build_xpg(self, instance: Instance) -> xpg_mod.XpGraph:
        return xpg_mod.build_xpg_from_dt(self.dt, instance)


class XpgClassifier(_XpgBackedClassifier):
    """A bare explanation graph, e.g. loaded from a file.

    The instance is baked into the graph's labels, so explanation
    queries need no point values and `predict` is unavailable.
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

    def xpg_for(self, instance: Instance | None) -> xpg_mod.XpGraph:
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
    """Does fixing `features` to the instance values pin the prediction?"""
    return clf.is_weak_axp(instance, _check_features(clf, features))


def is_weak_cxp(clf, instance: Instance | None, features: Iterable[int]) -> bool:
    """Can freeing `features` flip the prediction?

    Computed as the exact complement of the weak-AXp test on the
    remaining features; the equivalence is enforced by property tests.
    """
    fs = _check_features(clf, features)
    return not clf.is_weak_axp(instance, _all_features(clf) - fs)


def find_axp(clf, instance: Instance | None, seed: Iterable[int]) -> frozenset[int]:
    """Shrink a weak AXp to a subset-minimal one by deletion.

    Features are examined in ascending index order and dropped
    greedily, so the result is deterministic.
    """
    current = sorted(_check_features(clf, seed))
    if not clf.is_weak_axp(instance, frozenset(current)):
        raise ClassifierError("seed is not a weak abductive explanation")
    for i in list(current):
        candidate = [j for j in current if j != i]
        if clf.is_weak_axp(instance, frozenset(candidate)):
            current = candidate
    return frozenset(current)


def find_cxp(clf, instance: Instance | None, seed: Iterable[int]) -> frozenset[int]:
    """Shrink a weak CXp by the same ascending deletion scan."""
    current = sorted(_check_features(clf, seed))
    if not is_weak_cxp(clf, instance, frozenset(current)):
        raise ClassifierError("seed is not a weak contrastive explanation")
    for i in list(current):
        candidate = [j for j in current if j != i]
        if is_weak_cxp(clf, instance, frozenset(candidate)):
            current = candidate
    return frozenset(current)


# --------------------------------------------------------------------------
# brute-force enumeration (test oracle; small feature counts only)
# --------------------------------------------------------------------------

def _domains(clf) -> list[tuple[int, ...]]:
    if isinstance(clf, DtClassifier):
        return [clf.dt.domains[i] for i in range(1, clf.num_features + 1)]
    return [(0, 1)] * clf.num_features


def _prediction_table(clf) -> dict[tuple[int, ...], int]:
    return {
        point: clf.predict(point)
        for point in itertools.product(*_domains(clf))
    }


def _weak_axp_by_definition(table, domains, instance, features) -> bool:
    free = [i for i in range(1, len(domains) + 1) if i not in features]
    point = list(instance.values)
    for combo in itertools.product(*(domains[i - 1] for i in free)):
        for i, v in zip(free, combo):
            point[i - 1] = v
        if table[tuple(point)] != instance.label:
            return False
    return True


def _weak_cxp_by_definition(table, domains, instance, features) -> bool:
    point = list(instance.values)
    for combo in itertools.product(*(domains[i - 1] for i in sorted(features))):
        for i, v in zip(sorted(features), combo):
            point[i - 1] = v
        if table[tuple(point)] != instance.label:
            return True
    return False


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

    Each candidate is tested directly against the definition (every
    completion of the fixed features keeps the class), using only the
    classifier's `predict`; supersets of found explanations are
    pruned. Bare explanation graphs are tested through their
    evaluation function instead, which is the same predicate.
    """
    _guard_bruteforce(clf)
    if isinstance(clf, XpgClassifier):
        return _enumerate_minimal(
            clf.num_features, lambda X: clf.is_weak_axp(instance, X)
        )
    table = _prediction_table(clf)
    domains = _domains(clf)
    return _enumerate_minimal(
        clf.num_features,
        lambda X: _weak_axp_by_definition(table, domains, instance, X),
    )


def enumerate_cxps_bruteforce(clf, instance: Instance | None) -> frozenset[frozenset[int]]:
    """All CXps by the dual subset scan."""
    _guard_bruteforce(clf)
    if isinstance(clf, XpgClassifier):
        return _enumerate_minimal(
            clf.num_features, lambda Y: is_weak_cxp(clf, instance, Y)
        )
    table = _prediction_table(clf)
    domains = _domains(clf)
    return _enumerate_minimal(
        clf.num_features,
        lambda Y: _weak_cxp_by_definition(table, domains, instance, Y),
    )
