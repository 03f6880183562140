"""Weak predicates, deletion-based extraction, and the enumeration oracle."""

from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmpsat as F
from fmpsat import errors as errors_mod
from fmpsat import explain as explain_mod
from fmpsat import sdd as sdd_mod
from fmpsat.errors import ClassifierError, EncodingError, SolverTimeout
from fmpsat.xpg import XpGraph, XpgNonTerminal, XpgTerminal
from fmpsat.batch import (
    generate_random_classifier,
    generate_random_obdd,
    obdd_to_shannon_sdd,
    random_instance,
)

from random_graphs import chain_xpg, random_dt, random_xpg
from sdd_builder import balanced_vtree, compile_sdd, random_function
from oracles import (
    enumerate_minimal,
    minimal_hitting_sets,
    weak_axp_by_definition,
    weak_cxp_by_definition,
)

DATA = Path(__file__).parent / "data"
ALL = frozenset({1, 2, 3, 4})


# -------------------------------------------------------- weak predicates

def test_weak_axp_pm_is_sufficient(ella_sdd_clf, ella_instance):
    assert F.is_weak_axp(ella_sdd_clf, ella_instance, {1, 3})


def test_weak_axp_full_set(ella_sdd_clf, ella_instance):
    assert F.is_weak_axp(ella_sdd_clf, ella_instance, ALL)


def test_weak_axp_empty_set(ella_sdd_clf, ella_instance):
    assert not F.is_weak_axp(ella_sdd_clf, ella_instance, frozenset())


def test_weak_axp_out_of_range(ella_sdd_clf, ella_instance):
    with pytest.raises(ClassifierError, match="outside"):
        F.is_weak_axp(ella_sdd_clf, ella_instance, {5})


def test_weak_cxp_examples(ella_sdd_clf, ella_instance):
    assert F.is_weak_cxp(ella_sdd_clf, ella_instance, {1})
    assert not F.is_weak_cxp(ella_sdd_clf, ella_instance, frozenset())
    assert F.is_weak_cxp(ella_sdd_clf, ella_instance, ALL)


def test_sdd_and_xpg_adapters_agree(ella_sdd_clf, ella_obdd_clf, ella_instance):
    for size_bits in product((0, 1), repeat=4):
        X = frozenset(i + 1 for i in range(4) if size_bits[i])
        assert F.is_weak_axp(ella_sdd_clf, ella_instance, X) == F.is_weak_axp(
            ella_obdd_clf, ella_instance, X
        )


def test_adapters_agree_on_random_classifiers():
    # the consistency route and the graph-activation route implement the
    # same predicate; exhaustive over instances' subsets for small m
    rng = np.random.default_rng(41)
    for trial in range(8):
        m = int(rng.integers(3, 9))
        obdd = generate_random_obdd(m, 18, seed=1300 + trial)
        oclf = F.ObddClassifier(obdd)
        sclf = F.SddClassifier(obdd_to_shannon_sdd(obdd))
        for _ in range(2):
            inst = random_instance(oclf, rng)
            for bits in product((0, 1), repeat=m):
                X = frozenset(i + 1 for i in range(m) if bits[i])
                assert F.is_weak_axp(sclf, inst, X) == F.is_weak_axp(oclf, inst, X)


def test_xpg_classifier_cannot_predict(ella_xpg):
    clf = F.XpgClassifier(ella_xpg)
    with pytest.raises(ClassifierError, match="cannot classify"):
        clf.predict((0, 1, 0, 1))


def test_bare_graph_compiles_one_circuit(ella_xpg, ella_instance):
    # the graph fixes its instance, so every instance a caller passes
    # names the same circuit
    clf = F.XpgClassifier(ella_xpg)
    subsets = [frozenset(i + 1 for i in range(4) if bits[i]) for bits in product((0, 1), repeat=4)]
    answers = [[F.is_weak_axp(clf, inst, X) for X in subsets]
               for inst in (None, ella_instance, F.Instance((1, 1, 1, 1), 0))]
    assert len(clf._records) == 1
    assert answers[0] == answers[1] == answers[2]


def test_weak_axp_matches_definition(ella_sdd_clf, ella_instance):
    for bits in product((0, 1), repeat=4):
        X = frozenset(i + 1 for i in range(4) if bits[i])
        want = weak_axp_by_definition(
            ella_sdd_clf.predict, ella_instance, X, 4
        )
        assert F.is_weak_axp(ella_sdd_clf, ella_instance, X) == want


# ------------------------------------------------------------- extraction

def test_find_axp_running_example(ella_sdd_clf, ella_instance):
    assert F.find_axp(ella_sdd_clf, ella_instance, ALL) == {1, 3}


def test_find_axp_fixed_point(ella_sdd_clf, ella_instance):
    assert F.find_axp(ella_sdd_clf, ella_instance, {1, 3}) == {1, 3}


def test_find_axp_xpg_seed(ella_obdd_clf, ella_instance):
    assert F.find_axp(ella_obdd_clf, ella_instance, {1, 2, 3}) == {1, 3}


def test_find_axp_rejects_non_weak_seed(ella_sdd_clf, ella_instance):
    with pytest.raises(ClassifierError, match="not a weak"):
        F.find_axp(ella_sdd_clf, ella_instance, {2})


def test_find_cxp_running_example(ella_sdd_clf, ella_instance):
    # ascending deletion drops P (feature 1) first: freeing {Y,M,W} with P
    # pinned to 0 still reaches an accept through W and M, so the scan
    # ends at {M}
    assert F.find_cxp(ella_sdd_clf, ella_instance, ALL) == {3}


def test_find_cxp_singleton_seed(ella_sdd_clf, ella_instance):
    assert F.find_cxp(ella_sdd_clf, ella_instance, {3}) == {3}


def test_find_cxp_empty_seed_rejected(ella_sdd_clf, ella_instance):
    with pytest.raises(ClassifierError, match="not a weak"):
        F.find_cxp(ella_sdd_clf, ella_instance, frozenset())


def test_deadline_is_read_before_each_candidate(ella_sdd_clf, ella_instance, monkeypatch):
    steps = []
    now = [0.0]
    flips = explain_mod._Circuit.flips

    def spy(circuit, val, i, value):
        steps.append(i)
        now[0] = 2.0  # the clock passes the deadline while feature 1 is tried
        return flips(circuit, val, i, value)

    monkeypatch.setattr(explain_mod._Circuit, "flips", spy)
    monkeypatch.setattr(errors_mod, "time", SimpleNamespace(time=lambda: now[0]))
    for scan, kind in ((F.find_axp, "abductive"), (F.find_cxp, "contrastive")):
        steps.clear()
        now[0] = 0.0
        with pytest.raises(SolverTimeout, match=f"^{kind} deletion scan .* before feature 2$"):
            scan(ella_sdd_clf, ella_instance, ALL, deadline=1.0)
        assert steps == [1]
        # a deadline that has passed already stops the scan before its first feature
        steps.clear()
        with pytest.raises(SolverTimeout, match="before feature 1$"):
            scan(ella_sdd_clf, ella_instance, ALL, deadline=1.0)
        assert steps == []
    assert F.find_axp(ella_sdd_clf, ella_instance, ALL) == {1, 3}


# ------------------------------------------- compiled circuits and the scans
#
# The reference evaluators are sdd.consistency_under on the diagram under
# which the instance has class 0, the diagram itself or sdd.negate's
# negation of it, and xpg.evaluate_sigma on the instance's explanation
# graph.

def _reference_weak(clf, inst):
    """X -> whether X is a weak AXp, by the reference evaluator."""
    m = clf.num_features
    if isinstance(clf, F.SddClassifier):
        diagram = F.negate(clf.sdd) if inst.label else clf.sdd
        return lambda X: not F.consistency_under(diagram, {i: inst.values[i - 1] for i in X})
    graph = clf.xpg_for(inst)
    return lambda X: F.evaluate_sigma(graph, [int(i in X) for i in range(1, m + 1)])


def _both_classes(clf, rng):
    """An instance of each class the classifier predicts (the SDD's class 1
    is lowered in negated polarity)."""
    found = {}
    for _ in range(200):
        inst = random_instance(clf, rng)
        found.setdefault(inst.label, inst)
    return [found[c] for c in sorted(found)]


def _reference_corpus(max_m, trials):
    """(classifier, instance) pairs: random OBDDs, their Shannon SDDs,
    SDDs compiled over balanced vtrees (primes that are not literals) and
    random trees with instances of both classes, and random graphs that
    test a feature more than once on a path."""
    rng = np.random.default_rng(97)
    cases = []
    for trial in range(trials):
        m = 3 + trial % (max_m - 2)
        obdd = generate_random_obdd(m, 3 * m, seed=1700 + trial)
        for clf in (F.ObddClassifier(obdd), F.SddClassifier(obdd_to_shannon_sdd(obdd)),
                    F.SddClassifier(compile_sdd(balanced_vtree(m), random_function(rng, m))),
                    F.DtClassifier(random_dt(rng, m))):
            cases += [(clf, inst) for inst in _both_classes(clf, rng)]
        cases.append((F.XpgClassifier(random_xpg(rng, m, 2 * m)), None))
    return cases


def _subsets(m):
    return [frozenset(i for i in range(1, m + 1) if s >> (i - 1) & 1) for s in range(1 << m)]


def _is_shannon(sdd):
    """Whether every prime of the diagram is a literal."""
    return all(isinstance(sdd.nodes[p], sdd_mod.SddLiteral)
               for node in sdd.nodes if isinstance(node, sdd_mod.SddDecision)
               for p, _ in node.elements)


def test_compiled_check_matches_the_reference_evaluators():
    labels = set()
    for clf, inst in _reference_corpus(8, 12):
        weak = _reference_weak(clf, inst)
        kind = type(clf).__name__
        if isinstance(clf, F.SddClassifier) and not _is_shannon(clf.sdd):
            kind = "compiled SDD"
        labels.add((kind, inst and inst.label))
        for X in _subsets(clf.num_features):
            assert F.is_weak_axp(clf, inst, X) == weak(X), (kind, inst, X)
    # every adapter was tried on both classes, the SDD's on non-literal primes too
    assert {(k, c) for k in ("ObddClassifier", "SddClassifier", "compiled SDD", "DtClassifier")
            for c in (0, 1)} <= labels


def _full_pass_scan(holds, seed):
    """The deletion scan by one reference check per candidate; None when the
    seed does not hold."""
    current = sorted(seed)
    if not holds(frozenset(current)):
        return None
    for i in list(current):
        candidate = [j for j in current if j != i]
        if holds(frozenset(candidate)):
            current = candidate
    return frozenset(current)


def test_scans_match_a_full_pass_deletion_scan():
    for clf, inst in _reference_corpus(6, 8):
        weak = _reference_weak(clf, inst)
        full = frozenset(range(1, clf.num_features + 1))
        for scan, holds, kind in ((F.find_axp, weak, "abductive"),
                                  (F.find_cxp, lambda Y: not weak(full - Y), "contrastive")):
            for seed in _subsets(clf.num_features):
                want = _full_pass_scan(holds, seed)
                if want is None:
                    with pytest.raises(ClassifierError, match=f"not a weak {kind}"):
                        scan(clf, inst, seed)
                else:
                    assert scan(clf, inst, seed) == want, (type(clf).__name__, inst, seed)


def _outputs_by_subset(clf, inst, features):
    """What `_Circuit.outputs_without_each` should return, by one
    `is_weak_axp` call per selection: bit 0 is set when ``features`` is not
    weak, bit j when it is not weak without its j-th smallest feature."""
    bits = int(not F.is_weak_axp(clf, inst, features))
    for j, i in enumerate(sorted(features), start=1):
        bits |= int(not F.is_weak_axp(clf, inst, features - {i})) << j
    return bits


def test_one_pass_decides_a_set_and_each_subset_that_drops_one_feature():
    # every subset W of each classifier's features: W and every W - {i} in
    # one bit-parallel pass, against a bool pass per selection
    verdicts = set()
    for clf, inst in _reference_corpus(8, 12):
        circuit = clf.circuit_for(inst)
        for W in _subsets(clf.num_features):
            want = _outputs_by_subset(clf, inst, W)
            assert circuit.outputs_without_each(W) == want, (type(clf).__name__, inst, W)
            every_subset_fails = want >> 1 == (1 << len(W)) - 1
            verdicts.add("not weak" if want & 1 else
                         "minimal" if every_subset_fails else "not minimal")
    assert verdicts == {"not weak", "minimal", "not minimal"}


def test_one_pass_runs_past_64_bits():
    # 101 selections: the chain's one AXp is every feature but the droppable
    # ones, so exactly the bits of the droppable features are clear
    full = frozenset(range(1, 101))
    for droppable in ((), (3, 66), (70, 85, 100)):
        clf = F.XpgClassifier(chain_xpg(100, droppable))
        circuit = clf.circuit_for(None)
        want = sum(1 << i for i in full if i not in droppable)
        assert circuit.outputs_without_each(full) == want == _outputs_by_subset(clf, None, full)
        assert F.find_axp(clf, None, full) == full - set(droppable)
        W = full - {50}
        assert circuit.outputs_without_each(W) == _outputs_by_subset(clf, None, W)


def test_one_pass_on_constant_circuits():
    # a TRUE-rooted and a FALSE-rooted diagram: each instance's class-0
    # diagram is FALSE, so the circuit's output folds to FALSE, the
    # all-zeros mask, and every selection is weak
    vtree = balanced_vtree(4)
    point = (0, 1, 0, 1)
    true_sdd, false_sdd = (compile_sdd(vtree, {p: value for p in product((0, 1), repeat=4)})
                           for value in (1, 0))
    for sdd, label in ((true_sdd, 1), (false_sdd, 0)):
        clf, inst = F.SddClassifier(sdd), F.Instance(point, label)
        assert clf.circuit_for(inst).outputs_without_each({1, 2, 4}) == 0
        assert F.is_weak_axp(clf, inst, frozenset())
        assert F.find_axp(clf, inst, ALL) == frozenset()
        with pytest.raises(ClassifierError, match="not a weak contrastive"):
            F.find_cxp(clf, inst, ALL)
    # TRUE is the all-ones mask: the TRUE diagram's own circuit, which no
    # adapter makes since it predicts 1 everywhere, is never weak
    circuit = explain_mod._Circuit(*explain_mod._lower_sdd(true_sdd, point, False), 4)
    assert circuit.outputs_without_each({1, 2, 4}) == 0b1111
    assert not circuit.is_weak({1, 2, 3, 4})
    with pytest.raises(ClassifierError, match="feature 5 outside 1..4"):
        circuit.outputs_without_each({1, 5})


def test_graph_without_a_zero_terminal_is_always_weak():
    graph = XpGraph([XpgNonTerminal(1), XpgTerminal(1)], [(0, 1, 1), (0, 1, 0)], 0, 2)
    clf = F.XpgClassifier(graph)
    for X in _subsets(2):
        assert F.evaluate_sigma(graph, [int(i in X) for i in (1, 2)])
        assert F.is_weak_axp(clf, None, X)
    assert F.find_axp(clf, None, {1, 2}) == frozenset()
    with pytest.raises(ClassifierError, match="not a weak contrastive"):
        F.find_cxp(clf, None, {1, 2})
    # the encoders still refuse it, with or without the adapter's circuit
    for method in ("one-step", "two-step"):
        with pytest.raises(EncodingError, match="no 0-labeled terminal"):
            F.build_encoding(F.FmpQuery(clf, None, 1, method))
    for encode in (F.encode_xpg_onestep, F.encode_xpg_twostep):
        with pytest.raises(EncodingError, match="no 0-labeled terminal"):
            encode(graph, 1)


def test_every_predicting_adapter_rejects_an_instance_it_does_not_predict(
        ella_sdd, ella_obdd, ella_instance):
    # checked once, when the adapter makes the instance's record; a
    # rejected instance keeps nothing
    ella_dt = F.parse_dt((DATA / "ella.dt").read_text())
    rejected = [
        (None, "queries need an instance"),
        (F.Instance((0, 1, 0), 0), "instance has 3 values, classifier has 4 features"),
        (F.Instance((0, 2, 0, 1), 0), "instance value 2 of feature 2 outside"),
        (F.Instance((0, 1, 0, 1), 1), "declares class 1 but the classifier predicts 0"),
        (F.Instance((1, 0, 1, 1), 0), "declares class 0 but the classifier predicts 1"),
    ]
    queries = [
        lambda clf, inst: F.is_weak_axp(clf, inst, {1, 3}),
        lambda clf, inst: F.find_axp(clf, inst, ALL),
        lambda clf, inst: F.find_cxp(clf, inst, ALL),
        lambda clf, inst: F.build_encoding(F.FmpQuery(clf, inst, 3, "one-step")),
        lambda clf, inst: F.build_encoding(F.FmpQuery(clf, inst, 3, "two-step")),
    ]
    for clf in (F.SddClassifier(ella_sdd), F.ObddClassifier(ella_obdd), F.DtClassifier(ella_dt)):
        for inst, message in rejected:
            for query in queries:
                with pytest.raises(ClassifierError, match=message):
                    query(clf, inst)
                assert clf._records == {}, (type(clf).__name__, inst)
        assert F.find_axp(clf, ella_instance, ALL) == {1, 3}
        assert list(clf._records) == [ella_instance]


# ------------------------------------------------------------ enumeration

def test_enumerate_axps_running_example(ella_sdd_clf, ella_instance):
    assert F.enumerate_axps_bruteforce(ella_sdd_clf, ella_instance) == {
        frozenset({1, 3})
    }


def test_enumerate_cxps_running_example(ella_sdd_clf, ella_instance):
    assert F.enumerate_cxps_bruteforce(ella_sdd_clf, ella_instance) == {
        frozenset({1}),
        frozenset({3}),
    }


def test_enumerators_never_read_the_compiled_circuit(ella_sdd, ella_obdd, ella_xpg,
                                                    ella_instance, monkeypatch):
    # the brute-force arbiter judges the circuit's answers, so it must
    # reach its own without it: the prediction table, or evaluate_sigma
    def unreachable(*args, **kwargs):
        raise AssertionError("the brute-force enumerator read the compiled circuit")

    monkeypatch.setattr(explain_mod._Circuit, "evaluate", unreachable)
    monkeypatch.setattr(explain_mod._Circuit, "is_weak", unreachable)
    for clf in (F.SddClassifier(ella_sdd), F.ObddClassifier(ella_obdd),
                F.XpgClassifier(ella_xpg)):
        assert F.enumerate_axps_bruteforce(clf, ella_instance) == {frozenset({1, 3})}
        assert F.enumerate_cxps_bruteforce(clf, ella_instance) == {
            frozenset({1}), frozenset({3})
        }


def test_enumerate_single_relevant_feature():
    # kappa(x1) = x1 over one feature
    from fmpsat.xpg import Obdd, ObddNode, ObddTerminal

    obdd = Obdd([ObddTerminal(0), ObddTerminal(1), ObddNode(1, 0, 1)], 2, 1)
    clf = F.ObddClassifier(obdd)
    inst = F.Instance((1,), 1)
    assert F.enumerate_axps_bruteforce(clf, inst) == {frozenset({1})}
    assert F.enumerate_cxps_bruteforce(clf, inst) == {frozenset({1})}


def test_irrelevant_feature_never_in_cxp():
    # feature 2 is never tested by the diagram
    from fmpsat.xpg import Obdd, ObddNode, ObddTerminal

    obdd = Obdd([ObddTerminal(0), ObddTerminal(1), ObddNode(1, 0, 1)], 2, 2)
    clf = F.ObddClassifier(obdd)
    inst = F.Instance((1, 0), 1)
    cxps = F.enumerate_cxps_bruteforce(clf, inst)
    assert all(2 not in Y for Y in cxps)


def test_mhs_duality_running_example(ella_sdd_clf, ella_instance):
    axps = F.enumerate_axps_bruteforce(ella_sdd_clf, ella_instance)
    cxps = F.enumerate_cxps_bruteforce(ella_sdd_clf, ella_instance)
    assert minimal_hitting_sets(cxps) == axps
    assert minimal_hitting_sets(axps) == cxps


def test_bruteforce_guard():
    obdd = generate_random_obdd(17, 40, seed=1)
    clf = F.ObddClassifier(obdd)
    rng = np.random.default_rng(0)
    inst = random_instance(clf, rng)
    with pytest.raises(ClassifierError, match="limited to 16"):
        F.enumerate_axps_bruteforce(clf, inst)


def test_enumeration_matches_independent_oracle():
    rng = np.random.default_rng(23)
    for trial in range(10):
        m = int(rng.integers(3, 7))
        clf = generate_random_classifier(
            "obdd" if trial % 2 else "shannon-sdd", m, 16, seed=600 + trial
        )
        inst = random_instance(clf, rng)
        want_axps = enumerate_minimal(
            m, lambda X: weak_axp_by_definition(clf.predict, inst, X, m)
        )
        want_cxps = enumerate_minimal(
            m, lambda Y: weak_cxp_by_definition(clf.predict, inst, Y, m)
        )
        assert F.enumerate_axps_bruteforce(clf, inst) == want_axps
        assert F.enumerate_cxps_bruteforce(clf, inst) == want_cxps


# -------------------------------------------------------------- properties

@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_monotonicity_and_complementation(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 9))
    kind = "obdd" if seed % 2 else "shannon-sdd"
    clf = generate_random_classifier(kind, m, int(rng.integers(6, 30)), seed=seed)
    inst = random_instance(clf, rng)
    features = frozenset(range(1, m + 1))
    # random chain X subset X'
    size = int(rng.integers(0, m + 1))
    X = frozenset(int(i) + 1 for i in rng.choice(m, size=size, replace=False))
    extra = int(rng.integers(0, m - len(X) + 1))
    rest = sorted(features - X)
    Xp = X | frozenset(
        rest[int(i)] for i in rng.choice(len(rest), size=extra, replace=False)
    ) if rest else X
    if F.is_weak_axp(clf, inst, X):
        assert F.is_weak_axp(clf, inst, Xp)
    if F.is_weak_cxp(clf, inst, X):
        assert F.is_weak_cxp(clf, inst, Xp)
    # complementation, exhaustive over this classifier's subsets when small
    if m <= 6:
        for bits in product((0, 1), repeat=m):
            Y = frozenset(i + 1 for i in range(m) if bits[i])
            assert F.is_weak_cxp(clf, inst, Y) == (
                not F.is_weak_axp(clf, inst, features - Y)
            )


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_find_axp_output_contract(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 9))
    clf = generate_random_classifier("obdd", m, int(rng.integers(6, 30)), seed=seed)
    inst = random_instance(clf, rng)
    axp = F.find_axp(clf, inst, range(1, m + 1))
    assert F.is_weak_axp(clf, inst, axp)
    for i in axp:
        assert not F.is_weak_axp(clf, inst, axp - {i})


def test_mhs_duality_random():
    rng = np.random.default_rng(7)
    for trial in range(12):
        m = int(rng.integers(3, 8))
        clf = generate_random_classifier(
            "shannon-sdd" if trial % 2 else "obdd", m, 20, seed=800 + trial
        )
        inst = random_instance(clf, rng)
        axps = F.enumerate_axps_bruteforce(clf, inst)
        cxps = F.enumerate_cxps_bruteforce(clf, inst)
        assert minimal_hitting_sets(cxps) == axps
        assert minimal_hitting_sets(axps) == cxps
