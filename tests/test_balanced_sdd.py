"""End-to-end checks on SDDs with genuine (prime, sub) decompositions.

The compiled corpus puts decision nodes in both boxes of elements,
which the running example and the Shannon-style generator never do.
"""

from itertools import product

import numpy as np

import fmpsat as F
from fmpsat.encode import encode_sdd_onestep, encode_sdd_twostep
from fmpsat.explain import Instance
from fmpsat.fmp import FmpQuery, decide_membership
from fmpsat.sat import solve
from fmpsat.sdd import SddDecision

from oracles import consistent_by_completions
from sdd_builder import balanced_vtree, compile_sdd, random_function


def _corpus(count, sizes=(4, 5, 6, 8)):
    rng = np.random.default_rng(2718)
    out = []
    for index in range(count):
        m = sizes[index % len(sizes)]
        truth = random_function(rng, m)
        sdd = compile_sdd(balanced_vtree(m), truth)
        out.append((m, truth, sdd, rng))
    return out


def test_compiled_sdds_match_their_tables():
    for m, truth, sdd, _ in _corpus(12):
        for point, want in truth.items():
            assert int(F.evaluate(sdd, point)) == want


def test_corpus_has_nested_decision_boxes():
    seen_decision_prime = seen_decision_sub = False
    for _, _, sdd, _ in _corpus(12):
        for node in sdd.nodes:
            if isinstance(node, SddDecision):
                for prime, sub in node.elements:
                    if isinstance(sdd.nodes[prime], SddDecision):
                        seen_decision_prime = True
                    if isinstance(sdd.nodes[sub], SddDecision):
                        seen_decision_sub = True
    assert seen_decision_prime and seen_decision_sub


def test_compiled_sdds_round_trip():
    for _, truth, sdd, _ in _corpus(6):
        text = F.serialize_sdd(sdd)
        again = F.parse_sdd(text, sdd.vtree)
        for point, want in truth.items():
            assert int(F.evaluate(again, point)) == want


def test_algebra_on_compiled_sdds():
    rng = np.random.default_rng(31415)
    for m, truth, sdd, _ in _corpus(10):
        negated = F.negate(sdd)
        for point, want in truth.items():
            assert int(F.evaluate(negated, point)) == 1 - want
        term = {
            int(i) + 1: int(rng.integers(0, 2))
            for i in rng.choice(m, size=rng.integers(1, m + 1), replace=False)
        }
        assert F.consistency_under(sdd, term) == consistent_by_completions(
            truth.__getitem__, term, m
        )


def test_membership_on_compiled_sdds():
    rng = np.random.default_rng(92653)
    for m, truth, sdd, _ in _corpus(8, sizes=(4, 5, 6)):
        clf = F.SddClassifier(sdd)
        values = tuple(int(v) for v in rng.integers(0, 2, m))
        inst = Instance(values, clf.predict(values))
        axps = F.enumerate_axps_bruteforce(clf, inst)
        members = {i for a in axps for i in a}
        for t in range(1, m + 1):
            for method in ("one-step", "two-step"):
                outcome = decide_membership(FmpQuery(clf, inst, t, method))
                assert outcome.membership == (t in members)
                if outcome.membership:
                    assert outcome.witness in axps and t in outcome.witness


def test_encodings_on_compiled_sdds_match_enumeration():
    rng = np.random.default_rng(58979)
    for m, truth, sdd, _ in _corpus(6, sizes=(4, 5)):
        clf = F.SddClassifier(sdd)
        values = tuple(int(v) for v in rng.integers(0, 2, m))
        inst = Instance(values, clf.predict(values))
        axps = F.enumerate_axps_bruteforce(clf, inst)
        members = {i for a in axps for i in a}
        for t in range(1, m + 1):
            # the public encoders take the diagram and an instance of either class
            one, vm = encode_sdd_onestep(sdd, inst, t)
            result = solve(one)
            assert result.satisfiable == (t in members)
            if result.satisfiable:
                assert vm.selected_features(result) in axps
            two, _ = encode_sdd_twostep(sdd, inst, t)
            assert solve(two).satisfiable == (t in members)
