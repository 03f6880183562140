"""Membership decisions, witness extraction, generators, and batches."""

import argparse
import gc
import hashlib
import io
import math
import time
import weakref
from collections import Counter
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fmpsat as F
from fmpsat import cli
from fmpsat import encode as enc
from fmpsat import errors as errors_mod
from fmpsat import explain as explain_mod
from fmpsat import fmp as fmp_mod
from fmpsat import xpg as xpg_mod
from fmpsat.sat import kernel
from fmpsat.sat import solver as solver_mod
from fmpsat.errors import ClassifierError, FmpsatError, SolverTimeout
from fmpsat.batch import (
    BatchQuery,
    batch_run,
    generate_random_classifier,
    generate_random_obdd,
    obdd_to_shannon_sdd,
    random_instance,
)
from fmpsat.fmp import FmpQuery, decide_membership
from fmpsat.sat import SatResult
from random_graphs import chain_xpg, random_dt

DATA = Path(__file__).parent / "data"
DESK = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "desk"


def test_running_example_all_four_routes(ella_sdd_clf, ella_obdd_clf, ella_instance):
    expected = {1: True, 2: False, 3: True, 4: False}
    for clf in (ella_sdd_clf, ella_obdd_clf):
        for method in ("one-step", "two-step"):
            for target, want in expected.items():
                outcome = decide_membership(
                    FmpQuery(clf, ella_instance, target, method)
                )
                assert outcome.membership == want
                if want:
                    assert outcome.witness == {1, 3}


def test_xpg_route(ella_xpg):
    clf = F.XpgClassifier(ella_xpg)
    yes = decide_membership(FmpQuery(clf, None, 3, "two-step"))
    assert yes.membership and yes.witness == {1, 3}
    no = decide_membership(FmpQuery(clf, None, 2, "one-step"))
    assert not no.membership


def test_two_step_witness_contains_target(ella_obdd_clf, ella_instance):
    outcome = decide_membership(FmpQuery(ella_obdd_clf, ella_instance, 1, "two-step"))
    assert outcome.membership
    assert 1 in outcome.witness
    assert outcome.witness == {1, 3}


def test_pre_negation_route(ella_sdd_clf):
    # an accepted applicant: P=1, Y=1 makes the conjunction hold
    inst = F.Instance((1, 1, 0, 0), 1)
    axps = F.enumerate_axps_bruteforce(ella_sdd_clf, inst)
    members = {i for a in axps for i in a}
    for t in range(1, 5):
        outcome = decide_membership(FmpQuery(ella_sdd_clf, inst, t, "two-step"))
        assert outcome.membership == (t in members)
        assert outcome.pre_negated


def test_literal_root_sdd():
    # the whole classifier is the single literal x1
    vtree = F.parse_vtree("L 0 1\n")
    sdd = F.parse_sdd("L 0 0 1\n", vtree)
    clf = F.SddClassifier(sdd)
    inst = F.Instance((0,), 0)
    for method in ("one-step", "two-step"):
        outcome = decide_membership(FmpQuery(clf, inst, 1, method))
        assert outcome.membership and outcome.witness == {1}
    # the accepted point goes through the negated diagram
    accepted = F.Instance((1,), 1)
    outcome = decide_membership(FmpQuery(clf, accepted, 1, "two-step"))
    assert outcome.membership and outcome.pre_negated


def test_time_limit_counts_the_encoding(ella_obdd_clf, ella_instance, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved after the limit had passed during encoding")

    monkeypatch.setattr(fmp_mod, "solve", no_solve)
    query = FmpQuery(ella_obdd_clf, ella_instance, 3, "one-step", time_limit_s=1e-9)
    with pytest.raises(SolverTimeout, match="encoding"):
        decide_membership(query)


def test_solve_reads_the_deadline_before_the_literal_check(ella_obdd_clf, ella_instance,
                                                           monkeypatch):
    # the clock passes the deadline just as the encoding is done, so solve
    # must stop at entry and never pay for its literal pass
    now = [0.0]
    monkeypatch.setattr(errors_mod, "time", SimpleNamespace(time=lambda: now[0]))
    build_encoding = fmp_mod.build_encoding

    def late_encoding(*args, **kwargs):
        encoding = build_encoding(*args, **kwargs)
        now[0] = time.time() + 2.0
        return encoding

    def no_check(*args, **kwargs):
        raise AssertionError("checked the literals after the deadline had passed")

    monkeypatch.setattr(fmp_mod, "build_encoding", late_encoding)
    monkeypatch.setattr(solver_mod, "_check_literals", no_check)
    query = FmpQuery(ella_obdd_clf, ella_instance, 3, "one-step", time_limit_s=1.0)
    with pytest.raises(SolverTimeout, match="solve"):
        decide_membership(query)


def test_deadline_reaches_the_scan_and_the_witness_check(ella_obdd_clf, ella_instance,
                                                         monkeypatch):
    # every deadline test reads the clock in fmpsat.errors; the query
    # fixes its deadline by the real clock, 1 s ahead
    now = [0.0]
    monkeypatch.setattr(errors_mod, "time", SimpleNamespace(time=lambda: now[0]))

    def late(step):
        def call(*args, **kwargs):
            result = step(*args, **kwargs)
            now[0] = time.time() + 2.0  # the clock passes the deadline during this step
            return result
        return call

    solve, find_axp = fmp_mod.solve, fmp_mod.find_axp
    for method, patched, where in (("two-step", "solve", "deletion scan"),
                                   ("one-step", "solve", "witness check"),
                                   ("two-step", "find_axp", "witness check")):
        monkeypatch.setattr(fmp_mod, "solve", late(solve) if patched == "solve" else solve)
        monkeypatch.setattr(fmp_mod, "find_axp",
                            late(find_axp) if patched == "find_axp" else find_axp)
        now[0] = 0.0
        query = FmpQuery(ella_obdd_clf, ella_instance, 3, method, time_limit_s=1.0)
        with pytest.raises(SolverTimeout, match=where):
            decide_membership(query)


def test_self_checks_reject_a_broken_model(ella_sdd_clf, ella_obdd_clf, ella_instance,
                                           monkeypatch):
    # Ella's only AXp is {1,3}; each crafted model sets the selectors
    # (variables 1..4) to one selection and every other variable FALSE
    cases = [
        ("one-step", 3, {1}, FmpsatError, "misses the target feature 3"),
        ("one-step", 3, {3}, FmpsatError, r"\[3\] is not a weak explanation"),
        ("one-step", 3, {1, 2, 3}, FmpsatError, "not minimal: 2 is droppable"),
        ("two-step", 2, {1, 2, 3}, FmpsatError, "stays weak without the target"),
        # {3} without the target is not weak either, so the deletion scan's
        # entry pass is the check that rejects it
        ("two-step", 3, {3}, ClassifierError, "seed is not a weak abductive explanation"),
    ]
    for clf in (ella_sdd_clf, ella_obdd_clf):
        for method, target, selection, error, message in cases:
            def crafted(cnf, deadline=math.inf, selection=selection):
                return SatResult(True, [False] + [i in selection
                                                  for i in range(1, cnf.num_vars + 1)])

            monkeypatch.setattr(fmp_mod, "solve", crafted)
            with pytest.raises(error, match=message):
                decide_membership(FmpQuery(clf, ella_instance, target, method))


def test_mismatched_instance_rejected(ella_sdd_clf):
    rejected = F.Instance((0, 1, 0, 1), 1)
    with pytest.raises(ClassifierError, match="predicts"):
        decide_membership(FmpQuery(ella_sdd_clf, rejected, 1))
    assert rejected not in ella_sdd_clf._records


def test_unknown_method_rejected(ella_sdd_clf, ella_instance):
    with pytest.raises(ClassifierError, match="unknown method"):
        decide_membership(FmpQuery(ella_sdd_clf, ella_instance, 1, "three-step"))


# --------------------------------------------------- the witness check's pass

def test_witness_check_errors_past_64_bits():
    # a 100-feature chain whose one AXp is every feature but the droppable ones
    full = frozenset(range(1, 101))
    members = list(range(1, 101))
    verify = fmp_mod._verify_witness
    clf = F.XpgClassifier(chain_xpg(100))
    verify(clf, None, full, 37, math.inf)
    cases = [
        (clf, full - {64}, 37, f"witness {sorted(full - {64})} is not a weak explanation"),
        (clf, full - {37}, 37, f"witness {sorted(full - {37})} misses the target feature 37"),
        (clf, full | {101}, 37, "feature 101 outside 1..100"),
        (F.XpgClassifier(chain_xpg(100, (3, 66))), full, 37,
         f"witness {members} is not minimal: 3 is droppable"),
        (F.XpgClassifier(chain_xpg(100, (70, 85, 100))), full, 37,
         f"witness {members} is not minimal: 70 is droppable"),
    ]
    for clf, witness, target, message in cases:
        with pytest.raises((FmpsatError, ClassifierError)) as caught:
            verify(clf, None, witness, target, math.inf)
        assert str(caught.value) == message


def _desk_classifier(name):
    if name.startswith("sdd"):
        vtree = F.parse_vtree((DESK / f"{name}.vtree").read_text())
        return F.SddClassifier(F.parse_sdd((DESK / f"{name}.sdd").read_text(), vtree))
    return F.ObddClassifier(F.parse_obdd((DESK / f"{name}.obdd").read_text()))


def _desk_instance(query):
    return F.parse_instance((DESK / f"{query}.inst").read_text())


def test_a_yes_makes_three_full_passes_two_step_and_one_one_step(ella_sdd, ella_obdd,
                                                                 ella_instance, monkeypatch):
    # the witness check is one bit-parallel pass whatever the witness's
    # size; the two-step seed check and the scan's entry pass are the others
    passes = []
    for name in ("evaluate", "outputs_without_each"):
        def spy(circuit, *args, full_pass=getattr(explain_mod._Circuit, name)):
            passes.append(full_pass.__name__)
            return full_pass(circuit, *args)
        monkeypatch.setattr(explain_mod._Circuit, name, spy)
    two_step = ["evaluate", "evaluate", "outputs_without_each"]
    for clf in (F.SddClassifier(ella_sdd), F.ObddClassifier(ella_obdd)):
        for method, want in (("two-step", two_step), ("one-step", ["outputs_without_each"])):
            passes.clear()
            assert decide_membership(FmpQuery(clf, ella_instance, 3, method)).witness == {1, 3}
            assert passes == want, (type(clf).__name__, method)
    # desk query obdd-m60-q2: a 49-feature witness
    clf, inst = _desk_classifier("obdd-m60"), _desk_instance("obdd-m60-q2")
    passes.clear()
    witness = decide_membership(FmpQuery(clf, inst, 37, "two-step")).witness
    assert len(witness) == 49 and passes == two_step
    # its one-step search takes seconds, so a crafted model selects the same
    # witness and the query re-checks it
    monkeypatch.setattr(fmp_mod, "solve", lambda cnf, deadline=math.inf: SatResult(
        True, [False] + [i in witness for i in range(1, cnf.num_vars + 1)]))
    passes.clear()
    assert decide_membership(FmpQuery(clf, inst, 37, "one-step")).witness == witness
    assert passes == ["outputs_without_each"]


# Pinned outcomes of the nine two-step desk queries of perfbench/data/desk,
# each on a fresh adapter under a 10 s limit: query -> (target, answer,
# num_vars, num_clauses, counters, witness, two-step seed), the counters in
# the order of DESK_COUNTERS.
DESK_COUNTERS = ("decisions", "conflicts", "propagations", "restarts", "learned_clauses",
                 "learned_literals")
DESK_GOLDEN = {
    "obdd-m100-q0": (84, "Yes", 2704, 11725, (67, 0, 12247, 0, 0, 0),
        {5, 12, 20, 25, 29, 31, 32, 33, 42, 43, 44, 49, 51, 52, 53, 54, 56, 57, 61, 62,
         72, 73, 75, 76, 78, 80, 82, 84, 85, 89, 92, 96, 98},
        {5, 12, 20, 25, 29, 31, 32, 33, 42, 43, 44, 49, 51, 52, 53, 54, 56, 57, 61, 62,
         72, 73, 75, 76, 78, 80, 82, 84, 85, 89, 92, 96, 98}),
    "obdd-m100-q1": (31, "No", 1872, 8318, (26, 8, 13536, 0, 7, 31), None, None),
    "obdd-m100-q2": (11, "No", 2477, 10899, (4571, 1612, 1529987, 10, 1611, 194624),
        None, None),
    "obdd-m60-q0": (48, "Yes", 1576, 6955, (43, 0, 7222, 0, 0, 0),
        {3, 4, 7, 13, 16, 25, 30, 33, 35, 37, 38, 44, 46, 47, 48, 50, 55},
        {3, 4, 7, 13, 16, 25, 30, 33, 35, 37, 38, 44, 46, 47, 48, 50, 55}),
    "obdd-m60-q1": (40, "Yes", 1429, 6313, (135, 62, 42570, 0, 62, 2461),
        {6, 8, 9, 11, 14, 15, 16, 19, 20, 21, 22, 23, 25, 26, 27, 28, 31, 33, 34, 37,
         40, 42, 43, 44, 45, 46, 47, 50, 55, 56, 57, 59, 60},
        {6, 8, 9, 11, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28,
         31, 32, 33, 34, 36, 37, 38, 40, 42, 43, 44, 45, 46, 47, 49, 50, 51, 52, 53, 54,
         55, 56, 57, 58, 59, 60}),
    "obdd-m60-q2": (37, "Yes", 1634, 7254, (264, 67, 58336, 0, 67, 4919),
        {2, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
         27, 29, 30, 32, 33, 34, 35, 36, 37, 39, 40, 41, 42, 44, 45, 46, 47, 48, 49, 51,
         52, 53, 55, 56, 57, 58, 59, 60},
        {2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
         25, 27, 29, 30, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47,
         48, 49, 51, 52, 53, 55, 56, 57, 58, 59, 60}),
    "sdd-m100-q0": (8, "Yes", 648, 2037, (71, 0, 2192, 0, 0, 0),
        {7, 8, 11, 17, 23, 24, 29, 32, 36, 41, 42, 44, 49, 51, 52, 54, 56, 57, 61, 73,
         75, 79, 82, 84, 89, 92, 94, 96, 97},
        {7, 8, 11, 17, 23, 24, 29, 32, 36, 41, 42, 44, 49, 51, 52, 54, 56, 57, 61, 73,
         75, 79, 82, 84, 89, 92, 94, 96, 97}),
    "sdd-m100-q1": (47, "No", 227, 440, (0, 1, 1, 0, 0, 0), None, None),
    "sdd-m100-q2": (79, "Yes", 896, 3094, (192, 45, 17483, 0, 45, 774),
        {9, 18, 19, 22, 25, 26, 27, 32, 34, 37, 38, 42, 43, 46, 49, 50, 51, 53, 54, 60,
         61, 62, 63, 66, 68, 73, 75, 78, 79, 81, 82, 83, 88, 89, 90, 91, 92, 93, 95, 96,
         97, 98, 99, 100},
        {9, 18, 19, 20, 21, 22, 25, 26, 27, 32, 34, 37, 38, 40, 41, 42, 43, 46, 49, 50,
         51, 53, 54, 55, 60, 61, 62, 63, 65, 66, 68, 73, 74, 75, 76, 78, 79, 81, 82, 83,
         86, 87, 88, 89, 90, 91, 92, 93, 95, 96, 97, 98, 99, 100}),
}


def test_desk_queries_keep_their_outcomes():
    # large witnesses, and the kernel's whole trajectory on the hard No q2
    rows = [line.split() for line in (DESK / "queries.txt").read_text().splitlines()
            if not line.startswith("c")]
    assert sorted(name for name, *_ in rows) == sorted(DESK_GOLDEN)
    for name, classifier, target, _ in rows:
        query = FmpQuery(_desk_classifier(classifier), _desk_instance(name), int(target),
                         "two-step", time_limit_s=10.0)
        out = decide_membership(query)
        got = (int(target), out.answer, out.num_vars, out.num_clauses,
               tuple(out.stats[k] for k in DESK_COUNTERS), out.witness, out.two_step_seed)
        assert got == DESK_GOLDEN[name], name
        assert list(out.stats) == list(DESK_COUNTERS)


# The gates of each desk query's circuit, which both the weak-AXp checks
# and the encoder walk: the gates its output reads through folded live
# terms, with a gate whose only live term is one operand taken as that
# operand.
DESK_CHECK_GATES = {
    "obdd-m100-q0": 1222, "obdd-m100-q1": 1223, "obdd-m100-q2": 1258,
    "obdd-m60-q0": 757, "obdd-m60-q1": 747, "obdd-m60-q2": 747,
    "sdd-m100-q0": 309, "sdd-m100-q1": 127, "sdd-m100-q2": 624,
}


def test_desk_checks_run_on_the_pruned_circuit():
    # replica 0 evaluates every gate once, into one value per slot
    rows = [line.split() for line in (DESK / "queries.txt").read_text().splitlines()
            if not line.startswith("c")]
    for name, classifier, target, _ in rows:
        clf, inst = _desk_classifier(classifier), _desk_instance(name)
        assert F.is_weak_axp(clf, inst, range(1, clf.num_features + 1))
        circuit = clf.circuit_for(inst)
        assert len(circuit.terms) == DESK_CHECK_GATES[name], name
        F.build_encoding(FmpQuery(clf, inst, int(target), "two-step"))
        walked = circuit.store["val"][clf.num_features + 2:]
        assert len(walked) == DESK_CHECK_GATES[name] and None not in walked, name


# Pinned two-step sweeps of every target on one adapter of a small random
# Shannon SDD: (features, node budget, seed) -> one row per target of
# (answer, counters in DESK_COUNTERS order, witness, two-step seed). The
# seed draws the diagram and the instance, of class 1 and 0 here.
SDD_SWEEP_GOLDEN = {
    (14, 80, 3): [
        ("Yes", (9, 0, 278, 0, 0, 0), {1, 4, 6, 9, 14}, {1, 4, 6, 9, 14}),
        ("Yes", (10, 0, 297, 0, 0, 0), {2, 4, 6, 9}, {2, 4, 6, 9}),
        ("Yes", (11, 3, 497, 0, 3, 4), {1, 2, 3, 4, 6, 7, 10, 14}, {1, 2, 3, 4, 6, 7, 10, 14}),
        ("Yes", (10, 0, 231, 0, 0, 0), {2, 4, 6, 9}, {2, 4, 6, 9}),
        ("Yes", (9, 2, 538, 0, 2, 3), {1, 2, 4, 5, 6, 7, 13}, {1, 2, 4, 5, 6, 7, 13}),
        ("Yes", (10, 0, 314, 0, 0, 0), {2, 4, 6, 9}, {2, 4, 6, 9}),
        ("Yes", (9, 2, 537, 0, 2, 3), {1, 2, 4, 5, 6, 7, 13}, {1, 2, 4, 5, 6, 7, 8, 12, 13}),
        ("Yes", (9, 5, 812, 0, 5, 15), {1, 2, 4, 5, 6, 8, 12, 13, 14},
         {1, 2, 4, 5, 6, 8, 10, 12, 13, 14}),
        ("Yes", (10, 0, 341, 0, 0, 0), {2, 4, 6, 9}, {2, 4, 6, 9}),
        ("Yes", (17, 4, 506, 0, 4, 5), {1, 2, 4, 6, 7, 10, 11}, {1, 2, 3, 4, 6, 7, 10, 11}),
        ("Yes", (9, 2, 312, 0, 2, 3), {1, 2, 4, 5, 6, 7, 11}, {1, 2, 4, 5, 6, 7, 11}),
        ("Yes", (14, 5, 1009, 0, 5, 19), {1, 2, 4, 6, 10, 11, 12, 13},
         {1, 2, 4, 5, 6, 10, 11, 12, 13, 14}),
        ("Yes", (9, 2, 408, 0, 2, 3), {1, 2, 4, 5, 6, 7, 13}, {1, 2, 4, 5, 6, 7, 13}),
        ("Yes", (9, 2, 356, 0, 2, 3), {1, 2, 4, 5, 6, 7, 14}, {1, 2, 4, 5, 6, 7, 14}),
    ],
    (18, 150, 8): [
        ("Yes", (8, 0, 177, 0, 0, 0), {1, 4, 5, 6, 9, 12, 13, 14, 16, 17},
         {1, 4, 5, 6, 9, 12, 13, 14, 16, 17}),
        ("Yes", (6, 1, 369, 0, 1, 4), {2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 16, 18},
         {2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 16, 18}),
        ("Yes", (6, 1, 321, 0, 1, 4), {2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 16, 18},
         {2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 16, 18}),
        ("Yes", (7, 0, 178, 0, 0, 0), {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17},
         {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17}),
        ("Yes", (7, 0, 167, 0, 0, 0), {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17},
         {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17}),
        ("Yes", (7, 0, 207, 0, 0, 0), {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17},
         {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17}),
        ("Yes", (6, 1, 345, 0, 1, 4), {2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 16, 18},
         {2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 16, 18}),
        ("Yes", (7, 0, 177, 0, 0, 0), {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17},
         {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17}),
        ("Yes", (7, 0, 193, 0, 0, 0), {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17},
         {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17}),
        ("Yes", (7, 0, 164, 0, 0, 0), {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17},
         {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17}),
        ("No", (5, 6, 286, 0, 5, 7), None, None),
        ("Yes", (7, 0, 161, 0, 0, 0), {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17},
         {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17}),
        ("Yes", (7, 0, 209, 0, 0, 0), {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17},
         {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17}),
        ("Yes", (7, 0, 180, 0, 0, 0), {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17},
         {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17}),
        ("No", (8, 7, 761, 0, 6, 15), None, None),
        ("Yes", (7, 0, 183, 0, 0, 0), {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17},
         {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17}),
        ("Yes", (7, 0, 166, 0, 0, 0), {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17},
         {4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17}),
        ("Yes", (6, 1, 318, 0, 1, 4), {2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 16, 18},
         {2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 16, 18}),
    ],
}


def test_small_sdd_sweeps_keep_their_outcomes():
    for (m, nodes, seed), rows in SDD_SWEEP_GOLDEN.items():
        clf = F.SddClassifier(obdd_to_shannon_sdd(generate_random_obdd(m, nodes, seed)))
        inst = random_instance(clf, np.random.default_rng(seed))
        assert len(rows) == m
        for target, row in enumerate(rows, 1):
            out = decide_membership(FmpQuery(clf, inst, target, "two-step"))
            got = (out.answer, tuple(out.stats[k] for k in DESK_COUNTERS), out.witness,
                   out.two_step_seed)
            assert got == row, (m, nodes, seed, target)


# ------------------------------------------- one circuit per (classifier, instance)

def _ella_adapters(ella_sdd, ella_obdd, ella_xpg, ella_instance):
    """(adapter, instance, its lowering) for each adapter of Ella, the SDD's
    for an instance of each class."""
    ella_dt = F.parse_dt((DATA / "ella.dt").read_text())
    return [(F.SddClassifier(ella_sdd), ella_instance, "_lower_sdd"),
            (F.SddClassifier(ella_sdd), F.Instance((1, 0, 1, 1), 1), "_lower_sdd"),
            (F.ObddClassifier(ella_obdd), ella_instance, "_lower_xpg"),
            (F.DtClassifier(ella_dt), ella_instance, "_lower_xpg"),
            (F.XpgClassifier(ella_xpg), None, "_lower_xpg")]


def test_one_lowering_per_record(ella_sdd, ella_obdd, ella_xpg, ella_instance, monkeypatch):
    # the scan, a two-step and a one-step query and an `fmpsat encode`-style
    # encoding all read the one circuit of the adapter's record
    lowered = []
    for name in ("_lower_sdd", "_lower_xpg"):
        def spy(*args, lower=getattr(explain_mod, name)):
            lowered.append(lower.__name__)
            return lower(*args)
        monkeypatch.setattr(explain_mod, name, spy)
        monkeypatch.setattr(enc, name, spy)
    for clf, inst, lowering in _ella_adapters(ella_sdd, ella_obdd, ella_xpg, ella_instance):
        lowered.clear()
        F.find_axp(clf, inst, range(1, 5))
        for method in ("two-step", "one-step"):
            assert decide_membership(FmpQuery(clf, inst, 3, method)).membership
        F.build_encoding(FmpQuery(clf, inst, 3, "two-step"))
        assert lowered == [lowering], (type(clf).__name__, inst)
    # a second instance on the same adapter is a second record
    clf = F.SddClassifier(ella_sdd)
    lowered.clear()
    for inst in (ella_instance, F.Instance((1, 0, 1, 1), 1), ella_instance):
        decide_membership(FmpQuery(clf, inst, 3))
    assert lowered == ["_lower_sdd", "_lower_sdd"]
    # asking for the diagram or graph alone makes the whole record: it lowers
    # once, its circuit carries that same object, and a query lowers nothing
    for clf, inst, lowering in _ella_adapters(ella_sdd, ella_obdd, ella_xpg, ella_instance):
        name = (type(clf).__name__, inst)
        lowered.clear()
        source = (clf.diagram_for(inst) if isinstance(clf, F.SddClassifier)
                  else clf.xpg_for(inst))
        assert lowered == [lowering], name
        assert clf.circuit_for(inst).source is source, name
        assert decide_membership(FmpQuery(clf, inst, 3)).membership
        assert lowered == [lowering], name


def test_a_checks_only_query_emits_no_replica_0(ella_sdd, ella_obdd, ella_xpg, ella_instance):
    # a weak-AXp test and a witness check read the gates alone; a deletion
    # scan makes the readers too
    checks = [(lambda clf, inst: F.is_weak_axp(clf, inst, {1, 3}), False),
              (lambda clf, inst: clf.circuit_for(inst).outputs_without_each({1, 3}), False),
              (lambda clf, inst: F.find_axp(clf, inst, range(1, 5)), True),
              (lambda clf, inst: F.find_cxp(clf, inst, range(1, 5)), True)]
    for clf, inst, _ in _ella_adapters(ella_sdd, ella_obdd, ella_xpg, ella_instance):
        for check, scans in checks:
            fresh = _fresh(clf)
            check(fresh, inst)
            circuit = fresh.circuit_for(inst)
            assert circuit.store == {}, (type(clf).__name__, inst)
            assert ("readers" in vars(circuit)) == scans, (type(clf).__name__, inst)


def test_the_readers_are_made_on_the_first_scan_or_encoding():
    # the checks that need no readers leave them unmade; the encoding that
    # makes them later keeps the bytes of the pinned desk file
    clf = F.ObddClassifier(F.parse_obdd((DESK / "obdd-m60.obdd").read_text()))
    inst = F.parse_instance((DESK / "obdd-m60-q0.inst").read_text())
    axp = F.find_axp(_fresh(clf), inst, range(1, 61))
    assert F.is_weak_axp(clf, inst, axp)
    fmp_mod._verify_witness(clf, inst, axp, min(axp), math.inf)
    circuit = clf.circuit_for(inst)
    assert "readers" not in vars(circuit)
    cnf, vm, _ = F.build_encoding(FmpQuery(clf, inst, 48, "one-step"))
    digest = hashlib.sha256("".join(enc.iter_dimacs(cnf, vm)).encode()).hexdigest()
    assert digest == (DATA / "obdd-m60-q0-t48-onestep.sha256").read_text().strip()
    assert "readers" in vars(circuit)


def test_outputs_that_fold_to_a_guard_or_a_constant():
    # the OBDD of x1 on two features folds, for either class, through its
    # XpG or its Shannon SDD to guard 1; a bare graph whose one 0-terminal
    # hangs off the root by a 0-edge folds to the root's guard; a constant
    # diagram folds to FALSE. None of them keeps a gate.
    obdd = F.Obdd([xpg_mod.ObddTerminal(0), xpg_mod.ObddTerminal(1), xpg_mod.ObddNode(1, 0, 1)],
                  2, 2)
    points = [F.Instance((v, w), v) for v in (0, 1) for w in (0, 1)]
    cases = [(clf, inst)
             for clf in (F.ObddClassifier(obdd), F.SddClassifier(obdd_to_shannon_sdd(obdd)))
             for inst in points]
    graph = F.XpGraph([xpg_mod.XpgNonTerminal(2), xpg_mod.XpgTerminal(1), xpg_mod.XpgTerminal(0)],
                      [(0, 1, 1), (0, 2, 0)], 0, 3)
    cases.append((F.XpgClassifier(graph), None))
    vtree = F.parse_vtree("vtree 3\nL 0 1\nL 2 2\nI 1 0 2\n")
    cases.append((F.SddClassifier(F.parse_sdd("sdd 1\nF 0\n", vtree)), F.Instance((0, 1), 0)))
    outputs = []
    for clf, inst in cases:
        name = (type(clf).__name__, inst)
        m = clf.num_features
        circuit = clf.circuit_for(inst)
        assert circuit.terms == [], name
        outputs.append(circuit.output)
        axps = F.enumerate_axps_bruteforce(clf, inst)
        cxps = F.enumerate_cxps_bruteforce(clf, inst)
        for t in range(1, m + 1):
            for method in ("one-step", "two-step"):
                out = decide_membership(FmpQuery(clf, inst, t, method))
                assert out.membership == any(t in axp for axp in axps), (name, t, method)
                assert out.witness is None or out.witness in axps, (name, t, method)
        assert F.find_axp(clf, inst, range(1, m + 1)) in axps, name
        if cxps:
            assert F.find_cxp(clf, inst, range(1, m + 1)) in cxps, name
    assert outputs == [1] * 8 + [2, 3]


# ------------------------------------------------- replica 0 kept per instance

def _fresh(clf):
    """An adapter of the same classifier with nothing cached."""
    if isinstance(clf, F.SddClassifier):
        return F.SddClassifier(clf.sdd)
    if isinstance(clf, F.ObddClassifier):
        return F.ObddClassifier(clf.obdd)
    if isinstance(clf, F.DtClassifier):
        return F.DtClassifier(clf.dt)
    return F.XpgClassifier(clf.graph)


def _answer(clf, inst, target, method):
    """The DIMACS text of the query's encoding and everything its outcome pins."""
    query = FmpQuery(clf, inst, target, method)
    cnf, vm, _ = F.build_encoding(query)
    out = decide_membership(query)
    return (F.write_dimacs(cnf, vm), out.membership, out.witness, out.two_step_seed,
            out.num_vars, out.num_clauses, out.stats)


def _sweep_corpus(ella_sdd, ella_obdd, ella_instance):
    ella_dt = F.parse_dt((DATA / "ella.dt").read_text())
    cases = [
        (F.SddClassifier(ella_sdd), ella_instance),
        (F.SddClassifier(ella_sdd), F.Instance((1, 0, 1, 1), 1)),
        (F.ObddClassifier(ella_obdd), ella_instance),
        (F.DtClassifier(ella_dt), ella_instance),
        (F.XpgClassifier(F.build_xpg_from_obdd(ella_obdd, ella_instance)), None),
    ]
    rng = np.random.default_rng(29)
    for trial, m in enumerate((5, 6, 8)):
        obdd = generate_random_obdd(m, 3 * m, seed=700 + trial)
        for clf in (F.ObddClassifier(obdd), F.SddClassifier(obdd_to_shannon_sdd(obdd)),
                    F.DtClassifier(random_dt(rng, m))):
            cases.append((clf, random_instance(clf, rng)))
    return cases


def test_a_sweep_on_one_adapter_matches_a_fresh_adapter_per_query(ella_sdd, ella_obdd,
                                                                  ella_instance):
    # replica 0 is built by the sweep's first query and read by every
    # other: each must still give the bytes and outcome a cold query gives
    methods = ("two-step", "one-step")
    for clf, inst in _sweep_corpus(ella_sdd, ella_obdd, ella_instance):
        m = clf.num_features
        ascending = [(t, method) for method in methods for t in range(1, m + 1)]
        interleaved = [(t, method) for t in range(m, 0, -1)
                       for method in (methods if t % 2 else methods[::-1])]
        cold = {(t, method): _answer(_fresh(clf), inst, t, method) for t, method in ascending}
        for t, method in ascending + interleaved:
            assert _answer(clf, inst, t, method) == cold[t, method], (
                type(clf).__name__, inst, t, method)
        assert clf.circuit_for(inst).store  # the sweep filled it once


def test_a_sweep_packs_replica_0_once(ella_sdd, ella_instance, monkeypatch):
    # and an SDD sweep checks the instance's class once, with the first query
    packed, predicted = Counter(), []
    clean, predict = kernel.clean_clauses, F.SddClassifier.predict

    def recording(num_vars, clauses, *args):
        packed.update(map(id, clauses))
        return clean(num_vars, clauses, *args)

    def counting(clf, point):
        predicted.append(point)
        return predict(clf, point)

    monkeypatch.setattr(kernel, "clean_clauses", recording)
    monkeypatch.setattr(F.SddClassifier, "predict", counting)
    obdd = generate_random_obdd(8, 24, seed=702)
    for clf, inst in ((F.SddClassifier(ella_sdd), ella_instance),
                      (F.SddClassifier(ella_sdd), F.Instance((1, 0, 1, 1), 1)),
                      (F.SddClassifier(obdd_to_shannon_sdd(obdd)), None),
                      (F.ObddClassifier(obdd), None)):
        inst = inst or random_instance(clf, np.random.default_rng(3))
        packed.clear()
        predicted.clear()
        for method in ("two-step", "one-step"):
            for t in range(1, clf.num_features + 1):
                decide_membership(FmpQuery(clf, inst, t, method))
        replica0 = clf.circuit_for(inst).store["cnf"].clauses
        assert replica0 and {packed[id(clause)] for clause in replica0} == {1}
        assert len(predicted) == isinstance(clf, F.SddClassifier)


def test_a_deadline_while_replica_0_is_packed_keeps_no_packing(ella_sdd, ella_instance,
                                                              monkeypatch):
    # the kernel's clock passes the deadline at its first read, which is
    # in the packing of replica 0
    clean = kernel.clean_clauses
    calls = []

    def recording(num_vars, clauses, *args):
        result = clean(num_vars, clauses, *args)
        calls.append((clauses, result))
        return result

    monkeypatch.setattr(kernel, "clean_clauses", recording)
    monkeypatch.setattr(kernel, "time", SimpleNamespace(time=lambda: math.inf))
    clf = F.SddClassifier(ella_sdd)
    with pytest.raises(SolverTimeout, match="solve exceeded its time limit"):
        decide_membership(FmpQuery(clf, ella_instance, 3, "two-step", time_limit_s=60.0))
    base = clf.circuit_for(ella_instance).store["cnf"]
    clauses, result = calls[0]
    assert clauses is base.clauses and result == (kernel.UNKNOWN, None, None)
    assert base.packed is None
    monkeypatch.undo()
    for method in ("two-step", "one-step"):
        assert _answer(clf, ella_instance, 3, method) == _answer(_fresh(clf), ella_instance, 3,
                                                                 method)
    assert base.packed is not None


def test_a_deadline_before_replica_0_leaves_the_store_empty(ella_sdd, ella_obdd, ella_xpg,
                                                            ella_instance, monkeypatch):
    now = [0.0]
    monkeypatch.setattr(errors_mod, "time", SimpleNamespace(time=lambda: now[0]))
    for clf, inst in ((F.SddClassifier(ella_sdd), ella_instance),
                      (F.ObddClassifier(ella_obdd), ella_instance),
                      (F.XpgClassifier(ella_xpg), None)):
        for method in ("two-step", "one-step"):
            now[0] = time.time() + 2.0  # past the query's deadline from the start
            with pytest.raises(SolverTimeout, match="before replica 0$"):
                decide_membership(FmpQuery(clf, inst, 3, method, time_limit_s=1.0))
            assert clf.circuit_for(inst).store == {}
        now[0] = 0.0
        for method in ("two-step", "one-step"):
            assert _answer(clf, inst, 3, method) == _answer(_fresh(clf), inst, 3, method)


def test_a_deadline_during_negation_keeps_no_negated_diagram(ella_sdd, monkeypatch):
    # the clock passes the deadline after negate's first read of it
    reads = []

    def clock():
        reads.append(1)
        return 0.0 if len(reads) == 1 else time.time() + 2.0

    monkeypatch.setattr(errors_mod, "time", SimpleNamespace(time=clock))
    clf = F.SddClassifier(ella_sdd)
    accepted = F.Instance((1, 0, 1, 1), 1)
    with pytest.raises(SolverTimeout, match="negation"):
        decide_membership(FmpQuery(clf, accepted, 3, "two-step", time_limit_s=1.0))
    assert clf._negated is None
    assert accepted not in clf._records
    monkeypatch.undo()
    for method in ("two-step", "one-step"):
        assert _answer(clf, accepted, 3, method) == _answer(_fresh(clf), accepted, 3, method)


# -------------------------------------- the cyclic collector paused per query

@pytest.mark.parametrize("enabled", (True, False))
def test_a_query_leaves_the_collector_as_it_found_it(ella_sdd, ella_instance, tmp_path,
                                                     capsys, enabled):
    clf = F.SddClassifier(ella_sdd)
    mismatched = F.Instance((0, 1, 0, 1), 1)
    queries = [FmpQuery(clf, ella_instance, 3), FmpQuery(clf, ella_instance, 2),
               FmpQuery(clf, ella_instance, 3, "one-step", time_limit_s=1e-9),
               FmpQuery(clf, mismatched, 1)]
    (tmp_path / "mismatched.inst").write_text("v: 0,1,0,1\nc: 1\n")
    ella = ["fmp", "--obdd", str(DATA / "ella.obdd"), "--instance"]
    argvs = [[*ella, str(DATA / "ella.inst"), "--target", "3"],
             [*ella, str(DATA / "ella.inst"), "--target", "2"],
             [*ella, str(DATA / "ella.inst"), "--target", "3", "--time-limit-s", "1e-9"],
             [*ella, str(tmp_path / "mismatched.inst"), "--target", "1"]]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        answers, codes = [], []
        for query in queries:
            try:
                answers.append(decide_membership(query).answer)
            except FmpsatError as exc:
                answers.append(type(exc))
            assert gc.isenabled() == enabled
        for argv in argvs:
            codes.append(cli.main(argv))
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert answers == ["Yes", "No", SolverTimeout, ClassifierError]
    assert codes == [0, 1, 2, 2]
    err = capsys.readouterr().err
    assert "time limit" in err and "predicts 0" in err


def _instance_of_class(clf, label, rng):
    for _ in range(1000):
        inst = random_instance(clf, rng)
        if inst.label == label:
            return inst
    raise AssertionError(f"no instance of class {label} in 1000 draws")


def test_queries_leave_no_cyclic_garbage(ella_sdd, ella_obdd, ella_instance):
    # decide_membership pauses the collector, which loses nothing only while
    # the query path makes no reference cycle: with the collector off, Ella's
    # queries and sweeps on random diagrams of both classes must leave no
    # unreachable object behind
    ella_dt = F.parse_dt((DATA / "ella.dt").read_text())
    accepted = F.Instance((1, 0, 1, 1), 1)
    cases = [(F.SddClassifier(ella_sdd), ella_instance), (F.SddClassifier(ella_sdd), accepted),
             (F.ObddClassifier(ella_obdd), ella_instance), (F.ObddClassifier(ella_obdd), accepted),
             (F.DtClassifier(ella_dt), ella_instance),
             (F.XpgClassifier(F.build_xpg_from_obdd(ella_obdd, ella_instance)), None)]
    rng = np.random.default_rng(43)
    for trial, m in enumerate((6, 8, 10)):
        obdd = generate_random_obdd(m, 3 * m, seed=900 + trial)
        for clf in (F.ObddClassifier(obdd), F.SddClassifier(obdd_to_shannon_sdd(obdd)),
                    F.DtClassifier(random_dt(rng, m))):
            cases += [(clf, _instance_of_class(clf, label, rng)) for label in (0, 1)]
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        answers = Counter()
        for clf, inst in cases:
            for method in ("two-step", "one-step"):
                for t in range(1, clf.num_features + 1):
                    answers[decide_membership(FmpQuery(clf, inst, t, method)).answer] += 1
        unreachable = gc.collect()
    finally:
        if was:
            gc.enable()
    assert unreachable == 0
    assert answers["Yes"] and answers["No"]


def test_cli_subcommands_leave_no_cyclic_garbage(tmp_path, capsys, monkeypatch):
    # the same for the subcommands, once their one cyclic structure, the
    # argparse parser, is out of the way: built once before and kept
    ella = ["--obdd", str(DATA / "ella.obdd"), "--instance", str(DATA / "ella.inst")]
    sdd = ["--sdd", str(DATA / "ella.sdd"), "--vtree", str(DATA / "ella.vtree"),
           "--instance", str(DATA / "ella.inst")]
    argvs = [["fmp", *ella, "--target", "3"],
             ["fmp", *sdd, "--target", "2", "--method", "one-step"],
             ["fmp", *ella, "--target", "3", "--time-limit-s", "1e-9"],
             ["encode", *ella, "--target", "3"],
             ["encode", *sdd, "--target", "1", "--out", str(tmp_path / "query.cnf")],
             ["axp", *sdd], ["cxp", *ella], ["enum", *sdd],
             ["enum", "--xpg", str(DATA / "ella.xpg")]]
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        codes = [cli.main(argv) for argv in argvs]
        unreachable = gc.collect()
    finally:
        if was:
            gc.enable()
    assert codes == [0, 1, 2, 0, 0, 0, 0, 0, 0]
    assert unreachable == 0


class _Cycle:
    """An object that only the cyclic collector can free."""

    def __init__(self):
        self.me = self


def _collector_on(test):
    """Run ``test`` with the collector enabled, and leave it as it was."""
    was = gc.isenabled()
    gc.enable()
    try:
        return test()
    finally:
        if not was:
            gc.disable()


def test_a_query_promotes_its_survivors_unwalked():
    # the first young collection after a query would walk every object the
    # query left alive (~30k here); the query leaves them in the oldest
    # generation, and no young collection has run since it started
    clf = F.ObddClassifier(F.parse_obdd((DESK / "obdd-m100.obdd").read_text()))
    inst = F.parse_instance((DESK / "obdd-m100-q1.inst").read_text())
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    def query():
        gc.callbacks.append(record)
        try:
            decide_membership(FmpQuery(clf, inst, 31))
            circuit = clf.circuit_for(inst)
            return any(o is circuit for o in gc.get_objects(2))
        finally:
            gc.callbacks.remove(record)

    assert _collector_on(query)
    assert 0 not in started, started


def test_queries_reclaim_the_callers_young_garbage(ella_obdd_clf, ella_instance):
    # promoting at exit alone would move the caller's young cycles to the
    # oldest generation too, which promotion never schedules a collection
    # of; the collection at entry frees them first
    alive = weakref.WeakSet()

    def queries():
        for _ in range(2000):
            alive.add(_Cycle())
            decide_membership(FmpQuery(ella_obdd_clf, ella_instance, 3))

    _collector_on(queries)
    assert len(alive) <= 1


def test_cli_calls_leave_no_parser(capsys):
    argv = ["axp", "--obdd", str(DATA / "ella.obdd"), "--instance", str(DATA / "ella.inst")]

    def calls():
        gc.collect()  # parsers earlier tests left for a full collection
        return {cli.main(argv) for _ in range(300)}

    assert _collector_on(calls) == {0}
    assert not [o for o in gc.get_objects()
                if isinstance(o, argparse.ArgumentParser) and o.prog.startswith("fmpsat")]


def test_a_query_keeps_the_callers_frozen_objects(ella_obdd_clf, ella_instance):
    def frozen_query():
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            decide_membership(FmpQuery(ella_obdd_clf, ella_instance, 3))
            return frozen, gc.get_freeze_count()
        finally:
            gc.unfreeze()

    frozen, after = _collector_on(frozen_query)
    assert after == frozen > 0


def test_a_query_leaves_a_disabled_collectors_generations_alone(ella_obdd_clf, ella_instance):
    was = gc.isenabled()
    gc.disable()
    try:
        garbage = weakref.ref(_Cycle())
        young = _Cycle()
        older, frozen = gc.get_count()[1:], gc.get_freeze_count()
        decide_membership(FmpQuery(ella_obdd_clf, ella_instance, 3))
        assert garbage() is not None  # nothing collected
        assert any(o is young for o in gc.get_objects(0))  # nothing promoted
        assert (gc.get_count()[1:], gc.get_freeze_count()) == (older, frozen)
    finally:
        if was:
            gc.enable()


# Pinned outcomes of fixed-seed queries, keyed by the (kind, m, node budget,
# seed) of generate_random_classifier: (instance values, target, method,
# membership, witness, two-step seed, num_vars, num_clauses, pre-negated).
# Every Yes target here lies in two or more AXps, so a search change that
# returns another model shows up as another witness.
GOLDEN = {
    ("obdd", 10, 40, 5): [
        ("0100000010", 7, "one-step", False, None, None, 79, 312, False),
        ("0100000010", 7, "two-step", False, None, None, 36, 111, False),
        ("1110011100", 6, "one-step", True, {1, 5, 6, 7, 9, 10}, None, 96, 445, False),
        ("1110011100", 6, "two-step", True, {1, 5, 6, 7, 9, 10}, {1, 5, 6, 7, 9, 10}, 27, 85, False),
        ("0111011010", 4, "one-step", True, {1, 3, 4, 5, 6, 7, 8, 9}, None, 87, 358, False),
        ("0111011010", 4, "two-step", True, {1, 3, 4, 5, 6, 7, 8, 9}, {1, 3, 4, 5, 6, 7, 8, 9}, 35, 109, False),
        ("1101011010", 3, "one-step", True, {3, 6, 9, 10}, None, 100, 402, False),
        ("1101011010", 3, "two-step", True, {3, 6, 9, 10}, {3, 6, 9, 10}, 38, 124, False),
        ("0100010100", 6, "one-step", True, {1, 5, 6, 7, 8, 10}, None, 130, 519, False),
        ("0100010100", 6, "two-step", True, {1, 5, 6, 7, 8, 10}, {1, 5, 6, 7, 8, 10}, 35, 104, False),
    ],
    ("shannon-sdd", 10, 40, 6): [
        ("1011011001", 1, "one-step", False, None, None, 83, 275, False),
        ("1011011001", 1, "two-step", False, None, None, 49, 147, False),
        ("1001001001", 9, "one-step", True, {2, 4, 6, 7, 8, 9, 10}, None, 40, 114, False),
        ("1001001001", 9, "two-step", True, {2, 4, 6, 7, 8, 9, 10}, {2, 4, 6, 7, 8, 9, 10}, 23, 46, False),
        ("0000110101", 10, "one-step", True, {1, 2, 5, 6, 8, 9, 10}, None, 53, 159, False),
        ("0000110101", 10, "two-step", True, {1, 2, 5, 6, 8, 9, 10}, {1, 2, 5, 6, 8, 9, 10}, 32, 78, False),
        ("1110111111", 2, "one-step", True, {2, 7, 8, 9, 10}, None, 130, 455, True),
        ("1110111111", 2, "two-step", True, {2, 7, 8, 9, 10}, {2, 7, 8, 9, 10}, 47, 140, True),
        ("0001110111", 2, "one-step", False, None, None, 69, 218, True),
        ("0001110111", 2, "two-step", False, None, None, 43, 121, True),
        ("1100111100", 8, "one-step", True, {1, 2, 6, 7, 8, 10}, None, 67, 207, True),
        ("1100111100", 8, "two-step", True, {1, 2, 6, 7, 8, 10}, {1, 2, 6, 7, 8, 10}, 27, 62, True),
    ],
}


def test_golden_answers_and_witnesses():
    for (kind, m, budget, seed), rows in GOLDEN.items():
        clf = generate_random_classifier(kind, m, budget, seed=seed)
        for text, target, method, member, witness, two_step_seed, n_vars, n_cls, negated in rows:
            values = tuple(int(ch) for ch in text)
            inst = F.Instance(values, clf.predict(values))
            out = decide_membership(FmpQuery(clf, inst, target, method))
            got = (out.membership, out.witness, out.two_step_seed,
                   out.num_vars, out.num_clauses, out.pre_negated)
            assert got == (member, witness, two_step_seed, n_vars, n_cls, negated), (
                kind, text, target, method)


# -------------------------------------------------------------- generators

def test_generator_deterministic():
    a = generate_random_obdd(6, 20, seed=7)
    b = generate_random_obdd(6, 20, seed=7)
    assert F.serialize_obdd(a) == F.serialize_obdd(b)
    sa = obdd_to_shannon_sdd(a)
    sb = obdd_to_shannon_sdd(b)
    assert F.serialize_sdd(sa) == F.serialize_sdd(sb)


def test_generator_nonconstant_and_reachable():
    for seed in range(20):
        obdd = generate_random_obdd(5, 15, seed=seed)
        labels = obdd.reachable_labels()
        assert labels == {0, 1}


def test_generator_budget_too_small():
    with pytest.raises(ClassifierError, match="budget"):
        generate_random_obdd(4, 2, seed=0)


def test_shannon_twin_agrees_everywhere():
    for seed in (1, 2, 3):
        m = 4 + seed
        obdd = generate_random_obdd(m, 18, seed=seed)
        sdd = obdd_to_shannon_sdd(obdd)
        for point in product((0, 1), repeat=m):
            assert int(F.evaluate(sdd, point)) == obdd.predict(point)


def test_shannon_twin_partition_property():
    # primes of every decision node are a literal and its negation, so
    # exactly one holds under any assignment; spot-check semantically
    obdd = generate_random_obdd(6, 20, seed=11)
    sdd = obdd_to_shannon_sdd(obdd)
    from fmpsat.sdd import SddDecision, SddLiteral

    for node in sdd.nodes:
        if isinstance(node, SddDecision):
            primes = [sdd.nodes[p] for p, _ in node.elements]
            assert all(isinstance(p, SddLiteral) for p in primes)
            assert {p.positive for p in primes} == {True, False}
            assert len({p.var for p in primes}) == 1


def test_sdd_and_xpg_routes_agree_from_same_obdd():
    rng = np.random.default_rng(31)
    for trial in range(6):
        m = int(rng.integers(3, 8))
        obdd = generate_random_obdd(m, 16, seed=60 + trial)
        oclf = F.ObddClassifier(obdd)
        sclf = F.SddClassifier(obdd_to_shannon_sdd(obdd))
        inst = random_instance(oclf, rng)
        for t in range(1, m + 1):
            a = decide_membership(FmpQuery(oclf, inst, t, "two-step")).membership
            b = decide_membership(FmpQuery(sclf, inst, t, "two-step")).membership
            assert a == b


# ------------------------------------------------------------------ batch

def _small_batch(method_list, seed=5, queries=10, time_limit_s=None):
    rng = np.random.default_rng(seed)
    clf = generate_random_classifier("obdd", 6, 20, seed=seed)
    picks = [
        (random_instance(clf, rng), int(rng.integers(1, 7))) for _ in range(queries)
    ]
    out = []
    for method in method_list:
        for inst, t in picks:
            out.append(BatchQuery("toy", FmpQuery(clf, inst, t, method,
                                                  time_limit_s=time_limit_s)))
    return out


def test_batch_rows_and_header():
    sink = io.StringIO()
    rows = batch_run(_small_batch(["one-step", "two-step"]), sink)
    text = sink.getvalue().splitlines()
    assert text[0] == "name,m,nodes,method,yes_pct,avg_vars,avg_cls,max_s,avg_s,timeouts"
    assert len(rows) == 2
    one, two = rows
    assert one[3] == "one-step" and two[3] == "two-step"
    # method agreement shows up as identical yes percentages
    assert one[4] == two[4]
    assert int(one[9]) == 0 and int(two[9]) == 0


def test_batch_no_timeouts_on_tiny_inputs():
    sink = io.StringIO()
    rows = batch_run(_small_batch(["two-step"], queries=100, time_limit_s=30.0), sink)
    assert rows[0][9] == "0"


def test_batch_timeout_handling():
    # a zero budget times out every query but the batch still completes
    sink = io.StringIO()
    rows = batch_run(_small_batch(["two-step"], queries=3, time_limit_s=0.0), sink)
    assert rows[0][9] == "3"


@pytest.mark.parametrize("time_limit_s", [30.0, 0.0])
def test_batch_builds_each_instance_once_in_any_order(time_limit_s, monkeypatch):
    # method-major order asks every instance twice, far apart; the graph is
    # built once per instance and released after its last query, timed out
    # or not
    queries = _small_batch(["one-step", "two-step"], time_limit_s=time_limit_s)
    clf = queries[0].query.classifier
    built = []
    build = type(clf)._source

    def counting(self, instance, deadline):
        built.append(instance)
        return build(self, instance, deadline)

    monkeypatch.setattr(type(clf), "_source", counting)
    batch_run(queries, io.StringIO())
    assert len(built) == len(set(built)) == len({q.query.instance for q in queries})
    assert not clf._records


def test_batch_requires_queries():
    with pytest.raises(ClassifierError, match="at least one"):
        batch_run([], io.StringIO())
