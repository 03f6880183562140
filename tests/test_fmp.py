"""Membership decisions, witness extraction, generators, and batches."""

import argparse
import gc
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
import pins
from random_graphs import chain_xpg, random_dt

DATA = Path(__file__).parent / "data"


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
    # an accepted applicant: P=1, Y=1 makes the conjunction hold; the
    # diagram itself is lowered in negated polarity
    inst = F.Instance((1, 1, 0, 0), 1)
    axps = F.enumerate_axps_bruteforce(ella_sdd_clf, inst)
    members = {i for a in axps for i in a}
    for t in range(1, 5):
        outcome = decide_membership(FmpQuery(ella_sdd_clf, inst, t, "two-step"))
        assert outcome.membership == (t in members)
    assert ella_sdd_clf.circuit_for(inst).source is ella_sdd_clf.sdd


def test_literal_root_sdd():
    # the whole classifier is the single literal x1
    vtree = F.parse_vtree("L 0 1\n")
    sdd = F.parse_sdd("L 0 0 1\n", vtree)
    clf = F.SddClassifier(sdd)
    inst = F.Instance((0,), 0)
    for method in ("one-step", "two-step"):
        outcome = decide_membership(FmpQuery(clf, inst, 1, method))
        assert outcome.membership and outcome.witness == {1}
    # the accepted point is lowered in negated polarity: the root negated
    accepted = F.Instance((1,), 1)
    outcome = decide_membership(FmpQuery(clf, accepted, 1, "two-step"))
    assert outcome.membership and outcome.witness == {1}


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
    # desk query obdd-m60-q2: a witness of most of its 60 features
    clf, inst = pins.desk_classifier("obdd-m60"), pins.desk_instance("obdd-m60-q2")
    passes.clear()
    witness = decide_membership(FmpQuery(clf, inst, 37, "two-step")).witness
    assert passes == two_step
    # its one-step search takes seconds, so a crafted model selects the same
    # witness and the query re-checks it
    monkeypatch.setattr(fmp_mod, "solve", lambda cnf, deadline=math.inf: SatResult(
        True, [False] + [i in witness for i in range(1, cnf.num_vars + 1)]))
    passes.clear()
    assert decide_membership(FmpQuery(clf, inst, 37, "one-step")).witness == witness
    assert passes == ["outputs_without_each"]


@pytest.mark.pins("desk")
def test_desk_queries_keep_their_outcomes():
    # large witnesses, and the kernel's whole trajectory on the hard No q2
    got = pins.desk()
    assert got == pins.load()["desk"]
    assert all(list(row["counters"]) == list(kernel._counters()) for row in got.values())


def test_desk_checks_run_on_the_pruned_circuit():
    # replica 0 evaluates every gate of the circuit once, into one value per slot
    for name, classifier, target in pins.desk_queries():
        clf, inst = pins.desk_classifier(classifier), pins.desk_instance(name)
        assert F.is_weak_axp(clf, inst, range(1, clf.num_features + 1))
        circuit = clf.circuit_for(inst)
        F.build_encoding(FmpQuery(clf, inst, target, "two-step"))
        walked = circuit.store["val"][clf.num_features + 2:]
        assert len(walked) == len(circuit.terms) and None not in walked, name


@pytest.mark.pins("sdd-sweeps")
def test_small_sdd_sweeps_keep_their_outcomes():
    assert pins.sdd_sweeps() == pins.load()["sdd-sweeps"]


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
    # asking for the graph or the circuit alone makes the whole record: it
    # lowers once, its circuit carries the graph, or the adapter's own
    # diagram for either class, and a query lowers nothing
    for clf, inst, lowering in _ella_adapters(ella_sdd, ella_obdd, ella_xpg, ella_instance):
        name = (type(clf).__name__, inst)
        lowered.clear()
        source = (clf.circuit_for(inst).source if isinstance(clf, F.SddClassifier)
                  else clf.xpg_for(inst))
        assert lowered == [lowering], name
        assert clf.circuit_for(inst).source is source, name
        if isinstance(clf, F.SddClassifier):
            assert source is clf.sdd, name
        assert decide_membership(FmpQuery(clf, inst, 3)).membership
        assert lowered == [lowering], name
    # a public encoder called without a circuit lowers through a throwaway
    # record of its own, the same lowering
    lowered.clear()
    enc.encode_sdd_twostep(ella_sdd, ella_instance, 3)
    enc.encode_xpg_onestep(ella_xpg, 3)
    assert lowered == ["_lower_sdd", "_lower_xpg"]


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
    # makes them later has the bytes of a fresh adapter's
    clf = pins.desk_classifier("obdd-m60")
    inst = pins.desk_instance("obdd-m60-q0")
    axp = F.find_axp(_fresh(clf), inst, range(1, 61))
    assert F.is_weak_axp(clf, inst, axp)
    fmp_mod._verify_witness(clf, inst, axp, min(axp), math.inf)
    circuit = clf.circuit_for(inst)
    assert "readers" not in vars(circuit)
    texts = []
    for adapter in (clf, _fresh(clf)):
        cnf, vm = F.build_encoding(FmpQuery(adapter, inst, 48, "one-step"))
        texts.append("".join(enc.iter_dimacs(cnf, vm)))
    assert texts[0] == texts[1]
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
    cnf, vm = F.build_encoding(query)
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


def test_a_deadline_passing_during_the_lowering_keeps_no_record(ella_sdd, monkeypatch):
    # the clock passes the deadline after the negated lowering's first read of it
    reads = []

    def clock():
        reads.append(1)
        return 0.0 if len(reads) == 1 else time.time() + 2.0

    monkeypatch.setattr(errors_mod, "time", SimpleNamespace(time=clock))
    clf = F.SddClassifier(ella_sdd)
    accepted = F.Instance((1, 0, 1, 1), 1)
    with pytest.raises(SolverTimeout, match="SDD lowering exceeded its time limit"):
        decide_membership(FmpQuery(clf, accepted, 3, "two-step", time_limit_s=1.0))
    assert len(reads) == 2 and clf._records == {}
    # a public encoder's throwaway record reads its deadline alike
    reads.clear()
    with pytest.raises(SolverTimeout, match="SDD lowering exceeded its time limit"):
        enc.encode_sdd_onestep(ella_sdd, accepted, 3, deadline=1.0)
    assert len(reads) == 2
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
    clf = pins.desk_classifier("obdd-m100")
    inst = pins.desk_instance("obdd-m100-q1")
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


@pytest.mark.pins("golden")
def test_golden_answers_and_witnesses():
    assert pins.golden() == pins.load()["golden"]


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

    def counting(self, instance):
        built.append(instance)
        return build(self, instance)

    monkeypatch.setattr(type(clf), "_source", counting)
    batch_run(queries, io.StringIO())
    assert len(built) == len(set(built)) == len({q.query.instance for q in queries})
    assert not clf._records


def test_batch_requires_queries():
    with pytest.raises(ClassifierError, match="at least one"):
        batch_run([], io.StringIO())
