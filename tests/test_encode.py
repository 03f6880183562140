"""CNF construction: clausification, the worked running example, and
exhaustive faithfulness checks against the diagram predicates."""

import math
import re
import tracemalloc
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmpsat as F
from fmpsat import encode as enc
from fmpsat import errors as errors_mod
from fmpsat import explain as explain_mod
from fmpsat import sdd as sdd_mod
from fmpsat.encode import (
    DIMACS_BLOCK_LINES,
    CnfFormula,
    encode_sdd_onestep,
    encode_sdd_twostep,
    encode_xpg_onestep,
    encode_xpg_twostep,
    iter_dimacs,
    write_dimacs,
)
from fmpsat.errors import EncodingError, SolverTimeout
from fmpsat.explain import Instance
from fmpsat.batch import (
    generate_random_obdd,
    obdd_to_shannon_sdd,
    random_instance,
)
from fmpsat.sat import solve

import pins
from random_graphs import random_dt, random_xpg
from sdd_builder import balanced_vtree, compile_sdd, random_function

DATA = Path(__file__).parent / "data"


# ------------------------------------------------------------- clause sets

def test_add_empty_clause_rejected():
    cnf = CnfFormula(num_vars=1)
    with pytest.raises(EncodingError, match="empty clause"):
        cnf.add([])


# --------------------------------------------------------------- DIMACS

def test_dimacs_empty():
    assert write_dimacs(CnfFormula()) == "p cnf 0 0\n"


def test_dimacs_single_clause():
    cnf = CnfFormula(num_vars=2, clauses=[[1, -2]])
    assert write_dimacs(cnf) == "p cnf 2 1\n1 -2 0\n"


def test_dimacs_golden_file(ella_xpg):
    # the graph file encodes as the command line encodes its OBDD
    cnf, vm = encode_xpg_onestep(ella_xpg, 3)
    assert write_dimacs(cnf, vm) == pins.ella_dimacs()["ella_xpg_onestep_t3.cnf"]


def test_dimacs_golden_negated_sdd(ella_sdd_clf):
    # class 1 is lowered in negated polarity; the legend names n_ variables
    query = F.FmpQuery(ella_sdd_clf, Instance((1, 0, 1, 1), 1), 3, method="two-step")
    cnf, vm = F.build_encoding(query)
    assert write_dimacs(cnf, vm) == pins.ella_dimacs()["ella_sdd_negated_twostep_t3.cnf"]


@pytest.fixture(scope="module")
def multiblock_encoding():
    """One-step encoding of a random m=30 OBDD: several blocks of legend and clause lines."""
    obdd = generate_random_obdd(30, 900, seed=5)
    clf = F.ObddClassifier(obdd)
    cnf, vm = encode_xpg_onestep(clf.xpg_for(random_instance(clf, np.random.default_rng(5))), 1)
    assert cnf.num_vars > 2 * DIMACS_BLOCK_LINES
    assert cnf.num_clauses > 2 * DIMACS_BLOCK_LINES
    return cnf, vm


def test_streamed_dimacs_matches_line_by_line_text(multiblock_encoding, tmp_path):
    cnf, vm = multiblock_encoding
    # the text built line by line, with no blocks to get wrong
    m = vm.num_features
    names = [f"s_{i}" for i in range(1, m + 1)] + [
        f"n_{k}_{j}" if i < 0 else f"e_{k}_{j}_{i}" for k, j, i in zip(*[iter(vm._roles)] * 3)]
    lines = [f"c map {var} {name}" for var, name in enumerate(names, start=1)]
    assert len(lines) == cnf.num_vars
    lines.append(f"p cnf {cnf.num_vars} {cnf.num_clauses}")
    lines += [" ".join(map(str, clause)) + " 0" for clause in cnf.clauses]
    expected = "\n".join(lines) + "\n"

    blocks = list(iter_dimacs(cnf, vm))
    assert all(block.endswith("\n") for block in blocks)
    assert max(block.count("\n") for block in blocks) == DIMACS_BLOCK_LINES
    path = tmp_path / "streamed.cnf"
    with open(path, "w") as sink:
        sink.writelines(iter_dimacs(cnf, vm))
    assert path.read_text() == expected
    assert write_dimacs(cnf, vm) == expected


def test_streaming_dimacs_holds_a_fraction_of_the_text(multiblock_encoding, tmp_path):
    cnf, vm = multiblock_encoding
    size = len(write_dimacs(cnf, vm))
    with open(tmp_path / "streamed.cnf", "w") as sink:
        tracemalloc.start()
        try:
            sink.writelines(iter_dimacs(cnf, vm))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < size / 2, (peak, size)


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_clause_lines_match_joined_literals(data):
    # one format string per clause length, made on first use, writes what
    # joining the literals writes, for lengths and literals no encoder makes,
    # and for clauses given as the encoders' tuples or as lists
    literal = st.integers(1, 10**6).flatmap(lambda v: st.sampled_from((v, -v)))
    clause = st.lists(literal, min_size=1, max_size=200).flatmap(
        lambda lits: st.sampled_from((lits, tuple(lits))))
    clauses = data.draw(st.lists(clause, max_size=30))
    m = data.draw(st.integers(0, 5))
    cnf = CnfFormula(m)  # the selectors
    vm = F.VarMap(m)
    # the writer does not compare literals with num_vars, and a small one
    # keeps the legend short
    cnf.num_vars += data.draw(st.integers(0, 5))
    for clause in clauses:
        cnf.add(clause)
    block_lines = data.draw(st.integers(1, 8))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enc, "DIMACS_BLOCK_LINES", block_lines)
        blocks = list(iter_dimacs(cnf, vm))
    expected = "".join(vm.legend(cnf.num_vars)) + f"p cnf {cnf.num_vars} {len(clauses)}\n"
    expected += "".join(" ".join(map(str, clause)) + " 0\n" for clause in clauses)
    assert "".join(blocks) == expected
    assert all(block.endswith("\n") and block.count("\n") <= block_lines for block in blocks)


@pytest.mark.parametrize("kind, label", [("sdd", 0), ("sdd", 1), ("obdd", 0), ("dt", 0)],
                         ids=["sdd-class-0", "sdd-class-1", "obdd", "dt"])
def test_a_bad_target_is_refused_before_any_work(ella_sdd, ella_obdd, kind, label):
    # the target is checked before the adapter builds or lowers anything
    clf = {"sdd": lambda: F.SddClassifier(ella_sdd),
           "obdd": lambda: F.ObddClassifier(ella_obdd),
           "dt": lambda: F.DtClassifier(F.parse_dt((DATA / "ella.dt").read_text()))}[kind]()
    inst = Instance((1, 0, 1, 1), 1) if label else Instance((0, 1, 0, 1), 0)
    assert clf.predict(inst.values) == label
    for method in ("two-step", "one-step"):
        with pytest.raises(EncodingError, match="target feature 9 outside 1..4"):
            F.build_encoding(F.FmpQuery(clf, inst, 9, method))
        assert clf._records == {}


def test_deadline_is_read_before_each_replica(ella_xpg, ella_sdd, ella_instance, monkeypatch):
    emitted = []
    now = [0.0]
    emit = enc._emit_replica

    def spy(*args):
        emitted.append(args)
        now[0] = 2.0  # the clock passes the deadline while the replica is emitted
        return emit(*args)

    monkeypatch.setattr(enc, "_emit_replica", spy)
    monkeypatch.setattr(errors_mod, "time", SimpleNamespace(time=lambda: now[0]))
    for encode in (
        lambda: encode_xpg_onestep(ella_xpg, 3, deadline=1.0),
        lambda: encode_sdd_twostep(ella_sdd, ella_instance, 3, deadline=1.0),
    ):
        emitted.clear()
        now[0] = 0.0
        with pytest.raises(SolverTimeout, match="time limit before replica [13]$"):
            encode()
        assert len(emitted) == 1  # replica 0, and the deadline stopped the next
        # a deadline that has passed already stops the encoder before replica 0
        emitted.clear()
        with pytest.raises(SolverTimeout, match="time limit before replica 0$"):
            encode()
        assert emitted == []


def test_encoders_emit_only_named_variables_in_range():
    # CnfFormula.add does not look at literals, and solvers reject a literal
    # outside 1..num_vars: every encoder must emit only variables it allocated
    # through its VarMap, each with a role name in the DIMACS legend
    rng = np.random.default_rng(17)
    for trial in range(10):
        m = int(rng.integers(3, 8))
        obdd = generate_random_obdd(m, 18, seed=800 + trial)
        clf = F.ObddClassifier(obdd)
        inst = random_instance(clf, rng)
        graph = clf.xpg_for(inst)
        sdd = obdd_to_shannon_sdd(obdd)
        for t in range(1, m + 1):
            for cnf, vm in (
                encode_xpg_onestep(graph, t),
                encode_xpg_twostep(graph, t),
                encode_sdd_onestep(sdd, inst, t),
                encode_sdd_twostep(sdd, inst, t),
            ):
                n = cnf.num_vars
                assert all(0 < abs(lit) <= n for clause in cnf.clauses for lit in clause)
                legend = [line.split() for line in write_dimacs(cnf, vm).splitlines()
                          if line.startswith("c map ")]
                assert [int(fields[2]) for fields in legend] == list(range(1, n + 1))
                names = [fields[3] for fields in legend]
                assert len(set(names)) == n
                assert not any(re.fullmatch(r"v\d+", name) for name in names)


def test_dimacs_deterministic(ella_xpg, ella_sdd):
    a1, vm1 = encode_xpg_onestep(ella_xpg, 3)
    a2, vm2 = encode_xpg_onestep(ella_xpg, 3)
    assert write_dimacs(a1, vm1) == write_dimacs(a2, vm2)
    inst = Instance((0, 1, 0, 1), 0)
    b1, wm1 = encode_sdd_twostep(ella_sdd, inst, 3)
    b2, wm2 = encode_sdd_twostep(ella_sdd, inst, 3)
    assert write_dimacs(b1, wm1) == write_dimacs(b2, wm2)


# ------------------------------------------- running example, SDD encoding

def _tied(clauses, s, value):
    """Whether the clauses state s <-> value, a literal or a folded constant."""
    if value in ("T", "F"):
        return ((s if value == "T" else -s),) in clauses
    return tuple(sorted((-s, value))) in clauses and tuple(sorted((s, -value))) in clauses


def _legend(cnf, vm):
    """name -> variable, from the DIMACS legend."""
    return {fields[3]: int(fields[2]) for fields in map(str.split, write_dimacs(cnf, vm).splitlines())
            if fields[:2] == ["c", "map"]}


def test_sdd_onestep_worked_example_groups(ella_sdd, ella_instance):
    cnf, vm = encode_sdd_onestep(ella_sdd, ella_instance, 3)
    clauses = {tuple(sorted(c)) for c in map(tuple, cnf.clauses)}
    names = _legend(cnf, vm)
    # the root, arena node 12, is the output; replica 0 asserts the
    # prediction stays rejected and pins the target
    assert vm.outputs[0] == names["n_0_12"]
    assert (-vm.outputs[0],) in clauses
    assert (vm.sel(3),) in clauses
    # node 9 has the elements (P, Y) and (not P, FALSE); the instance
    # falsifies P and satisfies Y, so in replica 0 the node reduces to
    # "P not selected" and gets no variable: -s_1 stands for it in the
    # root's disjunction, beside node 10 (its one live element, P and
    # not Y, both falsified: -s_1 AND -s_2) and node 11's -s_3
    assert not [name for name in names if name == "n_0_9" or name.startswith("e_0_9_")]
    root0 = (-names["n_0_12"], -vm.sel(1), names["n_0_10"], -vm.sel(3))
    assert tuple(sorted(root0)) in clauses
    # replica 1 frees P, which makes node 9, and with it the root, TRUE
    assert vm.outputs[1] == "T"
    # every selected feature is tied to its replica's output
    for i in range(1, 5):
        assert _tied(clauses, vm.sel(i), vm.outputs[i])


def test_sdd_onestep_solves_to_pm(ella_sdd, ella_instance):
    cnf, vm = encode_sdd_onestep(ella_sdd, ella_instance, 3)
    result = solve(cnf)
    assert result.satisfiable
    assert vm.selected_features(result) == {1, 3}


def test_sdd_onestep_unsat_for_y(ella_sdd, ella_instance):
    cnf, _ = encode_sdd_onestep(ella_sdd, ella_instance, 2)
    assert not solve(cnf).satisfiable


def test_sdd_twostep_prop_contract(ella_sdd, ella_sdd_clf, ella_instance):
    cnf, vm = encode_sdd_twostep(ella_sdd, ella_instance, 3)
    result = solve(cnf)
    assert result.satisfiable
    selected = vm.selected_features(result)
    assert 3 in selected
    assert F.is_weak_axp(ella_sdd_clf, ella_instance, selected)
    assert not F.is_weak_axp(ella_sdd_clf, ella_instance, selected - {3})


def test_sdd_twostep_unsat_for_y(ella_sdd, ella_instance):
    cnf, _ = encode_sdd_twostep(ella_sdd, ella_instance, 2)
    assert not solve(cnf).satisfiable


def test_sdd_twostep_smaller(ella_sdd, ella_instance):
    one, _ = encode_sdd_onestep(ella_sdd, ella_instance, 3)
    two, _ = encode_sdd_twostep(ella_sdd, ella_instance, 3)
    assert two.num_clauses < one.num_clauses


def test_sdd_encoding_takes_either_class(ella_sdd):
    # a class-1 instance is lowered in negated polarity, as an adapter's is
    inst = Instance((1, 0, 1, 1), 1)
    for encode, method in ((encode_sdd_onestep, "one-step"), (encode_sdd_twostep, "two-step")):
        cnf, vm = encode(ella_sdd, inst, 3)
        query = F.FmpQuery(F.SddClassifier(ella_sdd), inst, 3, method)
        assert write_dimacs(cnf, vm) == write_dimacs(*F.build_encoding(query))


def test_sdd_encoding_rejects_bad_target(ella_sdd, ella_instance):
    with pytest.raises(EncodingError, match="outside"):
        encode_sdd_onestep(ella_sdd, ella_instance, 5)


def test_sdd_encoding_rejects_wrong_evaluation(ella_sdd):
    # declares class 0 but the diagram accepts this point, and the other way round
    inst = Instance((1, 1, 0, 0), 0)
    with pytest.raises(EncodingError, match="evaluates to 1"):
        encode_sdd_twostep(ella_sdd, inst, 1)
    with pytest.raises(EncodingError, match="declares class 1 but the diagram evaluates to 0"):
        encode_sdd_twostep(ella_sdd, Instance((0, 1, 0, 1), 1), 1)


# ------------------------------------------- running example, XpG encoding

def test_xpg_onestep_worked_example_groups(ella_xpg):
    cnf, vm = encode_xpg_onestep(ella_xpg, 3)
    clauses = {tuple(sorted(c)) for c in map(tuple, cnf.clauses)}
    names = _legend(cnf, vm)
    # the output is "some 0-terminal is reached"; replica 0 asserts it is
    # not and pins the target
    assert (-vm.outputs[0],) in clauses
    assert (vm.sel(3),) in clauses
    # the root is reached in every replica: TRUE, with no variable
    assert not [name for name in names if name.endswith(f"_{ella_xpg.root}")]
    # each selector is tied to its replica's output
    for k in range(1, 5):
        assert _tied(clauses, vm.sel(k), vm.outputs[k])
    w_node = next(
        j for j, n in enumerate(ella_xpg.nodes)
        if isinstance(n, F.xpg.XpgNonTerminal) and n.var == 4
    )
    # in replica 0 the W node is reached over the M node's 0-labelled
    # edge only while M is not selected: -s_3 stands in its disjunction
    assert tuple(sorted((names[f"n_0_{w_node}"], vm.sel(3)))) in clauses
    # in replica 3 that edge passes without a guard, so the W node reads
    # the M node's value itself, TRUE as M lies on the instance's path:
    # replica 3 defines no variable and its output is TRUE
    assert not [name for name in names if name.startswith(("n_3_", "e_3_"))]
    assert vm.outputs[3] == "T"


def test_xpg_onestep_solves_to_pm(ella_xpg):
    cnf, vm = encode_xpg_onestep(ella_xpg, 3)
    result = solve(cnf)
    assert result.satisfiable
    assert vm.selected_features(result) == {1, 3}


def test_xpg_onestep_unsat_for_w(ella_xpg):
    cnf, _ = encode_xpg_onestep(ella_xpg, 4)
    assert not solve(cnf).satisfiable


def test_xpg_twostep_contract(ella_xpg, ella_obdd_clf, ella_instance):
    cnf, vm = encode_xpg_twostep(ella_xpg, 3)
    result = solve(cnf)
    assert result.satisfiable
    selected = vm.selected_features(result)
    assert F.is_weak_axp(ella_obdd_clf, ella_instance, selected)
    assert not F.is_weak_axp(ella_obdd_clf, ella_instance, selected - {3})


def test_xpg_twostep_unsat_for_y(ella_xpg):
    cnf, _ = encode_xpg_twostep(ella_xpg, 2)
    assert not solve(cnf).satisfiable


def test_xpg_twostep_variable_count(ella_xpg):
    m = ella_xpg.num_features
    # replica 0: the W node ORs -s_3 (its guarded edge from M, which is
    # TRUE) with the term Y AND -s_2, and the 0-terminal ORs Y's value -s_1
    # with W; M, Y and the output (the 0-terminal itself) need no
    # variable, and neither does the term, whose literals enter the W
    # node's clauses directly: two gates
    replica0 = 2
    w_node = next(
        j for j, n in enumerate(ella_xpg.nodes)
        if isinstance(n, F.xpg.XpgNonTerminal) and n.var == 4
    )
    # replica t re-defines only gates with an operand it changed, and keeps
    # replica 0's value for every term whose operands are unchanged:
    # - t=3 frees M, so W, the 0-terminal and the output fold to TRUE;
    # - t=2 frees Y: W ORs the kept -s_3 with Y's -s_1, and the 0-terminal
    #   is re-defined on it;
    # - t=1 frees P: Y is TRUE, so W is -s_3 OR -s_2, and the 0-terminal
    #   and the output are TRUE
    for t, redefined in ((3, 0), (2, 2), (1, 1)):
        cnf, vm = encode_xpg_twostep(ella_xpg, t)
        assert cnf.num_vars == m + replica0 + redefined, t
        names = _legend(cnf, vm)
        # W -> (-s_3 OR (-s_1 AND -s_2)), written as its product
        clauses = {tuple(sorted(c)) for c in cnf.clauses}
        w = names[f"n_0_{w_node}"]
        for y in (vm.sel(1), vm.sel(2)):
            assert tuple(sorted((-w, -vm.sel(3), -y))) in clauses
        assert not [name for name in names if name.startswith("e_0_")]
        assert len([name for name in names if name.startswith(f"n_{t}_")]) == redefined
        assert not [name for name in names if name.startswith(f"e_{t}_")]


# --------------------------------------------------- faithfulness, small m

def _force_selection(cnf, vm, features, m):
    """A copy of the formula with unit clauses fixing every selector."""
    forced = cnf.copy()
    forced.clauses += [(vm.sel(i) if i in features else -vm.sel(i),) for i in range(1, m + 1)]
    return forced


def test_replica_zero_matches_weak_predicate():
    # for every selector assignment, satisfiability of the encoding with
    # the minimality constraints dropped must match the weak-AXp test;
    # checked here through the two-step encoding by asserting selectors
    rng = np.random.default_rng(3)
    for trial in range(6):
        m = int(rng.integers(3, 7))
        obdd = generate_random_obdd(m, 14, seed=400 + trial)
        oclf = F.ObddClassifier(obdd)
        inst = random_instance(oclf, rng)
        graph = oclf.xpg_for(inst)
        sdd = obdd_to_shannon_sdd(obdd)
        for t in range(1, m + 1):
            xc, xv = encode_xpg_twostep(graph, t)
            sc, sv = encode_sdd_twostep(sdd, inst, t)
            for bits in product((0, 1), repeat=m):
                X = frozenset(i + 1 for i in range(m) if bits[i])
                if t not in X:
                    continue  # target selector is hard-wired true
                weak = F.is_weak_axp(oclf, inst, X)
                weak_drop = F.is_weak_axp(oclf, inst, X - {t})
                expect = weak and not weak_drop
                got_x = solve(_force_selection(xc, xv, X, m)).satisfiable
                got_s = solve(_force_selection(sc, sv, X, m)).satisfiable
                assert got_x == expect
                assert got_s == expect


def test_onestep_models_decode_to_axps():
    rng = np.random.default_rng(9)
    for trial in range(8):
        m = int(rng.integers(3, 8))
        obdd = generate_random_obdd(m, 16, seed=500 + trial)
        clf = F.ObddClassifier(obdd)
        inst = random_instance(clf, rng)
        graph = clf.xpg_for(inst)
        axps = F.enumerate_axps_bruteforce(clf, inst)
        members = {i for a in axps for i in a}
        for t in range(1, m + 1):
            cnf, vm = encode_xpg_onestep(graph, t)
            result = solve(cnf)
            assert result.satisfiable == (t in members)
            if result.satisfiable:
                decoded = vm.selected_features(result)
                assert decoded in axps
                assert t in decoded


def test_onestep_and_twostep_verdicts_agree():
    rng = np.random.default_rng(13)
    for trial in range(8):
        m = int(rng.integers(3, 8))
        obdd = generate_random_obdd(m, 16, seed=700 + trial)
        clf = F.ObddClassifier(obdd)
        inst = random_instance(clf, rng)
        graph = clf.xpg_for(inst)
        for t in range(1, m + 1):
            one, _ = encode_xpg_onestep(graph, t)
            two, _ = encode_xpg_twostep(graph, t)
            assert solve(one).satisfiable == solve(two).satisfiable


# ------------------------------------------------ selector projections

def _weak_by_mask(predict, domains, instance):
    """weak[s]: fixing the features of mask s (bit i-1 for feature i) to the
    instance's values keeps its class, by enumerating every point."""
    m = len(domains)
    values = instance.values
    # broken[f]: some point that differs from the instance only on the free
    # set f, or on a part of it, has another class
    broken = [False] * (1 << m)
    for point in product(*domains):
        if predict(point) != instance.label:
            broken[sum(1 << i for i in range(m) if point[i] != values[i])] = True
    for i in range(m):
        for f in range(1 << m):
            if f >> i & 1 and broken[f ^ 1 << i]:
                broken[f] = True
    full = (1 << m) - 1
    return [not broken[full ^ s] for s in range(1 << m)]


# Feature 2 is tested twice on a path: by node 1, whose 0-labelled edge
# enters node 2, and by node 2, whose 0-labelled edge reaches the
# 0-terminal. Replica 2 re-defines node 2 through its edge from node 1
# and keeps replica 0's value (-s_3) for its edge from node 3; losing
# that term would reject the two-step selection {1, 2} for target 2,
# which is weak and is not weak without feature 2.
_TWICE_TESTED_XPG = """xpg 3 6
N 0 1
N 1 2
N 2 2
N 3 3
T 4 1
T 5 0
E 0 3 1
E 0 1 0
E 3 4 1
E 3 2 0
E 1 4 1
E 1 2 0
E 2 4 1
E 2 5 0
"""


def _graph_case(graph):
    """A bare graph judged by its own activation semantics."""
    m = graph.num_features
    weak = [F.evaluate_sigma(graph, [s >> i & 1 for i in range(m)]) for s in range(1 << m)]
    return F.XpgClassifier(graph), None, weak


def _projection_corpus(ella_obdd, ella_sdd):
    """(classifier, instance, weak) triples, where weak[s] tells whether fixing
    the features of mask s (bit i-1 for feature i) keeps the class: both
    classes on every classifier route, the bare Ella graph (whose truth is
    Ella's OBDD) and graphs that are not read-once."""
    ella_dt = F.parse_dt((DATA / "ella.dt").read_text())
    ella_xpg = F.parse_xpg((DATA / "ella.xpg").read_text())
    boolean = [(0, 1)] * 4
    cases = [
        (clf, inst, _weak_by_mask(clf.predict, boolean, inst))
        for clf in (F.ObddClassifier(ella_obdd), F.SddClassifier(ella_sdd), F.DtClassifier(ella_dt))
        for inst in (Instance((0, 1, 0, 1), 0), Instance((1, 0, 1, 1), 1))
    ]
    inst = Instance((0, 1, 0, 1), 0)
    cases.append((F.XpgClassifier(ella_xpg), inst, _weak_by_mask(ella_obdd.predict, boolean, inst)))
    cases.append(_graph_case(F.parse_xpg(_TWICE_TESTED_XPG)))
    rng = np.random.default_rng(61)
    for trial, m in enumerate((5, 6, 7)):
        obdd = generate_random_obdd(m, 3 * m, seed=900 + trial)
        dt = random_dt(rng, m)
        truth = random_function(rng, m)
        boolean = [(0, 1)] * m
        for clf, domains in (
            (F.ObddClassifier(obdd), boolean),
            (F.SddClassifier(obdd_to_shannon_sdd(obdd)), boolean),
            (F.DtClassifier(dt), [dt.domains[i] for i in range(1, m + 1)]),
            (F.SddClassifier(compile_sdd(balanced_vtree(m), truth)), boolean),
        ):
            for _ in range(2):
                inst = random_instance(clf, rng)
                cases.append((clf, inst, _weak_by_mask(clf.predict, domains, inst)))
        for _ in range(2):
            cases.append(_graph_case(random_xpg(rng, m, 2 * m)))
    return cases


def test_selector_projection_matches_the_definitions(ella_obdd, ella_sdd):
    # every encoding, with unit clauses fixing all selectors, is satisfiable
    # exactly when the selection meets its method's condition: one-step, an
    # AXp containing t; two-step, a weak AXp containing t whose removal of t
    # is not weak
    for clf, inst, weak in _projection_corpus(ella_obdd, ella_sdd):
        m = clf.num_features
        axp = [weak[s] and not any(s >> i & 1 and weak[s ^ 1 << i] for i in range(m))
               for s in range(1 << m)]
        for t in range(1, m + 1):
            bit = 1 << (t - 1)
            for method in ("one-step", "two-step"):
                cnf, vm = F.build_encoding(F.FmpQuery(clf, inst, t, method))
                for s in range(1 << m):
                    if method == "one-step":
                        want = bool(s & bit) and axp[s]
                    else:
                        want = bool(s & bit) and weak[s] and not weak[s ^ bit]
                    selection = {i for i in range(1, m + 1) if s >> (i - 1) & 1}
                    got = solve(_force_selection(cnf, vm, selection, m)).satisfiable
                    assert got == want, (type(clf).__name__, inst, t, method, s)


# ---------------------------------------------------------- constant folding

def _folding_corpus():
    """(lowered circuit, m) of random OBDD and DT explanation graphs and
    of Shannon and compiled SDDs, m <= 8, for an instance of each class."""
    rng = np.random.default_rng(31)
    for trial in range(4):
        m = int(rng.integers(3, 9))
        obdd = generate_random_obdd(m, 4 * m, seed=1500 + trial)
        classifiers = (F.ObddClassifier(obdd), F.DtClassifier(random_dt(rng, m)),
                       F.SddClassifier(obdd_to_shannon_sdd(obdd)),
                       F.SddClassifier(compile_sdd(balanced_vtree(m), random_function(rng, m))))
        for clf in classifiers:
            instances = {}
            while len(instances) < 2:
                inst = random_instance(clf, rng)
                instances.setdefault(inst.label, inst)
            for inst in instances.values():
                if isinstance(clf, F.SddClassifier):
                    yield explain_mod._lower_sdd(clf.sdd, inst.values, inst.label == 1), m
                else:
                    yield explain_mod._lower_xpg(clf.xpg_for(inst)), m


def test_folded_constants_hold_in_every_replica_and_selection():
    # a gate's value over all 2^m selections is one bitmask, bit s for the
    # selection s: guard i is set where s leaves feature i free, and in
    # replica k guard k is set everywhere
    for (gates, order), m in _folding_corpus():
        circuit = explain_mod._Circuit(gates, order, m)
        first = m + 2  # TRUE at slot 0, guard i at i, FALSE at m + 1
        every = (1 << (1 << m)) - 1
        free = [sum(1 << s for s in range(1 << m) if not s >> i & 1) for i in range(m)]
        for terms in circuit.terms:
            # a gate of one operand is that operand, and no live operand is FALSE
            assert len(terms) > 1 or 0 not in terms[0]
            assert all(0 <= o < first + len(circuit.terms) and o != m + 1
                       for pair in terms for o in pair)
        for k in range(m + 1):
            guards = [every if i == k else free[i - 1] for i in range(1, m + 1)]
            # operand -i reads guard i, as in the lowering
            value = [0] * len(gates) + guards[::-1]
            for j in order:
                for term in gates[j]:
                    conjunction = every
                    for o in term:
                        conjunction &= value[o]
                    value[j] |= conjunction
            slots = [every, *guards, 0] + [0] * len(circuit.terms)
            for g, terms in enumerate(circuit.terms):
                for a, b in terms:
                    assert slots[a] and slots[b], (k, circuit.ids[g])
                    slots[first + g] |= slots[a] & slots[b]
                assert slots[first + g] == value[circuit.ids[g]], (k, circuit.ids[g])
            assert slots[circuit.output] == value[order[-1]], k
            if k == 0:
                weak = [not value[order[-1]] >> s & 1 for s in range(1 << m)]
        # the checks read the same slots: selection s is weak when its bit is clear
        for s in range(1 << m):
            selection = [i for i in range(1, m + 1) if s >> (i - 1) & 1]
            assert circuit.is_weak(selection) == weak[s], s
            bits = circuit.outputs_without_each(selection)
            assert (not bits & 1) == weak[s], s
            for j, i in enumerate(selection, start=1):
                assert (not bits >> j & 1) == weak[s & ~(1 << (i - 1))], (s, i)


def _unread(cnf, vm, replicas):
    """The gate and term variables of the given replicas that no later
    definition and no output constraint reads.

    A definition's clauses are the ones whose largest variable is the
    one it defines, since its operands come before it; every other
    variable of such a clause is read by it.
    """
    m = vm.num_features
    read = {abs(o) for o in vm.outputs.values() if isinstance(o, int)}
    for clause in cnf.clauses:
        top = max(map(abs, clause))
        read.update(abs(lit) for lit in clause if abs(lit) != top)
    return [v for v in range(m + 1, cnf.num_vars + 1)
            if vm._roles[3 * (v - m - 1)] in replicas and v not in read]


def _definition_corpus(ella_sdd, ella_obdd, ella_instance):
    """(name, adapter, instance, targets): Ella and random Shannon and
    balanced-vtree SDDs, each with an instance of either class."""
    for inst in (ella_instance, Instance((1, 0, 1, 1), 1)):
        for clf in (F.SddClassifier(ella_sdd), F.ObddClassifier(ella_obdd)):
            yield f"ella-{type(clf).__name__}-{inst.label}", clf, inst, range(1, 5)
    rng = np.random.default_rng(41)
    for trial in range(4):
        m = int(rng.integers(5, 10))
        obdd = generate_random_obdd(m, 4 * m, seed=1600 + trial)
        for kind, sdd in (("shannon", obdd_to_shannon_sdd(obdd)),
                          ("balanced", compile_sdd(balanced_vtree(m), random_function(rng, m)))):
            clf = F.SddClassifier(sdd)
            instances = {}
            while len(instances) < 2:
                inst = random_instance(clf, rng)
                instances.setdefault(inst.label, inst)
            for inst in instances.values():
                yield f"{kind}-m{m}-{trial}-{inst.label}", clf, inst, range(1, m + 1)


def test_every_definition_is_read(ella_sdd, ella_obdd, ella_instance):
    # replica 0 defines only what the output reads; a replica k >= 1 may
    # still define a gate whose every reader freeing feature k makes TRUE
    for name, clf, inst, targets in _definition_corpus(ella_sdd, ella_obdd, ella_instance):
        circuit = clf.circuit_for(inst)
        for t in targets:
            for method in ("two-step", "one-step"):
                cnf, vm = F.build_encoding(F.FmpQuery(clf, inst, t, method))
                m = vm.num_features
                for v in _unread(cnf, vm, range(m + 1)):
                    k, j, i = vm._roles[3 * (v - m - 1):3 * (v - m)]
                    assert k and i == -1, (name, t, method, v)
                    # every reader is TRUE with feature k free and the others pinned
                    true = circuit.evaluate([f == k for f in range(1, m + 1)])
                    slot = m + 2 + circuit.ids.index(j)
                    assert all(true[r] for r, _ in circuit.readers[slot]), (name, t, method, v)
    # on the desk's two-step formulas that leaves nothing unread
    desk = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "desk"
    vtree = F.parse_vtree((desk / "sdd-m100.vtree").read_text())
    clf = F.SddClassifier(F.parse_sdd((desk / "sdd-m100.sdd").read_text(), vtree))
    for query, t in (("sdd-m100-q0", 8), ("sdd-m100-q2", 79)):
        inst = F.parse_instance((desk / f"{query}.inst").read_text())
        cnf, vm = F.build_encoding(F.FmpQuery(clf, inst, t, "two-step"))
        assert _unread(cnf, vm, {0, t}) == [], query


# ----------------------------------------------------------- byte stability

@pytest.mark.pins("encoding-digests")
def test_encodings_keep_their_bytes():
    assert pins.encoding_digests() == pins.load()["encoding-digests"]


# ---------------------------------------------------------------- lowering

def test_lowered_terms_have_at_most_two_operands():
    rng = np.random.default_rng(23)
    for trial in range(8):
        m = int(rng.integers(4, 12))
        obdd = generate_random_obdd(m, 6 * m, seed=1400 + trial)
        truth = random_function(rng, m)
        classifiers = (F.ObddClassifier(obdd), F.DtClassifier(random_dt(rng, m)),
                       F.SddClassifier(obdd_to_shannon_sdd(obdd)),
                       F.SddClassifier(compile_sdd(balanced_vtree(m), truth)))
        for clf in classifiers:
            inst = random_instance(clf, rng)
            if isinstance(clf, F.SddClassifier):
                gates, _ = explain_mod._lower_sdd(clf.sdd, inst.values, inst.label == 1)
            else:
                gates, _ = explain_mod._lower_xpg(clf.xpg_for(inst))
            assert max(len(term) for terms in gates for term in terms) <= 2


def _negation_corpus(ella_sdd):
    """(diagram, points): Ella at every point, the desk's m=100 SDD at its
    class-1 queries' instances and random points, and random Shannon and
    balanced-vtree SDDs at random points."""
    rng = np.random.default_rng(41)
    yield ella_sdd, list(product((0, 1), repeat=4))
    desk = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "desk"
    vtree = F.parse_vtree((desk / "sdd-m100.vtree").read_text())
    points = [F.parse_instance((desk / f"sdd-m100-{q}.inst").read_text()).values
              for q in ("q0", "q2")]
    points += [tuple(int(v) for v in rng.integers(0, 2, 100)) for _ in range(8)]
    yield F.parse_sdd((desk / "sdd-m100.sdd").read_text(), vtree), points
    for trial in range(6):
        m = int(rng.integers(3, 10))
        for sdd in (obdd_to_shannon_sdd(generate_random_obdd(m, 5 * m, seed=1600 + trial)),
                    compile_sdd(balanced_vtree(m), random_function(rng, m))):
            yield sdd, [tuple(int(v) for v in rng.integers(0, 2, m)) for _ in range(6)]


def test_the_negated_lowering_is_the_lowering_of_negate(ella_sdd):
    # sdd.negate is the reference: lowering a diagram in negated polarity
    # gives the gates of its negation, term for term and numbered alike
    for sdd, points in _negation_corpus(ella_sdd):
        negated = sdd_mod.negate(sdd)
        for values in points:
            assert (explain_mod._lower_sdd(sdd, values, True)
                    == explain_mod._lower_sdd(negated, values, False))


def test_a_lowered_term_of_three_operands_is_refused():
    # gate 0 is the AND of the three guards, and the output
    with pytest.raises(EncodingError, match="more than two operands"):
        explain_mod._Circuit([[(-1, -2, -3)]], [0], 3)
