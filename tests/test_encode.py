"""CNF construction: clausification, the worked running example, and
exhaustive faithfulness checks against the diagram predicates."""

import re
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import fmpsat as F
from fmpsat import sdd as sdd_mod
from fmpsat.encode import (
    DIMACS_BLOCK_LINES,
    CnfFormula,
    clausify_eq_and,
    clausify_eq_or,
    encode_sdd_onestep,
    encode_sdd_twostep,
    encode_xpg_onestep,
    encode_xpg_twostep,
    iter_dimacs,
    write_dimacs,
)
from fmpsat.errors import EncodingError
from fmpsat.explain import Instance
from fmpsat.batch import generate_random_obdd, obdd_to_shannon_sdd, random_instance
from fmpsat.sat import solve

from sdd_builder import balanced_vtree, compile_sdd, random_function

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------- clausification

def test_eq_or_single_literal():
    cnf = CnfFormula(num_vars=2)
    clausify_eq_or(cnf, 1, [2])
    assert cnf.clauses == [[-1, 2], [1, -2]]


def test_eq_and_two_literals():
    cnf = CnfFormula(num_vars=3)
    clausify_eq_and(cnf, 1, [2, 3])
    assert cnf.clauses == [[-1, 2], [-1, 3], [1, -2, -3]]


def test_eq_or_empty_rejected():
    cnf = CnfFormula(num_vars=1)
    with pytest.raises(EncodingError, match="empty"):
        clausify_eq_or(cnf, 1, [])


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
    cnf, vm = encode_xpg_onestep(ella_xpg, 3)
    assert write_dimacs(cnf, vm) == (DATA / "ella_xpg_onestep_t3.cnf").read_text()


def test_dimacs_golden_negated_sdd(ella_sdd_clf):
    # class 1 goes through the negated diagram; the legend names n_ and e_ variables
    query = F.FmpQuery(ella_sdd_clf, Instance((1, 0, 1, 1), 1), 3, method="two-step")
    cnf, vm, pre_negated = F.build_encoding(query)
    assert pre_negated
    assert write_dimacs(cnf, vm) == (DATA / "ella_sdd_negated_twostep_t3.cnf").read_text()


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
    lines = [f"c map {var} {name}" for var, name in (
        [(v, f"s_{i}") for i, v in enumerate(vm._sel, start=1)]
        + [(v, f"n_{k}_{j}") for (k, j), v in vm._node.items()]
        + [(v, f"sigma_{k}") for k, v in vm._sigma.items()]
        + [(v, f"aux_{i}") for i, v in enumerate(vm._aux, start=1)]
    )]
    assert len(lines) == cnf.num_vars
    lines.sort(key=lambda line: int(line.split()[2]))
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


def test_dimacs_legend_names_variables_outside_the_varmap():
    cnf = CnfFormula()
    vm = F.VarMap(1)
    vm.allocate_selectors(cnf)
    cnf.new_var()
    vm.add_aux(cnf)
    cnf.new_var()
    cnf.add([1, 2, -3, 4])
    assert write_dimacs(cnf, vm) == (
        "c map 1 s_1\nc map 2 v2\nc map 3 aux_1\nc map 4 v4\np cnf 4 1\n1 2 -3 4 0\n"
    )


def test_sdd_target_is_checked_before_negation(ella_sdd, monkeypatch):
    clf = F.SddClassifier(ella_sdd)

    def no_negation(sdd):
        raise AssertionError("negated the diagram for an out-of-range target")

    monkeypatch.setattr(sdd_mod, "negate", no_negation)
    query = F.FmpQuery(clf, Instance((1, 0, 1, 1), 1), 9, method="two-step")
    with pytest.raises(EncodingError, match="target feature 9 outside 1..4"):
        F.build_encoding(query)


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
        diagram = F.SddClassifier(obdd_to_shannon_sdd(obdd)).diagram_for(inst)
        inst0 = Instance(inst.values, 0)
        for t in range(1, m + 1):
            for cnf, vm in (
                encode_xpg_onestep(graph, t),
                encode_xpg_twostep(graph, t),
                encode_sdd_onestep(diagram, inst0, t),
                encode_sdd_twostep(diagram, inst0, t),
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

def test_sdd_onestep_worked_example_groups(ella_sdd, ella_instance):
    cnf, vm = encode_sdd_onestep(ella_sdd, ella_instance, 3)
    clauses = {tuple(sorted(c)) for c in map(tuple, cnf.clauses)}
    root = ella_sdd.root  # arena node 12, the top decision node
    # replica 0 asserts the prediction stays rejected and pins the target
    assert (-vm.node(0, root),) in clauses
    assert (vm.sel(3),) in clauses
    # replica 1 frees feature P, so the (P, Y) element of the P-and-Y
    # decision node becomes unconditionally consistent
    assert (vm.element(1, 9, 0),) in clauses
    # in replica 0 the same element reduces to "P not selected"
    e = vm.element(0, 9, 0)
    assert (-e, -vm.sel(1)) in clauses or (-vm.sel(1), -e) in clauses
    assert tuple(sorted((e, vm.sel(1)))) in clauses
    # every selected feature is tied to its replica root
    for i in range(1, 5):
        s, n = vm.sel(i), vm.node(i, root)
        assert tuple(sorted((-s, n))) in clauses
        assert tuple(sorted((s, -n))) in clauses


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


def test_sdd_encoding_rejects_class_one(ella_sdd):
    inst = Instance((1, 1, 0, 0), 1)
    with pytest.raises(EncodingError, match="negate the diagram"):
        encode_sdd_onestep(ella_sdd, inst, 1)


def test_sdd_encoding_rejects_bad_target(ella_sdd, ella_instance):
    with pytest.raises(EncodingError, match="outside"):
        encode_sdd_onestep(ella_sdd, ella_instance, 5)


def test_sdd_encoding_rejects_wrong_evaluation(ella_sdd):
    # declares class 0 but the diagram accepts this point
    inst = Instance((1, 1, 0, 0), 0)
    with pytest.raises(EncodingError, match="evaluates to 1"):
        encode_sdd_twostep(ella_sdd, inst, 1)


# ------------------------------------------- running example, XpG encoding

def test_xpg_onestep_worked_example_groups(ella_xpg):
    cnf, vm = encode_xpg_onestep(ella_xpg, 3)
    clauses = {tuple(sorted(c)) for c in map(tuple, cnf.clauses)}
    # group 0 asserts the evaluation stays 1 and pins the target
    assert (vm.sigma(0),) in clauses
    assert (vm.sel(3),) in clauses
    # every replica activates its root
    for k in range(5):
        assert (vm.node(k, ella_xpg.root),) in clauses
    # group 3 ties the selector to its replica's evaluation
    s, sig = vm.sel(3), vm.sigma(3)
    assert tuple(sorted((-s, -sig))) in clauses
    assert tuple(sorted((s, sig))) in clauses
    # in replica 3 the 0-labeled edge out of the M node passes
    # unconditionally: the W node's disjunction mentions the M node's
    # activation directly
    m_node = next(
        j for j, n in enumerate(ella_xpg.nodes)
        if isinstance(n, F.xpg.XpgNonTerminal) and n.var == 3
    )
    w_node = next(
        j for j, n in enumerate(ella_xpg.nodes)
        if isinstance(n, F.xpg.XpgNonTerminal) and n.var == 4
    )
    assert tuple(sorted((vm.node(3, w_node), -vm.node(3, m_node)))) in clauses


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
    cnf, vm = encode_xpg_twostep(ella_xpg, 3)
    m = ella_xpg.num_features
    replica_nodes = len(ella_xpg.nodes) - 1  # the 1-terminal carries no var
    # replica 3 re-defines only the nodes below the M node's 0-labelled
    # edge: the W node and the 0-terminal
    redefined = 2
    aux = len(vm._aux)
    # selectors + replica-0 nodes + the replica-3 nodes that differ
    # + two evaluation indicators + aux
    assert cnf.num_vars == m + replica_nodes + redefined + 2 + aux
    # the W node has two guarded in-edges in replica 0 but only one in
    # replica 3, where the M edge passes unconditionally
    assert aux == 3


# --------------------------------------------------- faithfulness, small m

def _force_selection(cnf, vm, features, m):
    assumptions = []
    for i in range(1, m + 1):
        var = vm.sel(i)
        assumptions.append(var if i in features else -var)
    return assumptions


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
        sclf = F.SddClassifier(sdd)
        diagram = sclf.diagram_for(inst)
        inst0 = Instance(inst.values, 0)
        for t in range(1, m + 1):
            xc, xv = encode_xpg_twostep(graph, t)
            sc, sv = encode_sdd_twostep(diagram, inst0, t)
            for bits in product((0, 1), repeat=m):
                X = frozenset(i + 1 for i in range(m) if bits[i])
                if t not in X:
                    continue  # target selector is hard-wired true
                weak = F.is_weak_axp(oclf, inst, X)
                weak_drop = F.is_weak_axp(oclf, inst, X - {t})
                expect = weak and not weak_drop
                got_x = solve(xc, assumptions=_force_selection(xc, xv, X, m)).satisfiable
                got_s = solve(sc, assumptions=_force_selection(sc, sv, X, m)).satisfiable
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


def _random_dt(rng, m):
    """A random tree over features 1..m; feature 1 has domain {0, 1, 2}."""
    domains = {i: (0, 1, 2) if i == 1 else (0, 1) for i in range(1, m + 1)}
    nodes, edges = [], []

    def grow(free, depth):
        j = len(nodes)
        if not free or depth == 0 or rng.random() < 0.2:
            nodes.append(F.xpg.DtLeaf(int(rng.integers(2))))
            return j
        var = int(rng.choice(free))
        nodes.append(F.xpg.DtInternal(var))
        rest = [f for f in free if f != var]
        for value in domains[var]:
            edges.append((j, grow(rest, depth - 1), frozenset({value})))
        return j

    while True:
        nodes.clear()
        edges.clear()
        grow(list(range(1, m + 1)), 4)
        dt = F.xpg.DecisionTree(list(nodes), list(edges), 0, domains)
        if dt.leaf_labels() == {0, 1}:
            return dt


def _projection_corpus(ella_obdd, ella_sdd):
    """(classifier, feature domains, instance) triples, both classes on every route."""
    ella_dt = F.parse_dt((DATA / "ella.dt").read_text())
    boolean = [(0, 1)] * 4
    cases = [
        (clf, boolean, inst)
        for clf in (F.ObddClassifier(ella_obdd), F.SddClassifier(ella_sdd), F.DtClassifier(ella_dt))
        for inst in (Instance((0, 1, 0, 1), 0), Instance((1, 0, 1, 1), 1))
    ]
    rng = np.random.default_rng(61)
    for trial, m in enumerate((5, 6, 7)):
        obdd = generate_random_obdd(m, 3 * m, seed=900 + trial)
        dt = _random_dt(rng, m)
        truth = random_function(rng, m)
        boolean = [(0, 1)] * m
        for clf, domains in (
            (F.ObddClassifier(obdd), boolean),
            (F.SddClassifier(obdd_to_shannon_sdd(obdd)), boolean),
            (F.DtClassifier(dt), [dt.domains[i] for i in range(1, m + 1)]),
            (F.SddClassifier(compile_sdd(balanced_vtree(m), truth)), boolean),
        ):
            for _ in range(2):
                cases.append((clf, domains, random_instance(clf, rng)))
    return cases


def test_selector_projection_matches_the_definitions(ella_obdd, ella_sdd):
    # every encoding, under assumptions fixing all selectors, is satisfiable
    # exactly when the selection meets its method's condition: one-step, an
    # AXp containing t; two-step, a weak AXp containing t whose removal of t
    # is not weak
    for clf, domains, inst in _projection_corpus(ella_obdd, ella_sdd):
        m = len(domains)
        weak = _weak_by_mask(clf.predict, domains, inst)
        axp = [weak[s] and not any(s >> i & 1 and weak[s ^ 1 << i] for i in range(m))
               for s in range(1 << m)]
        for t in range(1, m + 1):
            bit = 1 << (t - 1)
            for method in ("one-step", "two-step"):
                cnf, vm, _ = F.build_encoding(F.FmpQuery(clf, inst, t, method))
                for s in range(1 << m):
                    if method == "one-step":
                        want = bool(s & bit) and axp[s]
                    else:
                        want = bool(s & bit) and weak[s] and not weak[s ^ bit]
                    fixed = [vm.sel(i) if s >> (i - 1) & 1 else -vm.sel(i)
                             for i in range(1, m + 1)]
                    got = solve(cnf, assumptions=fixed).satisfiable
                    assert got == want, (type(clf).__name__, inst, t, method, s)
